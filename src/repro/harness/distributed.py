"""Cross-machine sharded sweeps: ``repro worker`` + the sweep coordinator.

This is the remote runner beside :class:`repro.harness.parallel._PoolRunner`
— the ROADMAP's "refactor that unlocks millions-of-users sweep volume".
Every ingredient already existed; this module only wires them together:

* **Workers** are any running repro service
  (:class:`repro.serve.server.ReproService`; ``repro worker`` is that
  service with worker defaults, ``repro serve`` works just as well).  Its
  ``POST /batch`` route accepts a :func:`repro.api.encode_request_batch`
  payload — the same versioned request wire forms ``/simulate`` speaks —
  executes it through :func:`repro.harness.parallel.run_jobs` with the
  full retry / timeout / chaos stack, and answers one outcome row per job
  plus the shard's sweep statistics and ledger row.
* **The coordinator** (:func:`run_distributed`, behind ``repro sweep
  --workers-at``) partitions the job list by content-addressed cache key
  (:class:`repro.harness.parallel.ShardPlan`), dispatches shard chunks to
  the workers, streams per-job outcomes into the *existing* append-only
  manifest as they arrive (so ``repro sweep --resume`` works across
  machines unchanged), merges results and ledger rows with dedup by cache
  key, and re-dispatches chunks lost to dead or unreachable workers onto
  healthy ones under the existing :class:`~repro.harness.parallel
  .RetryPolicy`.

Exactness: a job's seed lives in its ``RunConfig`` and results are
bit-identical wherever they execute, so a sharded sweep returns — by
construction — exactly what the single-machine sweep returns, whatever the
roster, chunking or failure history (asserted over the golden matrix by
``tests/test_distributed.py`` and the CI ``distributed-smoke`` job).  See
docs/DISTRIBUTED.md.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.api import (
    BATCH_SCHEMA,
    OUTCOME_SCHEMA,
    AnyRequest,
    MultiTenantRequest,
    _decode_cached_result,
    encode_request_batch,
)
from repro.gpu.gpu import SimulationResult
from repro.harness.breaker import CircuitBreaker
from repro.harness.cache import ResultCache
from repro.harness.integrity import audit_selected, canonical_json, result_digest
from repro.harness.ledger import append_entry, merge_ledger_entries, record_sweep
from repro.harness.manifest import ManifestEntry, append_outcome, scan_manifest
from repro.harness.parallel import (
    AUTO_CACHE,
    ON_ERROR_MODES,
    JobFailure,
    RetryPolicy,
    ShardPlan,
    SweepError,
    SweepOutcome,
    SweepStats,
    _execute,
    _resolved_backends,
    parse_positive_int,
)
from repro.serve.http import http_request
from repro.version import __version__

#: Jobs per dispatch chunk: the unit one HTTP round trip carries and the
#: most a lost worker forfeits.  Small enough that re-dispatch is cheap,
#: large enough to amortise the wire overhead.
DEFAULT_CHUNK_SIZE = 4

#: Fallback HTTP read timeout (seconds) when no policy deadline is set.  A
#: *dead* worker surfaces as an immediate connection error; this bound only
#: catches a worker that accepted a chunk and then hung.
DEFAULT_REQUEST_TIMEOUT = 600.0

#: Ceiling on a worker circuit breaker's probe backoff: an open worker is
#: re-probed at least this often, so a restarted worker rejoins quickly
#: however long it was down.
PROBE_MAX_SECONDS = 2.0


# ---------------------------------------------------------------------------
# Worker rosters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerRef:
    """One worker endpoint of a distributed sweep roster."""

    host: str
    port: int

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"


def parse_workers_at(text: str, *, what: str = "--workers-at") -> tuple[WorkerRef, ...]:
    """Parse a ``host:port,host:port`` roster with one-line errors.

    Accepts bare ``HOST:PORT`` entries or full ``http://HOST:PORT`` URLs;
    every malformed entry dies with a message naming the offending value
    (the same contract as the ``REPRO_WORKERS`` validation).
    """
    refs: list[WorkerRef] = []
    for raw in str(text).split(","):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("http://"):
            entry = entry[len("http://"):].rstrip("/")
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"{what} entry {raw.strip()!r} must look like HOST:PORT"
            )
        port = parse_positive_int(port_text, what=f"{what} port in {raw.strip()!r}")
        if port > 65535:
            raise ValueError(f"{what} port {port} in {raw.strip()!r} is out of range")
        refs.append(WorkerRef(host=host, port=port))
    if not refs:
        raise ValueError(f"{what} names no workers")
    return tuple(refs)


def load_worker_roster(path: Union[str, Path]) -> tuple[WorkerRef, ...]:
    """Read a ``shards.json`` roster: ``{"workers": ["host:port", ...]}``.

    A bare JSON list of ``host:port`` strings is accepted too.  Errors name
    the file and the offending entry.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read worker roster {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"worker roster {path} is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("workers")
    if not isinstance(payload, list) or not all(isinstance(e, str) for e in payload):
        raise ValueError(
            f'worker roster {path} must be {{"workers": ["host:port", ...]}} '
            "or a JSON list of host:port strings"
        )
    return parse_workers_at(",".join(payload), what=f"worker roster {path}")


# ---------------------------------------------------------------------------
# The coordinator side
# ---------------------------------------------------------------------------
class WorkerClient:
    """The coordinator's typed client for one worker endpoint."""

    def __init__(self, ref: WorkerRef, *, timeout: float = DEFAULT_REQUEST_TIMEOUT) -> None:
        self.ref = ref
        self.timeout = timeout

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> dict:
        response = http_request(
            self.ref.host, self.ref.port, method, path, body, timeout=self.timeout
        )
        if response.status != 200:
            raise WorkerError(
                f"worker {self.ref.address} answered {response.status}: "
                f"{response.body[:200].decode(errors='replace')}"
            )
        return json.loads(response.body)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def run_batch(
        self,
        requests: Sequence[AnyRequest],
        *,
        on_error: str = "skip",
        retry: Optional[RetryPolicy] = None,
    ) -> dict:
        payload = encode_request_batch(requests)
        payload["options"] = {
            "on_error": on_error,
            "retry": retry.to_dict() if retry is not None else None,
        }
        answer = self._request("POST", "/batch", canonical_json(payload))
        if (
            answer.get("kind") != "BatchOutcome"
            or answer.get("schema") != OUTCOME_SCHEMA
            or not isinstance(answer.get("outcomes"), list)
            or len(answer["outcomes"]) != len(requests)
        ):
            raise WorkerError(
                f"worker {self.ref.address} returned a malformed batch outcome"
            )
        return answer


class WorkerError(RuntimeError):
    """A worker answered, but not with a usable batch outcome."""


class WorkerSchemaError(ValueError):
    """A roster worker speaks a different wire schema than this coordinator.

    A ``ValueError`` so the CLI surfaces it as a one-line error (mixing
    repro versions across a roster is an operator mistake, not a crash).
    """


def _worker_schema_drift(health: dict) -> Optional[str]:
    """Why this ``/healthz`` payload disqualifies the worker, or ``None``."""
    kind = health.get("kind")
    if kind != "worker":
        return f"is not a repro worker (healthz kind={kind!r})"
    remote = health.get("batch_schema")
    if remote != BATCH_SCHEMA:
        return (
            f"speaks batch schema {remote!r} but this coordinator speaks "
            f"{BATCH_SCHEMA} (worker version {health.get('version', '?')}, "
            f"coordinator {__version__}) — upgrade one side so they match"
        )
    return None


@dataclass
class _Chunk:
    """One dispatch unit: a few (index, job, key) items of one shard."""

    shard: int
    items: list  # [(index, job, key), ...]
    dispatches: int = 0
    last_error: Optional[BaseException] = None

    def backoff_key(self) -> str:
        return f"shard:{self.shard}:{self.items[0][0]}"


@dataclass
class _Fleet:
    """Shared coordinator state across per-worker dispatch threads."""

    queues: dict  # worker position -> deque[_Chunk]
    #: Per-worker circuit breakers (closed → open → half-open) replacing
    #: the old permanent ``dead`` set: a worker that faltered is probed
    #: with seeded backoff and rejoins when its ``/healthz`` answers again.
    breakers: dict = field(default_factory=dict)
    orphans: deque = field(default_factory=deque)
    unsettled: int = 0
    #: Consecutive failed worker contacts (probe or dispatch) fleet-wide,
    #: reset by any success.  Together with "every breaker is open" this
    #: bounds termination when the whole roster is gone.
    probe_failures: int = 0
    #: Workers that failed an audit: everything they return from now on is
    #: audited (100% sampling) until the sweep ends.
    distrusted: set = field(default_factory=set)
    #: Workers whose first returned result has been force-audited.
    handshaken: set = field(default_factory=set)
    #: Chunks already merged per worker (kept only while auditing) so an
    #: audit failure can roll back everything that worker contributed.
    merged: dict = field(default_factory=dict)
    error: Optional[BaseException] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    wake: threading.Condition = field(init=False)

    def __post_init__(self) -> None:
        self.wake = threading.Condition(self.lock)


def run_distributed(
    jobs: Sequence[AnyRequest],
    workers: Sequence[WorkerRef],
    *,
    cache: Union[ResultCache, str, None] = AUTO_CACHE,
    backend: Optional[str] = None,
    on_error: str = "raise",
    retry: Optional[RetryPolicy] = None,
    manifest: Union[str, Path, None] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    request_timeout: Optional[float] = None,
    audit_rate: float = 0.0,
) -> SweepOutcome:
    """Execute ``jobs`` across ``workers`` and return a local-identical outcome.

    The distributed counterpart of :func:`repro.harness.parallel.run_jobs`
    with the same signature shape and the same return type: results in
    submission order, cache hits served locally before anything is
    dispatched, per-job outcomes streamed into ``manifest`` as they settle.
    Shard membership is a pure function of the jobs' cache keys
    (:class:`ShardPlan`), so a resume re-plans identically.

    Failure semantics mirror ``run_jobs``: ``on_error="raise"`` aborts with
    :class:`SweepError` on the first failed job, ``"skip"`` / ``"retry"``
    leave typed :class:`JobFailure` slots (retries happen *on the worker*,
    under the shipped :class:`RetryPolicy`).  Additionally the coordinator
    re-dispatches chunks lost to unreachable workers onto healthy ones —
    bounded by ``retry.max_attempts`` dispatches per chunk with the
    policy's seeded backoff — and counts each extra dispatch in
    ``stats.retried``.

    Integrity (docs/RESILIENCE.md): every worker is health-checked (and
    schema-checked — see :class:`WorkerSchemaError`) before its first
    dispatch and after any failure, behind a per-worker
    :class:`~repro.harness.breaker.CircuitBreaker`, so a restarted worker
    rejoins instead of staying blacklisted.  Worker results are verified
    against their shipped content digests, and ``audit_rate`` > 0
    additionally re-executes a seeded sample of worker-returned jobs
    locally: a digest mismatch discards *everything* that worker
    contributed (results un-merged, wrongly cached entries quarantined),
    re-dispatches it elsewhere, marks the worker distrusted (100% audits
    from then on), and records an audit row in the manifest and ledger.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error mode {on_error!r} (choose from {ON_ERROR_MODES})"
        )
    audit_rate = float(audit_rate)
    if not 0.0 <= audit_rate <= 1.0:
        raise ValueError(f"audit_rate must be in [0, 1], got {audit_rate!r}")
    workers = tuple(workers)
    if not workers:
        raise ValueError("run_distributed needs at least one worker")
    policy = retry if retry is not None else RetryPolicy()
    worker_on_error = "retry" if on_error == "retry" else "skip"
    timeout = request_timeout
    if timeout is None:
        timeout = policy.straggler_seconds or DEFAULT_REQUEST_TIMEOUT

    jobs = list(jobs)
    if backend is not None:
        jobs = [
            job
            if job.backend is not None or isinstance(job, MultiTenantRequest)
            else replace(job, backend=backend)
            for job in jobs
        ]
    if isinstance(cache, str):
        if cache != AUTO_CACHE:
            raise ValueError(f"unknown cache mode {cache!r}")
        cache = ResultCache.from_env()
    manifest_path = Path(manifest) if manifest is not None else None
    manifest_skipped = 0
    if manifest_path is not None:
        # Touch-load: malformed files surface here; damaged lines are
        # counted onto the outcome so sweep summaries can warn about them.
        manifest_skipped = scan_manifest(manifest_path)[1]

    start = time.perf_counter()
    results: list[Any] = [None] * len(jobs)
    stats = SweepStats(
        jobs=len(jobs), workers=len(workers), backend=_resolved_backends(jobs)
    )
    pending: list[tuple[int, AnyRequest, str]] = []
    sweep_keys: list[str] = []
    for index, job in enumerate(jobs):
        # Keys are mandatory here (they define the shard plan and the
        # result merge); a job that cannot produce one fails the same way
        # an unknown benchmark fails in run_jobs.
        try:
            key = job.cache_key()
        except Exception as exc:
            if on_error == "raise":
                raise SweepError(job, exc) from exc
            stats.failed += 1
            results[index] = JobFailure(
                job=job, error=str(exc), error_type=type(exc).__name__,
            )
            continue
        sweep_keys.append(key)
        if cache is not None:
            hit = _decode_cached_result(cache.get(key))
            if hit is not None:
                results[index] = hit
                stats.cache_hits += 1
                continue
        pending.append((index, job, key))
    stats.executed = len(pending)

    ledger_rows: list[dict] = []
    if pending:
        plan = ShardPlan.build([key for _, _, key in pending], len(workers))
        fleet = _Fleet(
            queues={},
            breakers={
                position: CircuitBreaker(
                    key=f"worker:{position}",
                    seed=policy.seed,
                    failure_threshold=1,
                    probe_base=policy.backoff_base,
                    probe_factor=policy.backoff_factor,
                    probe_max=PROBE_MAX_SECONDS,
                    jitter=policy.jitter,
                )
                for position in range(len(workers))
            },
        )
        chunks: list[_Chunk] = []
        for shard_index, positions in plan.chunks(chunk_size):
            chunk = _Chunk(shard=shard_index, items=[pending[p] for p in positions])
            chunks.append(chunk)
            fleet.queues.setdefault(shard_index, deque()).append(chunk)
        fleet.unsettled = len(chunks)

        def record_outcome(chunk: _Chunk, answer: dict) -> None:
            """Merge one chunk's outcome rows (called under the lock)."""
            worker_stats = answer.get("stats") or {}
            stats.retried += int(worker_stats.get("retried", 0) or 0)
            stats.timed_out += int(worker_stats.get("timed_out", 0) or 0)
            row = answer.get("ledger_row")
            if isinstance(row, dict):
                ledger_rows.append(row)
            for (index, job, key), outcome in zip(chunk.items, answer["outcomes"]):
                attempts = int(outcome.get("attempts", 1) or 1) + chunk.dispatches - 1
                result = None
                if outcome.get("status") == "done" and outcome.get("result") is not None:
                    digest = outcome.get("digest")
                    if isinstance(digest, str) and result_digest(
                        outcome["result"]
                    ) != digest:
                        # The payload does not match its own content digest:
                        # it was corrupted in transit (or the worker
                        # serialised garbage).  Reject, never merge.
                        stats.corrupt += 1
                        outcome = {
                            **outcome,
                            "error": "result digest mismatch in transit "
                                     "(corrupt batch envelope)",
                            "error_type": "IntegrityError",
                        }
                    else:
                        try:
                            result = SimulationResult.from_dict(outcome["result"])
                        except Exception:
                            result = None  # wire drift: count the job as failed
                if result is not None:
                    results[index] = result
                    if cache is not None:
                        cache.put(key, result.to_dict())
                    if manifest_path is not None:
                        append_outcome(manifest_path, ManifestEntry(
                            key=key, status="done", attempts=attempts,
                            benchmark=job.benchmark_name,
                            scheduler=job.scheduler,
                            backend=str(worker_stats.get("backend", "")),
                        ))
                    continue
                stats.failed += 1
                error = str(outcome.get("error") or "worker reported no result")
                error_type = str(outcome.get("error_type") or "RuntimeError")
                timed_out = bool(outcome.get("timed_out"))
                if manifest_path is not None:
                    append_outcome(manifest_path, ManifestEntry(
                        key=key,
                        status="timeout" if timed_out else "failed",
                        attempts=attempts,
                        benchmark=job.benchmark_name,
                        scheduler=job.scheduler,
                        error=f"{error_type}: {error}",
                    ))
                if on_error == "raise" and fleet.error is None:
                    fleet.error = SweepError(
                        job, RuntimeError(f"{error_type}: {error}")
                    )
                    continue
                results[index] = JobFailure(
                    job=job, error=error, error_type=error_type,
                    attempts=attempts, timed_out=timed_out,
                )

        def settle_lost_chunk(chunk: _Chunk) -> None:
            """Give up on a chunk no worker could run (under the lock)."""
            cause = chunk.last_error or RuntimeError("no healthy workers")
            for index, job, key in chunk.items:
                stats.failed += 1
                if manifest_path is not None:
                    append_outcome(manifest_path, ManifestEntry(
                        key=key, status="failed", attempts=chunk.dispatches,
                        benchmark=job.benchmark_name, scheduler=job.scheduler,
                        error=f"{type(cause).__name__}: {cause}",
                    ))
                if on_error == "raise":
                    if fleet.error is None:
                        fleet.error = SweepError(job, cause)
                else:
                    results[index] = JobFailure(
                        job=job, error=str(cause),
                        error_type=type(cause).__name__,
                        attempts=max(1, chunk.dispatches),
                    )

        def settle_chunk_or_orphan(chunk: _Chunk) -> None:
            """Re-queue a failed chunk, or settle it if out of attempts
            (called under the lock)."""
            if chunk.dispatches >= policy.max_attempts:
                settle_lost_chunk(chunk)
                fleet.unsettled -= 1
            else:
                fleet.orphans.append(chunk)

        def fleet_hopeless() -> bool:
            """Whether nobody will ever run the orphans (under the lock).

            Every breaker open *and* the collective probe budget spent:
            with no permanent dead set, this is what bounds termination
            when the whole roster is unreachable — any single success
            resets the budget.
            """
            return fleet.probe_failures >= policy.max_attempts * len(
                workers
            ) and all(b.state != "closed" for b in fleet.breakers.values())

        def audit_answer(
            chunk: _Chunk, answer: dict, *, distrusted: bool, handshaken: bool
        ) -> tuple[Optional[tuple], int]:
            """Re-execute a seeded sample of ``answer``'s done rows locally.

            Runs *off* the lock (re-execution is real simulation work).
            Returns ``(mismatch, audited)`` where ``mismatch`` is
            ``(index, job, key, detail)`` for the first digest divergence.
            Chaos-wrapped jobs are audited against the chaos *delegate*:
            the reference result is the ground truth the retry stack
            converges to, and re-drawing faults locally would audit the
            schedule, not the worker.
            """
            audited = 0
            first_done = True
            for (index, job, key), outcome in zip(chunk.items, answer["outcomes"]):
                if outcome.get("status") != "done":
                    continue
                if not isinstance(outcome.get("result"), dict):
                    continue
                selected = distrusted or audit_selected(policy.seed, key, audit_rate)
                if first_done and not handshaken:
                    # Handshake audit: a worker's first returned result is
                    # always verified, so a worker that lies about
                    # everything is caught before any outcome merges.
                    selected = True
                first_done = False
                if not selected:
                    continue
                audited += 1
                audit_job = job
                if getattr(job, "backend", None) == "chaos":
                    from repro.harness.faults import active_plan

                    plan_now = active_plan()
                    audit_job = replace(
                        job,
                        backend=plan_now.delegate if plan_now is not None else None,
                    )
                local = _execute(audit_job)
                local_digest = result_digest(local.to_dict())
                remote_digest = result_digest(outcome["result"])
                if local_digest != remote_digest:
                    return (
                        index,
                        job,
                        key,
                        f"local {local_digest[:12]} != worker {remote_digest[:12]}",
                    ), audited
            return None, audited

        def discard_worker_outcomes(
            position: int, chunk: _Chunk, mismatch: tuple
        ) -> None:
            """Audit failed: roll back everything ``position`` contributed
            (called under the lock)."""
            _, job, key, detail = mismatch
            stats.audit_failures += 1
            fleet.distrusted.add(position)
            error = (
                f"audit mismatch: worker {workers[position].address} returned "
                f"a result diverging from local re-execution ({detail})"
            )
            if manifest_path is not None:
                append_outcome(manifest_path, ManifestEntry(
                    key=key, status="failed", attempts=chunk.dispatches,
                    benchmark=job.benchmark_name, scheduler=job.scheduler,
                    error=error,
                ))
            ledger_rows.append({
                "kind": "audit",
                "ts": round(time.time(), 3),
                "worker": workers[position].address,
                "key": key,
                "verdict": "mismatch",
                "detail": detail,
            })
            # The in-flight chunk goes back up for grabs (its dispatch was
            # spent on a worker whose answers cannot be trusted) ...
            chunk.last_error = RuntimeError(error)
            settle_chunk_or_orphan(chunk)
            # ... and every chunk previously merged from this worker is
            # un-merged: result slots reset, wrongly cached entries
            # quarantined (a manifest "done" row whose cache entry is gone
            # simply re-runs on resume), chunks re-queued elsewhere.
            for merged in fleet.merged.pop(position, []):
                for m_index, _m_job, m_key in merged.items:
                    if isinstance(results[m_index], JobFailure):
                        stats.failed -= 1
                    results[m_index] = None
                    if cache is not None:
                        cache.quarantine_entry(
                            m_key,
                            f"audit: outcomes from "
                            f"{workers[position].address} discarded",
                        )
                fleet.orphans.append(merged)
                fleet.unsettled += 1

        def worker_loop(position: int, ref: WorkerRef) -> None:
            client = WorkerClient(ref, timeout=timeout)
            breaker = fleet.breakers[position]
            own = fleet.queues.get(position) or deque()
            validated = False  # healthz + schema verified since last failure

            def contact_failed(exc: BaseException, chunk: Optional[_Chunk]) -> None:
                """A probe or dispatch round trip failed (takes the lock)."""
                with fleet.wake:
                    breaker.record_failure()
                    fleet.probe_failures += 1
                    if chunk is not None:
                        chunk.last_error = exc
                        settle_chunk_or_orphan(chunk)
                    # Chunks still queued on an unreachable worker count one
                    # failed dispatch each — the same accounting as a failed
                    # round trip — and go up for grabs by the rest of the
                    # fleet.
                    while own:
                        lost = own.popleft()
                        lost.dispatches += 1
                        lost.last_error = exc
                        settle_chunk_or_orphan(lost)
                    if fleet_hopeless():
                        while fleet.orphans:
                            settle_lost_chunk(fleet.orphans.popleft())
                            fleet.unsettled -= 1
                    fleet.wake.notify_all()

            while True:
                chunk: Optional[_Chunk] = None
                with fleet.wake:
                    while True:
                        if fleet.unsettled == 0 or fleet.error is not None:
                            return
                        if validated and breaker.state == "closed":
                            if own:
                                chunk = own.popleft()
                                break
                            if fleet.orphans:
                                chunk = fleet.orphans.popleft()
                                break
                        elif breaker.allow():
                            break  # probe /healthz off-lock
                        fleet.wake.wait(timeout=0.05)
                    if chunk is not None:
                        chunk.dispatches += 1
                        redispatch = chunk.dispatches > 1

                if chunk is None:
                    # Probe: health + schema check before (re)admitting the
                    # worker.  Cheap, and the only path out of an open
                    # breaker — so a restarted worker rejoins here.
                    try:
                        health = client.healthz()
                    except (OSError, WorkerError, ValueError) as exc:
                        contact_failed(exc, None)
                        continue
                    problem = _worker_schema_drift(health)
                    if problem is not None:
                        with fleet.wake:
                            if fleet.error is None:
                                fleet.error = WorkerSchemaError(
                                    f"worker {ref.address} {problem}"
                                )
                            fleet.wake.notify_all()
                        return
                    validated = True
                    with fleet.wake:
                        breaker.record_success()
                        fleet.probe_failures = 0
                        fleet.wake.notify_all()
                    continue

                if redispatch:
                    with fleet.lock:
                        stats.retried += 1
                    time.sleep(
                        policy.backoff_seconds(chunk.backoff_key(), chunk.dispatches - 1)
                    )
                try:
                    answer = client.run_batch(
                        [job for _, job, _ in chunk.items],
                        on_error=worker_on_error,
                        retry=retry,
                    )
                except (OSError, WorkerError, ValueError) as exc:
                    validated = False  # must re-pass healthz before rejoining
                    contact_failed(exc, chunk)
                    continue

                mismatch = None
                audit_count = 0
                if audit_rate > 0.0:
                    with fleet.lock:
                        is_distrusted = position in fleet.distrusted
                        is_handshaken = position in fleet.handshaken
                    try:
                        mismatch, audit_count = audit_answer(
                            chunk, answer,
                            distrusted=is_distrusted,
                            handshaken=is_handshaken,
                        )
                    except Exception as exc:
                        # The coordinator itself cannot re-execute (missing
                        # backend, bad config): auditing is impossible, and
                        # silently skipping it would be a false "verified".
                        with fleet.wake:
                            if fleet.error is None:
                                fleet.error = SweepError(
                                    chunk.items[0][1],
                                    RuntimeError(
                                        f"audit re-execution failed: {exc}"
                                    ),
                                )
                            fleet.wake.notify_all()
                        return

                with fleet.wake:
                    stats.audited += audit_count
                    if audit_count:
                        fleet.handshaken.add(position)
                    if mismatch is not None:
                        validated = False
                        breaker.record_failure()
                        discard_worker_outcomes(position, chunk, mismatch)
                        fleet.wake.notify_all()
                        continue
                    record_outcome(chunk, answer)
                    if audit_rate > 0.0:
                        fleet.merged.setdefault(position, []).append(chunk)
                    fleet.unsettled -= 1
                    breaker.record_success()
                    fleet.probe_failures = 0
                    fleet.wake.notify_all()

        threads = [
            threading.Thread(
                target=worker_loop, args=(position, ref),
                name=f"repro-dispatch-{position}", daemon=True,
            )
            for position, ref in enumerate(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if fleet.error is not None:
            raise fleet.error

    stats.wall_seconds = time.perf_counter() - start
    try:
        record_sweep(stats, keys=sweep_keys or None)
        for row in merge_ledger_entries([ledger_rows]):
            append_entry(row)
    except Exception:
        pass  # the ledger is best-effort; never fail a sweep over it
    return SweepOutcome(
        jobs=jobs,
        results=results,
        stats=stats,
        manifest_skipped=manifest_skipped,
    )
