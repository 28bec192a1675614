"""The ``repro serve`` daemon: simulation-as-a-service over HTTP/JSON.

A stdlib-only front end (raw ``asyncio.start_server`` + a minimal HTTP/1.1
parser — no new dependencies) that turns the library into a long-lived
service.  One :class:`ReproService` wires the existing pieces together:

* requests arrive as the existing versioned wire forms
  (:meth:`repro.api.SimulationRequest.from_dict` /
  :meth:`repro.api.MultiTenantRequest.from_dict`) on ``POST /simulate``;
* cache hits are served instantly from :class:`repro.harness.cache
  .ResultCache` via its side-effect-free :meth:`~repro.harness.cache
  .ResultCache.peek` path;
* identical in-flight requests coalesce into a single simulation
  (:class:`repro.serve.coalesce.Coalescer`, keyed on the same
  content-addressed cache key as the result cache);
* remaining misses queue into the batching dispatcher
  (:class:`repro.serve.queue.BatchQueue`), which drains into
  :func:`repro.api.run_batch` on a worker pool;
* ``POST /batch`` runs a :func:`repro.api.encode_request_batch` payload
  through :func:`repro.harness.parallel.run_jobs` (one batch at a time,
  ``workers`` wide) and answers one outcome row per job plus the batch's
  sweep statistics and ledger row — the route a sweep coordinator
  (:mod:`repro.harness.distributed`) dispatches to, so every service is
  usable as a worker.  ``repro worker`` is this same service with worker
  defaults;
* ``GET /healthz`` / ``GET /stats`` / ``GET /jobs[/<id>]`` expose liveness
  and wire schemas, live counters (queue depth, hit/coalesce/miss split,
  per-backend throughput plus the bench-ledger summary) and job lifecycle
  records (:class:`repro.api.JobRecord`);
* ``POST /shutdown`` (or SIGTERM/SIGINT under :func:`run_service`) drains
  gracefully: intake stops, queued work and an in-flight batch finish, a
  ``"kind": "serve"`` row lands in the bench ledger if the session served
  ``/simulate``, then the listener closes.

Response bodies for ``/simulate`` are the *canonical JSON rendering of the
result wire form* (sorted keys, compact separators) whichever path produced
them — cache hit, coalesced or executed — so identical requests always
receive byte-identical responses equal to a direct
``execute(request).to_dict()`` (asserted end to end by
``tests/test_serve.py`` and the CI serve-smoke job).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Optional

from repro.api import (
    BATCH_SCHEMA,
    OUTCOME_SCHEMA,
    AnyRequest,
    JobRecord,
    JobState,
    SimulationRequest,
    _decode_cached_result,
    decode_request,
    decode_request_batch,
)
from repro.harness.integrity import blob_digest, canonical_json, result_digest
from repro.harness.ledger import append_entry, read_ledger, summarize_ledger, sweep_entry
from repro.harness.parallel import JobFailure, RetryPolicy, run_jobs
from repro.serve.coalesce import Coalescer
from repro.serve.http import HttpRequest, read_http_request, respond
from repro.serve.queue import BatchQueue, BatchTimeoutError, QueuedJob
from repro.serve.stats import ServiceStats
from repro.version import __version__

#: Default TCP port of ``repro serve`` (and ``repro submit``'s default URL).
DEFAULT_PORT = 8651

#: Default TCP port of ``repro worker`` (the same service, worker defaults).
DEFAULT_WORKER_PORT = 8652


class RejectedRequest(ValueError):
    """A payload that never became a job (bad schema, unknown names, ...)."""


class ServiceDraining(RuntimeError):
    """New simulation requests are rejected while the service drains."""


class ServiceOverloaded(RuntimeError):
    """The dispatch queue is too deep; the request was load-shed.

    Answered as 503 with a ``Retry-After`` header (``retry_after``
    seconds).  Followers of an in-flight job are never shed — they cost no
    queue slot — so shedding only applies to would-be leaders.
    """

    def __init__(self, depth: int, limit: int, retry_after: int) -> None:
        super().__init__(
            f"queue depth {depth} is at its limit ({limit}); retry in "
            f"{retry_after}s"
        )
        self.retry_after = retry_after


class ReproService:
    """The one repro service: ``/simulate`` (cache -> coalesce -> batch ->
    respond) and ``/batch`` (a coordinator's job list through ``run_jobs``).

    ``workers`` bounds concurrent simulations on both routes: the
    dispatcher's thread count for ``/simulate`` and the ``run_jobs`` width
    for ``/batch``.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache=None,
        workers: int = 2,
        batch_max: int = 16,
        linger: float = 0.05,
        backend: Optional[str] = None,
        max_job_records: int = 256,
        retry: Optional[RetryPolicy] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.host = host
        self.port = port
        self.cache = cache
        self.workers = workers
        #: Fills in the engine for requests that left theirs ``None``
        #: (multi-tenant requests keep their ``lockstep`` default).
        self.backend = backend
        #: Load-shedding threshold: a would-be leader arriving while the
        #: dispatch queue is this deep gets 503 + Retry-After instead of a
        #: slot (``None`` disables shedding).
        self.max_queue_depth = max_queue_depth
        self.stats = ServiceStats()
        self.coalescer = Coalescer()
        self.queue = BatchQueue(
            cache=cache,
            workers=workers,
            batch_max=batch_max,
            linger=linger,
            retry=retry,
            on_batch_done=self.stats.record_batch,
            on_job_done=self._job_done,
            on_retry=self.stats.record_retried,
        )
        #: Drain summary (set once the queue has drained) for the CLI.
        self.drain_summary: Optional[dict] = None
        self.jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._max_job_records = max_job_records
        self._job_counter = 0
        #: ``POST /batch`` books: batches answered and their outcome rows.
        self.batch_requests = 0
        self.batch_jobs_done = 0
        self.batch_jobs_failed = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._closed: Optional[asyncio.Event] = None
        self._batch_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the dispatcher (call on the loop)."""
        self._closed = asyncio.Event()
        self._batch_lock = asyncio.Lock()
        self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one": surface the kernel's choice.
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_shutdown(self) -> None:
        """Start the graceful drain (idempotent, loop-confined)."""
        if self._draining:
            return
        self._draining = True
        asyncio.get_running_loop().create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        summary = await self.queue.drain()
        self.drain_summary = summary
        if summary.get("drain_errors"):
            # Worker tasks that died during shutdown used to vanish into
            # gather(..., return_exceptions=True); account them instead.
            self.stats.record_drain_error(summary["drain_errors"])
        assert self._batch_lock is not None
        async with self._batch_lock:
            pass  # an in-flight /batch finishes first
        if self.stats.requests or self.stats.rejected:
            # Only a session that served /simulate has a serve row; a
            # /batch-only (worker) session's rows are the sweeps it ran.
            try:
                append_entry(self.stats.ledger_entry())
            except Exception:
                pass  # the ledger is best-effort; never block a shutdown on it
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        assert self._closed is not None
        self._closed.set()

    async def wait_closed(self) -> None:
        """Wait until a graceful shutdown has completed."""
        assert self._closed is not None, "start() was not called"
        await self._closed.wait()

    # ------------------------------------------------------------------
    # request core (also the in-process API the tests drive directly)
    # ------------------------------------------------------------------
    def _new_record(self, request: AnyRequest, cache_key: str) -> JobRecord:
        self._job_counter += 1
        record = JobRecord.for_request(
            request,
            job_id=f"{cache_key[:12]}-{self._job_counter}",
            cache_key=cache_key,
            submitted_at=time.time(),
        )
        self.jobs[record.job_id] = record
        while len(self.jobs) > self._max_job_records:
            self.jobs.popitem(last=False)
        return record

    async def submit(self, request: AnyRequest):
        """Serve one request; returns ``(result, source, record)``.

        ``source`` is ``"cache"``, ``"coalesced"`` or ``"executed"`` —
        exactly one counter increments per request, so the ``/stats``
        books always reconcile (load-shed requests count under ``shed``).
        Raises :class:`RejectedRequest` for payloads that never became a
        job, :class:`ServiceDraining` during shutdown,
        :class:`ServiceOverloaded` when the queue is past its load-shedding
        depth, and the underlying simulation error for failed jobs.
        """
        if self._draining:
            self.stats.record_rejected()
            raise ServiceDraining("service is draining; not accepting requests")
        if self.backend is not None and (
            isinstance(request, SimulationRequest) and request.backend is None
        ):
            request = replace(request, backend=self.backend)
        try:
            cache_key = request.cache_key()
        except Exception as exc:
            self.stats.record_rejected()
            raise RejectedRequest(f"invalid request: {exc}") from exc
        self.stats.record_request()
        record = self._new_record(request, cache_key)

        # 1. Cache: serve hits instantly, via the side-effect-free peek.
        if self.cache is not None:
            hit = _decode_cached_result(self.cache.peek(cache_key))
            if hit is not None:
                self.stats.record_hit()
                record.advance(
                    JobState.DONE, source="cache", finished_at=time.time()
                )
                return hit, "cache", record

        # 2. Load shedding: a would-be *leader* past the queue-depth limit
        # is turned away with 503 + Retry-After before it costs a slot.
        # Followers piggyback on work already in flight, so they pass.
        if (
            self.max_queue_depth is not None
            and self.queue.depth >= self.max_queue_depth
            and not self.coalescer.inflight(cache_key)
        ):
            self.stats.record_shed()
            retry_after = max(1, round(self.queue.depth * 0.25))
            record.advance(
                JobState.FAILED,
                source="shed",
                error="load shed: dispatch queue at capacity",
                finished_at=time.time(),
            )
            raise ServiceOverloaded(
                self.queue.depth, self.max_queue_depth, retry_after
            )

        # 3. Single-flight: identical in-flight requests share one future.
        future, leader = self.coalescer.lease(cache_key)
        if leader:
            self.queue.put(QueuedJob(request, cache_key, record))
        try:
            result = await asyncio.shield(future)
        except Exception:
            self.stats.record_failed()
            if record.state not in (JobState.DONE, JobState.FAILED):
                record.advance(
                    JobState.FAILED,
                    source="coalesced",
                    error="coalesced onto a failed job",
                    finished_at=time.time(),
                )
            raise
        if leader:
            return result, "executed", record
        self.stats.record_coalesced()
        record.advance(JobState.DONE, source="coalesced", finished_at=time.time())
        return result, "coalesced", record

    def _job_done(self, job: QueuedJob, result, error) -> None:
        """Dispatcher callback (loop thread): settle one executed job."""
        now = time.time()
        if error is not None:
            if isinstance(error, BatchTimeoutError):
                self.stats.record_timed_out()
            job.record.advance(
                JobState.FAILED, source="executed", error=str(error), finished_at=now
            )
            self.coalescer.fail(job.cache_key, error)
        else:
            self._audit_cached(job, result)
            job.record.advance(JobState.DONE, source="executed", finished_at=now)
            self.coalescer.resolve(job.cache_key, result)

    def _audit_cached(self, job: QueuedJob, result) -> None:
        """Read-back audit: the envelope just persisted for an executed job
        must digest-match the result we are about to serve.  A divergence
        means the entry was torn or corrupted between ``put`` and here —
        quarantine it so no later request is served the damaged bytes.
        """
        if self.cache is None:
            return
        stored = self.cache.peek(job.cache_key)
        if stored is None:
            return  # uncacheable request or concurrent eviction: no envelope
        ok = result_digest(stored) == result_digest(result.to_dict())
        self.stats.record_audit(ok=ok)
        if not ok:
            self.cache.quarantine_entry(
                job.cache_key,
                "serve read-back audit: stored envelope diverged from the "
                "executed result",
            )

    def health_payload(self) -> dict:
        """The ``/healthz`` document, the same for every service.

        ``kind`` and the schemas are what a sweep coordinator checks before
        dispatching ``/batch`` work here (a clear refusal instead of a
        decode traceback mid-sweep when versions drift).
        """
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "kind": "worker",
            "batch_schema": BATCH_SCHEMA,
            "outcome_schema": OUTCOME_SCHEMA,
            "workers": self.workers,
        }

    def stats_payload(self) -> dict:
        """The ``/stats`` document: live counters + bench-ledger summary."""
        payload = self.stats.snapshot(
            queue_depth=self.queue.depth, inflight=len(self.coalescer)
        )
        payload["draining"] = self._draining
        payload["jobs_tracked"] = len(self.jobs)
        payload["reconciles"] = self.stats.reconciles()
        payload["version"] = __version__
        payload["breaker_state"] = self.queue.breaker_states()
        payload["quarantined"] = (
            self.cache.stats.quarantined if self.cache is not None else 0
        )
        # Per-backend throughput across sessions comes from the same
        # append-only ledger repro bench and the sweep engine feed.
        payload["ledger"] = summarize_ledger(read_ledger())
        return payload

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_http_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                await respond(writer, 400, {"error": f"bad request: {exc}"})
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:  # never let a handler bug kill the loop
            try:
                await respond(writer, 500, {"error": f"internal error: {exc}"})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, request: HttpRequest, writer) -> None:
        path = request.path.rstrip("/") or "/"
        routes = {
            "/healthz": ("GET", self._handle_healthz),
            "/stats": ("GET", self._handle_stats),
            "/jobs": ("GET", self._handle_jobs),
            "/simulate": ("POST", self._handle_simulate),
            "/batch": ("POST", self._handle_batch),
            "/shutdown": ("POST", self._handle_shutdown),
        }
        route = routes.get("/jobs" if path.startswith("/jobs/") else path)
        if route is None:
            await respond(writer, 404, {"error": f"unknown path {path!r}"})
        elif request.method != route[0]:
            await respond(writer, 405, {"error": f"use {route[0]}"})
        else:
            await route[1](path, request, writer)

    async def _handle_healthz(self, path: str, http: HttpRequest, writer) -> None:
        await respond(writer, 200, self.health_payload())

    async def _handle_stats(self, path: str, http: HttpRequest, writer) -> None:
        await respond(writer, 200, self.stats_payload())

    async def _handle_jobs(self, path: str, http: HttpRequest, writer) -> None:
        if path == "/jobs":
            records = list(self.jobs.values())[-50:]
            await respond(
                writer, 200, {"jobs": [r.to_dict() for r in reversed(records)]}
            )
            return
        record = self.jobs.get(path[len("/jobs/"):])
        if record is None:
            await respond(writer, 404, {"error": "unknown job"})
            return
        await respond(writer, 200, record.to_dict())

    async def _handle_shutdown(self, path: str, http: HttpRequest, writer) -> None:
        await respond(writer, 200, {"status": "draining"})
        self.begin_shutdown()

    async def _handle_simulate(self, path: str, http: HttpRequest, writer) -> None:
        try:
            payload = json.loads(http.body.decode("utf-8"))
            request = decode_request(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            self.stats.record_rejected()
            await respond(writer, 400, {"error": f"bad payload: {exc}"})
            return
        try:
            result, source, record = await self.submit(request)
        except ServiceDraining as exc:
            await respond(writer, 503, {"error": str(exc)})
            return
        except ServiceOverloaded as exc:
            await respond(
                writer,
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After", str(exc.retry_after)),),
            )
            return
        except RejectedRequest as exc:
            await respond(writer, 400, {"error": str(exc)})
            return
        except Exception as exc:
            await respond(writer, 500, {"error": str(exc)})
            return
        # The body is the canonical rendering of the result wire form —
        # byte-identical across the cache / coalesced / executed paths and
        # to a direct execute(request).to_dict().  Job metadata rides in
        # headers so it can never perturb response bytes.
        body = canonical_json(result.to_dict())
        await respond(
            writer,
            200,
            body,
            extra_headers=(
                ("X-Repro-Source", source),
                ("X-Repro-Job", record.job_id),
                ("X-Repro-Cache-Key", record.cache_key),
                # Content digest of the body bytes: clients can verify it
                # survived the transport (equal to result_digest of the
                # wire form, the digest the cache and /batch rows carry).
                ("X-Repro-Digest", blob_digest(body)),
            ),
        )

    async def _handle_batch(self, path: str, http: HttpRequest, writer) -> None:
        if self._draining:
            await respond(writer, 503, {"error": "service is draining"})
            return
        try:
            payload = json.loads(http.body.decode("utf-8"))
            jobs = decode_request_batch(payload)
            options = payload.get("options") or {}
            on_error = options.get("on_error", "skip")
            if on_error not in ("skip", "retry"):
                raise ValueError(
                    f"batch on_error must be 'skip' or 'retry', got {on_error!r}"
                )
            retry = options.get("retry")
            retry = RetryPolicy.from_dict(retry) if retry is not None else None
        except (ValueError, UnicodeDecodeError) as exc:
            await respond(writer, 400, {"error": f"bad batch payload: {exc}"})
            return
        # One batch at a time: ``workers`` is the intra-batch parallelism.
        # Execution goes through run_jobs, so the sweep engine's retry /
        # timeout / chaos stack applies here exactly as it does locally.
        assert self._batch_lock is not None
        async with self._batch_lock:
            try:
                outcome = await asyncio.get_running_loop().run_in_executor(
                    None,
                    lambda: run_jobs(
                        jobs,
                        workers=self.workers,
                        cache=self.cache,
                        backend=self.backend,
                        on_error=on_error,
                        retry=retry,
                    ),
                )
            except Exception as exc:
                await respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
                return
        await respond(writer, 200, self._batch_outcome(outcome))

    def _batch_outcome(self, outcome) -> dict:
        """The ``BatchOutcome`` envelope: one row per job, stats, ledger row."""
        rows = []
        keys: list[str] = []
        for job, result in outcome:
            if isinstance(result, JobFailure):
                self.batch_jobs_failed += 1
                rows.append({
                    "status": "timeout" if result.timed_out else "failed",
                    "result": None,
                    "error": result.error,
                    "error_type": result.error_type,
                    "attempts": result.attempts,
                    "timed_out": result.timed_out,
                })
            else:
                self.batch_jobs_done += 1
                wire = result.to_dict()
                rows.append({
                    "status": "done",
                    "result": wire,
                    # Content digest of the result payload: the coordinator
                    # verifies it on receipt, so corruption in transit (or a
                    # serialisation bug) is detected, not merged.
                    "digest": result_digest(wire),
                    "error": None,
                    "error_type": None,
                    "attempts": 1,
                    "timed_out": False,
                })
            try:
                keys.append(job.cache_key())
            except Exception:
                pass
        self.batch_requests += 1
        stats = outcome.stats
        return {
            "schema": OUTCOME_SCHEMA,
            "kind": "BatchOutcome",
            "outcomes": rows,
            "stats": {
                "jobs": stats.jobs,
                "cache_hits": stats.cache_hits,
                "executed": stats.executed,
                "workers": stats.workers,
                "backend": stats.backend,
                "failed": stats.failed,
                "retried": stats.retried,
                "timed_out": stats.timed_out,
                "wall_seconds": stats.wall_seconds,
            },
            "ledger_row": sweep_entry(stats, keys=keys or None),
        }


async def run_service(service: ReproService, *, announce=None) -> None:
    """Start ``service``, announce its bound address, serve until drained.

    SIGINT/SIGTERM trigger the same graceful drain as ``POST /shutdown``
    (where the platform supports loop signal handlers).  The handlers go in
    before ``announce(address)`` runs: the announce line is the readiness
    contract scripts wait on, so a signal sent the moment it appears must
    already drain gracefully.
    """
    import signal

    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, service.begin_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    if announce is not None:
        announce(service.address)
    await service.wait_closed()
