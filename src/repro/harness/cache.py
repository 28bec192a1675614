"""Content-addressed on-disk cache for simulation results.

Every (benchmark, scheduler, configuration) job the sweep engine executes is
fully determined by its inputs: the workload models are seeded, the simulator
has no other sources of nondeterminism, and the scheduler state is rebuilt
from scratch per run.  That makes simulation results safe to memoise on disk,
keyed by a stable hash of

* the full :class:`~repro.workloads.spec.BenchmarkSpec` (Table II facts plus
  every synthetic-model parameter),
* the canonical scheduler name and the constructor kwargs the runner derives
  for it (warp limits, token counts, CIAO parameters),
* the complete :class:`~repro.harness.runner.RunConfig` (scale, seed, launch
  geometry, GPU configuration, DRAM scaling, cycle budget), and
* a fingerprint of the ``repro`` package source, so any code change
  invalidates the cache automatically — no manual version bumps needed.

Environment knobs (see docs/EXPERIMENTS.md):

``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-ciao``).
``REPRO_RESULT_CACHE``
    Set to ``0`` / ``off`` / ``false`` to disable caching entirely (CI does
    this to stay hermetic).
``REPRO_CACHE_VERSION``
    Overrides the source fingerprint, pinning cache validity manually.
``REPRO_QUARANTINE_DIR``
    Where corrupt entries are preserved (default ``.repro/quarantine``);
    see :mod:`repro.harness.integrity`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.harness.integrity import (
    canonical_json,
    default_quarantine_dir,
    quarantine_file,
    result_digest,
)

#: Bumped when the cache payload layout changes (not when simulation
#: semantics change — the code fingerprint covers that).  Schema 2: the
#: sweep engine stores results in the versioned ``SimulationResult.to_dict``
#: form instead of pickled result objects.  Kept at 2 in *cache keys*
#: (changing it would orphan every existing entry for no semantic reason).
CACHE_SCHEMA = 2

#: On-disk envelope schema.  Schema 3 adds a ``"digest"`` field — the
#: blake2b content digest of the stored result (see
#: :func:`repro.harness.integrity.result_digest`) — verified on every
#: read.  Schema-2 (digest-less) envelopes written by older versions
#: remain readable; ``repro cache fsck --repair`` re-writes them into the
#: digested form.
ENVELOPE_SCHEMA = 3

_FALSY = ("0", "off", "false", "no")


def cache_enabled_by_env() -> bool:
    """Whether the environment allows result caching at all."""
    return os.environ.get("REPRO_RESULT_CACHE", "1").lower() not in _FALSY


def default_cache_dir() -> Path:
    """Cache root honouring ``REPRO_CACHE_DIR``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-ciao"


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every ``.py`` file in the ``repro`` package.

    Any source change — a fixed bug, a retuned workload model — yields a new
    fingerprint and therefore fresh cache keys, so stale results can never be
    served after an edit.  ``REPRO_CACHE_VERSION`` overrides the computed
    value for users who want to pin validity across checkouts.
    """
    global _CODE_FINGERPRINT
    env = os.environ.get("REPRO_CACHE_VERSION")
    if env:
        return env
    if _CODE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()[:20]
    return _CODE_FINGERPRINT


def canonicalize(value: Any) -> Any:
    """Reduce a configuration object to JSON-serialisable primitives.

    Dataclasses become ``{"__type__": name, fields...}`` so two different
    config classes with identical field values cannot collide; enums become
    their qualified name; mappings are key-sorted by the JSON encoder later.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = canonicalize(getattr(value, f.name))
        return out
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [canonicalize(v) for v in items]
    if isinstance(value, float):
        # repr() round-trips exactly; formatting would alias nearby floats.
        return f"f:{value!r}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return f"repr:{value!r}"


def job_key(
    spec: Any,
    scheduler: str,
    scheduler_kwargs: Mapping[str, Any],
    run_config: Any,
    *,
    backend: str = "reference",
    code_version: Optional[str] = None,
) -> str:
    """Stable content hash identifying one simulation job.

    ``backend`` is the *resolved* execution-engine name: engines may model
    timing differently (e.g. lock-step multi-SM contention), so their
    results must never be served from each other's cache entries.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_version if code_version is not None else code_fingerprint(),
        "benchmark": canonicalize(spec),
        "scheduler": scheduler,
        "scheduler_kwargs": canonicalize(dict(scheduler_kwargs)),
        "run_config": canonicalize(run_config),
        "backend": backend,
    }
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def multi_tenant_job_key(
    tenant_payloads: list,
    run_config: Any,
    *,
    backend: str,
    code_version: Optional[str] = None,
) -> str:
    """Stable content hash identifying one multi-tenant (co-located) job.

    ``tenant_payloads`` carries, per tenant, the canonicalized benchmark
    spec, scheduler name + kwargs, the tenant label **and the SM-partition
    assignment** — two co-location jobs that differ only in which SMs a
    tenant occupies contend differently and must never share an entry
    (pinned by ``tests/test_result_cache.py``).
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "kind": "multi-tenant",
        "code": code_version if code_version is not None else code_fingerprint(),
        "tenants": canonicalize(tenant_payloads),
        "run_config": canonicalize(run_config),
        "backend": backend,
    }
    return hashlib.sha256(canonical_json(payload)).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Pickle-backed content-addressed store of :class:`SimulationResult`.

    Entries live at ``<root>/<key[:2]>/<key>.pkl`` and are written atomically
    (temp file + ``os.replace``) so concurrent workers and interrupted runs
    can never leave a torn entry behind.  Each envelope carries a blake2b
    content digest of the stored result (:data:`ENVELOPE_SCHEMA`) that is
    verified on every read; a corrupt, torn or digest-mismatched entry is
    treated as a miss and *quarantined* — moved into the quarantine
    directory with a reason sidecar, never silently unlinked — so bit rot
    and tampering leave evidence (``repro cache fsck`` reports it).

    Concurrency: any number of writers may race on the *same* key — each
    writes its own ``mkstemp`` temp file and the final ``os.replace`` is
    atomic on POSIX, so a reader observes either no entry or one complete
    entry, never interleaved bytes (pinned by
    ``tests/test_result_cache.py::TestConcurrentAccess``).  Readers that
    must not perturb a live store (the serving layer's lookup-without-
    execute path) use :meth:`peek`, which mutates no counters and never
    deletes entries.
    """

    def __init__(
        self,
        root: Optional[Path | str] = None,
        *,
        quarantine: Union[Path, str, None] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.quarantine = (
            Path(quarantine) if quarantine is not None else default_quarantine_dir()
        )
        self.stats = CacheStats()

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when caching is disabled by env."""
        if not cache_enabled_by_env():
            return None
        return cls()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _validate(self, payload: Any, key: str) -> Any:
        """Return the result inside ``payload`` or raise on any corruption."""
        if not isinstance(payload, Mapping) or payload.get("key") != key:
            raise ValueError("stale or mismatched cache entry")
        schema = payload.get("schema")
        if schema == ENVELOPE_SCHEMA:
            if result_digest(payload.get("result")) != payload.get("digest"):
                raise ValueError("digest mismatch (bit rot or tampering)")
            return payload["result"]
        if schema == CACHE_SCHEMA:
            # Digest-less legacy envelope: still readable; fsck --repair
            # upgrades it to the digested form.
            return payload["result"]
        raise ValueError(f"unknown cache envelope schema {schema!r}")

    def _quarantine_path(self, path: Path, reason: str) -> Optional[Path]:
        """Move a damaged entry aside (best-effort; falls back to unlink)."""
        dest = quarantine_file(
            path, reason, quarantine=self.quarantine, source=f"cache:{self.root}"
        )
        if dest is not None:
            self.stats.quarantined += 1
            return dest
        try:
            # Quarantine dir unwritable: removing the entry is still better
            # than re-failing every future read on it.
            path.unlink(missing_ok=True)
        except OSError:
            pass  # read-only/shared cache dir: still just a miss
        return None

    def quarantine_entry(self, key: str, reason: str) -> Optional[Path]:
        """Quarantine the entry for ``key`` (audit rollback, fsck).

        Returns the quarantined path, or ``None`` when there was nothing
        to move (or the move failed and the entry was unlinked instead).
        """
        path = self._path(key)
        if not path.exists():
            return None
        return self._quarantine_path(path, reason)

    def get(self, key: str) -> Optional[Any]:
        """Return the stored result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            result = self._validate(payload, key)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception as exc:
            # Torn write, unpicklable payload, digest mismatch, schema
            # drift: quarantine the evidence and re-run the job.
            self.stats.errors += 1
            self.stats.misses += 1
            self._quarantine_path(path, f"{type(exc).__name__}: {exc}")
            return None
        self.stats.hits += 1
        return result

    def peek(self, key: str) -> Optional[Any]:
        """Look ``key`` up without executing anything and without side effects.

        The serving layer's lookup-without-execute path: unlike :meth:`get`
        a peek mutates no hit/miss counters (the service keeps its own
        authoritative counters) and never deletes or quarantines an entry
        it cannot read — a concurrent writer may be mid-``os.replace``, and
        what looks torn to a peek can be a complete entry a millisecond
        later.  Returns the stored result, or ``None`` when the key is
        absent, unreadable, or fails its digest check.
        """
        try:
            with open(self._path(key), "rb") as fh:
                payload = pickle.load(fh)
            return self._validate(payload, key)
        except Exception:
            return None

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` atomically, digest included."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": ENVELOPE_SCHEMA,
            "key": key,
            "result": result,
            "digest": result_digest(result),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            self.stats.errors += 1
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            return
        self.stats.puts += 1

    # ------------------------------------------------------------------
    def _entries(self):
        if not self.root.exists():
            return
        yield from self.root.glob("*/*.pkl")

    def entry_count(self) -> int:
        """Number of cached results on disk."""
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        """Total on-disk size of the cache."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Remove every entry; returns how many were removed.

        Healthy entries are deleted outright (clearing is explicit user
        intent), but an entry that fails validation is quarantined instead
        — corruption discovered during a clear is still evidence worth
        keeping (counted in :attr:`CacheStats.quarantined`).
        """
        removed = 0
        for path in list(self._entries()):
            try:
                with open(path, "rb") as fh:
                    self._validate(pickle.load(fh), path.stem)
            except Exception as exc:
                self._quarantine_path(path, f"clear: {type(exc).__name__}: {exc}")
                removed += 1
                continue
            path.unlink(missing_ok=True)
            removed += 1
        return removed
