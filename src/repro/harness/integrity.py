"""End-to-end result integrity: content digests, quarantine, ``fsck``.

The reproduction's value rests on bit-exact results, but every persistent
artifact — cache entries, checkpoint manifests, the bench ledger — and
every byte a remote worker returns used to be trusted blindly.  This
module is the shared vocabulary the integrity layer (docs/RESILIENCE.md)
is built from:

* :func:`canonical_json` — the one byte-stable JSON encoding (cache keys,
  response bodies, digests).
* :func:`result_digest` — the blake2b content digest of a result's
  canonical JSON wire form.  Stamped into cache envelopes
  (:mod:`repro.harness.cache`) and onto ``/batch`` outcome rows
  (:mod:`repro.serve.server`); serve's ``X-Repro-Digest`` header is
  :func:`blob_digest` of the same canonical bytes, so the same result
  hashes the same everywhere it travels.
* :func:`quarantine_file` / :func:`quarantine_bytes` — damaged artifacts
  are *moved aside with a reason*, never silently unlinked: corruption is
  evidence (bad disk, torn write, misbehaving worker) and destroying it
  hides the incident it should surface.  Quarantined files land in
  ``.repro/quarantine/`` (override: ``REPRO_QUARANTINE_DIR``) next to a
  ``*.reason.json`` sidecar saying what was wrong and where it came from.
* :func:`fsck` — the scanner behind ``repro cache fsck [--repair]``:
  verifies every cache envelope digest, counts damaged manifest/ledger
  lines, quarantines corrupt entries, and (with ``repair=True``) re-writes
  repairable legacy envelopes and strips damaged lines after preserving
  the original bytes in quarantine.
* :func:`audit_selected` — the seeded per-key audit sample of the
  distributed coordinator (``repro sweep --audit-rate``), a pure function
  of ``(seed, cache key)`` exactly like the :class:`~repro.harness.faults
  .FaultPlan` schedule, so two coordinators audit the same jobs.
* :func:`fsync_enabled` — the opt-in ``REPRO_FSYNC`` crash-durability knob
  shared by manifest and ledger appends.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.harness.faults import _unit_draw

#: Bytes of blake2b output in a :func:`result_digest` (hex doubles it).
DIGEST_SIZE = 16

#: Suffix quarantined artifacts are renamed with (so a quarantined cache
#: entry can never be globbed back up as a live ``*.pkl`` entry).
QUARANTINE_SUFFIX = ".quarantined"

_TRUTHY = ("1", "on", "true", "yes")


# ---------------------------------------------------------------------------
# Content digests
# ---------------------------------------------------------------------------
def canonical_json(payload: Any, *, default=None) -> bytes:
    """The one canonical JSON rendering: sorted keys, compact separators.

    Cache keys, serve and worker response bodies and result digests all
    encode through here, so the same value is the same bytes everywhere.
    ``default`` is :func:`json.dumps`'s fallback for non-JSON leaves
    (``None`` raises ``TypeError`` on them).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=default
    ).encode()


def blob_digest(blob: bytes) -> str:
    """Blake2b content digest of already-encoded canonical bytes."""
    return hashlib.blake2b(blob, digest_size=DIGEST_SIZE).hexdigest()


def result_digest(payload: Any) -> str:
    """Blake2b content digest of a result payload's canonical JSON form.

    ``payload`` is normally a ``SimulationResult.to_dict()`` wire form, but
    any JSON-ish value digests deterministically (``repr`` fallback for
    exotic leaves).  Floats use the JSON ``repr`` round-trip, so
    bit-identical results — the repository's exactness contract — produce
    identical digests and any bit flip produces a different one.
    """
    try:
        blob = canonical_json(payload, default=repr)
    except (TypeError, ValueError):
        # Unsortable mixed-type keys and friends: repr() is still a
        # deterministic rendering of the same in-memory value.
        blob = repr(payload).encode()
    return blob_digest(blob)


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------
def default_quarantine_dir() -> Path:
    """Quarantine directory honouring ``REPRO_QUARANTINE_DIR``.

    Defaults to ``.repro/quarantine`` under the working directory, beside
    the bench ledger's ``.repro/`` home.
    """
    env = os.environ.get("REPRO_QUARANTINE_DIR")
    if env:
        return Path(env).expanduser()
    return Path(".repro") / "quarantine"


def _quarantine_dest(qdir: Path, name: str) -> Path:
    dest = qdir / f"{name}{QUARANTINE_SUFFIX}"
    serial = 0
    while dest.exists():
        serial += 1
        dest = qdir / f"{name}.{serial}{QUARANTINE_SUFFIX}"
    return dest


def _write_reason(dest: Path, reason: str, source: str) -> None:
    sidecar = dest.with_name(dest.name + ".reason.json")
    sidecar.write_text(
        json.dumps(
            {
                "reason": reason,
                "source": source,
                "quarantined_as": dest.name,
                "ts": round(time.time(), 3),
            },
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


def quarantine_file(
    path: Union[str, Path],
    reason: str,
    *,
    quarantine: Union[str, Path, None] = None,
    source: str = "",
) -> Optional[Path]:
    """Move a damaged artifact into quarantine with a reason sidecar.

    Best-effort by design (a read-only cache directory must never fail a
    sweep): returns the quarantined path, or ``None`` when the move could
    not happen.  The file is renamed with :data:`QUARANTINE_SUFFIX` so it
    can never be re-discovered as a live artifact.
    """
    path = Path(path)
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = _quarantine_dest(qdir, path.name)
        os.replace(path, dest)
        _write_reason(dest, reason, source or str(path))
        return dest
    except OSError:
        return None


def quarantine_bytes(
    data: bytes,
    name: str,
    reason: str,
    *,
    quarantine: Union[str, Path, None] = None,
    source: str = "",
) -> Optional[Path]:
    """Preserve a *copy* of damaged bytes in quarantine (repair flows).

    Used when the original file must keep existing — e.g. ``fsck --repair``
    strips damaged lines from a manifest in place but first preserves the
    original bytes here.  Best-effort; returns the written path or ``None``.
    """
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = _quarantine_dest(qdir, name)
        dest.write_bytes(data)
        _write_reason(dest, reason, source or name)
        return dest
    except OSError:
        return None


def quarantined_artifacts(
    quarantine: Union[str, Path, None] = None,
) -> list[Path]:
    """The quarantined artifact files (reason sidecars excluded)."""
    qdir = Path(quarantine) if quarantine is not None else default_quarantine_dir()
    if not qdir.is_dir():
        return []
    return sorted(
        p for p in qdir.iterdir()
        if p.name.endswith(QUARANTINE_SUFFIX)
    )


# ---------------------------------------------------------------------------
# Crash durability
# ---------------------------------------------------------------------------
def fsync_enabled() -> bool:
    """Whether ``REPRO_FSYNC`` asks appends to fsync (opt-in, default off).

    Manifest and ledger appends always flush, which survives a process
    crash; an fsync additionally survives the *machine* losing power
    mid-sweep, at a per-line latency cost — hence opt-in.  Either way a
    torn tail is detected (and repaired) by ``repro cache fsck``.
    """
    return os.environ.get("REPRO_FSYNC", "").lower() in _TRUTHY


# ---------------------------------------------------------------------------
# Seeded audit sampling
# ---------------------------------------------------------------------------
def audit_selected(seed: int, key: str, rate: float) -> bool:
    """Whether the coordinator audits the job with cache key ``key``.

    A pure function of ``(seed, key)`` — the same blake2b unit draw the
    :class:`~repro.harness.faults.FaultPlan` schedule uses — so the audit
    sample is reproducible across coordinators and resumes.  Each key's
    draw is independent: with rate *r* over *n* worker-returned jobs the
    expected audit count is ``r·n`` and the chance a consistently-lying
    worker's job set escapes entirely is ``(1-r)^n`` (the coordinator
    additionally force-audits every worker's first returned result).
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return _unit_draw(seed, "audit", key) < rate


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------
@dataclass
class Artifact:
    """One scanned artifact's verdict within an :func:`fsck` report."""

    kind: str  # "cache" | "manifest" | "ledger"
    path: str
    verdict: str  # "ok" | "legacy" | "corrupt" | "damaged" | "missing"
    detail: str = ""
    damaged_lines: int = 0
    quarantined: bool = False
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "path": self.path,
            "verdict": self.verdict,
            "detail": self.detail,
            "damaged_lines": self.damaged_lines,
            "quarantined": self.quarantined,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Per-artifact verdicts of one integrity scan."""

    artifacts: list[Artifact] = field(default_factory=list)
    repair: bool = False

    def count(self, verdict: str) -> int:
        return sum(1 for a in self.artifacts if a.verdict == verdict)

    @property
    def corrupt(self) -> int:
        return self.count("corrupt")

    @property
    def legacy(self) -> int:
        return self.count("legacy")

    @property
    def damaged_lines(self) -> int:
        return sum(a.damaged_lines for a in self.artifacts)

    @property
    def unrepaired_damage(self) -> int:
        """Damaged lines still present on disk after this scan."""
        return sum(
            a.damaged_lines for a in self.artifacts if not a.repaired
        )

    @property
    def clean(self) -> bool:
        """Exit-0 condition: nothing corrupt found, no damage left on disk.

        A scan that quarantined corrupt entries still reports unclean —
        damage *happened* and the operator should see a nonzero exit; the
        follow-up scan (after ``--repair`` for line damage) reports clean.
        """
        return self.corrupt == 0 and self.unrepaired_damage == 0

    def to_dict(self) -> dict:
        return {
            "artifacts": [a.to_dict() for a in self.artifacts],
            "checked": len(self.artifacts),
            "corrupt": self.corrupt,
            "legacy": self.legacy,
            "damaged_lines": self.damaged_lines,
            "unrepaired_damage": self.unrepaired_damage,
            "repair": self.repair,
            "clean": self.clean,
        }


def _fsck_cache(cache, report: FsckReport, *, repair: bool) -> None:
    import pickle

    from repro.harness.cache import CACHE_SCHEMA, ENVELOPE_SCHEMA

    for path in sorted(cache._entries()):
        key = path.stem
        artifact = Artifact(kind="cache", path=str(path), verdict="ok")
        report.artifacts.append(artifact)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception as exc:
            artifact.verdict = "corrupt"
            artifact.detail = f"unreadable: {type(exc).__name__}: {exc}"
            artifact.quarantined = (
                cache.quarantine_entry(key, artifact.detail) is not None
            )
            continue
        if not isinstance(payload, dict) or payload.get("key") != key:
            artifact.verdict = "corrupt"
            artifact.detail = "key mismatch (entry stored under the wrong key)"
        elif payload.get("schema") == ENVELOPE_SCHEMA:
            if result_digest(payload.get("result")) != payload.get("digest"):
                artifact.verdict = "corrupt"
                artifact.detail = "digest mismatch (bit rot or tampering)"
        elif payload.get("schema") == CACHE_SCHEMA:
            artifact.verdict = "legacy"
            artifact.detail = "digest-less legacy envelope (repairable)"
            if repair:
                cache.put(key, payload.get("result"))
                artifact.repaired = True
        else:
            artifact.verdict = "corrupt"
            artifact.detail = (
                f"unknown cache envelope schema {payload.get('schema')!r}"
            )
        if artifact.verdict == "corrupt":
            artifact.quarantined = (
                cache.quarantine_entry(key, artifact.detail) is not None
            )


def _fsck_lines(
    path: Path,
    kind: str,
    report: FsckReport,
    *,
    repair: bool,
    quarantine: Union[str, Path, None],
) -> None:
    artifact = Artifact(kind=kind, path=str(path), verdict="ok")
    report.artifacts.append(artifact)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        artifact.verdict = "missing"
        artifact.detail = "no such file"
        return
    except OSError as exc:
        artifact.verdict = "corrupt"
        artifact.detail = f"unreadable: {exc}"
        return
    good: list[str] = []
    damaged = 0
    for line in data.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        try:
            json.loads(line)
        except ValueError:
            damaged += 1
            continue
        good.append(line)
    if not damaged:
        return
    artifact.verdict = "damaged"
    artifact.damaged_lines = damaged
    artifact.detail = f"{damaged} damaged line(s) (torn write or corruption)"
    if repair:
        # Preserve the evidence first, then atomically rewrite only the
        # parseable lines (future-schema lines are intact JSON and kept).
        artifact.quarantined = (
            quarantine_bytes(
                data,
                path.name,
                artifact.detail,
                quarantine=quarantine,
                source=str(path),
            )
            is not None
        )
        tmp = path.with_name(path.name + ".fsck-tmp")
        tmp.write_text(
            "".join(line + "\n" for line in good), encoding="utf-8"
        )
        os.replace(tmp, path)
        artifact.repaired = True


def fsck(
    *,
    cache=None,
    manifests: Sequence[Union[str, Path]] = (),
    ledger: Union[str, Path, None] = None,
    repair: bool = False,
    quarantine: Union[str, Path, None] = None,
) -> FsckReport:
    """Scan cache + manifests + ledger and report per-artifact verdicts.

    Cache entries: a corrupt entry (unpicklable, key mismatch, digest
    mismatch, unknown schema) is quarantined *whether or not* ``repair``
    is set — it can never be served, and leaving it in place would just
    re-fail the next read; a ``legacy`` digest-less envelope is readable
    and only re-written (to the digested form) under ``repair``.

    Manifests and the ledger: lines that fail to parse are counted as
    damage; under ``repair`` the original bytes are preserved in
    quarantine and the file is atomically rewritten with only its intact
    lines.

    The caller maps :attr:`FsckReport.clean` onto the exit code (``repro
    cache fsck`` exits 1 when corruption was found or damage remains).
    """
    report = FsckReport(repair=repair)
    if cache is not None:
        _fsck_cache(cache, report, repair=repair)
    for manifest in manifests:
        _fsck_lines(
            Path(manifest), "manifest", report,
            repair=repair, quarantine=quarantine,
        )
    if ledger is not None:
        _fsck_lines(
            Path(ledger), "ledger", report,
            repair=repair, quarantine=quarantine,
        )
    return report
