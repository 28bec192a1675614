"""The correctness witness: result digests checked against pinned ones.

A result is identified by the blake2b digest of its wire form
(``SimulationResult.to_dict()``) with the ``backend`` label blanked, so
results of different engines compare directly.  Single-kernel digests are
pinned from the ``reference`` engine; co-location digests can only come
from ``lockstep`` (``reference`` rejects co-located tenants), so those are a
regression witness only, not a cross-engine check.

Every mismatch is a failed operation.  :data:`KNOWN_DIVERGENT` names the
cases where an engine is known to disagree with ``reference``; they are
still checked and still counted as failed, but they do not make the run
incorrect.  Any other failure does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from common import BENCH_DIR, BenchError

PINS_PATH = BENCH_DIR / "pinned_digests.json"

#: (engine, case) pairs known to diverge from the reference digest: the
#: vector engine under CCWS at scale 0.3 (97,530 vs 97,867 cycles and
#: 87,220 vs 82,962 cycles).
KNOWN_DIVERGENT = frozenset({
    ("vector", "ATAX/ccws@0.3"),
    ("vector", "SYRK/ccws@0.3"),
})


def blanked(payload: dict) -> dict:
    """``payload`` (a result wire form) with its ``backend`` label blanked."""
    data = payload["data"]
    return {**payload, "data": {**data, "fields": {**data["fields"], "backend": ""}}}


def result_digest(payload: dict) -> str:
    """Digest of a result wire form with the engine label blanked."""
    from repro.harness.integrity import result_digest as digest

    return digest(blanked(payload))


def load_pins(path: Path = PINS_PATH) -> dict:
    """``{case id: {"digest", "cycles", "source"}}`` from the pin file."""
    try:
        return json.loads(path.read_text())["cases"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read pinned digests {path}: {exc}") from exc


@dataclass(frozen=True)
class Failure:
    engine: str
    case: str
    reason: str


@dataclass
class Verifier:
    """Counts checked operations and the ones whose output was wrong."""

    pins: dict
    known: frozenset = KNOWN_DIVERGENT
    attempted: int = 0
    failures: list = field(default_factory=list)

    def expected(self, case: str) -> dict:
        try:
            return self.pins[case]
        except KeyError:
            raise BenchError(f"no pinned digest for {case}") from None

    def check(self, engine: str, case: str, digest: str) -> bool:
        """One operation whose output digest must equal the pinned one."""
        if digest == self.expected(case)["digest"]:
            self.attempted += 1
            return True
        self.fail(engine, case, "digest differs from the pinned reference")
        return False

    def ok(self) -> None:
        """One operation whose output was checked by other means and held."""
        self.attempted += 1

    def fail(self, engine: str, case: str, reason: str) -> None:
        self.attempted += 1
        self.failures.append(Failure(engine, case, reason))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if (f.engine, f.case) not in self.known]

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def summary(self) -> Optional[str]:
        if not self.failures:
            return None
        counts: dict = {}
        for f in self.failures:
            counts[(f.engine, f.case, f.reason)] = counts.get((f.engine, f.case, f.reason), 0) + 1
        return "; ".join(
            f"{engine} {case} x{n}: {reason}"
            + ("" if (engine, case) in self.known else " (UNEXPECTED)")
            for (engine, case, reason), n in sorted(counts.items())
        )
