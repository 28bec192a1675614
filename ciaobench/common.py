"""Shared plumbing of the benchmark: paths, isolation, statistics, processes.

Nothing here imports :mod:`repro`; the processes under test import the
checkout's ``src`` through the environment :func:`isolated_env` builds, and
the benchmark's own process imports it only after :func:`require_checkout`
put ``src`` on ``sys.path``.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (git-ignored); private
#: per-run directories are deleted when the run ends, traces are kept.
WORK_DIR = ROOT / ".ciaobench"
TRACE_DIR = WORK_DIR / "traces"

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot move it.
MIN_TAIL = 10
#: Cold starts timed for ``setup_s`` in each serve run, after one untimed
#: start.  The host's speed shifts for seconds at a time, so half are taken
#: before the load and half after it, not all in one burst.
SETUP_STARTS = 16


class BenchError(RuntimeError):
    """The benchmark cannot run or could not check its outputs."""


def require_checkout() -> None:
    """Fail unless the checkout's simulator sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class PrivateDir:
    """A throwaway directory under :data:`WORK_DIR`, removed on exit."""

    def __enter__(self) -> Path:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def isolated_env(private: Path) -> dict:
    """Environment for a process under test.

    Every ``REPRO_*`` variable of the caller is dropped, so a developer's
    backend, chaos, worker or fsync settings cannot change a number; the
    result cache and quarantine point into ``private`` and the ledger is
    off, so nothing is written to the checkout's ``.repro/``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(private / "cache"),
        REPRO_QUARANTINE_DIR=str(private / "quarantine"),
        REPRO_LEDGER="0",
        REPRO_LEDGER_PATH=str(private / "ledger.jsonl"),
    )
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample count it came from."""

    q: float
    value: float
    samples: int

    @property
    def beyond(self) -> int:
        return tail_count(self.samples, self.q)


def tail_count(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th percentile of ``n``."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> Optional[Percentile]:
    """Nearest-rank ``q``-th percentile, or ``None`` with too few samples.

    ``None`` unless at least :data:`MIN_TAIL` samples lie beyond the
    percentile (p50 needs 20 samples, p90 needs 100).  Missing samples
    (a failed request) are passed as ``math.inf``; they sort last, so they
    count against the percentile instead of vanishing.
    """
    n = len(values)
    if tail_count(n, q) < MIN_TAIL:
        return None
    ordered = sorted(values)
    return Percentile(q, ordered[max(1, math.ceil(q / 100.0 * n)) - 1], n)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


@dataclass(frozen=True)
class Metric:
    """One reported number and what it was computed from.

    Units come from ``BENCHMARK.json``, the one place each metric is
    declared.
    """

    value: float
    samples: str


def percentile_metric(values: Sequence[float], q: float, what: str) -> Metric:
    """A latency percentile in ms from seconds (infinite if requests failed).

    Raises :class:`BenchError` when the workload produced too few samples
    for it, instead of silently reporting fewer metrics.
    """
    p = percentile(values, q)
    if p is None:
        raise BenchError(f"p{q:g} needs {MIN_TAIL} samples beyond it; got {len(values)} {what}")
    return Metric(p.value * 1000.0, f"p{q:g} of {p.samples} {what}, {p.beyond} beyond")


def setup_metric(ready: Sequence[float]) -> Metric:
    """``setup_s``: the median of cold starts, each spawn-until-ready.

    Each workload takes one untimed start first, so the one-time cost of
    a fresh checkout (bytecode compilation, pages not yet in the file
    cache) is not sampled.
    """
    return Metric(median(ready), f"median of {len(ready)} cold starts spread over the run")


def unit_of(name: str) -> str:
    """The unit of a number printed outside the result line, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_pct", "%"), ("_s", "s"), ("_share", "ratio")):
        if name.endswith(suffix):
            return unit
    return "ms" if "_ms" in name else "count"


def extra_line(name: str, value: float, samples: str = "traced run") -> str:
    """A readable line for a number that is not in the result line.

    Some numbers only exist on one workload (the sweep's cycles per second,
    the serve queue wait); the result line holds only the metrics every
    workload reports, so these are printed (and, when traced, written to
    the trace file) instead.
    """
    return f"  {name:<40} {value:>16.6g} {unit_of(name):<6} [{samples}; not in the result line]"


@dataclass
class Report:
    """What one workload run hands back to :mod:`run`."""

    metrics: dict
    verifier: object
    notes: list
    trace_file: Optional[Path] = None


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        # Fields after the parenthesised command name; utime and stime are
        # fields 14 and 15 of the whole line.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def python() -> str:
    return sys.executable or "python3"


def read_line(proc, timeout: float) -> str:
    """The next stdout line of ``proc``, or ``""`` if none within ``timeout``."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""
