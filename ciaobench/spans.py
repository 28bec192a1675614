"""In-memory spans for the traced run, and per-module profile attribution.

A span has a name, a start and end (``perf_counter`` seconds), the id of
the span open around it on the same thread (its parent) and a case id
shared by every span of one case.  Spans are only kept in memory and are
written out once, when the run ends.  A span's *self time* is its duration
minus the union of its children's intervals, so overlapping children are
not subtracted twice.

Engine internals carry no spans; :func:`module_self_times` attributes a
``cProfile`` run's self time to the modules of ``src/repro`` instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import pstats
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    case: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, case: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if case is None and parent is not None:
            case = parent.case
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    parent.id if parent else None, case)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {**extra, "spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.start)]},
            indent=None, separators=(",", ":"),
        ) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``{span id: duration minus the union of its children}``."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# cProfile attribution
# ---------------------------------------------------------------------------
def layer_of(filename: str) -> Optional[str]:
    """The layer name of a source file under ``src/repro``, else ``None``.

    ``gpu/vector/*`` is ``gpu.vector``, ``gpu/lockstep.py`` is
    ``gpu.lockstep``, the rest of ``gpu/`` is ``gpu``; ``harness/x.py`` is
    ``harness.x``; every other package is its top-level name.
    """
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    parts = filename.replace("\\", "/")[at + len(marker):].split("/")
    if len(parts) == 1:
        return parts[0].removesuffix(".py")
    if parts[0] == "gpu":
        if parts[1] == "vector":
            return "gpu.vector"
        if parts[1] == "lockstep.py":
            return "gpu.lockstep"
        return "gpu"
    if parts[0] == "harness":
        return "harness." + parts[1].removesuffix(".py")
    return parts[0]


def _entry_layer(key: tuple) -> str:
    filename, _line, func = key
    if "/numpy/" in filename or (filename == "~" and "numpy" in func):
        return "numpy"
    return layer_of(filename) or "other"


def module_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer; builtins are charged to the layer calling them.

    A builtin (``filename == "~"``) carries no module of its own, so its
    per-caller self time goes to each caller's layer; numpy's C functions
    are charged to ``numpy``.
    """
    out: dict[str, float] = {}
    for key, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        layer = _entry_layer(key)
        if key[0] == "~" and layer != "numpy" and callers:
            for caller, caller_stats in callers.items():
                owner = _entry_layer(caller)
                out[owner] = out.get(owner, 0.0) + caller_stats[2]
            continue
        out[layer] = out.get(layer, 0.0) + tt
    return out
