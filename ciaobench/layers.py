"""The per-layer measurements every traced run makes, whatever its workload.

Each workload's traced run reports the same per-layer metrics, measured on
the jobs and results of that workload:

* the engine layers: :func:`traced_part` runs a workload's distinct jobs
  through ``run_jobs(workers=1)`` with an empty private ``ResultCache``
  once with spans around the public calls (``backends.*.execute``,
  ``backends.materialize*``, ``ResultCache.put``, vector trace extraction,
  ``run_jobs`` itself) and once under ``cProfile``, whose self time is
  charged to the modules of ``src/repro`` (:func:`engine_metrics`);
* the cache-hit path: :func:`replay_hit_path` replays, in process, what
  answering a cached request costs (request decode, cache key,
  ``ResultCache.peek``, result decode and encode, canonical JSON, digest)
  against the cache that holds the workload's results.

The sweep runs its own parts this way; the serve workloads replay the jobs
their server executed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import common
import digests
import jobs

#: Modules of ``src/repro`` (and numpy) whose ``cProfile`` self time is
#: reported; a module the workload never ran reports a measured 0.
ENGINE_LAYERS = ("gpu", "gpu.lockstep", "gpu.vector", "mem", "sched", "core",
                 "workloads", "numpy")
#: The steps of answering a cached request, in the order serve runs them.
HIT_STEPS = ("api.decode_request", "api.cache_key", "harness.cache.peek", "api.from_dict",
             "api.to_dict", "serve.canonical_json", "harness.integrity.digest")
#: In-process replays of each hit, for the per-layer medians.
REPLAYS = 10


def timed_cache(root: Path):
    """A ``ResultCache`` under ``root`` that records when each ``put`` finished.

    ``run_jobs(workers=1)`` writes each result as soon as its job is done,
    so the gaps between puts are the jobs' latencies.
    """
    from repro.harness.cache import ResultCache

    class TimedCache(ResultCache):
        def put(self, key, result):
            out = super().put(key, result)
            self.done.append(time.perf_counter())
            return out

    cache = TimedCache(root / "cache", quarantine=root / "quarantine")
    cache.done = []
    return cache


def run_part(cases: list, root: Path, profile=None, tracer=None, before=None) -> dict:
    """``run_jobs(workers=1)`` over ``[(case id, request)]`` with an empty cache.

    Returns the wall and CPU seconds of the call, each job's latency, and
    each result's digest and ``sim.*`` counts.  ``before`` runs first,
    untimed (the vector part clears the trace cache there).
    """
    from repro.harness.parallel import run_jobs

    cache = timed_cache(root)
    if before is not None:
        before()
    requests = [request for _, request in cases]
    cpu, start = time.process_time(), time.perf_counter()
    if profile is not None:
        profile.enable()
    if tracer is None:
        outcome = run_jobs(requests, workers=1, cache=cache)
    else:
        with tracer.span("harness.parallel.run_jobs"):
            outcome = run_jobs(requests, workers=1, cache=cache)
    if profile is not None:
        profile.disable()
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    done = [start] + cache.done
    results = [
        {"case": case, "digest": digests.result_digest(result.to_dict()),
         "sim": jobs.sim_counts(result)}
        for (case, _), result in zip(cases, outcome.results)
    ]
    return {"wall": wall, "cpu": cpu, "job_s": [b - a for a, b in zip(done, done[1:])],
            "results": results, "bytes": cache.size_bytes()}


def install_spans(tracer, keys: dict) -> list:
    """Wrap the public calls of a sweep in spans; returns the undo list.

    ``keys`` maps each request's cache key to its case id.
    """
    import repro.backends as backends
    import repro.gpu.vector.backend as vector_backend
    from repro.gpu.vector.trace import KernelTrace, trace_cache_info
    from repro.harness.cache import ResultCache

    undo = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for attr in ("materialize", "materialize_model", "materialize_tenants"):
        patch(backends, attr, tracer.wrap("backends.materialize", getattr(backends, attr)))
    for cls in (backends.ReferenceBackend, backends.LockstepBackend, vector_backend.VectorBackend):
        original = cls.execute

        def execute(self, request, _original=original, _name=f"backends.{cls.name}.execute"):
            with tracer.span(_name, case=f"{request.benchmark_name}/{request.scheduler}"):
                return _original(self, request)

        patch(cls, "execute", execute)
    original_put = ResultCache.put

    def put(self, key, result):
        with tracer.span("harness.cache.put", case=keys.get(key)):
            return original_put(self, key, result)

    patch(ResultCache, "put", put)
    original_trace = vector_backend.kernel_trace_for_model

    def kernel_trace(model, kernel):
        before = trace_cache_info()[0]
        with tracer.span("gpu.vector.trace") as span:
            trace = original_trace(model, kernel)
        span.name = "gpu.vector.trace.miss" if trace_cache_info()[0] > before else "gpu.vector.trace.hit"
        return trace

    patch(vector_backend, "kernel_trace_for_model", kernel_trace)
    # Warp streams are extracted lazily, on a trace's first use of each warp.
    patch(KernelTrace, "warp", tracer.wrap("gpu.vector.trace.warp", KernelTrace.warp))
    return undo


def traced_part(mode: str, cases: list, root: Path, before=None) -> dict:
    """:func:`run_part` with spans (``mode == "spans"``) or under ``cProfile``."""
    if mode == "profile":
        import cProfile
        import pstats

        from spans import module_self_times

        profile = cProfile.Profile()
        out = run_part(cases, root, profile, before=before)
        out["layers"] = module_self_times(pstats.Stats(profile))
        return out
    from dataclasses import asdict

    from spans import Tracer

    tracer = Tracer()
    undo = install_spans(tracer, {request.cache_key(): case for case, request in cases})
    try:
        out = run_part(cases, root, tracer=tracer, before=before)
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    out["spans"] = [asdict(s) for s in tracer.spans]
    return out


def _mean(values: list) -> float:
    if not values:
        raise common.BenchError("a per-layer mean has no samples")
    return sum(values) / len(values)


def engine_metrics(spanned: list, profiled: list) -> tuple[dict, dict]:
    """``(metrics, extras)`` of the engine layers from traced parts.

    ``metrics`` are the per-layer metrics every workload reports; ``extras``
    (printed and written to the trace file) only exist where a workload ran
    the engine or the call they describe.
    """
    from spans import Span

    parts = [[Span(**d) for d in part["spans"]] for part in spanned]
    every = [s for part in parts for s in part]

    def ms(name: str) -> list:
        return [s.duration * 1000 for s in every if s.name == name]

    materialize = []
    for part in parts:  # span ids are unique within a part only
        names = {s.id: s.name for s in part}
        materialize += [s.duration * 1000 for s in part if s.name == "backends.materialize"
                        and names.get(s.parent) != "backends.materialize"]
    execute = {name.split(".")[1]: ms(name) for name in sorted({s.name for s in every})
               if name.startswith("backends.") and name.endswith(".execute")}
    profile: dict = {}
    for part in profiled:
        for layer, seconds in part["layers"].items():
            profile[layer] = profile.get(layer, 0.0) + seconds
    metrics = {
        **{f"{layer}.self_s": profile.get(layer, 0.0) for layer in ENGINE_LAYERS},
        "backends.execute_ms_mean": _mean([v for values in execute.values() for v in values]),
        "backends.materialize_ms_mean": _mean(materialize),
        "harness.cache.put_ms_mean": _mean(ms("harness.cache.put")),
        "harness.cache.bytes_written": sum(part["bytes"] for part in spanned),
    }
    extras = {
        **{f"backends.{engine}.execute_ms_mean": _mean(v) for engine, v in execute.items()},
        "harness.parallel.overhead_s": (sum(ms("harness.parallel.run_jobs"))
                                        - sum(map(sum, execute.values()))) / 1000,
    }
    if ms("gpu.vector.trace.miss"):
        extras.update({
            "gpu.vector.trace_ms": sum(ms("gpu.vector.trace.miss") + ms("gpu.vector.trace.warp")),
            "gpu.vector.trace_misses": len(ms("gpu.vector.trace.miss")),
            "gpu.vector.trace_hits": len(ms("gpu.vector.trace.hit")),
        })
    return metrics, extras


def replay_hit_path(root: Path, keys: list, tracer) -> dict:
    """The cache-hit path, in process, over ``keys`` (``[(case, payload)]``).

    ``root`` holds the cache with the workload's results (``root/cache``).
    Returns the median milliseconds of each step and ``hit_path_ms``, their
    sum.
    """
    from repro.api import decode_request
    from repro.gpu.gpu import SimulationResult
    from repro.harness.cache import ResultCache
    from repro.harness.integrity import result_digest
    from repro.serve.http import canonical_json

    cache = ResultCache(root / "cache", quarantine=root / "quarantine")
    for _ in range(REPLAYS):
        for case, payload in keys:
            with tracer.span("replay.hit", case=case):
                with tracer.span("api.decode_request"):
                    request = decode_request(json.loads(payload))
                with tracer.span("api.cache_key"):
                    key = request.cache_key()
                with tracer.span("harness.cache.peek"):
                    stored = cache.peek(key)
                if stored is None:
                    raise common.BenchError(f"replay: {case} is not in the cache")
                with tracer.span("api.from_dict"):
                    result = SimulationResult.from_dict(stored)
                with tracer.span("api.to_dict"):
                    wire = result.to_dict()
                with tracer.span("serve.canonical_json"):
                    canonical_json(wire)
                with tracer.span("harness.integrity.digest"):
                    result_digest(wire)
    out = {f"{name}_ms": common.median([s.duration * 1000 for s in tracer.named(name)])
           for name in HIT_STEPS}
    out["hit_path_ms"] = sum(out.values())
    return out
