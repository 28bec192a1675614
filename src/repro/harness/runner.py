"""Run one (benchmark, scheduler) pair with the paper's methodology.

Historically this module owned the whole execution path; today it is a thin
convenience front end over :mod:`repro.api`: :func:`run_benchmark` builds a
:class:`~repro.api.SimulationRequest` and hands it to
:func:`repro.api.execute`, which dispatches to the selected backend
(``"reference"`` serialized SMs, ``"lockstep"`` cycle-level multi-SM, or any
engine registered with :func:`repro.backends.register_backend`).

The per-benchmark knobs the paper describes all live in the request:

* Best-SWL uses the profiled warp limit ``Nwrp`` from Table II;
* statPCAL's token count is also derived from the profiled limit (token
  holders keep L1D allocation rights, the rest bypass);
* the CIAO variants get the shared-memory cache enabled (CIAO-P / CIAO-C)
  and the default or caller-supplied :class:`~repro.core.config.CIAOParameters`;
* Figure 12 variants are supported through ``gpu_config`` /
  ``dram_bandwidth_scale`` overrides.

``RunConfig`` itself now lives in :mod:`repro.api`; it is re-exported here
(together with :func:`run_benchmark` / :func:`run_many`) so existing imports
keep working.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.api import (  # noqa: F401  (RunConfig re-exported for compatibility)
    RunConfig,
    SimulationRequest,
    execute,
)
from repro.gpu.gpu import SimulationResult
from repro.workloads.spec import BenchmarkSpec


def run_benchmark(
    benchmark: str | BenchmarkSpec,
    scheduler: str = "gto",
    run_config: Optional[RunConfig] = None,
    *,
    backend: Optional[str] = None,
    **overrides,
) -> SimulationResult:
    """Simulate ``benchmark`` under ``scheduler`` and return the result.

    ``overrides`` are applied on top of ``run_config`` (e.g.
    ``run_benchmark("ATAX", "ciao-c", scale=0.5)``).  ``backend`` selects the
    execution engine (default: ``REPRO_BACKEND`` or ``"reference"``).
    """
    config = replace(run_config, **overrides) if run_config is not None else RunConfig(**overrides)
    return execute(SimulationRequest(benchmark, scheduler, config, backend=backend))


def run_many(
    benchmarks: list[str],
    schedulers: list[str],
    run_config: Optional[RunConfig] = None,
    *,
    workers: Optional[int] = None,
    cache="auto",
    backend: Optional[str] = None,
    return_stats: bool = False,
    **overrides,
):
    """Run a benchmark x scheduler sweep through the parallel engine.

    Returns ``{benchmark: {scheduler: SimulationResult}}`` — or, when
    ``return_stats`` is true, a ``(results, SweepStats)`` pair so callers can
    surface cache hits and worker counts.

    ``workers=None`` resolves to ``REPRO_WORKERS`` or the CPU count (a
    single worker runs in-process with no pool); results are bit-identical
    for any worker count because every job's seed is fixed at submission.
    ``cache`` is ``"auto"`` (environment-default result cache), ``None``
    (disabled), or an explicit :class:`repro.harness.cache.ResultCache`.
    ``backend`` selects the execution engine for every job of the sweep.
    """
    from repro.harness.parallel import run_jobs

    config = replace(run_config, **overrides) if run_config is not None else RunConfig(**overrides)
    jobs = [
        SimulationRequest(benchmark, scheduler, config, backend=backend)
        for benchmark in benchmarks
        for scheduler in schedulers
    ]
    outcome = run_jobs(jobs, workers=workers, cache=cache)
    results = outcome.nested()
    if return_stats:
        return results, outcome.stats
    return results
