"""``repro`` — the command-line front end of the reproduction.

Installed as a console script by ``setup.py`` (``pip install -e .``) and also
runnable without installation::

    PYTHONPATH=src python -m repro <subcommand> ...

Subcommands
-----------

``repro run BENCH [SCHED ...]``
    Simulate one benchmark under one or more schedulers and print the
    headline metrics.
``repro run --tenants SPEC`` / ``repro run --scenario NAME``
    Co-located multi-tenant simulation on the lock-step engine: each tenant
    runs its own kernel on its own SM partition while all SMs contend for
    the shared L2/DRAM.  ``SPEC`` is a comma-separated list of
    ``[NAME=]BENCH[/SCHED]:SMS[@CYCLE]`` entries (``SMS`` an SM id or
    ``lo-hi`` range; ``@CYCLE`` staggers the tenant's kernel launch to that
    global cycle), e.g. ``--tenants SM:0-1,2DCONV/ciao-c:2@500``;
    ``--scenario`` picks a named scenario from the co-location library
    (built-ins plus promoted search discoveries).  ``--isolated``
    additionally runs every tenant alone on the same machine and reports
    per-tenant slowdown (scenarios always do).
``repro scenarios generate|search|promote``
    The seeded scenario subsystem: ``generate`` samples reproducible
    co-location scenarios (same seed, same specs, same cache keys),
    ``search`` hill-climbs the scenario space for worst-case interference
    (max per-tenant slowdown), and ``promote`` pins the worst discoveries
    into the named scenario library (``promoted.json``).  See
    docs/EXPERIMENTS.md.
``repro sweep -b BENCH ... -s SCHED ...``
    Run a benchmark x scheduler grid through the parallel sweep engine and
    print the normalised-IPC table, geomean speedups and engine statistics.
    With ``--workers-at HOST:PORT,...`` (or ``--worker-roster
    shards.json``) the same sweep shards across remote ``repro worker``
    processes — partitioned by cache key, streamed into the checkpoint
    manifest, bit-identical to the local run.  See docs/DISTRIBUTED.md.
``repro reproduce FIGURE ...``
    Regenerate the data behind a figure / table of the paper (``fig8``,
    ``fig11a``, ``table2``, ... or ``all``) as JSON.
``repro bench [--quick] [--baseline PATH]``
    Measure simulator throughput (simulated cycles per second) on the
    pinned workload matrix, write ``BENCH_<rev>.json``, append to the bench
    ledger, and optionally gate against a baseline report (exit code 1 on
    regression).  See docs/PERFORMANCE.md.
``repro serve --host --port --workers``
    Boot the long-lived simulation service (see docs/SERVING.md): accepts
    request wire forms on ``POST /simulate``, serves cache hits instantly,
    coalesces identical in-flight requests into one simulation, batches
    the rest into ``run_batch`` on a worker pool, and exposes
    ``/healthz`` / ``/stats`` / ``/jobs``.  SIGTERM or ``POST /shutdown``
    drains gracefully.
``repro worker --host --port``
    Boot a long-lived sweep worker for ``repro sweep --workers-at``:
    accepts ``RequestBatch`` wire forms on ``POST /batch`` and executes
    them through ``run_jobs`` (retry/timeout/chaos stack included).
    SIGTERM or ``POST /shutdown`` drains gracefully.
``repro submit BENCH [SCHED]`` / ``repro submit --file payload.json``
    Submit one request to a running ``repro serve`` instance and print the
    result (the testing client for the service).
``repro cache [show|stats|clear]``
    Show the content-addressed result cache, print the bench-ledger
    statistics (warm vs cold sweep trajectory, the ``repro bench``
    throughput trajectory and ``repro serve`` traffic), or clear the
    cache.
``repro list``
    List the available benchmarks, schedulers and backends
    (``--backends`` for backends only).

Parallelism defaults to the CPU count (``--workers`` / ``REPRO_WORKERS``
override); the result cache defaults to on (``--no-cache`` /
``REPRO_RESULT_CACHE=0`` disable); the execution engine defaults to the
serialized ``reference`` backend (``--backend`` / ``REPRO_BACKEND``
select e.g. the lock-step multi-SM engine).  See docs/EXPERIMENTS.md and
docs/API.md for the full knob reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.api import MultiTenantRequest, SimulationRequest, TenantSpec
from repro.backends import (
    BackendUnavailableError,
    backend_names,
    resolve_backend_name,
)
from repro.harness.cache import ResultCache, cache_enabled_by_env, default_cache_dir
from repro.harness.ledger import (
    ledger_path,
    read_ledger,
    read_ledger_report,
    summarize_ledger,
)
from repro.harness.parallel import (
    JobFailure,
    RetryPolicy,
    SweepError,
    derive_seed,
    run_jobs,
)
from repro.harness.reporting import format_sweep_stats, format_table
from repro.harness.runner import RunConfig
from repro.sched.registry import canonical_scheduler_name, scheduler_names
from repro.version import __version__
from repro.workloads.registry import (
    all_benchmarks,
    get_benchmark,
    resolve_benchmark_names,
)

#: ``repro reproduce`` targets -> experiment function names.
REPRODUCE_TARGETS = {
    "fig1a": "fig1_interference_matrix",
    "fig1b": "fig1_bestswl_vs_ccws",
    "fig4": "fig4_interference_characterisation",
    "table1": "table1_configuration",
    "table2": "table2_benchmarks",
    "fig8": "fig8_main_comparison",
    "fig9": "fig9_timeseries",
    "fig10": "fig10_working_set",
    "fig11a": "fig11_sensitivity_epoch",
    "fig11b": "fig11_sensitivity_cutoff",
    "fig12a": "fig12_cache_configs",
    "fig12b": "fig12_dram_bandwidth",
    "overhead": "overhead_analysis",
}


def _cache_from_args(args) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False) or not cache_enabled_by_env():
        return None
    return ResultCache()


def _add_sweep_options(
    parser: argparse.ArgumentParser, *, scale_default=0.3, seed_default=1
) -> None:
    parser.add_argument("--scale", type=float, default=scale_default,
                        help="workload size multiplier (default 0.3; a "
                             "--scenario run defaults to the scenario's "
                             "pinned scale)" if scale_default is None else
                             "workload size multiplier (default 0.3)")
    parser.add_argument("--seed", type=int, default=seed_default,
                        help="base workload RNG seed (default 1; a --scenario "
                             "run defaults to the scenario's pinned seed)"
                        if seed_default is None else
                        "base workload RNG seed (default 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: REPRO_WORKERS or CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache for this invocation")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution engine, one of: "
                             f"{', '.join(backend_names())} (or any registered "
                             "alias; default: REPRO_BACKEND or 'reference')")


# ---------------------------------------------------------------------------
# repro run
# ---------------------------------------------------------------------------
def parse_tenant_specs(text: str, *, default_scheduler: str = "gto") -> tuple[TenantSpec, ...]:
    """Parse a ``--tenants`` value into :class:`TenantSpec` tuples.

    Grammar: comma-separated ``[NAME=]BENCH[/SCHED]:SMS[@CYCLE]`` entries,
    where ``SMS`` is one SM id (``3``) or an inclusive range (``0-7``) and
    ``@CYCLE`` optionally staggers the tenant's kernel launch to that global
    cycle (default 0, simultaneous launch).  Tenant names default to the
    benchmark name (``-2``, ``-3`` suffixes keep duplicates unique), and
    every tenant receives its own address space.
    """
    tenants: list[TenantSpec] = []
    seen_names: dict[str, int] = {}
    for index, raw in enumerate(text.split(",")):
        entry = raw.strip()
        head, sep, sms_text = entry.rpartition(":")
        if not sep or not head or not sms_text:
            raise ValueError(
                f"bad tenant spec {entry!r} (expected [NAME=]BENCH[/SCHED]:SMS[@CYCLE], "
                "e.g. SM:0-1 or compute=2DCONV/ciao-c:2@500)"
            )
        name = None
        if "=" in head:
            name, _, head = head.partition("=")
            name = name.strip()
        benchmark, _, scheduler = head.partition("/")
        benchmark = get_benchmark(benchmark.strip()).name
        scheduler = canonical_scheduler_name(scheduler.strip() or default_scheduler)
        sms_text, at, cycle_text = sms_text.partition("@")
        launch_cycle = 0
        if at:
            try:
                launch_cycle = int(cycle_text)
            except ValueError:
                raise ValueError(
                    f"bad launch cycle {cycle_text!r} in tenant {entry!r} "
                    "(need a non-negative int after '@')"
                ) from None
            if launch_cycle < 0:
                raise ValueError(
                    f"bad launch cycle {cycle_text!r} in tenant {entry!r} "
                    "(need a non-negative int after '@')"
                )
        lo, dash, hi = sms_text.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first  # 'ATAX:0-' fails: int('')
        except ValueError:
            raise ValueError(f"bad SM range {sms_text!r} in tenant {entry!r}") from None
        if last < first:
            raise ValueError(f"empty SM range {sms_text!r} in tenant {entry!r}")
        if not name:
            name = benchmark
        count = seen_names.get(name, 0) + 1
        seen_names[name] = count
        if count > 1:
            name = f"{name}-{count}"
        tenants.append(
            TenantSpec(
                name=name,
                benchmark=benchmark,
                scheduler=scheduler,
                sm_ids=tuple(range(first, last + 1)),
                address_space=index + 1,
                launch_cycle=launch_cycle,
            )
        )
    return tuple(tenants)


def _cmd_run_tenants(args) -> int:
    """The multi-tenant arm of ``repro run`` (--tenants / --scenario)."""
    from repro.harness import experiments

    if args.benchmark or args.schedulers:
        print("error: --tenants/--scenario replaces the positional "
              "BENCH [SCHED ...] arguments", file=sys.stderr)
        return 2
    try:
        if args.scenario:
            request = experiments.colocation_scenario(
                args.scenario, scale=args.scale, seed=args.seed, backend=args.backend
            )
            with_isolated = True  # scenarios always report slowdown vs isolated
        else:
            tenants = parse_tenant_specs(args.tenants)
            request = MultiTenantRequest(
                tenants=tenants,
                run_config=RunConfig(
                    scale=args.scale if args.scale is not None else 0.3,
                    seed=args.seed if args.seed is not None else 1,
                ),
                backend=args.backend,
            )
            with_isolated = args.isolated
        request.canonicalize()  # fail fast on bad partitions / unknown names
    except ValueError as exc:
        # Bad --tenants specs / SM partitions are usage errors; engine
        # ValueErrors raised mid-simulation still traceback normally.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = [request]
    if with_isolated:
        jobs += [request.isolated_request(t.name) for t in request.tenants]
    cache = _cache_from_args(args)
    outcome = run_jobs(jobs, workers=args.workers, cache=cache)
    colocated = outcome.results[0]
    isolated = {
        tenant.name: result
        for tenant, result in zip(request.tenants, outcome.results[1:])
    }

    from repro.analysis.metrics import tenant_slowdowns

    slowdowns = tenant_slowdowns(colocated, isolated) if with_isolated else {}
    staggered = any(t.launch_cycle for t in request.tenants)
    rows = []
    for tenant in request.tenants:
        stats = colocated.per_tenant[tenant.name]
        row = {
            "tenant": tenant.name,
            "benchmark": tenant.benchmark_name,
            "scheduler": stats.scheduler,
            "sms": "+".join(str(i) for i in stats.sm_ids),
        }
        if staggered:
            row["launch"] = stats.launch_cycle
        row |= {
            "cycles": stats.finish_cycle,
            "ipc": stats.ipc,
            "dram_conflicts": stats.inter_sm_dram_conflicts,
        }
        if with_isolated:
            row["isolated_cycles"] = int(slowdowns[tenant.name]["isolated_cycles"])
            row["slowdown"] = slowdowns[tenant.name]["slowdown"]
        rows.append(row)

    if args.json:
        from repro.api import RESULT_SCHEMA

        json.dump(
            {
                "scenario": args.scenario,
                "tenants": rows,
                "per_tenant": slowdowns or None,
                "inter_sm_dram_conflicts": colocated.inter_sm_dram_conflicts,
                "backend": colocated.backend,
                "scale": request.run_config.scale,
                "seed": request.run_config.seed,
                "result_schema": RESULT_SCHEMA,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        title = f"scenario {args.scenario}" if args.scenario else "co-located tenants"
        print(f"{title} @ scale {request.run_config.scale}, "
              f"seed {request.run_config.seed} ({colocated.backend} backend)")
        print(format_table(rows))
        print(f"\ninter-SM DRAM conflicts: {colocated.inter_sm_dram_conflicts} "
              "(attributed per tenant above)")
        print(format_sweep_stats(outcome.stats))
    return 0


def cmd_run(args) -> int:
    if args.tenants and args.scenario:
        print("error: use either --tenants or --scenario, not both", file=sys.stderr)
        return 2
    if args.tenants or args.scenario:
        return _cmd_run_tenants(args)
    if not args.benchmark:
        print("error: benchmark argument required (or use --tenants/--scenario)",
              file=sys.stderr)
        return 2
    if args.isolated:
        print("error: --isolated only applies to --tenants/--scenario runs",
              file=sys.stderr)
        return 2
    get_benchmark(args.benchmark)  # validate up front for a clean error
    schedulers = [canonical_scheduler_name(s) for s in (args.schedulers or ["gto"])]
    scale = args.scale if args.scale is not None else 0.3
    seed = args.seed if args.seed is not None else 1
    config = RunConfig(scale=scale, seed=seed)
    jobs = [
        SimulationRequest(args.benchmark, sched, config, backend=args.backend)
        for sched in schedulers
    ]
    cache = _cache_from_args(args)
    outcome = run_jobs(jobs, workers=args.workers, cache=cache)

    rows = []
    for job, result in outcome:
        stats = result.sm0
        rows.append({
            "scheduler": job.scheduler,
            "ipc": result.ipc,
            "cycles": stats.cycles,
            "l1d_hit_rate": stats.l1d_hit_rate,
            "shared_cache_hit_rate": stats.shared_cache_hit_rate,
            "vta_hits": stats.vta_hits,
            "mean_active_warps": stats.active_warp_series.mean(),
        })
    if args.json:
        from repro.api import RESULT_SCHEMA

        json.dump(
            {
                "benchmark": args.benchmark,
                "rows": rows,
                "backend": outcome.stats.backend,
                "result_schema": RESULT_SCHEMA,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"{args.benchmark} @ scale {scale}, seed {seed}")
        print(format_table(rows))
        print(format_sweep_stats(outcome.stats))
    return 0


# ---------------------------------------------------------------------------
# repro sweep
# ---------------------------------------------------------------------------
def _sweep_retry_policy(args) -> Optional[RetryPolicy]:
    """Build the sweep's RetryPolicy from CLI flags (None = defaults)."""
    if (
        args.timeout is None
        and args.straggler is None
        and args.max_attempts == 3
    ):
        return None  # run_jobs substitutes a default policy when retrying
    return RetryPolicy(
        max_attempts=args.max_attempts,
        timeout_seconds=args.timeout,
        straggler_seconds=args.straggler,
        seed=args.seed,
    )


def cmd_sweep(args) -> int:
    benchmarks = resolve_benchmark_names(args.benchmarks)
    schedulers = [canonical_scheduler_name(s) for s in args.schedulers]

    backend = args.backend
    if args.chaos:
        # Wrap the selected engine in the seeded fault injector: jobs run
        # on the `chaos` backend, which delegates to the real one.  The
        # plan is mirrored into REPRO_CHAOS so pool workers see it too.
        from dataclasses import replace as _dc_replace

        from repro.harness.faults import FaultPlan, configure_chaos

        try:
            plan = FaultPlan.from_spec(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if backend is not None:
            plan = _dc_replace(plan, delegate=resolve_backend_name(backend))
        configure_chaos(plan)
        backend = "chaos"

    manifest = args.resume or args.manifest
    if args.resume and args.manifest and args.resume != args.manifest:
        print("error: --resume and --manifest name different files",
              file=sys.stderr)
        return 2

    try:
        retry = _sweep_retry_policy(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.audit_rate and not (args.workers_at or args.worker_roster):
        print("error: --audit-rate only applies to distributed sweeps "
              "(--workers-at / --worker-roster); local jobs execute in this "
              "process and need no re-verification", file=sys.stderr)
        return 2

    jobs = []
    for bench in benchmarks:
        for sched in schedulers:
            seed = (
                derive_seed(args.seed, bench, sched)
                if args.seed_per_job
                else args.seed
            )
            jobs.append(
                SimulationRequest(
                    bench, sched, RunConfig(scale=args.scale, seed=seed),
                    backend=backend,
                )
            )
    cache = _cache_from_args(args)
    if args.workers_at or args.worker_roster:
        # Cross-machine sharded sweep: partition by cache key, dispatch to
        # the roster's `repro worker` processes, stream outcomes into the
        # same manifest (--resume works unchanged).  docs/DISTRIBUTED.md.
        from repro.harness.distributed import (
            WorkerSchemaError,
            load_worker_roster,
            parse_workers_at,
            run_distributed,
        )

        try:
            if args.workers_at and args.worker_roster:
                raise ValueError(
                    "--workers-at and --worker-roster are mutually exclusive"
                )
            roster = (
                parse_workers_at(args.workers_at)
                if args.workers_at
                else load_worker_roster(args.worker_roster)
            )
            if args.chunk_size < 1:
                raise ValueError("--chunk-size must be >= 1")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            outcome = run_distributed(
                jobs,
                roster,
                cache=cache,
                on_error=args.on_error,
                retry=retry,
                manifest=manifest,
                chunk_size=args.chunk_size,
                audit_rate=args.audit_rate,
            )
        except WorkerSchemaError as exc:
            # Mixed repro versions across a roster: an operator mistake,
            # surfaced as a one-line error instead of a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        outcome = run_jobs(
            jobs,
            workers=args.workers,
            cache=cache,
            on_error=args.on_error,
            retry=retry,
            manifest=manifest,
        )

    failures = outcome.failures()
    raw: dict[str, dict[str, float]] = {}
    for job, result in outcome:
        if isinstance(result, JobFailure):
            continue
        raw.setdefault(job.benchmark_name, {})[job.scheduler] = result.ipc
    baseline = schedulers[0]
    normalized = {
        bench: {
            sched: (row.get(sched, 0.0) / row[baseline]
                    if row.get(baseline) else 0.0)
            for sched in schedulers
        }
        for bench, row in raw.items()
    }
    stats = outcome.stats
    if outcome.manifest_skipped:
        # Unparseable manifest lines (torn tail from a crash, bit rot) are
        # skipped, never trusted; tell the user how to adjudicate them.
        print(f"warning: skipped {outcome.manifest_skipped} corrupt manifest "
              f"line(s) in {manifest}; run `repro cache fsck --manifest "
              f"{manifest} --repair` to quarantine the damage", file=sys.stderr)
    if args.json:
        json.dump(
            {
                "benchmarks": benchmarks,
                "schedulers": schedulers,
                "raw_ipc": raw,
                "normalized_ipc": normalized,
                "baseline": baseline,
                "backend": stats.backend,
                "executed": stats.executed,
                "cache_hits": stats.cache_hits,
                "failed": stats.failed,
                "retried": stats.retried,
                "timed_out": stats.timed_out,
                "audited": stats.audited,
                "audit_failures": stats.audit_failures,
                "corrupt": stats.corrupt,
                "manifest_skipped": outcome.manifest_skipped,
                "failures": [
                    {
                        "benchmark": f.benchmark_name,
                        "scheduler": f.scheduler,
                        "error_type": f.error_type,
                        "error": f.error,
                        "attempts": f.attempts,
                        "timed_out": f.timed_out,
                    }
                    for f in failures
                ],
            },
            sys.stdout,
            indent=2,
        )
        print()
        return 1 if failures else 0

    rows = [
        {"benchmark": bench, **{s: normalized[bench][s] for s in schedulers}}
        for bench in benchmarks
        if bench in normalized
    ]
    print(f"IPC normalised to {baseline} (scale {args.scale}, seed {args.seed}"
          f"{', per-job seeds' if args.seed_per_job else ''}):")
    print(format_table(rows))
    from repro.harness.reporting import geometric_mean

    complete = [b for b in benchmarks if b in normalized]
    print("\nGeomean speedup over", baseline + ":")
    for sched in schedulers:
        gm = geometric_mean(normalized[b][sched] for b in complete)
        print(f"  {sched:10s} {gm:.3f}")
    print()
    print(format_sweep_stats(stats, cache.stats if cache else None))
    if failures:
        print(f"\n{len(failures)} job(s) failed "
              f"(on_error={args.on_error!r}):")
        for failure in failures:
            extra = ", timed out" if failure.timed_out else ""
            print(f"  {failure.benchmark_name}/{failure.scheduler}: "
                  f"{failure.error_type}: {failure.error} "
                  f"(attempts {failure.attempts}{extra})")
        return 1
    return 0


# ---------------------------------------------------------------------------
# repro reproduce
# ---------------------------------------------------------------------------
def cmd_reproduce(args) -> int:
    from repro.harness import experiments

    targets = list(REPRODUCE_TARGETS) if "all" in args.figures else args.figures
    unknown = [f for f in targets if f not in REPRODUCE_TARGETS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"choose from {', '.join(REPRODUCE_TARGETS)} or 'all'", file=sys.stderr)
        return 2

    cache = _cache_from_args(args)
    output: dict[str, object] = {}
    for figure in targets:
        fn = getattr(experiments, REPRODUCE_TARGETS[figure])
        kwargs: dict[str, object] = {}
        # Tables are pure lookups; everything else simulates via the engine.
        if figure not in ("table1", "table2"):
            kwargs = {
                "scale": args.scale,
                "seed": args.seed,
                "workers": args.workers,
                "cache": cache,
                "backend": args.backend,
            }
        print(f"reproducing {figure} ({REPRODUCE_TARGETS[figure]}) ...", file=sys.stderr)
        output[figure] = fn(**kwargs)

    payload = output if len(targets) > 1 else output[targets[0]]
    text = json.dumps(payload, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    if cache is not None:
        print(
            f"cache: {cache.stats.hits} hits / {cache.stats.lookups} lookups "
            f"({cache.stats.hit_rate:.0%})",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# repro bench
# ---------------------------------------------------------------------------
def cmd_bench(args) -> int:
    from repro.harness import bench as bench_mod

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.tolerance < 1.0:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    benchmarks = resolve_benchmark_names(args.benchmarks) if args.benchmarks else None
    schedulers = (
        [canonical_scheduler_name(s) for s in args.schedulers] if args.schedulers else None
    )
    cases = bench_mod.bench_matrix(
        quick=args.quick,
        backend=resolve_backend_name(args.backend),
        benchmarks=benchmarks,
        schedulers=schedulers,
        scale=args.scale,
        seed=args.seed,
    )
    progress = None if args.json else (lambda message: print(message, file=sys.stderr))
    report = bench_mod.run_bench(
        cases, repeats=args.repeat, quick=args.quick, progress=progress
    )
    report_path = None
    if not args.no_write:
        report_path = bench_mod.write_report(report, args.out)
    ledger = bench_mod.record_bench(report)

    problems: list[str] = []
    deltas: Optional[list[dict]] = None
    if args.baseline:
        try:
            baseline = bench_mod.load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        problems = bench_mod.compare_reports(report, baseline, tolerance=args.tolerance)
        deltas = bench_mod.case_deltas(report, baseline)

    if args.json:
        json.dump(
            {
                **report,
                "report_path": str(report_path) if report_path else None,
                "baseline": args.baseline,
                # Per-case cycles/sec vs the baseline (None for cases the
                # baseline does not know, e.g. new vector rows).
                "deltas": deltas,
                "regressions": problems,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        delta_by_key = {
            (d["benchmark"], d["scheduler"], d["backend"]): d
            for d in (deltas or ())
        }
        rows = []
        for c in report["cases"]:
            row = {
                "benchmark": c["benchmark"],
                "scheduler": c["scheduler"],
                "backend": c["backend"],
                "wall_s": c["wall_seconds"],
                "cycles_per_s": c["cycles_per_second"],
            }
            if deltas is not None:
                delta = delta_by_key.get(
                    (c["benchmark"], c["scheduler"], c["backend"])
                )
                speedup = delta.get("speedup") if delta else None
                row["vs_baseline"] = (
                    f"{speedup:.2f}x" if speedup is not None else "new"
                )
            rows.append(row)
        print(format_table(rows))
        aggregate = report["aggregate"]
        print(
            f"\naggregate: {aggregate['cycles']} cycles in "
            f"{aggregate['wall_seconds']:.2f}s = "
            f"{aggregate['cycles_per_second']:.0f} cycles/sec (rev {report['rev']})"
        )
        if report_path is not None:
            print(f"wrote {report_path}")
        if ledger is not None:
            print(f"ledger: {ledger}")
        for problem in problems:
            print(f"REGRESSION: {problem}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# repro cache / repro list
# ---------------------------------------------------------------------------
def _cmd_cache_fsck(args, cache: ResultCache) -> int:
    """``repro cache fsck [--repair]``: scan cache + manifests + ledger.

    Exit 0 only when nothing is corrupt and no damaged lines remain on
    disk; a scan that merely *found* (and quarantined) damage exits 1 so
    scripts notice, and a following ``--repair`` run exits 0.
    """
    from pathlib import Path

    from repro.harness.integrity import default_quarantine_dir, fsck

    ledger = Path(args.fsck_ledger) if args.fsck_ledger else ledger_path()
    report = fsck(
        cache=cache,
        manifests=[Path(m) for m in (args.fsck_manifest or ())],
        ledger=ledger if ledger.exists() else None,
        repair=args.repair,
    )
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
        return 0 if report.clean else 1
    for artifact in report.artifacts:
        notes = []
        if artifact.detail:
            notes.append(artifact.detail)
        if artifact.damaged_lines:
            notes.append(f"{artifact.damaged_lines} damaged line(s)")
        if artifact.quarantined:
            notes.append("quarantined")
        if artifact.repaired:
            notes.append("repaired")
        suffix = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{artifact.kind:8s} {artifact.verdict:8s} {artifact.path}{suffix}")
    print(f"\nchecked {len(report.artifacts)} artifact(s): "
          f"{report.corrupt} corrupt, {report.legacy} legacy, "
          f"{report.damaged_lines} damaged line(s)"
          f"{f' ({report.unrepaired_damage} unrepaired)' if report.damaged_lines else ''}")
    if cache.stats.quarantined or report.corrupt:
        print(f"quarantine      : {default_quarantine_dir()}")
    if not report.clean:
        if report.repair:
            print("damage remains after --repair; inspect the quarantine "
                  "directory", file=sys.stderr)
        else:
            print("damage found; re-run with --repair to rewrite legacy "
                  "envelopes and strip damaged lines (originals are "
                  "preserved in quarantine)", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args) -> int:
    action = "clear" if getattr(args, "clear", False) else args.action
    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        if cache.stats.quarantined:
            print(f"quarantined {cache.stats.quarantined} corrupt entr"
                  f"{'y' if cache.stats.quarantined == 1 else 'ies'} "
                  "(see repro cache fsck)")
        return 0
    if action == "fsck":
        return _cmd_cache_fsck(args, cache)
    if action == "stats":
        path = ledger_path()
        # A missing .repro/ or ledger file is the normal state of a fresh
        # checkout, not an error: say so plainly instead of an ambiguous
        # "(empty)" (the serve /stats endpoint shares summarize_ledger and
        # reports zeros for the same reason).
        if not path.exists():
            print(f"no bench ledger yet at {path}")
            print("run a sweep (repro sweep), a bench (repro bench) or a "
                  "service session (repro serve) to create it")
            return 0
        entries, skipped = read_ledger_report(path)
        if skipped:
            print(f"warning: skipped {skipped} corrupt ledger line(s); run "
                  "`repro cache fsck --repair` to quarantine the damage",
                  file=sys.stderr)
        if not entries:
            print(f"bench ledger    : {path} (exists but has no entries yet)")
            return 0
        summary = summarize_ledger(entries)
        print(f"bench ledger    : {path}")
        print(f"sweeps          : {summary['sweeps']} "
              f"({summary['cold_sweeps']} cold, {summary['warm_sweeps']} warm)")
        print(f"jobs            : {summary['jobs']} "
              f"({summary['cache_hits']} cached, {summary['hit_rate']:.0%})")
        print(f"wall time       : {summary['wall_seconds']:.2f}s total")
        print(f"mean cold sweep : {summary['mean_cold_wall_seconds']:.2f}s")
        print(f"mean warm sweep : {summary['mean_warm_wall_seconds']:.2f}s")
        if summary["sweeps_by_backend"]:
            per_backend = ", ".join(
                f"{name}: {count}" for name, count in sorted(summary["sweeps_by_backend"].items())
            )
            print(f"by backend      : {per_backend}")
        if summary["bench_runs"]:
            print(f"bench runs      : {summary['bench_runs']} "
                  f"(latest {summary['bench_latest_cycles_per_second']:.0f} cyc/s"
                  f" @ {summary['bench_latest_rev'] or '?'}, "
                  f"best {summary['bench_best_cycles_per_second']:.0f} cyc/s)")
        if summary["serve_sessions"]:
            print(f"serve sessions  : {summary['serve_sessions']} "
                  f"({summary['serve_requests']} requests: "
                  f"{summary['serve_hits']} hits, "
                  f"{summary['serve_coalesced']} coalesced, "
                  f"{summary['serve_executed']} executed)")
        if summary["audited"] or summary["audit_rows"] or summary["corrupt"]:
            print(f"worker audits   : {summary['audited']} audited, "
                  f"{summary['audit_failures']} mismatch(es), "
                  f"{summary['corrupt']} transport-corrupt row(s), "
                  f"{summary['audit_rows']} audit ledger row(s)")
        recent = [e for e in entries if e.get("kind") not in ("bench", "serve")][-5:]
        if recent:
            print("\nmost recent sweeps:")
            print(format_table([
                {
                    "jobs": e.get("jobs", 0),
                    "cached": e.get("cache_hits", 0),
                    "workers": e.get("workers", 0),
                    "wall_s": e.get("wall_seconds", 0.0),
                    "backend": e.get("backend", ""),
                }
                for e in recent
            ]))
        return 0
    enabled = cache_enabled_by_env()
    print(f"cache directory : {default_cache_dir()}")
    print(f"enabled         : {'yes' if enabled else 'no (REPRO_RESULT_CACHE)'}")
    print(f"entries         : {cache.entry_count()}")
    print(f"size            : {cache.size_bytes() / 1024:.1f} KiB")
    print(f"bench ledger    : {ledger_path()} ({len(read_ledger())} sweeps recorded)")
    from repro.harness.integrity import default_quarantine_dir, quarantined_artifacts

    quarantined = quarantined_artifacts()
    if quarantined:
        print(f"quarantine      : {len(quarantined)} artifact(s) in "
              f"{default_quarantine_dir()} (details: repro cache fsck)")
    return 0


def cmd_list(args) -> int:
    if args.backends:
        from repro.backends import backend_availability

        for name, reason in backend_availability().items():
            print(name if reason is None else f"{name} (unavailable: {reason})")
        return 0
    if args.scenarios:
        from repro.harness.experiments import COLOCATION_SCENARIOS

        for scenario in COLOCATION_SCENARIOS.values():
            tenants = ", ".join(
                f"{bench}/{sched}:{'+'.join(str(i) for i in sms)}"
                for _, bench, sched, sms in scenario.tenants
            )
            stagger = (
                " launches @" + "/".join(str(c) for c in scenario.launch_cycles)
                if scenario.launch_cycles else ""
            )
            print(f"{scenario.name:20s} {scenario.description} [{tenants}]{stagger}")
        return 0
    print("Benchmarks (Table II order):")
    rows = [
        {
            "name": spec.name,
            "suite": spec.suite,
            "class": spec.workload_class.name,
            "apki": spec.apki,
            "nwrp": spec.nwrp,
        }
        for spec in all_benchmarks()
    ]
    print(format_table(rows))
    from repro.harness.experiments import colocation_scenario_names

    from repro.backends import backend_availability

    backend_notes = [
        name if reason is None else f"{name} (unavailable: {reason})"
        for name, reason in backend_availability().items()
    ]
    print("\nSchedulers:", ", ".join(scheduler_names()))
    print("Backends:", ", ".join(backend_notes),
          "(select with --backend or REPRO_BACKEND)")
    print("Reproduce targets:", ", ".join(REPRODUCE_TARGETS), "(or 'all')")
    print("Co-location scenarios:", ", ".join(colocation_scenario_names()),
          "(run with repro run --scenario NAME; details: repro list --scenarios)")
    return 0


# ---------------------------------------------------------------------------
# repro scenarios
# ---------------------------------------------------------------------------
def _emit_json(payload, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _scenario_payload(scenario, *, cache_key=None, extra=None) -> dict:
    payload = scenario.to_json()
    if cache_key is not None:
        payload["cache_key"] = cache_key
    if extra:
        payload.update(extra)
    return payload


def cmd_scenarios_generate(args) -> int:
    from repro.scenarios import SCENARIO_SCHEMA, generate_scenarios

    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2
    scenarios = generate_scenarios(
        args.seed,
        args.count,
        scale=args.scale,
        max_sms=args.max_sms,
        max_tenants=args.max_tenants,
        stagger_span=args.stagger_span,
    )
    payload = {
        "schema": SCENARIO_SCHEMA,
        "generator": {
            "seed": args.seed,
            "count": args.count,
            "scale": args.scale,
            "max_sms": args.max_sms,
            "max_tenants": args.max_tenants,
            "stagger_span": args.stagger_span,
        },
        # Each entry carries the co-located request's content-addressed
        # cache key: the reproducibility receipt for the spec.
        "scenarios": [
            _scenario_payload(s, cache_key=s.request().cache_key())
            for s in scenarios
        ],
    }
    _emit_json(payload, args.out)
    return 0


def _run_search(args):
    from repro.scenarios import search

    return search(
        args.seed,
        restarts=args.restarts,
        steps=args.steps,
        scale=args.scale,
        max_sms=args.max_sms,
        max_tenants=args.max_tenants,
        stagger_span=args.stagger_span,
        workers=args.workers,
        cache=_cache_from_args(args),
    )


def cmd_scenarios_search(args) -> int:
    try:
        outcome = _run_search(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json or args.out:
        payload = {
            "seed": args.seed,
            "restarts": args.restarts,
            "steps": args.steps,
            "scale": args.scale,
            "best": _scenario_payload(
                outcome.best, extra={"objective": outcome.best_objective}
            ),
            "evaluations": outcome.evaluations,
            "reused": outcome.reused,
            "ledger": [
                {
                    **_scenario_payload(row.scenario, cache_key=row.cache_key),
                    "objective": row.objective,
                    "slowdowns": row.slowdowns,
                    "restart": row.restart,
                    "step": row.step,
                    "accepted": row.accepted,
                }
                for row in outcome.ledger
            ],
        }
        _emit_json(payload, args.out)
        return 0
    print(format_table([
        {
            "restart": row.restart,
            "step": row.step,
            "scenario": row.scenario.name,
            "max_slowdown": row.objective,
            "accepted": "yes" if row.accepted else "",
        }
        for row in outcome.ledger
    ]))
    print(f"\nbest: {outcome.best.name} with max slowdown "
          f"{outcome.best_objective:.3f} "
          f"({outcome.evaluations} points simulated, {outcome.reused} reused)")
    tenants = ", ".join(
        f"{bench}/{sched}:{'+'.join(str(i) for i in sms)}"
        for _, bench, sched, sms in outcome.best.tenants
    )
    launches = outcome.best.launch_cycles or "simultaneous"
    print(f"  tenants: {tenants}")
    print(f"  launch cycles: {launches}, scale {outcome.best.scale}, "
          f"seed {outcome.best.seed}")
    print("  pin it: repro scenarios promote with the same --seed/--restarts/--steps")
    return 0


def cmd_scenarios_promote(args) -> int:
    from pathlib import Path

    from repro.scenarios import PROMOTED_PATH, promote, promoted_from_search

    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return 2
    try:
        outcome = _run_search(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    chosen = promoted_from_search(
        outcome, top_k=args.top_k, name_prefix=args.prefix
    )
    if args.dry_run:
        _emit_json([scenario.to_json() for scenario in chosen], None)
        return 0
    path = Path(args.path) if args.path else None
    try:
        all_promoted = promote(chosen, path=path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario in chosen:
        print(f"promoted {scenario.name}: {scenario.description}")
    print(f"fixture: {path or PROMOTED_PATH} "
          f"({len(all_promoted)} promoted scenario(s) total)")
    print("next: regenerate the pinned goldens — "
          "PYTHONPATH=src python scripts/regen_goldens.py")
    return 0


# ---------------------------------------------------------------------------
# repro serve / repro submit
# ---------------------------------------------------------------------------
def cmd_serve(args) -> int:
    """``repro serve`` — and ``repro worker``, the same service under worker
    defaults (port 8652, one worker, the serve-only knobs at theirs)."""
    import asyncio

    from repro.serve import ReproService, run_service

    checks = (
        (args.workers < 1, "--workers must be >= 1"),
        (args.batch_max < 1, "--batch-max must be >= 1"),
        (args.linger < 0, "--linger must be >= 0"),
        (args.retry_max < 1, "--retry-max must be >= 1"),
        (args.batch_timeout is not None and args.batch_timeout <= 0,
         "--batch-timeout must be positive"),
        (args.max_queue_depth is not None and args.max_queue_depth < 1,
         "--max-queue-depth must be >= 1"),
    )
    error = next((message for bad, message in checks if bad), None)
    if error is None and args.backend is not None:
        try:
            args.backend = resolve_backend_name(args.backend)
        except KeyError as exc:
            error = exc.args[0]
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    retry = None
    if args.retry_max > 1 or args.batch_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.retry_max,
            timeout_seconds=args.batch_timeout,
        )
    service = ReproService(
        host=args.host,
        port=args.port,
        cache=_cache_from_args(args),
        workers=args.workers,
        batch_max=args.batch_max,
        linger=args.linger,
        backend=args.backend,
        retry=retry,
        max_queue_depth=args.max_queue_depth,
    )
    try:
        # The announce line goes to stdout (flushed) so scripts — CI smokes,
        # coordinators, test harnesses — can parse the bound port when
        # --port 0 asked for an ephemeral one.
        asyncio.run(run_service(
            service,
            announce=lambda address: print(
                f"repro {args.command} listening on {address}", flush=True
            ),
        ))
    except KeyboardInterrupt:
        pass  # the signal handler already drained; a second ^C lands here
    if args.command == "worker":
        print(
            f"drained: {service.batch_requests} batch(es), "
            f"{service.batch_jobs_done} job(s) done, "
            f"{service.batch_jobs_failed} failed",
            flush=True,
        )
    else:
        snapshot = service.stats.snapshot()
        print(
            f"drained: {snapshot['requests']} requests "
            f"({snapshot['hits']} hits, {snapshot['coalesced']} coalesced, "
            f"{snapshot['executed']} executed, {snapshot['failed']} failed, "
            f"{snapshot['shed']} shed, {snapshot['timed_out']} timed out, "
            f"{snapshot['retried']} retried)",
            flush=True,
        )
    summary = service.drain_summary or {}
    if summary.get("drain_errors"):
        print(f"warning: {summary['drain_errors']} worker error(s) during "
              "drain:", file=sys.stderr)
        for message in summary.get("errors", []):
            print(f"  {message}", file=sys.stderr)
        return 1
    return 0


def cmd_submit(args) -> int:
    import urllib.parse

    from repro.serve import DEFAULT_PORT
    from repro.serve.http import http_request

    if args.file:
        try:
            if args.file == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.file) as fh:
                    payload = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read request payload: {exc}", file=sys.stderr)
            return 2
    else:
        if not args.benchmark:
            print("error: benchmark argument required (or use --file)",
                  file=sys.stderr)
            return 2
        request = SimulationRequest(
            get_benchmark(args.benchmark).name,
            canonical_scheduler_name(args.scheduler),
            RunConfig(scale=args.scale, seed=args.seed),
            backend=args.backend,
        )
        payload = request.to_dict()

    url = urllib.parse.urlsplit(args.url)
    host = url.hostname or "127.0.0.1"
    port = url.port or DEFAULT_PORT
    try:
        response = http_request(
            host, port, "POST", "/simulate", json.dumps(payload).encode(),
            timeout=args.timeout,
        )
    except TimeoutError:
        # socket.timeout is TimeoutError: a server that accepts but never
        # answers (or a hung simulation) lands here, not in the generic
        # OSError arm — exit code 3 tells scripts "reachable but hung".
        print(f"error: request to {args.url} timed out after "
              f"{args.timeout}s (server accepted the connection but never "
              "responded)", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc} "
              "(is `repro serve` running?)", file=sys.stderr)
        return 1

    status, body = response.status, response.body
    source = response.headers.get("x-repro-source", "")
    job_id = response.headers.get("x-repro-job", "")
    if status != 200:
        print(f"error: server answered {status}: {body.decode(errors='replace')}",
              file=sys.stderr)
        return 1
    if args.json:
        print(body.decode())
        return 0
    from repro.gpu.gpu import SimulationResult

    result = SimulationResult.from_dict(json.loads(body))
    print(f"{result.kernel_name} / {result.scheduler_name} "
          f"({result.backend} backend, {source or 'unknown'} via job {job_id})")
    rows = [{
        "ipc": result.ipc,
        "cycles": result.sm0.cycles,
        "l1d_hit_rate": result.sm0.l1d_hit_rate,
        "inter_sm_dram_conflicts": result.inter_sm_dram_conflicts,
    }]
    print(format_table(rows))
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CIAO (IPDPS'18) reproduction: simulate, sweep and "
                    "regenerate the paper's figures.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="run one benchmark under one or more schedulers, or a "
             "co-located multi-tenant launch (--tenants / --scenario)",
    )
    p_run.add_argument("benchmark", nargs="?", default=None,
                       help="Table II benchmark name (e.g. ATAX); omit when "
                            "using --tenants or --scenario")
    p_run.add_argument("schedulers", nargs="*",
                       help="scheduler names (default: gto)")
    _add_sweep_options(p_run, scale_default=None, seed_default=None)
    p_run.add_argument("--tenants", metavar="SPEC", default=None,
                       help="co-located tenants as [NAME=]BENCH[/SCHED]:SMS "
                            "entries, comma-separated (SMS: one id or lo-hi), "
                            "e.g. 'SM:0-1,compute=2DCONV/ciao-c:2'; runs on "
                            "the lock-step engine")
    p_run.add_argument("--scenario", metavar="NAME", default=None,
                       help="run a named co-location scenario from the "
                            "built-in library (see repro list --scenarios); "
                            "always reports slowdown vs isolated runs")
    p_run.add_argument("--isolated", action="store_true",
                       help="with --tenants: also run every tenant alone on "
                            "the same machine and report per-tenant slowdown")
    p_run.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="benchmark x scheduler grid via the parallel engine")
    p_sweep.add_argument("-b", "--benchmarks", nargs="+", required=True,
                         help="benchmark names or selectors: all, lws, sws, ci, "
                              "memory-intensive, polybench, mars, rodinia")
    p_sweep.add_argument("-s", "--schedulers", nargs="+",
                         default=["gto", "ccws", "ciao-c"],
                         help="schedulers; the first is the normalisation baseline")
    _add_sweep_options(p_sweep)
    p_sweep.add_argument("--seed-per-job", action="store_true",
                         help="derive a deterministic per-(benchmark, scheduler) seed "
                              "from --seed instead of sharing one seed")
    p_sweep.add_argument("--on-error", choices=("raise", "skip", "retry"),
                         default="raise",
                         help="failure mode: abort the sweep (raise, default), "
                              "record typed JobFailure rows and continue "
                              "(skip), or re-dispatch failed jobs with "
                              "seeded backoff (retry); see docs/RESILIENCE.md")
    p_sweep.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="executions any one job may consume with "
                              "--on-error retry (default 3)")
    p_sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-job deadline on the pool path; a dispatch "
                              "running longer is abandoned and counted "
                              "timed_out (default: none)")
    p_sweep.add_argument("--straggler", type=float, default=None, metavar="SECONDS",
                         help="straggler deadline: a job still running after "
                              "this long is duplicated onto an idle worker, "
                              "first result wins (default: none)")
    p_sweep.add_argument("--manifest", default=None, metavar="PATH",
                         help="append per-job outcomes to this checkpoint "
                              "manifest as they settle (JSON lines; see "
                              "docs/RESILIENCE.md)")
    p_sweep.add_argument("--resume", default=None, metavar="MANIFEST",
                         help="resume an interrupted sweep: with the result "
                              "cache on, jobs already done are served from "
                              "the cache and only the rest execute; outcomes "
                              "keep appending to the same manifest")
    p_sweep.add_argument("--chaos", default=None, metavar="SEED:RATE[:KINDS]",
                         help="run the sweep under the seeded fault injector "
                              "(e.g. 7:0.2 or 7:0.2:fail+hang); same seed, "
                              "same faults — pair with --on-error retry")
    p_sweep.add_argument("--workers-at", default=None, metavar="HOST:PORT,...",
                         help="shard the sweep across these `repro worker` "
                              "processes instead of running locally; results "
                              "are bit-identical to a local sweep (see "
                              "docs/DISTRIBUTED.md)")
    p_sweep.add_argument("--worker-roster", default=None, metavar="PATH",
                         help='worker roster file: {"workers": '
                              '["host:port", ...]} (alternative to '
                              "--workers-at)")
    p_sweep.add_argument("--chunk-size", type=int, default=4, metavar="N",
                         help="jobs per dispatch chunk on the distributed "
                              "path — the most one lost worker forfeits "
                              "(default 4)")
    p_sweep.add_argument("--audit-rate", type=float, default=0.0, metavar="R",
                         help="distributed sweeps only: re-execute a seeded "
                              "fraction R of worker-returned jobs locally and "
                              "compare content digests; a mismatch discards "
                              "and re-dispatches that worker's outcomes "
                              "(default 0 = trust the fleet)")
    p_sweep.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="regenerate a figure/table of the paper as JSON")
    p_rep.add_argument("figures", nargs="+",
                       help=f"one or more of: {', '.join(REPRODUCE_TARGETS)}, all")
    _add_sweep_options(p_rep)
    p_rep.add_argument("--out", help="write JSON here instead of stdout")
    p_rep.set_defaults(func=cmd_reproduce)

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator throughput (cycles/sec) on the pinned workload matrix",
    )
    p_bench.add_argument("--quick", action="store_true",
                         help="run the small smoke matrix (CI-sized, a few seconds)")
    p_bench.add_argument("-b", "--benchmarks", nargs="+", metavar="BENCH",
                         help="override the pinned benchmark list (names or selectors)")
    p_bench.add_argument("-s", "--schedulers", nargs="+", metavar="SCHED",
                         help="override the pinned scheduler list")
    p_bench.add_argument("--scale", type=float, default=None,
                         help="override the pinned workload scale")
    p_bench.add_argument("--seed", type=int, default=1,
                         help="workload RNG seed (default 1)")
    p_bench.add_argument("--backend", default=None, metavar="NAME",
                         help="execution engine to measure, one of: "
                              f"{', '.join(backend_names())} "
                              "(default: REPRO_BACKEND or 'reference')")
    p_bench.add_argument("--repeat", type=int, default=1, metavar="N",
                         help="time each case N times and keep the best (default 1)")
    p_bench.add_argument("--out", default=".", metavar="DIR",
                         help="directory for the BENCH_<rev>.json report (default: .)")
    p_bench.add_argument("--no-write", action="store_true",
                         help="skip writing the BENCH_<rev>.json report")
    p_bench.add_argument("--baseline", metavar="PATH",
                         help="compare against a baseline BENCH_*.json; exit 1 when "
                              "cycles/sec regressed beyond --tolerance")
    p_bench.add_argument("--tolerance", type=float, default=0.30, metavar="FRAC",
                         help="allowed fractional cycles/sec regression vs the "
                              "baseline (default 0.30)")
    p_bench.add_argument("--json", action="store_true",
                         help="emit the report (plus any regressions) as JSON")
    p_bench.set_defaults(func=cmd_bench)

    from repro.scenarios.generator import DEFAULT_STAGGER_SPAN

    p_scn = sub.add_parser(
        "scenarios",
        help="generate seeded co-location scenarios, search for worst-case "
             "interference, promote discoveries into the library",
    )
    scn_sub = p_scn.add_subparsers(dest="action", required=True)

    def add_space_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1,
                       help="generator stream seed (default 1); the whole "
                            "command is deterministic in it")
        p.add_argument("--scale", type=float, default=0.05,
                       help="workload size multiplier (default 0.05)")
        p.add_argument("--max-sms", type=int, default=5,
                       help="largest sampled machine (default 5 SMs)")
        p.add_argument("--max-tenants", type=int, default=4,
                       help="most sampled tenants (default 4)")
        p.add_argument("--stagger-span", type=int, default=DEFAULT_STAGGER_SPAN,
                       help="exclusive upper bound on sampled launch-cycle "
                            f"offsets (default {DEFAULT_STAGGER_SPAN}; "
                            "0 disables staggered launches)")

    p_gen = scn_sub.add_parser(
        "generate",
        help="sample reproducible scenario specs (JSON, with cache keys)",
    )
    add_space_options(p_gen)
    p_gen.add_argument("--count", type=int, default=5,
                       help="scenarios to sample from the stream (default 5)")
    p_gen.add_argument("--out", metavar="PATH",
                       help="write JSON here instead of stdout")
    p_gen.set_defaults(func=cmd_scenarios_generate)

    def add_search_options(p: argparse.ArgumentParser) -> None:
        add_space_options(p)
        p.add_argument("--restarts", type=int, default=3,
                       help="independent hill climbs (default 3)")
        p.add_argument("--steps", type=int, default=5,
                       help="mutation proposals per climb (default 5)")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: REPRO_WORKERS or CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache for this invocation")

    p_search = scn_sub.add_parser(
        "search",
        help="hill-climb the scenario space for worst-case interference",
    )
    add_search_options(p_search)
    p_search.add_argument("--json", action="store_true",
                          help="emit the full ledger as JSON instead of a table")
    p_search.add_argument("--out", metavar="PATH",
                          help="write the JSON search report here")
    p_search.set_defaults(func=cmd_scenarios_search)

    p_prom = scn_sub.add_parser(
        "promote",
        help="run a search and pin its worst discoveries into the scenario library",
    )
    add_search_options(p_prom)
    p_prom.add_argument("--top-k", type=int, default=2,
                        help="distinct best scenarios to promote (default 2)")
    p_prom.add_argument("--prefix", default="discovered",
                        help="promoted scenario name prefix (default 'discovered')")
    p_prom.add_argument("--path", metavar="PATH",
                        help="promoted fixture to write (default: the library's "
                             "committed promoted.json)")
    p_prom.add_argument("--dry-run", action="store_true",
                        help="print what would be promoted without writing")
    p_prom.set_defaults(func=cmd_scenarios_promote)

    from repro.serve.server import DEFAULT_PORT, DEFAULT_WORKER_PORT

    def add_service_options(p, *, port: int, workers: int, workers_help: str,
                            cache_help: str) -> None:
        """Options of the one service, shared by ``serve`` and ``worker``."""
        p.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=port,
                       help=f"TCP port (default {port}; 0 picks an "
                            "ephemeral port, announced on stdout)")
        p.add_argument("--workers", type=int, default=workers,
                       help=f"{workers_help} (default {workers})")
        p.add_argument("--no-cache", action="store_true", help=cache_help)
        p.add_argument("--backend", default=None, metavar="NAME",
                       help="engine for jobs that do not pin one, one of: "
                            f"{', '.join(backend_names())} "
                            "(default: REPRO_BACKEND or 'reference')")

    p_serve = sub.add_parser(
        "serve",
        help="boot the long-lived simulation service (HTTP/JSON; see "
             "docs/SERVING.md)",
    )
    add_service_options(
        p_serve, port=DEFAULT_PORT, workers=2,
        workers_help="simulations run at once: threads draining /simulate "
                     "batches into run_batch, and the run_jobs width of a "
                     "/batch",
        cache_help="serve without the on-disk result cache (every distinct "
                   "request simulates)",
    )
    serve_only = (
        p_serve.add_argument("--batch-max", type=int, default=16,
                             help="most requests dispatched per batch "
                                  "(default 16)"),
        p_serve.add_argument("--linger", type=float, default=0.05,
                             metavar="SECONDS",
                             help="window after the first queued miss in "
                                  "which later arrivals join its batch "
                                  "(default 0.05)"),
        p_serve.add_argument("--batch-timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="per-batch deadline: a batch running longer "
                                  "fails its jobs with BatchTimeoutError and "
                                  "its worker thread is abandoned (default: "
                                  "none)"),
        p_serve.add_argument("--retry-max", type=int, default=1, metavar="N",
                             help="attempts per dispatched batch, with seeded "
                                  "backoff between them (default 1 = no "
                                  "retry)"),
        p_serve.add_argument("--max-queue-depth", type=int, default=None,
                             metavar="N",
                             help="load-shedding threshold: new leader "
                                  "requests get 503 + Retry-After while the "
                                  "dispatch queue is this deep (default: "
                                  "never shed)"),
    )
    p_serve.set_defaults(func=cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="boot the service with sweep-worker defaults for `repro sweep "
             "--workers-at` (HTTP/JSON batches; see docs/DISTRIBUTED.md)",
    )
    add_service_options(
        p_worker, port=DEFAULT_WORKER_PORT, workers=1,
        workers_help="process-pool width for each batch this worker "
                     "executes; 1 runs in-process",
        cache_help="execute without the on-disk result cache",
    )
    # The preset: the serve-only knobs sit at serve's defaults.
    p_worker.set_defaults(
        func=cmd_serve, **{action.dest: action.default for action in serve_only}
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit one request to a running `repro serve` and print the result",
    )
    p_submit.add_argument("benchmark", nargs="?", default=None,
                          help="Table II benchmark name (omit with --file)")
    p_submit.add_argument("scheduler", nargs="?", default="gto",
                          help="scheduler name (default: gto)")
    p_submit.add_argument("--scale", type=float, default=0.3,
                          help="workload size multiplier (default 0.3)")
    p_submit.add_argument("--seed", type=int, default=1,
                          help="workload RNG seed (default 1)")
    p_submit.add_argument("--backend", default=None, metavar="NAME",
                          help="execution engine to request (default: let the "
                               "server decide)")
    p_submit.add_argument("--file", metavar="PATH",
                          help="POST this JSON request payload verbatim "
                               "(a SimulationRequest or MultiTenantRequest "
                               "wire form; '-' reads stdin)")
    p_submit.add_argument("--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
                          help="service base URL "
                               f"(default http://127.0.0.1:{DEFAULT_PORT})")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="HTTP connect + read timeout in seconds "
                               "(default 300); a hung server exits with "
                               "code 3 instead of blocking forever")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw result wire form instead of a summary")
    p_submit.set_defaults(func=cmd_submit)

    p_cache = sub.add_parser("cache", help="inspect the result cache and bench ledger")
    p_cache.add_argument("action", nargs="?",
                         choices=("show", "stats", "clear", "fsck"),
                         default="show",
                         help="show the cache, print bench-ledger statistics, "
                              "clear the cache, or verify artifact integrity "
                              "(fsck; default: show)")
    p_cache.add_argument("--clear", action="store_true",
                         help="deprecated alias of the 'clear' action")
    p_cache.add_argument("--repair", action="store_true",
                         help="fsck: rewrite repairable legacy envelopes and "
                              "strip damaged manifest/ledger lines (original "
                              "bytes are preserved in quarantine first)")
    p_cache.add_argument("--manifest", action="append", default=None,
                         metavar="PATH", dest="fsck_manifest",
                         help="fsck: also scan this sweep manifest "
                              "(repeatable)")
    p_cache.add_argument("--ledger", default=None, metavar="PATH",
                         dest="fsck_ledger",
                         help="fsck: scan this ledger file instead of the "
                              "default bench ledger")
    p_cache.add_argument("--json", action="store_true",
                         help="fsck: emit the per-artifact report as JSON")
    p_cache.set_defaults(func=cmd_cache)

    p_list = sub.add_parser("list", help="list benchmarks, schedulers, backends, "
                                         "reproduce targets and co-location scenarios")
    p_list.add_argument("--backends", action="store_true",
                        help="list only the registered execution backends")
    p_list.add_argument("--scenarios", action="store_true",
                        help="list only the built-in co-location scenarios")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Configuration validation (REPRO_WORKERS, worker rosters, wire
        # forms): one clear line naming the offending knob, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
