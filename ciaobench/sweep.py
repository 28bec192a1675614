"""The ``figure-sweep`` workload: the Fig 8 job set, run as a researcher runs it.

Three parts: the standard matrix on ``reference``, the same matrix on
``vector``, and the six built-in co-location scenarios on ``lockstep``.
Each part runs ``run_jobs(workers=1)`` with an empty private
``ResultCache`` in a fresh process (this file with ``--child``), so every
part starts cold, as a researcher's sweep does, and no part inherits
another's heap.  A pass runs the three parts once.  The sweep's cost per
job is the CPU seconds of a pass's ``run_jobs`` calls over its 30 jobs
(the median pass); a job's latency is the gap between its result being
written to the cache and the previous one's, its median over the passes
reported as the median over the jobs.  The job set is fixed, so a
change to simulated results cannot move either denominator; the pinned
simulated cycles per second of a pass are printed beside them.

The parent times set-up as spawn-until-ready of every part process and of
one more, which exits once ready, before each part (so the samples spread
over the run), and checks every result against its pinned digest.  The
traced run makes one untraced pass, one with spans and one under
``cProfile``, each part in its own process (see :mod:`layers`).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import common
import digests
import jobs
import layers
from common import Metric, Report

PARTS = ("reference", "vector", "lockstep")
#: Nominal host seconds of one pass on a 2-CPU container (10.5-11.5 s
#: measured); sets how many passes fit in ``--seconds`` (never fewer than
#: three, so the median rejects one slow pass).
PASS_SECONDS = 11.0


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------
def _part_jobs(part: str, rng: random.Random) -> list:
    if part == "lockstep":
        cases = [(jobs.scenario_case_id(n), jobs.scenario_request(n)) for n in jobs.SCENARIOS]
    else:
        cases = [(jobs.case_id(b, s, scale), jobs.request(b, s, scale, part))
                 for b, s, scale in jobs.standard_cases()]
    rng.shuffle(cases)
    return cases


def child_main() -> int:
    # Import everything a sweep touches before announcing readiness, so
    # "ready" marks the end of the cold start a fresh sweep process pays.
    import repro.backends  # noqa: F401
    import repro.gpu.vector.backend  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    from repro.gpu.vector.trace import clear_trace_cache
    from repro.harness.cache import ResultCache  # noqa: F401
    from repro.harness.parallel import run_jobs  # noqa: F401

    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():  # a set-up timing start: nothing to run
        return 0
    spec = json.loads(line)
    mode, part = spec["mode"], spec["part"]
    name = f"{mode}{spec['pass']}-{part}"
    cases = _part_jobs(part, random.Random(f"figure-sweep:{spec['seed']}:{name}"))
    root = Path(spec["private"]) / name
    # Every vector part starts with an empty kernel-trace cache, untimed.
    before = clear_trace_cache if part == "vector" else None
    if mode == "plain":
        out = layers.run_part(cases, root, before=before)
    else:
        out = layers.traced_part(mode, cases, root, before)
    out["part"] = part
    import resource

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------
def _spawn(env: dict) -> tuple[subprocess.Popen, float]:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [common.python(), str(Path(__file__).resolve()), "--child"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        cwd=str(common.ROOT),
    )
    line = common.read_line(proc, 60)
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise common.BenchError(f"sweep child did not start (rc {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, payload: str) -> str:
    out, _ = proc.communicate(payload, timeout=170)
    if proc.returncode != 0:
        raise common.BenchError(f"sweep child exited with {proc.returncode}")
    return out


def _verify(parts: list, verifier: digests.Verifier) -> None:
    for part in parts:
        for row in part["results"]:
            verifier.check(part["part"], row["case"], row["digest"])


def _model_report(parts: list) -> list:
    """The ciao-c/gto and ciao-c/ccws cycle ratios of the reference part."""
    reference = next(p for p in parts if p["part"] == "reference")
    cycles = {row["case"]: row["sim"]["cycles"] for row in reference["results"]}
    lines = ["model (simulated time, reference part; modelled caches start empty "
             "for every kernel; the model is unvalidated against hardware, so no "
             "error figure is given):"]
    totals = {s: 0 for s in jobs.STANDARD_SCHEDULERS}
    for b in jobs.STANDARD_BENCHMARKS:
        row = {s: cycles[jobs.case_id(b, s, jobs.STANDARD_SCALE)] for s in jobs.STANDARD_SCHEDULERS}
        for s, c in row.items():
            totals[s] += c
        lines.append(f"  {b:<9} cycles gto {row['gto']:>7}  ccws {row['ccws']:>7}  "
                     f"ciao-c {row['ciao-c']:>7}  ciao-c/gto {row['ciao-c'] / row['gto']:.3f}  "
                     f"ciao-c/ccws {row['ciao-c'] / row['ccws']:.3f}")
    lines.append(f"  all       ciao-c/gto {totals['ciao-c'] / totals['gto']:.3f}  "
                 f"ciao-c/ccws {totals['ciao-c'] / totals['ccws']:.3f} (cycle ratios; "
                 "below 1 means CIAO-C is faster)")
    sim = jobs.sim_totals([row["sim"] for row in reference["results"]])
    lines.append("  " + "  ".join(f"{k}={v:.6g}" for k, v in sim.items()))
    return lines


def _pinned_cycles(verifier: digests.Verifier, part: dict) -> int:
    return sum(verifier.expected(row["case"])["cycles"] for row in part["results"])


def _cold_start(env: dict) -> float:
    proc, ready = _spawn(env)
    _finish(proc, "")
    return ready


def _child(env: dict, spec: dict, ready: list) -> dict:
    """One part in a fresh process, after one more timed cold start."""
    ready.append(_cold_start(env))
    proc, t = _spawn(env)
    ready.append(t)
    try:
        return json.loads(_finish(proc, json.dumps(spec) + "\n").splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _traced(seed: int, private: Path, plain: list, spanned: list, profiled: list,
            verifier: digests.Verifier) -> tuple[dict, list, Path]:
    """Per-layer metrics, extra lines and trace file of the traced run.

    The traced run makes one plain, one spanned and one profiled pass.  The
    cache-hit path is replayed against the spanned reference part's cache.
    """
    from spans import Span, Tracer, self_times

    def wall(parts: list) -> float:
        return sum(part["wall"] for part in parts)

    metrics, extras = layers.engine_metrics(spanned, profiled)
    tracer = Tracer()
    keys = [(jobs.case_id(*c), json.dumps(jobs.request(*c, "reference").to_dict()).encode())
            for c in jobs.standard_cases()]
    metrics.update(layers.replay_hit_path(private / "spans0-reference", keys, tracer))
    metrics["trace.overhead_pct"] = (wall(spanned) / wall(plain) - 1) * 100
    metrics.update(jobs.sim_totals([row["sim"] for part in plain for row in part["results"]]))
    extras.update({f"{part['part']}_cycles_per_s": _pinned_cycles(verifier, part) / part["wall"]
                   for part in plain})
    extras["trace.profile_overhead_pct"] = (wall(profiled) / wall(plain) - 1) * 100
    path = common.TRACE_DIR / f"figure-sweep-seed{seed}.json"
    tracer.write(path, {
        "workload": "figure-sweep", "seed": seed, "extras": extras,
        "profile_self_s": {p["part"]: p["layers"] for p in profiled},
        "parts": {p["part"]: {"spans": p["spans"],
                              "self_s": self_times(Span(**d) for d in p["spans"])}
                  for p in spanned},
    })
    return metrics, [common.extra_line(k, v) for k, v in sorted(extras.items())], path


def run(seed: int, seconds: float, trace: bool) -> Report:
    verifier = digests.Verifier(digests.load_pins())
    passes = 1 if trace else max(3, int(seconds // PASS_SECONDS))
    modes = ("plain", "spans", "profile") if trace else ("plain",)
    ready: list = []
    with common.PrivateDir() as private:
        env = common.isolated_env(private)
        _cold_start(env)  # untimed, see common.setup_metric
        runs = {mode: [[_child(env, {"seed": seed, "private": str(private), "mode": mode,
                                     "pass": i, "part": part}, ready)
                        for part in PARTS] for i in range(passes)]
                for mode in modes}
        for rows in runs.values():
            for parts in rows:
                _verify(parts, verifier)
        plain = runs["plain"]
        notes = _model_report(plain[0])
        if trace:
            metrics, extra, path = _traced(seed, private, plain[0], runs["spans"][0],
                                           runs["profile"][0], verifier)
            notes += extra
            return Report({k: Metric(v, "traced run") for k, v in metrics.items()},
                          verifier, notes, path)
    n_jobs = sum(len(part["results"]) for part in plain[0])
    rss = max(part["peak_rss_mb"] for parts in plain for part in parts)
    cpus = [sum(part["cpu"] for part in parts) for parts in plain]
    walls = [sum(part["wall"] for part in parts) for parts in plain]
    # Each job's median over the passes, so one slow pass moves the latency
    # as little as it moves the CPU figure.
    by_job: dict = {}
    for parts in plain:
        for part in parts:
            for row, t in zip(part["results"], part["job_s"]):
                by_job.setdefault((part["part"], row["case"]), []).append(t)
    job_s = [common.median(v) for v in by_job.values()]
    metrics = {
        "setup_s": common.setup_metric(ready),
        "peak_rss_mb": Metric(rss, "largest part process"),
        "cpu_ms_per_op": Metric(
            common.median(cpus) / n_jobs * 1000,
            f"median CPU of {passes} passes of {n_jobs} jobs "
            f"({', '.join(f'{c:.2f}' for c in cpus)} s)"),
        "latency_p50_ms": common.percentile_metric(
            job_s, 50, f"jobs, each the median of its {passes} passes"),
    }
    cycles = sum(_pinned_cycles(verifier, part) for part in plain[0])
    notes.append(common.extra_line(
        "sweep_cycles_per_s", cycles / common.median(walls),
        f"{cycles} pinned cycles / median wall of {passes} passes "
        f"({', '.join(f'{w:.2f}' for w in walls)} s)"))
    for index, part in enumerate(PARTS):
        part_walls = [parts[index]["wall"] for parts in plain]
        notes.append(f"  {part} part: {_pinned_cycles(verifier, plain[0][index])} pinned cycles "
                     f"in {', '.join(f'{w:.2f}' for w in part_walls)} s")
    notes.append(f"passes: {passes}; vector part checked against reference digests "
                 f"({sum(1 for f in verifier.failures if f.engine == 'vector')} "
                 f"of {12 * passes} vector jobs differ)")
    return Report(metrics, verifier, notes)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        raise SystemExit(child_main())
    raise SystemExit("usage: run via ciaobench/run.py --workload figure-sweep")
