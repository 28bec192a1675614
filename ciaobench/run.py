"""The repository benchmark: one command, three workloads, checked outputs.

    python3 ciaobench/run.py --workload figure-sweep|serve-hot|serve-zipf
                             [--seed N] [--seconds S] [--trace 0|1]

Runs against the checkout's ``src`` (see ciaobench/README.md).  Readable
lines come first, each metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes the spans to ``.ciaobench/traces/``; every workload reports
every metric ``BENCHMARK.json`` declares for its mode.  Exits non-zero,
printing no result, when the benchmark cannot run or check its outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

import common

WORKLOADS = ("figure-sweep", "serve-hot", "serve-zipf")


def declared_units() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name -> unit maps from ``BENCHMARK.json``."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def metric_set_error(reported, declared) -> str:
    """Why ``reported`` is not exactly the ``declared`` metric set, or ``""``.

    Every workload must report every metric of its mode: a result line
    with one missing is not a result.
    """
    missing, undeclared = sorted(set(declared) - set(reported)), sorted(set(reported) - set(declared))
    if not (missing or undeclared):
        return ""
    return f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {undeclared}"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "figure-sweep":
        import sweep

        return sweep.run(seed, seconds, trace)
    import serve_load

    runner = serve_load.run_hot if name == "serve-hot" else serve_load.run_zipf
    return runner(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # The benchmark's own process replays layers in process too: a
    # developer's REPRO_* settings must not reach it either.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_LEDGER"] = "0"
    try:
        common.require_checkout()
        end_to_end, per_layer = declared_units()
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (common.BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"ciaobench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    units = per_layer if args.trace else end_to_end
    error = metric_set_error(report.metrics, units)
    if error:
        print(f"ciaobench: {error}", file=sys.stderr)
        return 2
    verifier = report.verifier
    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for line in report.notes:
        print(line)
    for name, metric in sorted(report.metrics.items()):
        print(f"  {name:<40} {metric.value:>16.6g} {units[name]:<6} [{metric.samples}]")
    print(f"  checked {verifier.attempted} operations, {verifier.failed} failed, "
          f"correct={verifier.correct}")
    if verifier.summary():
        print(f"  failed: {verifier.summary()}")
    if report.trace_file is not None:
        print(f"  trace written to {report.trace_file.relative_to(common.ROOT)}")
    bad = [name for name, m in report.metrics.items() if not math.isfinite(m.value)]
    if bad:
        print(f"ciaobench: non-finite metrics {bad}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": m.value, "unit": units[name]}
                    for name, m in sorted(report.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
