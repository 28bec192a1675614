"""The pinned job sets the workloads draw from, and their case ids.

The simulated inputs never depend on ``--seed``: every request runs at
``RunConfig`` seed 1 (scenarios at their own pinned seeds), so each result
can be checked against a digest pinned in ``pinned_digests.json``.  The
benchmark seed only orders the jobs and shapes the request schedules.
"""

from __future__ import annotations

#: The Fig 8 standard matrix: one benchmark per workload class, under the
#: baseline, locality-aware and full-CIAO schedulers, at bench scale.
STANDARD_BENCHMARKS = ("ATAX", "SYRK", "WC", "Backprop")
STANDARD_SCHEDULERS = ("gto", "ccws", "ciao-c")
STANDARD_SCALE = 0.3

#: The six hand-written co-location scenarios (lock-step only).
SCENARIOS = (
    "thrash-vs-compute",
    "symmetric-thrash",
    "mixed-schedulers",
    "asymmetric-split",
    "quad-stress",
    "ciao-shield",
)

#: serve-zipf keys: 18 benchmark x scheduler pairs at a small scale.  While
#: a miss executes, hits on the same server slow down (the engine holds the
#: interpreter lock), so few, short misses keep that slowed share of the
#: requests small.  18 keys give the schedule's 14 introductions (10 single
#: keys with a coalescing follower, 4 pairs batched together) 28 requests
#: answered by an engine run, enough for a median with ten beyond it.
ZIPF_BENCHMARKS = STANDARD_BENCHMARKS + ("GESUMMV", "MVT")
ZIPF_SCHEDULERS = STANDARD_SCHEDULERS
ZIPF_SCALE = 0.05
#: serve-hot serves the standard matrix at the serve-zipf scale.  At scale
#: 0.3 a hit cost 6-7 ms of server CPU, mostly in ``to_dict`` on large
#: results, and its latency swung by 31% of the median over 10 runs while
#: serve-zipf's hits at this scale, in the same minutes, held within 8-16%.
HOT_SCALE = ZIPF_SCALE

SIM_SEED = 1


def case_id(benchmark: str, scheduler: str, scale: float) -> str:
    return f"{benchmark}/{scheduler}@{scale}"


def scenario_case_id(name: str) -> str:
    return f"scenario:{name}"


def standard_cases(scale: float = STANDARD_SCALE) -> list[tuple[str, str, float]]:
    return [(b, s, scale) for b in STANDARD_BENCHMARKS for s in STANDARD_SCHEDULERS]


def zipf_cases() -> list[tuple[str, str, float]]:
    return [(b, s, ZIPF_SCALE) for b in ZIPF_BENCHMARKS for s in ZIPF_SCHEDULERS]


def request(benchmark: str, scheduler: str, scale: float, backend: str):
    """The ``SimulationRequest`` of one matrix case on ``backend``."""
    from repro.api import RunConfig, SimulationRequest

    return SimulationRequest(
        benchmark, scheduler, RunConfig(scale=scale, seed=SIM_SEED), backend=backend
    )


def scenario_request(name: str):
    """The ``MultiTenantRequest`` of one built-in co-location scenario."""
    from repro.harness.experiments import colocation_scenario

    return colocation_scenario(name)


SIM_FIELDS = ("l1d_hits", "l1d_misses", "dram_requests", "vta_hits",
              "redirected_accesses", "throttle_events")


def sim_counts(result) -> dict:
    """The modelled hardware's counts of one ``SimulationResult``."""
    machine = result.machine
    counts = {name: getattr(machine, name) for name in SIM_FIELDS}
    counts["cycles"] = sum(sm.cycles for sm in result.per_sm)
    counts["ipc"] = result.ipc
    counts["l2_hit_rate"] = machine.l2_hit_rate
    counts["inter_sm_dram_conflicts"] = result.inter_sm_dram_conflicts
    return counts


def sim_totals(rows: list) -> dict:
    """``sim.*`` metrics: counts summed over results, rates averaged."""
    totals = {f"sim.{k}": sum(r[k] for r in rows)
              for k in ("cycles", *SIM_FIELDS, "inter_sm_dram_conflicts")}
    totals["sim.ipc"] = sum(r["ipc"] for r in rows) / len(rows)
    totals["sim.l2_hit_rate"] = sum(r["l2_hit_rate"] for r in rows) / len(rows)
    return totals
