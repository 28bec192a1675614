"""Regenerate ``pinned_digests.json``: the benchmark's expected outputs.

    python3 ciaobench/pin_digests.py

Single-kernel cases are pinned from the ``reference`` engine only, never
from ``vector`` or ``lockstep`` output; co-location scenarios are pinned
from ``lockstep``, the only engine that runs them.  ``cycles`` (summed over
SMs) is the pinned numerator of the figure-sweep throughput metrics.
Re-pin only after a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json

import common
import digests
import jobs


def _entry(result, source: str) -> dict:
    return {
        "digest": digests.result_digest(result.to_dict()),
        "cycles": sum(sm.cycles for sm in result.per_sm),
        "source": source,
    }


def main() -> int:
    common.require_checkout()
    from repro.api import execute

    cases = {}
    for benchmark, scheduler, scale in jobs.standard_cases() + jobs.zipf_cases():
        result = execute(jobs.request(benchmark, scheduler, scale, "reference"))
        cases[jobs.case_id(benchmark, scheduler, scale)] = _entry(result, "reference")
    for name in jobs.SCENARIOS:
        result = execute(jobs.scenario_request(name))
        cases[jobs.scenario_case_id(name)] = _entry(result, "lockstep")
    payload = {
        "note": "blake2b of SimulationResult.to_dict() with backend blanked; "
                "regenerate with python3 ciaobench/pin_digests.py",
        "cases": dict(sorted(cases.items())),
    }
    digests.PINS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"pinned {len(cases)} cases to {digests.PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
