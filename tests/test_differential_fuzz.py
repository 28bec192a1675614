"""Differential backend fuzzing: every engine computes the same simulation.

Hypothesis generates small single-kernel requests and runs each through
every in-tree engine — ``reference`` (serialized), ``lockstep``
(cycle-accurate multi-SM, here on the single-kernel path) and ``vector``
(numpy-batched, silently excluded when numpy is absent).  The results must
be bit-identical after blanking the backend label: that is the repo's
cross-engine parity contract, here probed over the whole request space
instead of the pinned golden matrix.

Example depth is controlled by the hypothesis profile in the root
``conftest.py`` (``ci``: 60 derandomized examples; ``deep``: 600, selected
with ``HYPOTHESIS_PROFILE=deep``), so the small-scale leg deliberately sets
no ``max_examples`` of its own; the bench-scale leg pins a few.
"""

import dataclasses

from hypothesis import Phase, given, settings
from strategies import (
    BENCH_SCALES,
    FUZZ_BENCHMARKS,
    FUZZ_SCHEDULERS,
    HAVE_NUMPY,
    result_dicts,
    simulation_requests,
    strip_backend,
)

from repro.api import execute
from repro.workloads.registry import MEMORY_INTENSIVE_BENCHMARKS

ENGINES = ("reference", "lockstep") + (("vector",) if HAVE_NUMPY else ())

#: The bench-scale leg's pool: cache-thrashing kernels under schedulers that
#: throttle warps from per-cycle hooks — the interplay the vector engine's
#: batched issue must reproduce.
THROTTLING_SCHEDULERS = ("ccws", "ciao-t", "best-swl")


@settings(deadline=None)
@given(
    request=simulation_requests(
        benchmarks=FUZZ_BENCHMARKS, schedulers=FUZZ_SCHEDULERS, backends=(None,)
    )
)
def test_engines_agree_bit_for_bit(request):
    """reference == lockstep == vector on arbitrary single-kernel requests."""
    _assert_engines_agree(request)


def _assert_engines_agree(request):
    results = [
        execute(dataclasses.replace(request, backend=engine)) for engine in ENGINES
    ]
    payloads = strip_backend(result_dicts(results))
    for engine, payload in zip(ENGINES[1:], payloads[1:]):
        assert payload == payloads[0], (
            f"{engine} diverged from reference on {request.benchmark_name}/"
            f"{request.scheduler} seed {request.run_config.seed} "
            f"scale {request.run_config.scale}"
        )


@settings(
    max_examples=6,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),  # shrinking would re-run for minutes
)
@given(
    request=simulation_requests(
        benchmarks=MEMORY_INTENSIVE_BENCHMARKS,
        schedulers=THROTTLING_SCHEDULERS,
        scale=BENCH_SCALES,
        max_seed=2,
        backends=(None,),
    )
)
def test_engines_agree_at_bench_scale(request):
    """The same contract at scale 0.1–0.3, where each example takes seconds.

    A fixed handful of derandomized examples whatever the profile: the
    point is reaching bench-scale interleavings, not example volume.
    """
    _assert_engines_agree(request)


def test_vector_engine_participates_when_numpy_present():
    """Guard: the fuzz above really covers three engines on a full install."""
    if not HAVE_NUMPY:
        assert ENGINES == ("reference", "lockstep")
    else:
        assert "vector" in ENGINES
