"""Tests of the benchmark's own helpers (no server, no simulation).

    python3 -m pytest -q ciaobench
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import digests  # noqa: E402
import serve_load  # noqa: E402
from spans import Span, Tracer, layer_of, self_times, union_length  # noqa: E402


# ---------------------------------------------------------------------------
# quantiles and their sample-count guard
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert common.percentile(list(range(enough - 1)), q) is None
    p = common.percentile(list(range(enough)), q)
    assert p is not None
    assert p.samples == enough
    assert p.beyond == 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert common.percentile(values, 90).value == 90
    assert common.percentile(values, 50).value == 50


def test_failed_samples_count_against_the_percentile():
    values = [0.01] * 85 + [math.inf] * 15
    assert math.isinf(common.percentile(values, 90).value)
    assert math.isinf(common.percentile_metric(values, 90, "requests").value)
    assert common.percentile_metric(values, 50, "requests").value == pytest.approx(10.0)


def test_percentile_metric_refuses_too_few_samples():
    with pytest.raises(common.BenchError):
        common.percentile_metric([0.01] * 19, 50, "requests")


# ---------------------------------------------------------------------------
# the digest verifier
# ---------------------------------------------------------------------------
def _wire(backend: str, cycles: int) -> dict:
    return {"schema": 1, "kind": "SimulationResult",
            "data": {"__dc__": "SimulationResult",
                     "fields": {"backend": backend, "cycles": cycles}}}


def test_digest_ignores_the_backend_label_only():
    common.require_checkout()
    assert digests.result_digest(_wire("reference", 5)) == digests.result_digest(_wire("vector", 5))
    assert digests.result_digest(_wire("reference", 5)) != digests.result_digest(_wire("reference", 6))
    original = _wire("vector", 5)
    digests.result_digest(original)
    assert original["data"]["fields"]["backend"] == "vector"  # not mutated


def test_verifier_counts_failed_operations():
    pins = {"A/gto@0.3": {"digest": "aa"}, "B/ccws@0.3": {"digest": "bb"}}
    v = digests.Verifier(pins, known=frozenset({("vector", "B/ccws@0.3")}))
    assert v.check("reference", "A/gto@0.3", "aa")
    assert not v.check("vector", "B/ccws@0.3", "xx")
    v.ok()
    assert (v.attempted, v.failed) == (3, 1)
    assert v.correct  # the one failure is a known divergence, still counted
    assert not v.check("vector", "A/gto@0.3", "xx")
    assert (v.attempted, v.failed) == (4, 2)
    assert not v.correct
    assert "UNEXPECTED" in v.summary()


def test_verifier_refuses_unpinned_cases():
    with pytest.raises(common.BenchError):
        digests.Verifier({}).check("reference", "nope", "aa")


def test_pinned_vector_divergences_are_pinned_from_reference():
    pins = digests.load_pins()
    for engine, case in digests.KNOWN_DIVERGENT:
        assert engine == "vector"
        assert pins[case]["source"] == "reference"
    assert pins["ATAX/ccws@0.3"]["cycles"] == 97867
    assert pins["SYRK/ccws@0.3"]["cycles"] == 82962


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, "c"),
        Span(2, "a", 1.0, 4.0, 1, "c"),
        Span(3, "b", 3.0, 6.0, 1, "c"),   # overlaps a: covered once
        Span(4, "c", 8.0, 12.0, 1, "c"),  # runs past the parent: clipped
        Span(5, "grandchild", 1.0, 2.0, 2, "c"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (5 + 2))
    assert own[2] == pytest.approx(3 - 1)
    assert own[5] == pytest.approx(1)


def test_tracer_links_parents_and_inherits_case():
    tracer = Tracer()
    with tracer.span("outer", case="k1") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert inner.case == "k1"
    assert outer.parent is None


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/gpu/sm.py", "gpu"),
    ("/x/src/repro/gpu/lockstep.py", "gpu.lockstep"),
    ("/x/src/repro/gpu/vector/engine.py", "gpu.vector"),
    ("/x/src/repro/harness/parallel.py", "harness.parallel"),
    ("/x/src/repro/api.py", "api"),
    ("/x/src/repro/mem/cache.py", "mem"),
    ("/usr/lib/python3.11/json/encoder.py", None),
])
def test_layer_of(path, layer):
    assert layer_of(path) == layer


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------
def test_open_loop_times_requests_from_when_they_were_due():
    schedule = [serve_load.Slot(i * 0.01, f"k{i}", "cache") for i in range(5)]

    def send(slot):
        time.sleep(0.05)
        return slot.case

    sent = serve_load.open_loop(schedule, send, connections=1)
    late = serve_load.lateness(sent)
    assert [s.response for s in sent] == [f"k{i}" for i in range(5)]
    # One connection, 50 ms per request, due every 10 ms: request i waits
    # for the i requests before it, so it leaves about 40 ms x i late.
    for i, s in enumerate(sent):
        assert late[i] >= 0.04 * i - 0.005
        assert s.done - s.slot.due >= late[i] + 0.045
    assert late == sorted(late)


def test_hot_schedule_cycles_every_case_evenly():
    cases = [f"k{i:02d}" for i in range(12)]
    slots = serve_load.hot_schedule(3, 2, cases)
    assert len(slots) == 2 * serve_load.RATE
    assert [s.due for s in slots] == [i / serve_load.RATE for i in range(len(slots))]
    first = [s.case for s in slots[:12]]
    assert sorted(first) == cases
    assert [s.case for s in slots[12:24]] == first
    assert first != [s.case for s in serve_load.hot_schedule(4, 2, cases)[:12]]


def test_lateness_is_never_negative():
    early = serve_load.Sent(serve_load.Slot(1.0, "k", "cache"), 0.999, 1.2, None)
    assert serve_load.lateness([early]) == [0.0]


def test_zipf_schedule_repeats_its_mix():
    cases = [f"k{i:02d}" for i in range(18)]
    a = serve_load.zipf_schedule(7, 25, cases)
    assert a == serve_load.zipf_schedule(7, 25, cases)
    for seed in (1, 2, 3):
        slots = serve_load.zipf_schedule(seed, 25, cases)
        kinds = [s.expect for s in slots]
        assert kinds.count("executed") == 18
        assert kinds.count("coalesced") == 10
        executed = [s for s in slots if s.expect == "executed"]
        assert sorted(s.case for s in executed) == sorted(cases)
        # Ten keys come alone, four pairs are due together (one batch
        # each), and which is which does not depend on the seed.
        dues = [s.due for s in executed]
        assert sorted(dues.count(d) for d in set(dues)) == [1] * 10 + [2] * 4
        alone = {s.case for s in executed if dues.count(s.due) == 1}
        assert alone == {f"k{i:02d}" for i in (0, 1, 4, 5, 8, 9, 12, 13, 16, 17)}
        last_intro = None
        for s in slots:
            if s.expect == "executed":
                last_intro = s.due
            elif s.expect == "coalesced":
                assert s.due - last_intro == pytest.approx(1 / serve_load.RATE)
                assert dues.count(last_intro) == 1
            else:
                assert s.due >= last_intro + serve_load.QUIET_S
    assert serve_load.zipf_schedule(1, 25, cases) != serve_load.zipf_schedule(2, 25, cases)


# ---------------------------------------------------------------------------
# the result line
# ---------------------------------------------------------------------------
def test_every_declared_metric_must_be_reported():
    import run

    end_to_end, per_layer = run.declared_units()
    assert run.metric_set_error(dict.fromkeys(end_to_end), end_to_end) == ""
    partial = dict.fromkeys(list(end_to_end)[1:])
    assert list(end_to_end)[0] in run.metric_set_error(partial, end_to_end)
    assert "undeclared ['x']" in run.metric_set_error({**dict.fromkeys(per_layer), "x": 1}, per_layer)


def test_units_of_numbers_outside_the_result_line():
    assert common.unit_of("sweep_cycles_per_s") == "1/s"
    assert common.unit_of("harness.parallel.overhead_s") == "s"
    assert common.unit_of("serve.queue_wait_ms_p50") == "ms"
    assert common.unit_of("serve.hit_share") == "ratio"
    assert common.unit_of("trace.profile_overhead_pct") == "%"
    assert common.unit_of("gpu.vector.trace_misses") == "count"
