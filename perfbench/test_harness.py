"""Unit tests of the benchmark harness: self times, the tail percentile and
the metric list.  Run with ``python3 -m pytest perfbench/test_harness.py``."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def span(name, start, end, parent=-1, op="x", counters=None):
    return [name, start, end, parent, op, counters, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a.f", 0.0, 10.0),
        span("b.g", 1.0, 4.0, parent=0),
        span("c.h", 2.0, 3.0, parent=1),
        span("b.g", 5.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("a.f", 0.0, 10.0),
        span("b.g", 1.0, 5.0, parent=0),
        span("b.g", 3.0, 7.0, parent=0),
        span("c.h", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_busy_counts_outermost_spans_and_povm_proposals():
    spans = [
        span("mo.mo_mc_oracle", 0.0, 4.0, op="2j20"),
        span("mo._povm_outcome_offsets", 1.0, 3.0, parent=0, op="2j20",
             counters={"samples": 10}),
        span("rotations.haar_quaternions", 1.0, 1.5, parent=1, op="2j20",
             counters={"draws": 400}),
        span("rotations.haar_quaternions", 0.1, 0.2, parent=0, op="2j20",
             counters={"draws": 10}),
        span("mo.mo_mc_oracle", 1.2, 1.3, parent=1, op="2j20"),  # nested: not busy again
    ]
    s = tracing.summarize(spans)
    assert s["calls"]["mo.mo_mc_oracle"] == 2
    assert s["busy_s"]["mo.mo_mc_oracle"] == pytest.approx(4.0)
    assert s["busy_op_s"]["mo.mo_mc_oracle|2j20"] == pytest.approx(4.0)
    assert s["counters"]["mo.povm.proposals"] == 400
    assert s["counters"]["rotations.haar_quaternions.draws"] == 410
    assert s["module_self_s"]["mo"] == pytest.approx(sum(tracing.self_times(spans)[:2])
                                                     + tracing.self_times(spans)[4])


@pytest.mark.parametrize("n, pct, rank", [(11, 100.0 / 11, 1), (30, 200.0 / 3, 20),
                                          (100, 90.0, 90)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # n..1, unsorted on purpose
    got_pct, value = run.tail_percentile(samples)
    assert got_pct == pytest.approx(pct)
    assert value == rank
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_log_slope_recovers_power_law():
    pts = [(x, 3.0 * x ** 1.5) for x in (20, 100, 400)]
    assert run.log_slope(pts) == pytest.approx(1.5)
    assert run.log_slope([(20, 1.0), (100, 0.0)]) == 0.0


def test_tracer_records_reimported_names_and_restores():
    import spinlearn
    from spinlearn import heisenberg, spins

    original = spins.clebsch_gordan
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, spinlearn)
    try:
        assert heisenberg.clebsch_gordan is spins.clebsch_gordan is not original
        tracer.enabled = True
        heisenberg._coupling_sectors.cache_clear()
        heisenberg.worst_case_fidelity(4, 1.0)
        tracer.enabled = False
    finally:
        restore()
    s = tracing.summarize(tracer.spans)
    assert s["calls"]["spins.clebsch_gordan"] > 0
    assert s["calls"]["heisenberg.per_input_fidelity"] == s["calls"][
        "heisenberg.HeisenbergGate.apply"]
    assert heisenberg.clebsch_gordan is original is spins.clebsch_gordan
    assert "spins.dim" not in s["calls"]


def test_alloc_tracking_reports_peak_above_span_start():
    import tracemalloc

    tracer = tracing.Tracer(alloc=True)
    inner = tracer.wrap("m.inner", lambda: bytearray(4_000_000))
    outer = tracer.wrap("m.outer", lambda: len(inner()))
    tracemalloc.start()
    try:
        tracer.enabled = True
        outer()
    finally:
        tracemalloc.stop()
    peaks = {s[0]: s[6] for s in tracer.spans}
    assert peaks["m.inner"] >= 4_000_000
    assert peaks["m.outer"] >= peaks["m.inner"]


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
