"""Tests of the benchmark's own rules: ``python -m pytest perfbench/tests -q``."""

import sys
import types
from collections import Counter

import pytest

from common import PROBE_REFERENCE_S, at_reference_speed, supports_percentile
from fig8_cold import GOLDEN, normalise
from service_mix import build_schedule, check_payloads
from tracer import OUTSIDE_LAYERS, Tracer


# -- naming a tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "samples, percentile, supported",
    [(100, 90, True), (99, 90, False), (1000, 99, True), (999, 99, False), (40, 75, True)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(samples, percentile, supported):
    assert supports_percentile(samples, percentile) is supported


# -- reference host speed -------------------------------------------------------------


def test_time_scales_by_the_mean_probe():
    assert at_reference_speed(2.0, PROBE_REFERENCE_S) == pytest.approx(2.0)
    # Probes at 1x and 2x the reference mean a host 1.5x slow: the mean
    # probe, not either one alone, sets the scale.
    slow = at_reference_speed(3.0, PROBE_REFERENCE_S, 2 * PROBE_REFERENCE_S)
    assert slow == pytest.approx(2.0)


# -- self time of nested spans --------------------------------------------------------


class FakeClock:
    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_subtracts_child_spans():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 4.0, 5.0, 6.0, 10.0))
    outer = tracer.push("outer", stage="engine", label="net/conv1")
    inner = tracer.push("inner", stage="cycles")
    tracer.pop(inner)  # 1 -> 4
    second = tracer.push("inner", stage="cycles")
    tracer.pop(second)  # 5 -> 6
    tracer.pop(outer)  # 0 -> 10
    assert tracer.stats["outer"].total_s == 10.0
    assert tracer.stats["outer"].self_s == 6.0
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].self_s == 4.0
    assert tracer.stats["inner"].first_s == 3.0
    # The unlabelled inner spans inherit the layer of the span around them.
    assert tracer.cells == {("net/conv1", "engine"): 6.0, ("net/conv1", "cycles"): 4.0}
    assert sum(s.self_s for s in tracer.stats.values()) == 10.0


def test_unlabelled_top_level_span_lands_outside_layers():
    tracer = Tracer(clock=FakeClock(0.0, 2.0))
    tracer.pop(tracer.push("engine.core", stage="engine"))
    assert tracer.cells == {(OUTSIDE_LAYERS, "engine"): 2.0}


def test_wrap_traces_calls_at_the_lookup_site_and_restores(monkeypatch):
    module = types.ModuleType("perfbench_fake_program")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module.leaf, module.outer = leaf, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    tracer.wrap(f"{module.__name__}:outer", "outer", label=lambda x: f"layer{x}", stage="engine")
    tracer.wrap(f"{module.__name__}:leaf", "leaf", stage="cycles")
    tracer.wrap(f"{module.__name__}:gone", "gone")
    assert module.outer(3) == 8
    assert tracer.stats["outer"].calls == tracer.stats["leaf"].calls == 1
    assert tracer.stats["outer"].self_s <= tracer.stats["outer"].total_s
    assert {label for label, _ in tracer.cells} == {"layer3"}
    assert tracer.missing == [f"{module.__name__}:gone"]
    tracer.unwrap_all()
    assert module.outer is outer and module.leaf is leaf


# -- the seeded service schedule ------------------------------------------------------


def test_same_seed_same_requests():
    assert build_schedule(7, 3.4, 30) == build_schedule(7, 3.4, 30)
    first, other = build_schedule(7, 3.4, 30), build_schedule(8, 3.4, 30)
    assert [r.params for r in first] != [r.params for r in other]


def test_every_seed_offers_the_same_load_shape():
    shapes = set()
    for seed in range(5):
        schedule = build_schedule(seed, 3.4, 30)
        assert [r.due_s for r in schedule] == [i / 3.4 for i in range(102)]
        kinds = Counter((r.kind, r.params.get("network")) for r in schedule if r.kind != "repeat")
        shapes.add(tuple(sorted(kinds.items())))
    assert len(shapes) == 1


# -- correctness gates catch perturbed answers ----------------------------------------


def _answers(schedule):
    payloads = {}
    for request in schedule:
        if request.kind == "network":
            seed = request.params["seed"]
            payloads[request.index] = {
                "total_cycles": {"SCNN": 1000 + seed, "DCNN": 3000 + seed, "oracle": 500 + seed}
            }
        elif request.kind == "layer":
            payloads[request.index] = {"cycles": [[request.params["seed"]]]}
    for request in schedule:
        if request.kind == "fig8":
            totals = payloads[request.ref]["total_cycles"]
            payloads[request.index] = {"reports": {"Net": {
                "network_speedup": totals["DCNN"] / totals["SCNN"],
                "oracle_speedup": totals["DCNN"] / totals["oracle"],
            }}}
    for request in schedule:
        if request.kind == "repeat":
            payloads[request.index] = payloads[request.ref]
    return payloads


def test_gate_accepts_consistent_answers():
    schedule = build_schedule(3, 3.4, 30)
    assert check_payloads(schedule, _answers(schedule)) == []


def test_gate_catches_a_perturbed_repeat():
    schedule = build_schedule(3, 3.4, 30)
    payloads = _answers(schedule)
    repeat = next(r for r in schedule if r.kind == "repeat")
    payloads[repeat.index] = {**payloads[repeat.index], "extra": 1}
    assert [index for index, _ in check_payloads(schedule, payloads)] == [repeat.index]


def test_gate_catches_a_fig8_read_that_disagrees_with_its_network_job():
    schedule = build_schedule(3, 3.4, 30)
    payloads = _answers(schedule)
    read = next(r for r in schedule if r.kind == "fig8")
    report = payloads[read.index]["reports"]["Net"]
    bumped = {**report, "network_speedup": report["network_speedup"] * (1 + 1e-15)}
    payloads[read.index] = {"reports": {"Net": bumped}}
    assert [index for index, _ in check_payloads(schedule, payloads)] == [read.index]


def test_fig8_gate_ignores_only_the_timing_line():
    golden = normalise(GOLDEN.read_text())
    printed = golden.replace(
        "\nFigure 8: AlexNet", "\n[fig8 completed in 3.9 s]\nFigure 8: AlexNet", 1
    )
    assert printed != golden and normalise(printed) == golden
    assert normalise(golden.replace("2.85", "2.86", 1)) != golden
