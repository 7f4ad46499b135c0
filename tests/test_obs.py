"""Unit tests for the observability substrate (:mod:`repro.obs`).

Covers the four pillars in isolation from the service:

* **registry semantics** — idempotent family declaration, kind/label
  conflicts, counter monotonicity, exact counting under thread contention,
  histogram bucket placement;
* **exposition** — Prometheus text rendering round-trips through the
  bundled parser, label values escape correctly, zero-child families still
  advertise their HELP/TYPE header;
* **cross-process movement** — snapshot → deltas → JSON → merge reproduces
  the child registry's increments exactly (the forked-worker path);
* **tracing and logging** — spans record against the context-installed
  trace id (and only then), the store's memory is bounded, and log events
  are one JSON object per line with automatic trace correlation.

Every test runs against the process-global registry via the ``obs_reset``
fixture, mirroring how instrumented modules use it.
"""

import io
import json
import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry, Span, TraceStore, Tracer


@pytest.fixture(autouse=True)
def obs_reset():
    """Zero the process-global registry/traces around every test."""
    obs.reset(enabled=True)
    yield
    obs.reset(enabled=False)
    obs.configure_logging("warning")


class TestRegistrySemantics:
    def test_family_declaration_is_idempotent(self):
        first = obs.counter("t_requests_total", "requests", ("tier",))
        second = obs.counter("t_requests_total", "different help", ("tier",))
        assert first is second

    def test_kind_conflict_raises(self):
        obs.counter("t_conflict_total")
        with pytest.raises(ValueError):
            obs.gauge("t_conflict_total")

    def test_label_conflict_raises(self):
        obs.counter("t_labelled_total", "", ("tier",))
        with pytest.raises(ValueError):
            obs.counter("t_labelled_total", "", ("tier", "outcome"))

    def test_counter_rejects_decrease(self):
        family = obs.counter("t_monotonic_total")
        family.inc()
        with pytest.raises(ValueError):
            family.inc(-1)

    def test_wrong_label_set_raises(self):
        family = obs.counter("t_strict_total", "", ("tier",))
        with pytest.raises(ValueError):
            family.inc(outcome="hit")

    def test_disabled_registry_records_nothing(self):
        obs.disable()
        counter = obs.counter("t_silent_total")
        histogram = obs.histogram("t_silent_seconds")
        counter.inc()
        histogram.observe(1.0)
        assert counter.value() == 0.0
        assert histogram.child().count == 0

    def test_reset_keeps_family_handles_valid(self):
        family = obs.counter("t_survivor_total")
        family.inc()
        obs.reset(enabled=True)
        family.inc()
        assert family.value() == 1.0
        assert obs.registry().get("t_survivor_total") is family

    def test_concurrent_increments_count_exactly(self):
        family = obs.counter("t_contended_total", "", ("worker",))
        threads, per_thread = 8, 5000

        def hammer(index):
            for _ in range(per_thread):
                family.inc(worker=str(index % 2))

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = family.value(worker="0") + family.value(worker="1")
        assert total == threads * per_thread

    def test_histogram_buckets_are_inclusive_upper_bounds(self):
        family = obs.histogram("t_latency_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.1, 0.5, 1.0, 5.0, 100.0):
            family.observe(value)
        child = family.child()
        # le="0.1" gets the exact boundary hit; 100.0 lands in +Inf.
        assert child.counts == [1, 2, 1, 1]
        assert child.count == 5
        assert child.sum == pytest.approx(106.6)

    def test_gauge_callback_is_read_at_collection(self):
        depth = {"value": 3}
        family = obs.gauge("t_depth", callback=lambda: depth["value"])
        depth["value"] = 7
        samples = dict(family.samples())
        assert samples[()].value == 7.0

    def test_gauge_callback_failure_does_not_break_collection(self):
        def boom():
            raise RuntimeError("composition root is gone")

        family = obs.gauge("t_flaky", callback=boom)
        assert family.samples() == []
        assert "t_flaky" in obs.render_prometheus(obs.registry())

    def test_callback_rejected_on_labelled_gauge(self):
        family = obs.gauge("t_labelled_depth", "", ("tier",))
        with pytest.raises(ValueError):
            family.set_callback(lambda: 1.0)


class TestExposition:
    def test_render_parse_round_trip(self):
        obs.counter("t_jobs_total", "jobs by outcome", ("outcome",)).inc(
            3, outcome="done"
        )
        obs.gauge("t_queue_depth", "queued jobs").set(4)
        obs.histogram("t_wait_seconds", "wait", buckets=(0.5, 2.0)).observe(1.0)

        text = obs.render_prometheus(obs.registry())
        parsed = obs.parse_prometheus_text(text)

        assert parsed["t_jobs_total"]["type"] == "counter"
        assert ("t_jobs_total", {"outcome": "done"}, 3.0) in parsed[
            "t_jobs_total"
        ]["samples"]
        assert ("t_queue_depth", {}, 4.0) in parsed["t_queue_depth"]["samples"]
        hist = parsed["t_wait_seconds"]["samples"]
        assert ("t_wait_seconds_bucket", {"le": "0.5"}, 0.0) in hist
        assert ("t_wait_seconds_bucket", {"le": "2"}, 1.0) in hist
        assert ("t_wait_seconds_bucket", {"le": "+Inf"}, 1.0) in hist
        assert ("t_wait_seconds_count", {}, 1.0) in hist

    def test_label_values_escape_and_round_trip(self):
        tricky = 'quote " slash \\ newline \n end'
        obs.counter("t_escape_total", "", ("path",)).inc(path=tricky)
        parsed = obs.parse_prometheus_text(
            obs.render_prometheus(obs.registry())
        )
        ((_, labels, value),) = parsed["t_escape_total"]["samples"]
        assert labels == {"path": tricky}
        assert value == 1.0

    def test_zero_child_family_still_renders_header(self):
        obs.counter("t_never_fired_total", "declared but never incremented")
        text = obs.render_prometheus(obs.registry())
        assert "# HELP t_never_fired_total declared but never" in text
        assert "# TYPE t_never_fired_total counter" in text

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            obs.parse_prometheus_text("this is not exposition format")


class TestCrossProcessDeltas:
    def test_deltas_survive_json_and_merge_exactly(self):
        child_registry = MetricsRegistry(enabled=True)
        baseline = child_registry.snapshot()
        child_registry.counter("t_child_total", "from the child", ("tier",)).inc(
            5, tier="disk"
        )
        child_registry.histogram(
            "t_child_seconds", buckets=(0.1, 1.0)
        ).observe(0.05)

        shipped = json.loads(json.dumps(child_registry.deltas_since(baseline)))
        obs.registry().merge_deltas(shipped)

        assert obs.registry().get("t_child_total").value(tier="disk") == 5.0
        merged = obs.registry().get("t_child_seconds").child()
        assert merged.count == 1
        assert merged.counts[0] == 1

    def test_fork_inherited_values_cancel_in_the_delta(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("t_inherited_total").inc(40)
        baseline = registry.snapshot()  # the fork point
        registry.counter("t_inherited_total").inc(2)
        deltas = registry.deltas_since(baseline)
        assert len(deltas) == 1
        assert deltas[0]["value"] == 2.0

    def test_gauges_are_excluded_from_deltas(self):
        registry = MetricsRegistry(enabled=True)
        baseline = registry.snapshot()
        registry.gauge("t_point_in_time").set(9)
        assert registry.deltas_since(baseline) == []


class TestTracing:
    def test_span_records_against_current_trace(self):
        trace_id = obs.new_trace_id()
        token = obs.set_current_trace(trace_id)
        try:
            with obs.span("unit.work", item=3) as span:
                span.annotate(outcome="hit")
        finally:
            obs.reset_current_trace(token)
        (span,) = obs.trace_store().spans_for(trace_id)
        assert span.name == "unit.work"
        assert span.attrs == {"item": 3, "outcome": "hit"}
        assert span.end >= span.start

    def test_span_without_trace_context_is_null(self):
        assert obs.span("orphan") is obs.NULL_SPAN
        assert len(obs.trace_store()) == 0

    def test_span_when_disabled_is_null(self):
        obs.disable()
        token = obs.set_current_trace(obs.new_trace_id())
        try:
            assert obs.span("dark") is obs.NULL_SPAN
        finally:
            obs.reset_current_trace(token)

    def test_span_records_error_attribute_on_exception(self):
        trace_id = obs.new_trace_id()
        token = obs.set_current_trace(trace_id)
        try:
            with pytest.raises(RuntimeError):
                with obs.span("unit.explodes"):
                    raise RuntimeError("boom")
        finally:
            obs.reset_current_trace(token)
        (span,) = obs.trace_store().spans_for(trace_id)
        assert span.attrs["error"] == "RuntimeError"

    def test_span_dict_round_trip(self):
        span = Span(
            trace_id="abc", name="n", start=1.0, end=2.5, attrs={"k": "v"}
        )
        assert Span.from_dict(span.to_dict()) == span

    def test_store_evicts_oldest_trace_wholesale(self):
        store = TraceStore(max_traces=2)
        for trace in ("a", "b", "c"):
            store.add(Span(trace_id=trace, name="s", start=0.0, end=1.0))
        assert store.spans_for("a") == []
        assert len(store.spans_for("b")) == 1
        assert len(store.spans_for("c")) == 1

    def test_drain_removes_the_trace(self):
        tracer = Tracer(enabled=True)
        tracer.record(Span(trace_id="x", name="s", start=0.0, end=1.0))
        assert len(tracer.store.drain("x")) == 1
        assert tracer.store.spans_for("x") == []


class TestStructuredLogging:
    def test_events_are_one_json_object_per_line(self):
        stream = io.StringIO()
        obs.configure_logging("info", stream=stream)
        log = obs.get_logger("repro.test")
        log.info("thing_happened", key="abc", count=2)
        log.warning("thing_failed", path="/tmp/x")

        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["event"] == "thing_happened"
        assert first["logger"] == "repro.test"
        assert first["level"] == "info"
        assert first["count"] == 2
        assert second["event"] == "thing_failed"

    def test_below_threshold_events_are_dropped(self):
        stream = io.StringIO()
        obs.configure_logging("warning", stream=stream)
        obs.get_logger("repro.test").info("too_quiet")
        assert stream.getvalue() == ""

    def test_events_carry_the_current_trace_id(self):
        stream = io.StringIO()
        obs.configure_logging("info", stream=stream)
        trace_id = obs.new_trace_id()
        token = obs.set_current_trace(trace_id)
        try:
            obs.get_logger("repro.test").info("traced")
        finally:
            obs.reset_current_trace(token)
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == trace_id

    def test_emission_failure_never_propagates(self):
        class Broken(io.StringIO):
            def write(self, *_):
                raise OSError("stream is gone")

        obs.configure_logging("info", stream=Broken())
        obs.get_logger("repro.test").info("does_not_raise")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging("loud")


class TestEngineInstrumentation:
    def test_engine_run_records_counters_and_spans(self, tmp_path):
        from repro.engine import SimulationEngine

        engine = SimulationEngine(cache_dir=tmp_path / "cache")
        trace_id = obs.new_trace_id()
        token = obs.set_current_trace(trace_id)
        try:
            engine.run_network("alexnet")
        finally:
            obs.reset_current_trace(token)

        runs = obs.registry().get("repro_engine_runs_total")
        assert runs.value(method="run_network") == 1.0
        names = {s.name for s in obs.trace_store().spans_for(trace_id)}
        assert "engine.run_network" in names

        requests = obs.registry().get("repro_engine_cache_requests_total")
        recorded = sum(value for _, value in (
            ((), child.value) for _, child in requests.samples()
        ))
        assert recorded >= 1.0

    @staticmethod
    def _traced(call):
        trace_id = obs.new_trace_id()
        token = obs.set_current_trace(trace_id)
        try:
            call()
        finally:
            obs.reset_current_trace(token)
        return obs.trace_store().spans_for(trace_id)

    @classmethod
    def _traced_spans(cls, engine, network):
        return cls._traced(lambda: engine.run_network(network))

    def test_disk_cache_spans_once_per_call(self, tmp_path):
        """A cold AlexNet job looks up and stores its 15 trio cells (5 layers
        x SCNN, DCNN, DCNN-opt) under one ``cache.get`` and one ``cache.put``
        span; a repeat looks them up under one span and stores nothing."""
        from repro.engine import SimulationEngine

        engine = SimulationEngine(cache_dir=tmp_path / "cache")
        cold = self._traced_spans(engine, "alexnet")
        cache_spans = [s for s in cold if s.name.startswith("cache.")]
        assert [(s.name, s.attrs) for s in cache_spans] == [
            ("cache.get", {"keys": 15, "misses": 15}),
            ("cache.put", {"keys": 15}),
        ]
        warm = self._traced_spans(engine, "alexnet")
        assert [(s.name, s.attrs) for s in warm if s.name.startswith("cache.")] == [
            ("cache.get", {"keys": 15, "misses": 0}),
        ]

    def test_partly_warm_call_stores_only_its_misses(self, tmp_path):
        """After the trio's cells are cached, adding one architecture to the
        grid misses (and stores) only that architecture's 5 cells."""
        from repro.engine import SimulationEngine
        from repro.engine.workloads import network_handles
        from repro.scnn.simulator import TRIO

        engine = SimulationEngine(cache_dir=tmp_path / "cache")
        engine.run_network("alexnet")
        _, handles = network_handles("alexnet")
        spans = self._traced(
            lambda: engine.run_architectures(handles, [*TRIO, "SCNN-16PE"])
        )
        assert [(s.name, s.attrs) for s in spans if s.name.startswith("cache.")] == [
            ("cache.get", {"keys": 20, "misses": 5}),
            ("cache.put", {"keys": 5}),
        ]

    def test_no_cache_spans_without_a_disk_cache(self):
        from repro.engine import SimulationEngine

        spans = self._traced_spans(SimulationEngine(cache_dir=False), "alexnet")
        assert "engine.run_network" in {s.name for s in spans}
        assert not [s for s in spans if s.name.startswith("cache.")]

    def test_instrumentation_is_inert_when_disabled(self, tmp_path):
        from repro.engine import SimulationEngine

        obs.reset(enabled=False)
        engine = SimulationEngine(cache_dir=tmp_path / "cache")
        engine.run_network("alexnet")
        runs = obs.registry().get("repro_engine_runs_total")
        assert runs.value(method="run_network") == 0.0
        assert len(obs.trace_store()) == 0
