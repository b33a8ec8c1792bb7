"""Unit tests for the unified metrics registry (repro.obs.registry)."""

from __future__ import annotations

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry, metric_key
from repro.sim.stats import BandwidthTracker, LatencyHistogram


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("sim.l4.read_hits", {}) == "sim.l4.read_hits"

    def test_labels_sorted(self):
        assert (
            metric_key("dram.access", {"kind": "read", "channel": 2})
            == "dram.access{channel=2,kind=read}"
        )


class TestInstruments:
    def test_counter_inc_set_reset(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(11)
        assert counter.value == 11
        counter.reset()
        assert counter.value == 0

    def test_gauge(self):
        gauge = Gauge("rate")
        gauge.set(0.75)
        assert gauge.value == 0.75
        gauge.reset()
        assert gauge.value == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("exec.jobs.done")
        b = registry.counter("exec.jobs.done")
        assert a is b

    def test_labels_create_distinct_metrics(self):
        registry = MetricsRegistry()
        a = registry.counter("dram.sched.row_hits", channel=0)
        b = registry.counter("dram.sched.row_hits", channel=1)
        assert a is not b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("sim.l4.read_hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("sim.l4.read_hits")

    def test_histogram_and_tracker_factories(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sim.demand.latency_cycles")
        assert isinstance(hist, LatencyHistogram)
        tracker = registry.tracker("sim.l4.bandwidth", window_cycles=500)
        assert isinstance(tracker, BandwidthTracker)
        assert tracker.window_cycles == 500

    def test_get_without_create(self):
        registry = MetricsRegistry()
        assert registry.get("absent") is None
        registry.counter("present")
        assert registry.get("present") is not None

    def test_reset_is_in_place(self):
        """Component-held references must survive a stats reset."""
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h")
        tracker = registry.tracker("t")
        counter.inc(3)
        hist.record(10)
        tracker.record(0, 64)
        registry.reset()
        assert counter.value == 0 and hist.total == 0
        assert tracker.to_dict()["windows"] == []
        # the same objects are still registered and still live
        assert registry.counter("c") is counter
        counter.inc()
        assert registry.counter("c").value == 1

    def test_collectors_run_at_export(self):
        registry = MetricsRegistry()
        seen = []

        def collector(reg):
            seen.append(True)
            reg.counter("pulled").set(42)

        registry.add_collector(collector)
        payload = registry.to_dict()
        assert seen == [True]
        assert payload["counters"]["pulled"] == 42

    def test_to_dict_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(100)
        registry.tracker("t").record(10, 80)
        payload = registry.to_dict(collect=False)
        assert payload["counters"] == {"c": 2}
        assert payload["gauges"] == {"g": 1.5}
        assert payload["histograms"]["h"]["total"] == 1
        assert payload["trackers"]["t"]["windows"] == [[0, 80]]


class TestLabelEscaping:
    """Separator characters in label values must not collide keys."""

    def test_adversarial_value_does_not_alias_two_labels(self):
        hostile = metric_key("m", {"a": "1,b=2"})
        honest = metric_key("m", {"a": "1", "b": "2"})
        assert hostile != honest

    def test_escaped_keys_stay_distinct_instruments(self):
        registry = MetricsRegistry()
        hostile = registry.counter("m", a="1,b=2")
        honest = registry.counter("m", a="1", b="2")
        assert hostile is not honest
        hostile.inc(5)
        assert honest.value == 0

    def test_braces_and_backslashes_escape(self):
        plain = metric_key("m", {"k": "v"})
        for tricky in ("v}", "{v", "v\\", "k=v"):
            assert metric_key("m", {"k": tricky}) != plain

    def test_label_keys_are_escaped_too(self):
        assert metric_key("m", {"a=b": "v"}) != metric_key("m", {"a": "b=v"})
