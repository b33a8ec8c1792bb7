"""SLO grammar, evaluation against current metrics, and formatting."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    SLOParseError,
    default_service_slos,
    evaluate,
    format_statuses,
    healthy,
    parse_slo,
    parse_slos,
)


class TestParsing:
    def test_full_grammar(self):
        spec = parse_slo(
            "warm_p99: p99(service.submit.wall_us{kind=warm}) <= 500000"
        )
        assert spec.name == "warm_p99"
        assert spec.fn == "p99"
        assert spec.metrics == ("service.submit.wall_us{kind=warm}",)
        assert spec.op == "<="
        assert spec.threshold == 500000.0

    def test_ratio_takes_two_args_with_plus_joined_counters(self):
        spec = parse_slo(
            "dedupe: ratio(service.jobs.cached+service.jobs.deduped,"
            " service.jobs.total) >= 0.05"
        )
        assert spec.fn == "ratio"
        assert len(spec.metrics) == 2
        assert "+" in spec.metrics[0]

    def test_label_blocks_may_contain_commas(self):
        spec = parse_slo("x: p50(m{a=1,b=2}) <= 9")
        assert spec.metrics == ("m{a=1,b=2}",)

    @pytest.mark.parametrize(
        "bad",
        [
            "no colon here",
            "x: frobnicate(m) <= 1",  # unknown fn
            "x: p99(m) == 1",  # only <= / >= comparators
            "x: p99(m) <= notanumber",
            "x: p99(m) <= 1 budget=0",  # no budgets: SLOs judge now
            "x: p99(m) <= 1 budget=1.5",
            "x: p99(m) <= 1 budget=0.1",
            "x: max(m) <= 1",  # max/min ranged over a history
            "x: min(m) >= 1",
            "x: ratio(m) >= 0.5",  # ratio needs two args
            "x: p99(a, b) <= 1",  # quantiles take one
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(SLOParseError):
            parse_slo(bad)

    def test_describe_round_trips(self):
        text = "q: last(service.queue.depth) <= 256"
        assert parse_slo(parse_slo(text).describe()).describe() == (
            parse_slo(text).describe()
        )

    def test_default_service_slos(self):
        specs = default_service_slos(max_queue=64)
        names = [s.name for s in specs]
        assert names == [
            "warm_submit_p99_us",
            "queue_depth",
            "dedupe_hit_rate",
            "crash_budget",
        ]
        queue = specs[names.index("queue_depth")]
        assert queue.fn == "last"
        assert queue.threshold == 64.0


def _metrics(**overrides):
    """A realistic ``registry.to_dict()`` payload for a warm daemon."""
    registry = MetricsRegistry()
    registry.counter("service.jobs.total").inc(20)
    registry.counter("service.jobs.cached").inc(4)
    registry.counter("service.jobs.deduped").inc(1)
    registry.counter("service.supervisor.pool_rebuilds").inc(0)
    registry.gauge("service.queue.depth").set(3.0)
    hist = registry.histogram("service.submit.wall_us", kind="warm")
    for us in (1000, 2000, 3000):
        hist.record(us)
    payload = registry.to_dict()
    payload.update(overrides)
    return payload


class TestEvaluation:
    def test_healthy_daemon_passes_the_defaults(self):
        statuses = evaluate(default_service_slos(), _metrics())
        assert healthy(statuses)
        by_name = {s.spec.name: s for s in statuses}
        assert by_name["warm_submit_p99_us"].ok is True
        assert by_name["dedupe_hit_rate"].value == pytest.approx(0.25)
        assert by_name["crash_budget"].value == 0.0

    def test_quantile_over_the_labeled_histogram(self):
        statuses = evaluate(
            parse_slos(["p: p99(service.submit.wall_us{kind=warm}) <= 1"]),
            _metrics(),
        )
        assert statuses[0].ok is False
        assert statuses[0].failed
        assert statuses[0].value >= 2000

    def test_missing_data_is_skipped_not_failed(self):
        statuses = evaluate(
            parse_slos([
                "ghost: p99(service.submit.wall_us{kind=cold}) <= 1",
                "zero_denominator: ratio(a, b) >= 0.5",
            ]),
            _metrics(),
        )
        assert all(s.ok is None for s in statuses)
        assert not any(s.failed for s in statuses)
        assert healthy(statuses)  # a fresh daemon is healthy by default

    def test_gauge_threshold_direction(self):
        specs = parse_slos([
            "low: last(service.queue.depth) <= 2",
            "high: last(service.queue.depth) <= 4",
        ])
        statuses = evaluate(specs, _metrics())
        assert statuses[0].failed and not statuses[1].failed

    def test_sum_over_plus_joined_counters(self):
        statuses = evaluate(
            parse_slos([
                "s: sum(service.jobs.cached+service.jobs.deduped) >= 5"
            ]),
            _metrics(),
        )
        assert statuses[0].value == 5.0 and statuses[0].ok is True


class TestFormatting:
    def test_formatting_marks_each_verdict(self):
        statuses = evaluate(
            parse_slos([
                "fine: last(service.queue.depth) <= 256",
                "broken: last(service.queue.depth) <= 1",
                "nodata: p99(nothing) <= 1",
            ]),
            _metrics(),
        )
        rendered = format_statuses(statuses)
        header, fine, broken, nodata = rendered.splitlines()
        assert header.split() == ["SLO", "value", "target", "verdict"]
        assert fine.endswith(" ok")
        assert broken.endswith(" FAIL")
        assert nodata.endswith(" SKIP (no data)")
