"""Telemetry-plane unit tests: trace contexts, Prometheus, stitching.

Covers the service-era telemetry additions (DESIGN.md Sec 15):

* :class:`TraceContext` header/meta round-trips and ambient activation;
* Prometheus exposition (validated with ``scripts/promlint.py``),
  including the label-escaping regression for workload names carrying
  ``-``, ``.``, and ``"``;
* :func:`stitch_traces` merging per-process files into one chrome
  document with client-rooted span ancestry;
* bit-identity of a fully-telemetered run against a bare one.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry, Tracer
from repro.obs.telemetry import (
    PARENT_HEADER,
    TRACE_HEADER,
    TraceContext,
    activate,
    current,
    prometheus_name,
    render_prometheus,
    resolve_root,
    stitch_traces,
    wants_prometheus,
)
from repro.sim.engine import SimulationParams, run_workload

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "scripts")
)
import promlint  # noqa: E402


@pytest.fixture(autouse=True)
def clean_obs_config():
    obs.reset_configuration()
    yield
    obs.reset_configuration()


class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 16
        assert len(ctx.span_id) == 8
        assert ctx.parent_id is None
        int(ctx.trace_id, 16)  # hex or raise
        int(ctx.span_id, 16)

    def test_child_shares_trace_and_parents_to_creator(self):
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_headers_round_trip(self):
        ctx = TraceContext.new()
        headers = ctx.to_headers()
        assert headers == {
            TRACE_HEADER: ctx.trace_id,
            PARENT_HEADER: ctx.span_id,
        }
        back = TraceContext.from_headers(headers)
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_from_headers_accepts_lowercased_names(self):
        # http.server hands headers through case-insensitively; the
        # daemon lowercases before parsing
        ctx = TraceContext.new()
        lowered = {k.lower(): v for k, v in ctx.to_headers().items()}
        back = TraceContext.from_headers(lowered)
        assert back is not None and back.trace_id == ctx.trace_id

    def test_from_headers_without_trace_is_none(self):
        assert TraceContext.from_headers({}) is None
        assert TraceContext.from_headers({TRACE_HEADER: "abc"}) is None

    def test_to_meta_carries_the_tree_coordinates(self):
        child = TraceContext.new().child()
        meta = child.to_meta()
        assert meta == {
            "trace_id": child.trace_id,
            "span_id": child.span_id,
            "parent_span": child.parent_id,
        }

    def test_activate_installs_and_restores_the_ambient_context(self):
        assert current() is None
        ctx = TraceContext.new()
        with activate(ctx):
            assert current() is ctx
            inner = ctx.child()
            with activate(inner):
                assert current() is inner
            assert current() is ctx
        assert current() is None

    def test_activate_none_is_a_noop(self):
        with activate(None):
            assert current() is None


class TestBitIdentityWithTelemetryOn:
    def test_fully_telemetered_run_is_bit_identical(
        self, tiny_system, tmp_path
    ):
        """Tracing, profiling and an ambient trace context on the same run
        must not perturb the simulation: identical SimResult, field for
        field."""
        params = SimulationParams(accesses_per_core=500)
        baseline = run_workload("mcf", tiny_system, params)
        obs.configure(
            trace=str(tmp_path / "t.jsonl"), every=4,
            profile=str(tmp_path / "p.prof.json"),
        )
        with activate(TraceContext.new().child()):
            telemetered = run_workload("mcf", tiny_system, params)
        assert telemetered == baseline
        assert (tmp_path / "t.metrics.json").exists()


class TestPrometheusRendering:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs.executed").inc(3)
        registry.counter("service.jobs.total").inc(5)
        registry.gauge("service.queue.depth").set(2.0)
        hist = registry.histogram("service.submit.wall_us", kind="warm")
        for us in (10, 20, 30):
            hist.record(us)
        return registry

    def test_renders_promlint_clean_text(self):
        text = render_prometheus(self._registry())
        assert promlint.lint(text) == []
        assert "# TYPE repro_service_jobs_executed_total counter" in text
        assert "repro_service_jobs_executed_total 3" in text
        assert "repro_service_queue_depth 2.0" in text

    def test_counters_already_named_total_keep_one_suffix(self):
        text = render_prometheus(self._registry())
        assert "repro_service_jobs_total 5" in text
        assert "_total_total" not in text

    def test_histograms_render_as_summaries(self):
        text = render_prometheus(self._registry())
        assert (
            'repro_service_submit_wall_us{kind="warm",quantile="0.99"}'
            in text
        )
        assert 'repro_service_submit_wall_us_count{kind="warm"} 3' in text
        assert 'repro_service_submit_wall_us_sum{kind="warm"} 60' in text

    def test_one_type_line_per_labeled_family(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs.by_client", client="a").inc(1)
        registry.counter("service.jobs.by_client", client="b").inc(2)
        text = render_prometheus(registry)
        assert text.count("# TYPE repro_service_jobs_by_client_total") == 1
        assert promlint.lint(text) == []

    def test_label_escaping_for_hostile_workload_names(self):
        """Workload names carry ``-``, ``.``, and ``"`` (quoted sweeps);
        they must survive the metric-key round trip and come out escaped
        in the exposition so promlint — and Prometheus — can parse it."""
        registry = MetricsRegistry()
        for name in ('omnetpp-r2.17', 'lbm.base', 'mix "hi-comp"', "a\\b"):
            registry.counter("sim.jobs.by_workload", workload=name).inc(1)
        text = render_prometheus(registry)
        assert promlint.lint(text) == []
        assert 'workload="omnetpp-r2.17"' in text
        assert 'workload="mix \\"hi-comp\\""' in text
        assert 'workload="a\\\\b"' in text
        # and the parsed-back sample set sees four distinct label sets
        samples = promlint.parse_samples(text)
        assert len(samples) == 4

    def test_name_mangling(self):
        assert prometheus_name("service.jobs.executed") == (
            "repro_service_jobs_executed"
        )
        assert prometheus_name("sim.l4-hit%rate") == "repro_sim_l4_hit_rate"
        assert prometheus_name("9lives", prefix="") == "_9lives"

    def test_content_negotiation(self):
        assert wants_prometheus("") is False  # stdlib client: JSON
        assert wants_prometheus("application/json") is False
        assert wants_prometheus("text/plain") is True
        assert wants_prometheus("*/*") is True  # curl's default
        assert wants_prometheus(
            "application/openmetrics-text;version=1.0.0"
        ) is True


class TestStitchTraces:
    def _trace_tree(self, tmp_path):
        """A client → daemon → two-worker trace set, like phase 4 of the
        service smoke but synthesized in-process."""
        client = TraceContext.new()
        daemon = client.child()
        job_a, job_b = daemon.child(), daemon.child()

        client_path = tmp_path / "client.jsonl"
        tracer = Tracer(
            client_path, meta={"scope": "client", **client.to_meta()}
        )
        tracer.span(
            "client.request", "client", ts=0, dur=100,
            trace_id=client.trace_id, span_id=client.span_id,
        )
        tracer.close()

        daemon_path = tmp_path / "svc.daemon.jsonl"
        tracer = Tracer(daemon_path, meta={"scope": "daemon"})
        tracer.span(
            "daemon.campaign", "daemon", ts=0, dur=60,
            trace_id=daemon.trace_id, span_id=daemon.span_id,
            parent_id=daemon.parent_id,
        )
        for job in (job_a, job_b):
            tracer.span(
                "daemon.queue", "daemon", ts=1, dur=5,
                trace_id=job.trace_id, span_id=f"{job.span_id}.q",
                parent_id=job.parent_id,
            )
            tracer.span(
                "daemon.run", "daemon", ts=6, dur=50,
                trace_id=job.trace_id, span_id=job.span_id,
                parent_id=job.parent_id,
            )
        # an unrelated trace interleaved into the same daemon file
        tracer.instant(
            "daemon.queue", "daemon", ts=9,
            trace_id="feedfeedfeedfeed", span_id="ffffffff",
        )
        tracer.close()

        workers = []
        for i, job in enumerate((job_a, job_b)):
            run = job.child()
            path = tmp_path / f"svc.w{i}.jsonl"
            tracer = Tracer(
                path, meta={"run": f"job{i}", "pid": 9000 + i, **run.to_meta()}
            )
            tracer.instant("l4.read", "l4", ts=2, hit=True)
            tracer.close()
            workers.append(path)

        stray = tmp_path / "other.jsonl"
        tracer = Tracer(
            stray, meta={"scope": "client", **TraceContext.new().to_meta()}
        )
        tracer.instant("client.request", "client", ts=0)
        tracer.close()

        return client, [client_path, daemon_path, *workers, stray]

    def test_stitch_roots_every_file_at_the_client_span(self, tmp_path):
        client, paths = self._trace_tree(tmp_path)
        stitched = stitch_traces(paths)
        assert stitched["trace_id"] == client.trace_id
        # the stray file from another trace is excluded entirely
        assert len(stitched["files"]) == 4
        assert all(
            record["root_span"] == client.span_id
            for record in stitched["files"]
        )

    def test_stitch_filters_unrelated_events_from_shared_files(
        self, tmp_path
    ):
        _, paths = self._trace_tree(tmp_path)
        stitched = stitch_traces(paths)
        daemon = next(
            r for r in stitched["files"] if r["scope"] == "daemon"
        )
        assert daemon["events"] == 5  # the interleaved instant is dropped

    def test_stitch_preserves_worker_pids(self, tmp_path):
        _, paths = self._trace_tree(tmp_path)
        stitched = stitch_traces(paths)
        pids = {
            r["pid"] for r in stitched["files"] if r["scope"].startswith("job")
        }
        assert pids == {9000, 9001}

    def test_chrome_document_is_one_process_per_file(self, tmp_path):
        _, paths = self._trace_tree(tmp_path)
        chrome = stitch_traces(paths)["chrome"]
        names = [
            e["args"]["name"] for e in chrome["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert len(names) == 4
        assert json.dumps(chrome)  # loadable by chrome://tracing

    def test_explicit_trace_id_overrides_the_vote(self, tmp_path):
        _, paths = self._trace_tree(tmp_path)
        stitched = stitch_traces(paths, trace_id="feedfeedfeedfeed")
        assert stitched["trace_id"] == "feedfeedfeedfeed"
        assert [r["scope"] for r in stitched["files"]] == ["daemon"]

    def test_resolve_root_walks_parent_links(self):
        spans = {
            "a": {"parent_id": None},
            "b": {"parent_id": "a"},
            "c": {"parent_id": "b"},
        }
        assert resolve_root(spans, "c") == "a"
        assert resolve_root(spans, "a") == "a"
        assert resolve_root(spans, "zz") is None


class TestTelemetryCLI:
    def test_trace_stitch_writes_a_chrome_file(self, tmp_path, capsys):
        from repro.harness import cli

        ctx = TraceContext.new()
        path = tmp_path / "one.jsonl"
        tracer = Tracer(path, meta={"scope": "client", **ctx.to_meta()})
        tracer.span(
            "client.request", "client", ts=0, dur=10,
            trace_id=ctx.trace_id, span_id=ctx.span_id,
        )
        tracer.close()
        out = tmp_path / "stitched.json"
        status = cli.main(
            ["trace", "stitch", str(path), "--out", str(out), "--json"]
        )
        assert status == 0
        table = json.loads(capsys.readouterr().out)
        assert table["trace_id"] == ctx.trace_id
        assert table["events"] == 1
        chrome = json.loads(out.read_text())
        assert chrome["metadata"]["trace_id"] == ctx.trace_id

    def test_trace_stitch_with_no_events_is_a_usage_error(
        self, tmp_path
    ):
        from repro.harness import cli

        empty = tmp_path / "empty.jsonl"
        Tracer(empty, meta={"scope": "client"}).close()
        assert cli.main(["trace", "stitch", str(empty)]) == 2

    def test_slo_check_offline_verdicts_and_exit_codes(self, tmp_path):
        from repro.harness import cli

        registry = MetricsRegistry()
        registry.gauge("service.queue.depth").set(3.0)
        export = tmp_path / "m.json"
        export.write_text(json.dumps({"metrics": registry.to_dict()}))
        ok = cli.main([
            "slo", "check", "--metrics", str(export),
            "--slo", "q: last(service.queue.depth) <= 10",
        ])
        assert ok == 0
        failing = cli.main([
            "slo", "check", "--metrics", str(export),
            "--slo", "q: last(service.queue.depth) <= 2",
        ])
        assert failing == cli.EXIT_SLO

    def test_slo_check_offline_requires_an_objective(self, tmp_path):
        from repro.harness import cli

        export = tmp_path / "m.json"
        export.write_text("{}")
        with pytest.raises(SystemExit):
            cli.main(["slo", "check", "--metrics", str(export)])
