"""End-to-end observability: traced runs, replay equality, metrics export.

The two load-bearing guarantees:

* tracing **disabled** is bit-identical to the seed simulator — same
  SimResult, same cache keys, no behavioural drift;
* tracing **enabled** yields an event stream that *replays* to the same
  L4 hit/miss totals the SimResult reports, and a ``metrics.json`` whose
  counters equal the SimResult counters.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.sim.engine import SimulationParams, run_workload

PARAMS = SimulationParams(accesses_per_core=500)


@pytest.fixture(autouse=True)
def clean_obs_config():
    obs.reset_configuration()
    yield
    obs.reset_configuration()


class TestAmbientConfiguration:
    def test_disabled_by_default(self):
        bundle = obs.begin_run("x")
        assert bundle.tracer is obs.NULL_TRACER
        assert bundle.metrics_path is None

    @pytest.mark.parametrize(
        "name, value", [("REPRO_METRICS", "m.json"), ("REPRO_TS_EVERY", "1")]
    )
    def test_retired_variables_leave_the_run_dark(
        self, name, value, tmp_path, monkeypatch
    ):
        """``REPRO_TRACE`` and ``REPRO_PROF`` are the only switches; a
        retired variable set alone yields the disabled bundle."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, value)
        bundle = obs.begin_run("x")
        assert bundle.tracer is obs.NULL_TRACER
        assert bundle.profiler is obs.NULL_PROFILER
        assert bundle.metrics_path is None
        assert not any(
            getattr(sink, "enabled", False) for sink in vars(bundle).values()
        )

    def test_explicit_configure(self, tmp_path):
        obs.configure(trace=str(tmp_path / "t.jsonl"), every=8)
        path, every = obs.trace_settings()
        assert path == str(tmp_path / "t.jsonl")
        assert every == 8

    def test_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "e.jsonl"))
        monkeypatch.setenv("REPRO_TRACE_EVERY", "3")
        path, every = obs.trace_settings()
        assert path == str(tmp_path / "e.jsonl")
        assert every == 3

    def test_paths_uniquified_across_runs(self, tmp_path):
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        first = obs.begin_run("a")
        second = obs.begin_run("b")
        assert first.tracer.path.name == "t.jsonl"
        assert second.tracer.path.name == "t.2.jsonl"
        assert first.metrics_path.name == "t.metrics.json"
        assert second.metrics_path.name == "t.2.metrics.json"


class TestTracedRunEquivalence:
    def test_traced_run_is_bit_identical_to_untraced(
        self, tiny_system, tmp_path
    ):
        baseline = run_workload("mcf", tiny_system, PARAMS)
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        traced = run_workload("mcf", tiny_system, PARAMS)
        assert traced == baseline  # tracing must not perturb the simulation

    def test_trace_replays_to_simresult_totals(self, tiny_system, tmp_path):
        """Measure-phase l4.read events == the post-warmup L4 counters."""
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        result = run_workload("mcf", tiny_system, PARAMS)
        summary = obs.summarize_trace(tmp_path / "t.jsonl")
        measure = summary["l4_reads"]["measure"]
        total = measure["hits"] + measure["misses"]
        assert total > 0
        assert measure["hits"] / total == pytest.approx(
            result.l4_hit_rate, abs=1e-12
        )

    def test_metrics_json_matches_simresult(self, tiny_system, tmp_path):
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        result = run_workload("mcf", tiny_system, PARAMS)
        payload = json.loads((tmp_path / "t.metrics.json").read_text())
        counters = payload["metrics"]["counters"]
        hits = counters["sim.l4.read_hits"]
        misses = counters["sim.l4.read_misses"]
        assert hits + misses > 0
        assert hits / (hits + misses) == pytest.approx(result.l4_hit_rate)
        assert counters["sim.l4.device_accesses"] == result.l4_accesses
        assert counters["sim.mem.device_bytes"] == result.mem_bytes
        assert payload["manifest"]["workload"] == "mcf"

    def test_dice_metrics_include_index_accounting(
        self, tiny_system, tmp_path
    ):
        import dataclasses

        from repro.config import SystemConfig

        dice_cfg = SystemConfig.paper_scale(
            65536, compressed=True, index_scheme="dice", name="dice"
        )
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        run_workload("mcf", dice_cfg, PARAMS)
        counters = json.loads(
            (tmp_path / "t.metrics.json").read_text()
        )["metrics"]["counters"]
        assert "sim.dice.installs_tsi" in counters
        assert "sim.dice.index_switches" in counters
        assert "sim.cip.lookups" in counters

    def test_chrome_companion_is_loadable(self, tiny_system, tmp_path):
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        run_workload("mcf", tiny_system, PARAMS)
        doc = json.loads((tmp_path / "t.chrome.json").read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "l4" in cats and "dram.l4" in cats

    def test_sampling_reduces_event_count(self, tiny_system, tmp_path):
        obs.configure(trace=str(tmp_path / "dense.jsonl"), every=1)
        run_workload("mcf", tiny_system, PARAMS)
        obs.reset_configuration()
        obs.configure(trace=str(tmp_path / "sparse.jsonl"), every=16)
        run_workload("mcf", tiny_system, PARAMS)
        dense = obs.summarize_trace(tmp_path / "dense.jsonl")["events"]
        sparse = obs.summarize_trace(tmp_path / "sparse.jsonl")["events"]
        assert sparse < dense / 4


class TestFaultEventsInTrace:
    def test_resilience_faults_appear_unsampled(self, tiny_system, tmp_path):
        obs.configure(trace=str(tmp_path / "t.jsonl"), every=1000)
        result = run_workload(
            "mcf",
            tiny_system,
            SimulationParams(accesses_per_core=500, fault_rate=5e14),
        )
        summary = obs.summarize_trace(tmp_path / "t.jsonl")
        if result.faults_injected:
            assert summary["by_name"].get("resilience.fault", 0) > 0


class TestCLI:
    def test_trace_flag_and_summarize_roundtrip(self, tmp_path, monkeypatch):
        from repro.harness import cli
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        monkeypatch.chdir(tmp_path)  # where .campaign_flight.json lands
        trace = tmp_path / "cli.jsonl"
        status = cli.main(
            ["fig13", "--accesses", "100", "--jobs", "1", "--trace", str(trace)]
        )
        assert status == 0
        assert trace.exists()
        status = cli.main(["trace", "summarize", str(trace)])
        assert status == 0

    def test_trace_summarize_rejects_garbage(self, tmp_path, capsys):
        from repro.harness import cli

        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert cli.main(["trace", "summarize", str(bad)]) == 2

    def test_manifest_show_from_shard(self, tmp_path, monkeypatch, capsys):
        from repro.harness import cli
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json"
        )
        monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        result = runner_mod.cached_run(
            "mcf", "base", scale=65536, params=PARAMS
        )
        (shard,) = (tmp_path / ".sim_cache.d").glob("*.json")
        assert cli.main(["manifest", "show", "--shard", str(shard)]) == 0
        out = capsys.readouterr().out
        assert "config_digest" in out
        assert result.manifest["config_digest"] in out
        assert result.manifest["model_digest"] in out

    def test_manifest_show_missing_result(self, tmp_path, monkeypatch):
        from repro.harness import cli
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json"
        )
        monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
        monkeypatch.setattr(runner_mod, "_memory_cache", {})
        assert cli.main(["manifest", "show", "mcf", "dice"]) == 2


class TestExecProgressFromRegistry:
    def test_snapshot_carries_cache_pct_and_p50(self):
        from repro.exec.scheduler import _Tracker

        seen = []
        tracker = _Tracker(total=4, cached=2, callback=seen.append)

        class _FakeJob:
            def describe(self):
                return "mcf × dice"

        from repro.exec.scheduler import JobOutcome
        from repro.sim.metrics import SimResult

        def fake_result(elapsed):
            return SimResult(
                workload="mcf", config_name="dice", cycles=1.0,
                instructions=1, per_core_ipc=[1.0], l3_hit_rate=0.0,
                l4_hit_rate=0.0, l4_accesses=0, l4_bytes=0, mem_accesses=0,
                mem_bytes=0, energy_nj=0.0, effective_capacity=0.0,
                manifest={"elapsed_s": elapsed},
            )

        # retries are the supervisor's requeues, carried on the outcome
        tracker.step(
            JobOutcome(_FakeJob(), fake_result(0.1), source="run", attempts=2)
        )
        tracker.step(
            JobOutcome(_FakeJob(), fake_result(0.3), source="run", attempts=2)
        )
        snap = seen[-1]
        assert snap.done == 4 and snap.cached == 2
        assert snap.cache_hit_pct == pytest.approx(50.0)
        assert snap.p50_wall_ms is not None and snap.p50_wall_ms > 0
        assert tracker.registry.counter("exec.jobs.retried").value == 2

    def test_progress_line_renders_new_segments(self):
        from repro.exec.progress import ProgressSnapshot, format_progress

        line = format_progress(
            ProgressSnapshot(
                done=3, running=1, failed=0, total=8, cached=2,
                eta_seconds=10.0, cache_hit_pct=25.0, p50_wall_ms=1500.0,
            )
        )
        assert "cache 25%" in line
        assert "p50 1.5s" in line

    def test_progress_line_without_registry_fields_is_unchanged(self):
        from repro.exec.progress import ProgressSnapshot, format_progress

        line = format_progress(
            ProgressSnapshot(
                done=12, running=4, failed=1, total=40,
                eta_seconds=42.0, label="mcf × dice",
            )
        )
        assert line == "jobs 12/40 · 4 running · 1 failed · eta 0:42 (mcf × dice)"

    def test_eta_clock_styles(self):
        from repro.exec.progress import format_duration

        assert format_duration(None) == "--:--"
        assert format_duration(42) == "0:42"
        assert format_duration(125) == "2:05"
        assert format_duration(3725) == "1:02:05"
