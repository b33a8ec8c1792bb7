"""Tracer unit tests, including the trace-disabled overhead guard."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    format_summary,
    read_events,
    summarize_trace,
)
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.system import MemorySystem


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.set_phase("measure")
        tracer.instant("x", "cat", 0)
        tracer.span("y", "cat", 0, 5)
        assert tracer.close() == []


class TestTracer:
    def test_records_instants_and_spans(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.instant("l4.read", "l4", 10, hit=True)
        tracer.span("dram.access", "dram", 10, 40, bank=2)
        assert tracer.events[0]["ph"] == "i"
        assert tracer.events[1]["ph"] == "X"
        assert tracer.events[1]["dur"] == 40

    def test_phase_stamps_subsequent_events(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.set_phase("warmup")
        tracer.instant("a", "c", 0)
        tracer.set_phase("measure")
        tracer.instant("b", "c", 1)
        phases = [e["phase"] for e in tracer.events if e["name"] != "phase"]
        assert phases == ["warmup", "measure"]

    def test_sampling_keeps_one_in_every(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl", every=4)
        for i in range(16):
            tracer.instant("l4.read", "l4", i, sampled=True)
        kept = [e for e in tracer.events if e["name"] == "l4.read"]
        assert len(kept) == 4
        assert tracer.sampled_out == 12

    def test_lifecycle_events_never_sampled_out(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl", every=1000)
        for i in range(5):
            tracer.instant("resilience.fault", "resilience", i)
        assert len(tracer.events) == 5

    def test_sampling_is_per_category(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl", every=2)
        tracer.instant("a", "cat1", 0, sampled=True)  # kept (count 0)
        tracer.instant("b", "cat2", 0, sampled=True)  # kept: own counter
        assert len(tracer.events) == 2

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            Tracer(tmp_path / "t.jsonl", every=0)

    def test_close_writes_jsonl_and_chrome(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl", meta={"run": "mcf"})
        tracer.instant("l4.read", "l4", 1, hit=False)
        tracer.span("dram.access", "dram", 1, 20)
        paths = tracer.close()
        assert [p.name for p in paths] == ["t.jsonl", "t.chrome.json"]
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["meta"]["run"] == "mcf"
        assert json.loads(lines[1])["name"] == "l4.read"
        chrome = json.loads((tmp_path / "t.chrome.json").read_text())
        names = {e["name"] for e in chrome["traceEvents"]}
        # the events plus the thread_name metadata rows Chrome uses
        assert {"l4.read", "dram.access", "thread_name"} <= names
        durs = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        assert durs and durs[0]["dur"] == 20


class TestTraceInspection:
    def test_read_events_skips_meta(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.instant("a", "c", 0)
        tracer.close()
        events = read_events(tmp_path / "t.jsonl")
        assert [e["name"] for e in events] == ["a"]

    def test_read_events_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not JSONL"):
            read_events(bad)

    def test_summarize_counts_l4_reads_per_phase(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.set_phase("measure")
        tracer.instant("l4.read", "l4", 0, hit=True)
        tracer.instant("l4.read", "l4", 1, hit=False)
        tracer.span("dram.access", "dram", 0, 30)
        tracer.close()
        summary = summarize_trace(tmp_path / "t.jsonl")
        assert summary["l4_reads"]["measure"] == {"hits": 1, "misses": 1}
        assert summary["spans"]["dram.access"]["count"] == 1
        rendered = format_summary(summary)
        assert "l4 reads [measure]: 1 hits / 1 misses" in rendered


class TestExecTraceSummaries:
    """``trace summarize`` must say something useful about exec-layer
    traces (``*.exec.jsonl`` job lifecycles, chaos ``supervisor.*``
    incidents, daemon lifecycle events) which carry no sim events."""

    def test_job_lifecycle_rollup(self, tmp_path):
        tracer = Tracer(tmp_path / "run.exec.jsonl")
        for state in ("submitted", "started", "finished", "finished"):
            tracer.instant(f"job.{state}", "exec", 0)
        tracer.close()
        summary = summarize_trace(tmp_path / "run.exec.jsonl")
        assert summary["exec"]["jobs"] == {
            "submitted": 1, "started": 1, "finished": 2,
        }
        assert "job lifecycle:" in format_summary(summary)

    def test_supervisor_incident_rollup(self, tmp_path):
        tracer = Tracer(tmp_path / "chaos.jsonl")
        tracer.instant("supervisor.worker_crash", "supervisor", 0)
        tracer.instant("supervisor.pool_rebuild", "supervisor", 1)
        tracer.instant("supervisor.worker_crash", "supervisor", 2)
        tracer.close()
        summary = summarize_trace(tmp_path / "chaos.jsonl")
        assert summary["exec"]["supervisor"]["worker_crash"] == 2
        assert "supervisor incidents:" in format_summary(summary)

    def test_daemon_lifecycle_rollup(self, tmp_path):
        tracer = Tracer(tmp_path / "svc.jsonl")
        tracer.instant("daemon.campaign.submitted", "daemon", 0)
        tracer.span("daemon.queue", "daemon", 0, 5)
        tracer.close()
        summary = summarize_trace(tmp_path / "svc.jsonl")
        assert summary["exec"]["daemon"]
        assert "daemon lifecycle:" in format_summary(summary)

    def test_sim_traces_carry_no_exec_section(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.instant("l4.read", "l4", 0, hit=True)
        tracer.close()
        assert "exec" not in summarize_trace(tmp_path / "t.jsonl")


class TestDisabledOverheadGuard:
    def test_untraced_hot_path_never_calls_the_tracer(
        self, tiny_system, monkeypatch
    ):
        """Counter-based allocation guard (CI-stable, not timing-based).

        Every emitting call site must check ``tracer.enabled`` *before*
        building event arguments.  If any site forgets the guard, the
        NullTracer method gets invoked — and its argument dict gets
        allocated — once per access.  We count invocations across a full
        (small) simulation and require exactly zero.
        """
        calls = {"n": 0}

        def counting(self, *args, **kwargs):
            calls["n"] += 1

        monkeypatch.setattr(NullTracer, "instant", counting)
        monkeypatch.setattr(NullTracer, "span", counting)
        result = run_workload(
            "mcf", tiny_system, SimulationParams(accesses_per_core=400)
        )
        assert result.l4_accesses > 0  # the run really exercised the path
        assert calls["n"] == 0

    def test_untraced_system_uses_the_shared_null_tracer(self, tiny_system):
        system = MemorySystem(tiny_system, lambda _addr: bytes(64))
        assert system.tracer is NULL_TRACER
        assert system.l4.tracer is NULL_TRACER
        assert system.l4.device.tracer is NULL_TRACER

    def test_untraced_run_registers_no_per_access_metrics(self, tiny_system):
        """The registry's instrument set must stay O(1), not O(accesses)."""
        system = MemorySystem(tiny_system, lambda _addr: bytes(64))
        before = len(system.metrics._metrics)
        from repro.workloads.base import Access

        for i in range(200):
            system.handle_access(
                Access(line_addr=i * 7, is_write=False, pc=i % 13, inst_gap=5),
                now=i * 10,
            )
        assert len(system.metrics._metrics) == before
