"""Self-profiler tests: attribution, outputs, zero-overhead, bit-identity."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import NULL_PROFILER, NullProfiler, Profiler
from repro.obs.prof import instrument_method, read_profile, top_frames
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.system import MemorySystem
from repro.workloads.base import TraceGenerator


@pytest.fixture(autouse=True)
def clean_obs_config():
    obs.reset_configuration()
    yield
    obs.reset_configuration()


class TestNullProfiler:
    def test_everything_is_a_noop(self):
        prof = NullProfiler()
        assert prof.enabled is False
        prof.enter("frame")
        prof.exit(100)
        assert prof.close() == []


class TestProfiler:
    def test_nested_frames_accumulate_self_and_inclusive(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        prof.enter("sim")
        prof.enter("l4.lookup")
        prof.exit(40)
        prof.exit(100)
        frames = {f["stack"]: f for f in prof.frames()}
        assert frames["sim"]["calls"] == 1
        assert frames["sim;l4.lookup"]["cycles"] == 40
        assert frames["sim"]["cycles"] == 100
        # parent's self time excludes the child's inclusive time
        assert frames["sim"]["self_wall_s"] <= frames["sim"]["wall_s"]
        assert (
            frames["sim;l4.lookup"]["wall_s"] <= frames["sim"]["wall_s"]
        )

    def test_repeated_frames_merge_into_one_node(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        for _ in range(5):
            prof.enter("codec")
            prof.exit(2)
        frames = prof.frames()
        assert len(frames) == 1
        assert frames[0]["calls"] == 5
        assert frames[0]["cycles"] == 10

    def test_collapsed_stack_format(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        prof.enter("sim")
        prof.enter("l4.install")
        prof.exit()
        prof.exit()
        lines = prof.collapsed().splitlines()
        assert len(lines) == 2
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert stack in ("sim", "sim;l4.install")
            assert int(micros) >= 0

    def test_close_writes_json_and_collapsed(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json", meta={"run": "mcf"})
        prof.enter("sim")
        prof.exit(7)
        paths = prof.close()
        assert [p.name for p in paths] == [
            "p.prof.json", "p.prof.collapsed.txt"
        ]
        payload = json.loads(paths[0].read_text())
        assert payload["meta"]["run"] == "mcf"
        assert payload["frames"][0]["stack"] == "sim"
        assert paths[1].read_text().startswith("sim ")

    def test_close_rejects_unbalanced_frames(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        prof.enter("sim")
        with pytest.raises(RuntimeError, match="open frames"):
            prof.close()

    def test_read_profile_roundtrip_and_top_frames(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        for name in ("a", "b", "c"):
            prof.enter(name)
            prof.exit()
        prof.close()
        payload = read_profile(tmp_path / "p.prof.json")
        assert len(top_frames(payload, 2)) == 2
        assert len(top_frames(payload, 100)) == 3

    def test_read_profile_rejects_non_profiles(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not JSON"):
            read_profile(bad)
        bad.write_text('{"some": "dict"}')
        with pytest.raises(ValueError, match="missing 'frames'"):
            read_profile(bad)


class TestInstrumentMethod:
    def test_wraps_instance_method_in_a_frame(self, tmp_path):
        class Codec:
            def compressed_size(self, data):
                return len(data) // 2

        prof = Profiler(tmp_path / "p.prof.json")
        codec = Codec()
        assert instrument_method(codec, "compressed_size", "codec", prof)
        assert codec.compressed_size(b"x" * 10) == 5  # value untouched
        frames = prof.frames()
        assert frames[0]["stack"] == "codec"
        assert frames[0]["calls"] == 1

    def test_missing_method_is_skipped(self, tmp_path):
        prof = Profiler(tmp_path / "p.prof.json")
        assert not instrument_method(object(), "nope", "f", prof)


class TestProfiledSimulation:
    def test_profiled_run_is_bit_identical_and_attributes_components(
        self, tiny_system, tmp_path
    ):
        params = SimulationParams(accesses_per_core=400)
        plain = run_workload("mcf", tiny_system, params)
        obs.configure(profile=str(tmp_path / "run.prof.json"))
        profiled = run_workload("mcf", tiny_system, params)
        obs.reset_configuration()
        assert profiled == plain  # manifest is compare=False by design
        payload = read_profile(tmp_path / "run.prof.json")
        stacks = "\n".join(f["stack"] for f in payload["frames"])
        for component in (
            "sim", "system.access", "l4.lookup", "dram.mem.access",
        ):
            assert component in stacks
        assert (tmp_path / "run.prof.collapsed.txt").exists()

    def test_profiled_run_attributes_simulated_cycles(
        self, tiny_system, tmp_path
    ):
        obs.configure(profile=str(tmp_path / "run.prof.json"))
        run_workload("mcf", tiny_system, SimulationParams(accesses_per_core=300))
        obs.reset_configuration()
        payload = read_profile(tmp_path / "run.prof.json")
        frames = {f["stack"]: f for f in payload["frames"]}
        assert frames["sim"]["cycles"] > 0
        assert frames["sim;system.access"]["cycles"] > 0

    def test_profiled_run_times_the_chunked_loop(
        self, tiny_system, tmp_path, monkeypatch
    ):
        """The profile times the loop every experiment runs: a profiled
        run draws its trace through TraceGenerator.chunks, one chunk
        iterator per core, exactly like an unprofiled run."""
        params = SimulationParams(accesses_per_core=300)
        plain = run_workload("mcf", tiny_system, params)
        calls = {"n": 0}
        chunks = TraceGenerator.chunks

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return chunks(self, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "chunks", counting)
        obs.configure(profile=str(tmp_path / "run.prof.json"))
        profiled = run_workload("mcf", tiny_system, params)
        obs.reset_configuration()
        assert calls["n"] == tiny_system.core.num_cores
        assert profiled == plain
        frames = {
            f["stack"]: f
            for f in read_profile(tmp_path / "run.prof.json")["frames"]
        }
        assert frames["sim;workload.gen"]["calls"] >= calls["n"]

    def test_multiple_profiled_runs_uniquify_paths(
        self, tiny_system, tmp_path
    ):
        obs.configure(profile=str(tmp_path / "run.prof.json"))
        params = SimulationParams(accesses_per_core=200)
        run_workload("mcf", tiny_system, params)
        run_workload("mcf", tiny_system, params)
        obs.reset_configuration()
        assert (tmp_path / "run.prof.json").exists()
        assert (tmp_path / "run.prof.2.json").exists()


class TestDisabledOverheadGuard:
    def test_unprofiled_hot_path_never_calls_the_profiler(
        self, tiny_system, monkeypatch
    ):
        """Same counter-based guard as the tracer's (see
        test_obs_tracer.py): every hot-path call site must check
        ``prof.enabled`` before touching the profiler, and disabled-run
        instrumentation must never be installed.  Any forgotten guard
        invokes a NullProfiler method once per access; we require zero
        calls across a full small simulation."""
        calls = {"n": 0}

        def counting(self, *args, **kwargs):
            calls["n"] += 1

        monkeypatch.setattr(NullProfiler, "enter", counting)
        monkeypatch.setattr(NullProfiler, "exit", counting)
        result = run_workload(
            "mcf", tiny_system, SimulationParams(accesses_per_core=400)
        )
        assert result.l4_accesses > 0  # the run really exercised the path
        assert calls["n"] == 0

    def test_unprofiled_system_uses_the_shared_null_profiler(
        self, tiny_system
    ):
        system = MemorySystem(tiny_system, lambda _addr: bytes(64))
        assert system.prof is NULL_PROFILER

    def test_unprofiled_system_keeps_unwrapped_methods(self, tiny_system):
        """instrument_method must not run when profiling is disabled:
        wrapping installs an instance attribute shadowing the class
        method, so a disabled system's instances must have none."""
        system = MemorySystem(tiny_system, lambda _addr: bytes(64))
        assert "access" not in vars(system.l4.device)
        assert "predict_miss" not in vars(system.mapi)
