"""Scheduler tests: parallel runs must be bit-identical to serial ones,
failures must drain (not abort) the pool, and warm re-runs must be pure
cache hits."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import repro.harness.runner as runner_mod
from repro.exec import (
    ProgressPrinter,
    ProgressSnapshot,
    format_progress,
    make_job,
    resolve_jobs,
    run_jobs,
)
from repro.exec.scheduler import JobOutcome
from repro.harness.runner import set_run_executor
from repro.sim.engine import SimulationParams, run_workload

TINY = SimulationParams(accesses_per_core=120, seed=9)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod._memory_cache.clear()
    yield cache_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)


def _jobs():
    """A small mixed batch: two workloads, two configs, one faulty run."""
    batch = [
        make_job(wl, cfg, params=TINY)
        for wl in ("sphinx", "mcf")
        for cfg in ("base", "dice")
    ]
    batch.append(
        make_job(
            "mcf", "dice",
            params=dataclasses.replace(TINY, fault_rate=3e13),
        )
    )
    return batch


def _reset_cache(isolated_cache):
    runner_mod.clear_cache(disk=True)


class TestParallelMatchesSerial:
    def test_results_bit_identical_including_fault_counters(
        self, isolated_cache
    ):
        jobs = _jobs()
        serial = run_jobs(jobs, max_workers=1)
        assert all(o.ok and o.source == "run" for o in serial)

        _reset_cache(isolated_cache)
        parallel = run_jobs(jobs, max_workers=4)
        assert all(o.ok and o.source == "run" for o in parallel)

        for s, p in zip(serial, parallel):
            assert s.job == p.job
            # dataclass equality covers every field: cycles, IPC, energy,
            # and the resilience counters of the fault-injected job
            assert s.result == p.result
        faulty = parallel[-1].result
        assert faulty.faults_injected > 0  # the faulty job really injected

    def test_outcomes_come_back_in_input_order(self, isolated_cache):
        jobs = _jobs()
        outcomes = run_jobs(jobs, max_workers=4)
        assert [o.job for o in outcomes] == jobs

    def test_shards_written_match_job_count(self, isolated_cache):
        jobs = _jobs()
        run_jobs(jobs, max_workers=4)
        shard_dir = isolated_cache.parent / ".sim_cache.d"
        assert len(list(shard_dir.glob("*.json"))) == len(jobs)

    def test_warm_rerun_is_pure_cache(self, isolated_cache):
        jobs = _jobs()
        first = run_jobs(jobs, max_workers=4)
        # same process: memory cache was seeded by the scheduler
        again = run_jobs(jobs, max_workers=4)
        assert all(o.source == "cache" for o in again)
        # fresh process: only the shard files remain
        runner_mod.drop_memory_state()
        cold = run_jobs(jobs, max_workers=4)
        assert all(o.source == "cache" for o in cold)
        for a, b in zip(first, cold):
            assert a.result == b.result


class TestFailureDraining:
    @staticmethod
    def _doomed_executor(workload, config, params=None, **kwargs):
        if config.name == "dice":
            raise RuntimeError("doomed by test")
        return run_workload(workload, config, params, **kwargs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_job_drains_the_rest(self, isolated_cache, workers):
        set_run_executor(self._doomed_executor)
        jobs = [
            make_job("sphinx", "base", params=TINY),
            make_job("sphinx", "dice", params=TINY),
            make_job("mcf", "base", params=TINY),
        ]
        outcomes = run_jobs(jobs, max_workers=workers)
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.source == "failed"
        assert failed.result is None
        assert "doomed by test" in failed.error
        assert failed.job.describe() == "sphinx × dice"  # names the culprit

    def test_failed_jobs_are_not_cached(self, isolated_cache):
        set_run_executor(self._doomed_executor)
        jobs = [make_job("sphinx", "dice", params=TINY)]
        assert not run_jobs(jobs, max_workers=2)[0].ok
        set_run_executor(None)
        retry = run_jobs(jobs, max_workers=1)
        assert retry[0].ok and retry[0].source == "run"  # really re-ran


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_bad_env_falls_through_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs(None) >= 1

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) >= 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestProgress:
    def test_format_progress_line(self):
        snap = ProgressSnapshot(
            done=12, running=4, failed=1, total=40,
            eta_seconds=42.0, label="mcf × dice",
        )
        assert format_progress(snap) == (
            "jobs 12/40 · 4 running · 1 failed · eta 0:42 (mcf × dice)"
        )

    def test_to_dict_is_asdict_and_round_trips(self):
        # the NDJSON progress event: same keys, order and values as the
        # dataclasses.asdict payload it replaced
        snap = ProgressSnapshot(
            done=3, running=2, failed=1, total=9, cached=1,
            eta_seconds=4.5, label="c0001", cache_hit_pct=25.0,
            p50_wall_ms=120.0, p95_wall_ms=480.0, ops_per_sec=1.5,
            elapsed_s=2.0,
        )
        payload = snap.to_dict()
        assert list(payload.items()) == list(dataclasses.asdict(snap).items())
        assert ProgressSnapshot.from_dict(payload) == snap

    def test_eta_placeholder_and_hours(self):
        assert "eta --:--" in format_progress(
            ProgressSnapshot(done=0, running=1, failed=0, total=2))
        assert "eta 1:01:05" in format_progress(
            ProgressSnapshot(done=0, running=1, failed=0, total=2,
                             eta_seconds=3665.0))

    def test_scheduler_emits_snapshots(self, isolated_cache):
        snaps = []
        jobs = [make_job("sphinx", "base", params=TINY),
                make_job("sphinx", "dice", params=TINY)]
        run_jobs(jobs, max_workers=2, progress=snaps.append)
        assert snaps
        final = snaps[-1]
        assert final.done == final.total == 2
        assert final.failed == 0

    def test_printer_summary_reports_full_cache_hit(self, isolated_cache):
        jobs = [make_job("sphinx", "base", params=TINY)]
        run_jobs(jobs, max_workers=1)
        stream = io.StringIO()
        printer = ProgressPrinter(stream, min_interval=0.0)
        run_jobs(jobs, max_workers=1, progress=printer)
        printer.finish()
        out = stream.getvalue()
        assert "(cache hits: 100%)" in out
        assert "1 total · 1 from cache · 0 run · 0 failed" in out

    def test_printer_throttles_but_always_emits_final(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream, min_interval=3600.0)
        for done in range(5):
            printer(ProgressSnapshot(done=done, running=1, failed=0, total=5))
        printer(ProgressSnapshot(done=5, running=0, failed=0, total=5))
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert lines[0].startswith("jobs 0/5")   # first emit
        assert lines[-1].startswith("jobs 5/5")  # final emit bypasses throttle
        assert len(lines) == 2                   # the middle ones throttled


class TestOutcomeShape:
    def test_ok_property(self):
        job = make_job("sphinx", "base", params=TINY)
        assert JobOutcome(job, None, error="boom").ok is False
        assert JobOutcome(job, None).ok is True

    def test_cache_key_is_json_serializable(self):
        # the scheduler and sharded store both persist keys as JSON
        job = make_job("sphinx", "base", params=TINY)
        assert json.loads(json.dumps(job.cache_key))
