"""Supervisor tests: crashes rebuild the pool, hangs are watchdog-killed,
poison jobs are quarantined, corrupt results are invalidated and retried,
and recovered campaigns stay bit-identical to undisturbed ones."""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import sys
import threading
import time

import pytest

import repro.exec.supervisor as supervisor_mod
import repro.harness.runner as runner_mod
from repro import obs
from repro.chaos import ChaosPolicy
from repro.chaos import controller
from repro.exec import (
    ShutdownFlag,
    Supervisor,
    SupervisorPolicy,
    graceful_signals,
    last_report,
    make_job,
    run_jobs,
    validate_result,
)
from repro.harness.runner import resolve_config, set_run_executor
from repro.sim.engine import SimulationParams, run_workload
from repro.sim.metrics import SimResult

TINY = SimulationParams(accesses_per_core=120, seed=9)


def _sleepy_executor(workload, config, params=None, **kwargs):
    """A simulation that takes far longer than any deadline below."""
    time.sleep(10.0)
    return run_workload(workload, config, params, **kwargs)


def _instant_executor(workload, config, params=None, **kwargs):
    """A valid result at once: the pool's bookkeeping, not simulation."""
    return SimResult(
        workload=workload, config_name=config.name, cycles=1.0,
        instructions=1, per_core_ipc=[1.0], l3_hit_rate=0.5,
        l4_hit_rate=0.5, l4_accesses=0, l4_bytes=0, mem_accesses=0,
        mem_bytes=0, energy_nj=1.0, effective_capacity=1.0,
    )


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod._memory_cache.clear()
    yield cache_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)
    controller.deactivate()


def _jobs(n=3):
    pairs = [
        ("sphinx", "base"), ("sphinx", "dice"), ("mcf", "base"),
        ("mcf", "dice"), ("lbm", "base"),
    ]
    return [make_job(wl, cfg, params=TINY) for wl, cfg in pairs[:n]]


def _forced(tmp_path, fault, job, **kw):
    """A policy that injects ``fault`` once, on ``job``'s first attempt."""
    return ChaosPolicy(
        rate=0.0,
        forced=((fault, job.job_id),),
        ledger_path=str(tmp_path / "ledger.jsonl"),
        **kw,
    )


class TestValidateResult:
    def _good(self):
        return run_workload("sphinx", resolve_config("base", 4096), TINY)

    def test_real_result_passes(self):
        assert validate_result(self._good()) is None

    def test_non_result_fails(self):
        assert validate_result({"cycles": 1}) is not None
        assert validate_result(None) is not None

    def test_poisoned_cycles_fail(self):
        bad = dataclasses.replace(self._good(), cycles=-1.0)
        assert "cycles" in validate_result(bad)

    def test_nan_energy_fails(self):
        bad = dataclasses.replace(self._good(), energy_nj=math.nan)
        assert "energy_nj" in validate_result(bad)

    def test_hit_rate_outside_unit_interval_fails(self):
        bad = dataclasses.replace(self._good(), l4_hit_rate=1.5)
        assert "l4_hit_rate" in validate_result(bad)

    def test_negative_ipc_fails(self):
        bad = dataclasses.replace(self._good(), per_core_ipc=[0.5, -0.1])
        assert "per_core_ipc" in validate_result(bad)


class TestCrashRecovery:
    @pytest.mark.parametrize("workers", [2])
    def test_forced_crash_is_retried_and_campaign_completes(
        self, isolated_cache, tmp_path, workers
    ):
        jobs = _jobs(4)
        chaos = _forced(tmp_path, "crash", jobs[1])
        outcomes = run_jobs(jobs, max_workers=workers, chaos=chaos)
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        report = last_report()
        assert report.crash_incidents >= 1
        assert report.pool_rebuilds >= 1
        assert not report.quarantined
        crashed = outcomes[1]
        assert crashed.attempts == 2  # attempt 1 died, attempt 2 finished
        assert report.chaos_injected.get("crash") == 1

    def test_recovered_results_match_undisturbed_run(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        chaos = _forced(tmp_path, "crash", jobs[0])
        chaotic = run_jobs(jobs, max_workers=2, chaos=chaos)
        runner_mod.clear_cache(disk=True)
        plain = run_jobs(jobs, max_workers=2)
        for a, b in zip(chaotic, plain):
            assert a.result == b.result

    def test_persistent_crasher_is_quarantined_but_drains_the_rest(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        # rate 1.0 on the crash class alone: the worker dies on *every*
        # attempt of every job — quarantine is the only way to drain
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("crash",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        supervisor = SupervisorPolicy(max_attempts=2)
        outcomes = run_jobs(
            jobs, max_workers=2, chaos=chaos, supervisor=supervisor
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.source == "quarantined" for o in outcomes)
        assert all("quarantined after 2" in o.error for o in outcomes)
        report = last_report()
        assert sorted(report.quarantined) == sorted(
            j.describe() for j in jobs
        )


class TestWatchdog:
    def test_hung_worker_is_killed_and_job_retried(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(3)
        chaos = _forced(tmp_path, "hang", jobs[2], hang_seconds=60.0)
        outcomes = run_jobs(
            jobs,
            max_workers=2,
            chaos=chaos,
            supervisor=SupervisorPolicy(deadline=1.5),
        )
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        report = last_report()
        assert report.watchdog_kills >= 1
        assert outcomes[2].attempts == 2

    def test_no_deadline_means_no_watchdog(self, isolated_cache):
        outcomes = run_jobs(_jobs(2), max_workers=2)
        assert last_report().watchdog_kills == 0
        assert all(o.ok for o in outcomes)

    def test_requeued_job_is_timed_from_its_new_start(
        self, isolated_cache, tmp_path
    ):
        # mcf's worker crashes 1 s in, so sphinx (running beside it) is
        # requeued uncharged; it waits behind two 1.5 s jobs and starts
        # again ~2.5 s after its first start.  Its 2 s deadline clock must
        # restart then, not run on from the first start.
        flag = tmp_path / "crashed-once"

        def executor(workload, config, params=None, **kwargs):
            if workload == "mcf":
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    time.sleep(1.0)
                    os._exit(86)
            time.sleep(1.5)
            return _instant_executor(workload, config, params)

        set_run_executor(executor)
        jobs = [
            make_job(wl, "base", params=TINY)
            for wl in ("sphinx", "mcf", "lbm", "omnetpp")
        ]
        outcomes = run_jobs(
            jobs, max_workers=2, supervisor=SupervisorPolicy(deadline=2.0)
        )
        assert [o.ok for o in outcomes] == [True] * len(jobs)
        assert last_report().watchdog_kills == 0
        assert outcomes[0].attempts == 1  # collateral, never charged

    def test_single_pending_job_meets_its_deadline(self, isolated_cache):
        # one pending job (or --jobs 1) runs on a one-worker pool, so the
        # watchdog bounds it exactly as it bounds a job among many
        set_run_executor(_sleepy_executor)
        started = time.monotonic()
        outcomes = run_jobs(
            _jobs(1),
            max_workers=1,
            supervisor=SupervisorPolicy(deadline=1.0, max_attempts=1),
        )
        assert time.monotonic() - started < 8.0
        assert outcomes[0].source == "quarantined"
        assert "deadline" in outcomes[0].error
        assert last_report().watchdog_kills == 1


class TestCorruptResults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_payload_is_invalidated_and_retried(
        self, isolated_cache, tmp_path, workers
    ):
        jobs = _jobs(2)
        chaos = _forced(tmp_path, "corrupt", jobs[0])
        outcomes = run_jobs(jobs, max_workers=workers, chaos=chaos)
        assert [o.ok for o in outcomes] == [True, True]
        assert outcomes[0].attempts == 2
        assert last_report().corrupt_results >= 1
        # the poisoned value must not have survived anywhere: a cold
        # re-read of the store serves the clean retry result
        runner_mod.drop_memory_state()
        again = run_jobs(jobs, max_workers=1)
        assert again[0].source == "cache"
        assert again[0].result == outcomes[0].result
        assert validate_result(again[0].result) is None

    def test_serial_persistent_corruption_quarantines(
        self, isolated_cache, tmp_path
    ):
        jobs = _jobs(1)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("corrupt",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        outcomes = run_jobs(
            jobs,
            max_workers=1,
            chaos=chaos,
            supervisor=SupervisorPolicy(max_attempts=2),
        )
        assert outcomes[0].source == "quarantined"
        assert "corrupt" in outcomes[0].error


class TestGracefulShutdown:
    def test_pre_tripped_flag_runs_nothing(self, isolated_cache):
        flag = ShutdownFlag()
        flag.trip(signal.SIGTERM)
        outcomes = run_jobs(_jobs(3), max_workers=2, shutdown=flag)
        assert outcomes == []  # nothing ran, nothing failed
        assert last_report().interrupted

    def test_serial_checks_between_jobs(self, isolated_cache):
        flag = ShutdownFlag()
        flag.trip(signal.SIGINT)
        outcomes = run_jobs(_jobs(2), max_workers=1, shutdown=flag)
        assert outcomes == []
        assert last_report().interrupted

    def test_graceful_signals_latch_and_restore(self):
        flag = ShutdownFlag()
        previous = signal.getsignal(signal.SIGTERM)
        with graceful_signals(flag):
            signal.raise_signal(signal.SIGTERM)
            assert flag.requested
            assert flag.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_second_signal_escalates(self):
        flag = ShutdownFlag()
        with graceful_signals(flag):
            signal.raise_signal(signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)


class TestOutcomeBookkeeping:
    def test_attempts_default_to_one_on_clean_runs(self, isolated_cache):
        outcomes = run_jobs(_jobs(2), max_workers=2)
        assert all(o.attempts == 1 for o in outcomes)
        assert last_report().describe() == "no incidents"

    def test_quarantine_emits_metric(self, isolated_cache, tmp_path):
        jobs = _jobs(2)
        chaos = ChaosPolicy(
            rate=1.0,
            classes=("crash",),
            max_faulty_attempts=99,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        run_jobs(
            jobs, max_workers=2, chaos=chaos,
            supervisor=SupervisorPolicy(max_attempts=2),
        )
        report = last_report()
        assert len(report.quarantined) == 2
        assert report.chaos_injected.get("crash", 0) >= 2


class TestFeed:
    """The long-lived supervisor: jobs fed while it runs, from any thread."""

    def test_job_fed_while_idle_starts_at_once(self, isolated_cache):
        set_run_executor(_instant_executor)
        # a tick far longer than the job: only the doorbell can explain
        # a prompt outcome
        supervisor = Supervisor(
            1, registry=obs.MetricsRegistry(),
            policy=SupervisorPolicy(tick=30.0),
        )
        done = threading.Event()
        latency = {}

        def record(fed_at, *_outcome):
            latency["s"] = time.monotonic() - fed_at
            done.set()

        thread = threading.Thread(target=supervisor.run, args=(record,))
        thread.start()
        try:
            time.sleep(0.2)  # let run() go idle in its wait
            supervisor.submit(time.monotonic(), _jobs(1)[0])
            assert done.wait(10.0)
            assert latency["s"] < 5.0
        finally:
            supervisor.close()
            thread.join(35.0)
        assert not thread.is_alive()

    def test_idle_supervisor_sleeps_until_fed_or_closed(
        self, isolated_cache, monkeypatch
    ):
        # the daemon's supervisor outlives its jobs: between them its
        # thread must not wake, however short the tick
        waits = []
        real_wait = supervisor_mod.wait

        def counting_wait(*args, **kwargs):
            waits.append(kwargs.get("timeout"))
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "wait", counting_wait)
        supervisor = Supervisor(
            1, registry=obs.MetricsRegistry(),
            policy=SupervisorPolicy(tick=0.01),
        )
        thread = threading.Thread(
            target=supervisor.run, args=(lambda *_outcome: None,)
        )
        thread.start()
        try:
            time.sleep(0.5)
            assert waits == [None]
        finally:
            supervisor.close()
            thread.join(10.0)
        assert not thread.is_alive()

    def test_concurrent_feeders_get_every_outcome_once(self, isolated_cache):
        set_run_executor(_instant_executor)
        jobs = [
            make_job("sphinx", "base", params=dataclasses.replace(TINY, seed=i))
            for i in range(120)
        ]
        seen = []
        lock = threading.Lock()

        def record(key, result, error, source, attempts):
            with lock:
                seen.append((key, source))

        # more workers than this machine's cores, feeders racing run()
        supervisor = Supervisor(3, registry=obs.MetricsRegistry())
        runner = threading.Thread(target=supervisor.run, args=(record,))
        feeders = [
            threading.Thread(
                target=lambda part=part: [
                    supervisor.submit(i, jobs[i]) for i in part
                ]
            )
            for part in (range(k, len(jobs), 4) for k in range(4))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            for feeder in feeders:
                feeder.start()
            for feeder in feeders:
                feeder.join(30.0)
            supervisor.close()
            runner.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(key for key, _ in seen) == list(range(len(jobs)))
        assert {source for _, source in seen} == {"run"}


def _crash_once_per_job(flags):
    """A stand-in executor whose worker dies on each job's first run."""

    def executor(workload, config, params=None, **kwargs):
        try:
            (flags / f"crashed-{workload}-{config.name}").touch(exist_ok=False)
        except FileExistsError:
            return _instant_executor(workload, config, params)
        os._exit(86)

    return executor


class TestRebuildBudget:
    """``max_pool_rebuilds`` bounds rebuilds in a row, not a lifetime."""

    def test_finished_jobs_start_the_count_over(self, isolated_cache, tmp_path):
        # the × base jobs crash once; a crashed job is requeued behind the
        # rest, so on one worker a sound × dice job finishes between the
        # two crashes
        set_run_executor(_crash_once_per_job(tmp_path))
        for workload in ("sphinx", "mcf"):
            (tmp_path / f"crashed-{workload}-dice").touch()
        outcomes = run_jobs(
            _jobs(4), max_workers=1,
            supervisor=SupervisorPolicy(max_pool_rebuilds=1),
        )
        assert [o.ok for o in outcomes] == [True] * 4
        assert [o.attempts for o in outcomes] == [2, 1, 2, 1]
        assert last_report().pool_rebuilds == 2

    def test_spent_budget_fails_the_queue_then_starts_over(
        self, isolated_cache, tmp_path
    ):
        set_run_executor(_crash_once_per_job(tmp_path))
        (tmp_path / "crashed-sphinx-dice").touch()  # the second job is sound
        supervisor = Supervisor(
            1, registry=obs.MetricsRegistry(),
            policy=SupervisorPolicy(max_pool_rebuilds=0),
        )
        outcomes = {}
        arrived = threading.Semaphore(0)

        def record(key, result, error, source, attempts):
            outcomes[key] = (source, error)
            arrived.release()

        thread = threading.Thread(target=supervisor.run, args=(record,))
        thread.start()
        try:
            first, second = _jobs(2)  # sphinx × base, sphinx × dice
            supervisor.submit("first", first)
            assert arrived.acquire(timeout=30.0)
            # a later job (as a daemon gets) runs on a fresh budget
            supervisor.submit("second", second)
            assert arrived.acquire(timeout=30.0)
        finally:
            supervisor.close()
            thread.join(30.0)
        assert not thread.is_alive()
        source, error = outcomes["first"]
        assert source == "failed"
        assert "rebuild budget (0) exhausted" in error
        assert "exit code 86" in error
        assert outcomes["second"] == ("run", None)

    def test_events_share_the_callers_clock(self, isolated_cache, tmp_path):
        tracer = obs.Tracer(tmp_path / "t.jsonl")
        flag = ShutdownFlag()
        flag.trip(signal.SIGTERM)
        supervisor = Supervisor(
            1, registry=obs.MetricsRegistry(), tracer=tracer,
            shutdown=flag, now_us=lambda: 4242,
        )
        supervisor.submit(0, _jobs(1)[0])
        supervisor.close()
        supervisor.run(lambda *_outcome: None)
        assert [(e["name"], e["ts"]) for e in tracer.events] == [
            ("supervisor.interrupted", 4242)
        ]


class TestOneWorkerPool:
    def test_runs_are_named_like_an_in_process_campaign(
        self, isolated_cache, tmp_path
    ):
        # `--jobs 1 --trace t.jsonl` has always written t.jsonl,
        # t.2.jsonl, ...; its one worker must not tag them with its PID
        obs.reset_configuration()
        obs.configure(trace=str(tmp_path / "t.jsonl"))
        try:
            run_jobs(_jobs(2), max_workers=1)
        finally:
            obs.reset_configuration()
        assert sorted(p.name for p in tmp_path.glob("t*.jsonl")) == [
            "t.2.jsonl", "t.exec.jsonl", "t.jsonl",
        ]
