"""Trace-once campaigns: the process line store and workload-affine dispatch.

Every process keeps line contents and compressed sizes across its runs
(:func:`~repro.sim.linestore.process_store`), and a pool worker freed by
a job of one workload takes the next queued job of that workload.
Neither may change a single result.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import Future

import pytest

from repro import obs
from repro.compression.hybrid import HybridCompressor
from repro.exec import make_job, run_jobs
from repro.exec.supervisor import Supervisor
from repro.harness import runner as runner_mod
from repro.harness.runner import resolve_config, set_run_executor
from repro.obs.prof import read_profile
from repro.sim.engine import (
    CORE_ADDRESS_STRIDE,
    SimulationParams,
    run_workload,
)
from repro.sim import linestore as linestore_mod
from repro.sim.linestore import LineStore, process_store
from repro.sim.system import MemorySystem
from repro.workloads.base import TraceGenerator
from repro.workloads.data import LineDataFactory

PARAMS = SimulationParams(accesses_per_core=300, seed=7)


def _config(name):
    return resolve_config(name, 4096)


@pytest.fixture
def captured_systems(monkeypatch):
    """Every MemorySystem built while the test runs, in build order."""
    systems = []
    init = MemorySystem.__init__

    def capturing(self, *args, **kwargs):
        init(self, *args, **kwargs)
        systems.append(self)

    monkeypatch.setattr(MemorySystem, "__init__", capturing)
    return systems


@pytest.fixture
def empty_process_store(monkeypatch):
    """An empty process store for the test's runs and the workers it forks."""
    store = LineStore()
    monkeypatch.setattr(linestore_mod, "_PROCESS_STORE", store)
    return store


def _count_synthesis_and_sizing(monkeypatch):
    """Counters of line syntheses, by (factory key, address), and of hybrid
    sizings, by content, for every run made after the call."""
    synthesized = Counter()
    sized = Counter()
    line_data = LineDataFactory.line_data
    size_kernel = HybridCompressor._size_kernel

    def counting_line_data(self, line_addr):
        synthesized[(self.key, line_addr)] += 1
        return line_data(self, line_addr)

    def counting_size_kernel(self, data):
        sized[data] += 1
        return size_kernel(self, data)

    monkeypatch.setattr(LineDataFactory, "line_data", counting_line_data)
    monkeypatch.setattr(HybridCompressor, "_size_kernel", counting_size_kernel)
    return synthesized, sized


class TestLineStoreBound:
    @staticmethod
    def _run(store, *factories, lines=10):
        """One run's worth of store traffic: take the tables, fill each."""
        tables = store.line_tables(factories)
        for table in tables:
            for addr in range(len(table), lines):
                table[addr] = bytes(64)
        return tables

    def test_evicts_whole_factories_least_recently_used_first(self):
        a, b, c = (LineDataFactory({"rand": 1.0}, seed=s) for s in range(3))
        store = LineStore(max_lines=25)
        self._run(store, a)
        self._run(store, b)
        (kept_c,) = self._run(store, c)
        assert store.lines == 30  # the bound is checked as a run starts
        (kept_a,) = store.line_tables([a])  # a is touched: b is now oldest
        assert len(kept_a) == 10
        assert store.lines == 20
        (again_b,) = store.line_tables([b])
        assert again_b == {}  # b went whole
        assert store.line_tables([c]) == [kept_c]

    def test_never_evicts_the_running_jobs_own(self):
        a, b, c = (LineDataFactory({"rand": 1.0}, seed=s) for s in range(3))
        store = LineStore(max_lines=30)
        self._run(store, a)
        self._run(store, b)
        self._run(store, c)
        store.max_lines = 5
        tables = store.line_tables([a, b])
        assert [len(t) for t in tables] == [10, 10]
        assert store.lines == 20  # over the bound: both are the run's own
        assert store.line_tables([c]) == [{}]

    def test_equal_factories_share_one_table(self):
        store = LineStore()
        cores = [LineDataFactory({"mid36": 1.0}, seed=3) for _ in range(8)]
        tables = store.line_tables(cores)
        assert all(t is tables[0] for t in tables)


class TestSharedStoreRuns:
    DESIGNS = ("bai", "dice", "scc")

    def test_each_line_synthesized_once_and_each_content_sized_once(
        self, monkeypatch
    ):
        fresh = {
            d: run_workload("mcf", _config(d), PARAMS, store=LineStore())
            for d in self.DESIGNS
        }
        synthesized, sized = _count_synthesis_and_sizing(monkeypatch)
        store = LineStore()
        shared = {
            d: run_workload("mcf", _config(d), PARAMS, store=store)
            for d in self.DESIGNS
        }
        assert shared == fresh
        assert synthesized and max(synthesized.values()) == 1
        assert sized and max(sized.values()) == 1

    def test_profiled_runs_on_one_store_match_fresh_runs_and_unwrap(
        self, tmp_path, captured_systems
    ):
        config = _config("dice")
        obs.configure(profile=str(tmp_path / "run.prof.json"))
        try:
            fresh = [
                run_workload("mcf", config, PARAMS, store=LineStore())
                for _ in range(2)
            ]
            store = LineStore()
            shared = [
                run_workload("mcf", config, PARAMS, store=store)
                for _ in range(2)
            ]
        finally:
            obs.reset_configuration()
        assert shared == fresh

        def frames(path):
            # Every frame's calls and simulated cycles are the run's own:
            # the codec frame does not count the pair-size cache's misses,
            # which a warm store's pair memo answers.
            return sorted(
                (f["stack"], f["cycles"], f["calls"])
                for f in read_profile(path)["frames"]
            )

        names = ["run.prof.json", "run.prof.2.json", "run.prof.3.json",
                 "run.prof.4.json"]
        profiles = [frames(tmp_path / name) for name in names]
        assert profiles[2:] == profiles[:2]
        first, second = (s.l4 for s in captured_systems[2:])
        # each run wraps its own codec instances around the shared memos
        assert first.compressor is not second.compressor
        assert first.pair_sizes is not second.pair_sizes
        assert second.compressor.memo._sizes is store.sizes
        wrap = vars(second.compressor)["compressed_size"]
        assert wrap.__wrapped__.__func__ is HybridCompressor.compressed_size

    def test_run_counts_only_its_own_memo_lookups(self, captured_systems):
        config = _config("dice")
        store = LineStore()
        run_workload("mcf", config, PARAMS, store=store)
        run_workload("mcf", config, PARAMS, store=store)
        cold, warm = (s.l4 for s in captured_systems)
        cold_memo = cold.compressor.memo_stats()
        warm_memo = warm.compressor.memo_stats()
        cold_pairs = cold.pair_sizes.stats()
        warm_pairs = warm.pair_sizes.stats()
        assert warm_pairs["hits"] == cold_pairs["hits"] + cold_pairs["misses"]
        assert warm_pairs["misses"] == 0 < cold_pairs["misses"]
        assert warm_memo["misses"] == 0 < cold_memo["misses"]
        # the hybrid's lookups are the run's own sizings plus two per
        # pair-size miss, and the warm run's pair memo missed nothing
        cold_lookups = cold_memo["hits"] + cold_memo["misses"]
        assert warm_memo["hits"] == cold_lookups - 2 * cold_pairs["misses"]


class TestProcessStore:
    """In-process runs that are handed no store share the process's."""

    PARAMS = SimulationParams(accesses_per_core=200, seed=7)

    def test_a_repeated_run_synthesizes_and_sizes_nothing(
        self, monkeypatch, empty_process_store
    ):
        config = _config("dice")
        first = run_workload("mcf", config, self.PARAMS)
        assert process_store() is empty_process_store
        assert empty_process_store.lines > 0 and empty_process_store.sizes
        synthesized, sized = _count_synthesis_and_sizing(monkeypatch)
        assert run_workload("mcf", config, self.PARAMS) == first
        assert not synthesized and not sized

    def test_runs_in_any_order_match_fresh_store_runs(
        self, empty_process_store
    ):
        cells = [
            (workload, design)
            for workload in ("mcf", "lbm")
            for design in ("dice", "bai", "scc", "base")
        ]
        fresh = {
            (w, d): run_workload(w, _config(d), self.PARAMS, store=LineStore())
            for w, d in cells
        }
        # workload-major, then design-major from the other end: the first
        # cell runs on an empty store, every later one on what others left
        design_major = sorted(cells, key=lambda c: c[::-1], reverse=True)
        for order in (cells, design_major):
            for w, d in order:
                result = run_workload(w, _config(d), self.PARAMS)
                assert result == fresh[(w, d)], f"{w} x {d}"


class TestDispatch:
    class _Pool:
        """Records what the supervisor submits; nothing ever runs."""

        def __init__(self):
            self.started = []

        def submit(self, _fn, job, *_args):
            self.started.append(job.describe())
            return Future()

    def _supervisor(self, labels):
        supervisor = Supervisor(2, registry=obs.MetricsRegistry())
        pool = supervisor._pool = self._Pool()
        for i, label in enumerate(labels):
            workload, config = label.split(":")
            supervisor.submit(i, make_job(workload, config, params=PARAMS))
        supervisor._take_fed()
        return supervisor, pool

    @staticmethod
    def _finish(supervisor, workload, config):
        """Settle the in-flight job; returns its workload, as _step does."""
        for future, ticket in list(supervisor._futures.items()):
            if (ticket.job.workload, ticket.job.config_name) == (
                workload, config
            ):
                del supervisor._futures[future]
                return [workload]
        raise AssertionError(f"{workload}:{config} is not in flight")

    def test_freed_worker_takes_its_workloads_next_job(self):
        supervisor, pool = self._supervisor(
            ["mcf:base", "lbm:base", "lbm:dice", "mcf:dice", "gcc:base",
             "lbm:scc"]
        )
        supervisor._fill()
        # a fresh pool spreads workloads: the second slot skips mcf
        assert pool.started == ["mcf × base", "lbm × base"]
        supervisor._fill(self._finish(supervisor, "mcf", "base"))
        assert pool.started[-1] == "mcf × dice"  # ahead of older lbm jobs
        supervisor._fill(self._finish(supervisor, "mcf", "dice"))
        # no mcf left: the oldest job of a workload no worker runs
        assert pool.started[-1] == "gcc × base"
        supervisor._fill(self._finish(supervisor, "lbm", "base"))
        assert pool.started[-1] == "lbm × dice"  # FIFO within lbm
        supervisor._fill(self._finish(supervisor, "gcc", "base"))
        # lbm is in flight and nothing else is queued: the oldest job
        assert pool.started[-1] == "lbm × scc"
        assert len(supervisor._queue) == 0

    def test_requeued_job_waits_behind_its_workloads_queue(self):
        supervisor, pool = self._supervisor(
            ["mcf:base", "mcf:dice", "mcf:scc"]
        )
        supervisor.workers = 1
        supervisor._fill()
        (future, ticket), = supervisor._futures.items()
        del supervisor._futures[future]
        supervisor._queue.append(ticket)  # what a crash requeue does
        supervisor._fill(["mcf"])
        supervisor._fill(self._finish(supervisor, "mcf", "dice"))
        supervisor._fill(self._finish(supervisor, "mcf", "scc"))
        assert pool.started == [
            "mcf × base", "mcf × dice", "mcf × scc", "mcf × base"
        ]


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json")
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod._memory_cache.clear()
    yield tmp_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)


def _store_probe(log):
    """A stand-in executor that logs the lines the process store holds
    before and after each run."""

    def executor(workload, config, params=None, **kwargs):
        before = process_store().lines
        result = run_workload(workload, config, params, **kwargs)
        with open(log, "a") as fh:
            fh.write(json.dumps({
                "pid": os.getpid(), "before": before,
                "after": process_store().lines,
            }) + "\n")
        return result

    return executor


class TestPooledRuns:
    def test_two_workers_match_in_process_runs(self, isolated_cache):
        params = SimulationParams(accesses_per_core=200, seed=7)
        jobs = [
            make_job(workload, design, scale=4096, params=params)
            for workload in ("mcf", "pr_twi")
            for design in ("dice", "bai", "scc", "base")
        ]
        outcomes = run_jobs(jobs, max_workers=2)
        assert [o.job for o in outcomes] == jobs
        for outcome in outcomes:
            assert outcome.source == "run"
            job = outcome.job
            expected = run_workload(
                job.workload, _config(job.config_name), params
            )
            assert outcome.result == expected, job.describe()

    def test_a_workers_jobs_share_one_store(
        self, isolated_cache, empty_process_store
    ):
        log = isolated_cache / "stores.jsonl"
        set_run_executor(_store_probe(log))
        jobs = [
            make_job("mcf", design, scale=4096, params=PARAMS)
            for design in ("base", "bai", "dice")
        ]
        outcomes = run_jobs(jobs, max_workers=1)
        assert all(o.source == "run" for o in outcomes)
        runs = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(runs) == 3
        assert {run["pid"] for run in runs} == {runs[0]["pid"]} != {os.getpid()}
        # the worker forked from an empty store, and each job starts on
        # the lines the previous one left
        assert runs[0]["before"] == 0 < runs[0]["after"]
        assert runs[1]["before"] == runs[0]["after"]
        assert runs[2]["before"] == runs[1]["after"]


class TestChunkedSynthesis:
    def test_runs_draw_at_most_one_chunk_per_core_beyond_what_they_serve(
        self, monkeypatch
    ):
        generated = Counter()
        served = Counter()
        chunks = TraceGenerator.chunks
        handle_access = MemorySystem.handle_access

        def counting_chunks(self, size=TraceGenerator.DEFAULT_CHUNK):
            core = self.core_offset // CORE_ADDRESS_STRIDE
            for chunk in chunks(self, size):
                generated[core] += len(chunk)
                yield chunk

        def counting_access(self, access, now):
            served[access.line_addr // CORE_ADDRESS_STRIDE] += 1
            return handle_access(self, access, now)

        monkeypatch.setattr(TraceGenerator, "chunks", counting_chunks)
        monkeypatch.setattr(MemorySystem, "handle_access", counting_access)
        config = _config("base")
        for workload in ("mcf", "mix1"):
            generated.clear()
            served.clear()
            run_workload(
                workload, config, SimulationParams(accesses_per_core=100)
            )
            cores = config.core.num_cores
            assert sorted(served) == list(range(cores))
            for core in range(cores):
                assert 0 <= generated[core] - served[core]
                assert generated[core] - served[core] < (
                    TraceGenerator.DEFAULT_CHUNK
                )
            waste = sum(generated.values()) - sum(served.values())
            assert waste <= cores * TraceGenerator.DEFAULT_CHUNK
