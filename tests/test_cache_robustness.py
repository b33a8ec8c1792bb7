"""Tests for disk-cache safety and identity: sharded entries, atomic
writes, quarantine, concurrent-writer merge semantics, and keys derived
from what was simulated (config content, every run parameter, model
source)."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.harness.runner import (
    CacheEntryError,
    _result_from_dict,
    cached_run,
    peek_cached,
    set_run_executor,
)
from repro.obs.manifest import MODEL_DIGEST
from repro.sim.engine import SimulationParams, run_workload

PARAMS = SimulationParams(accesses_per_core=120, seed=9)

# One value per SimulationParams field, each different from PARAMS.
CHANGED_PARAMS = {
    "accesses_per_core": 130,
    "warmup_fraction": 0.25,
    "seed": 10,
    "fault_rate": 3e12,
    "ecc": "none",
}

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Route the disk cache into a temp dir and reset all module state."""
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod.drop_memory_state()
    yield cache_path
    runner_mod.drop_memory_state()
    set_run_executor(None)


def _counting_executor(counter):
    def executor(workload, config, params=None, **kwargs):
        counter.append(1)
        return run_workload(workload, config, params, **kwargs)

    return executor


def _shard_dir(cache_path):
    return cache_path.parent / ".sim_cache.d"


def _entry_files(cache_path):
    d = _shard_dir(cache_path)
    return sorted(d.glob("*.json")) if d.is_dir() else []


class TestShardedSave:
    def test_each_entry_is_its_own_complete_json_file(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        files = _entry_files(isolated_cache)
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert set(payload) == {"key", "result"}
        # and a second distinct run adds a second file, clobbering nothing
        cached_run("sphinx", "tsi", scale=65536, params=PARAMS)
        assert len(_entry_files(isolated_cache)) == 2

    def test_no_temp_files_left_behind(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        leftovers = list(isolated_cache.parent.glob("*.tmp"))
        leftovers += list(_shard_dir(isolated_cache).glob("*.tmp"))
        assert leftovers == []

    def test_second_process_reads_back(self, isolated_cache, monkeypatch):
        counter = []
        set_run_executor(_counting_executor(counter))
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert counter == [1]
        runner_mod.drop_memory_state()
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert counter == [1]  # served from disk, not re-simulated

    def test_entry_written_by_concurrent_process_is_found(
        self, isolated_cache, monkeypatch
    ):
        # Process A looked the run up and missed; process B then finished
        # it.  A's next lookup must find B's shard instead of
        # re-simulating.
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None
        result = run_workload(
            "sphinx", runner_mod.resolve_config("base", 65536), PARAMS
        )
        key = runner_mod._key("sphinx", "base", 65536, PARAMS)
        disk_key = json.dumps(key)
        runner_mod._store().write(disk_key, runner_mod._result_to_dict(result))
        counter = []
        set_run_executor(_counting_executor(counter))
        assert cached_run("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == []  # no re-simulation


class TestConcurrentWriters:
    def test_two_writers_merge_instead_of_clobbering(self, isolated_cache):
        # Regression for the monolithic-cache race: two processes that
        # each rewrote the whole store would last-writer-wins drop each
        # other's entries.  Sharded entries must merge.
        store_a = runner_mod._store()
        store_b = runner_mod._store()
        for i in range(5):
            store_a.write(f"writer-a-{i}", {"workload": "a", "i": i})
            store_b.write(f"writer-b-{i}", {"workload": "b", "i": i})
        merged = runner_mod._store().read_all()
        assert len(merged) == 10
        assert merged["writer-a-3"] == {"workload": "a", "i": 3}
        assert merged["writer-b-4"] == {"workload": "b", "i": 4}

    def test_same_key_writers_leave_one_complete_entry(self, isolated_cache):
        store = runner_mod._store()
        for i in range(5):
            store.write("shared-key", {"attempt": i})
        assert store.read("shared-key") == {"attempt": 4}
        assert len(_entry_files(isolated_cache)) == 1


class TestCorruptFileRecovery:
    def test_recovered_cache_works_after_quarantine(self, isolated_cache, monkeypatch):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        (entry_file,) = _entry_files(isolated_cache)
        entry_file.write_text("garbage")
        runner_mod.drop_memory_state()
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        # the rewritten shard must be healthy again
        counter = []
        set_run_executor(_counting_executor(counter))
        runner_mod.drop_memory_state()
        assert cached_run("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == []

    def test_torn_entry_file_is_quarantined_not_trusted(
        self, isolated_cache, monkeypatch
    ):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        (entry_file,) = _entry_files(isolated_cache)
        entry_file.write_text('{"key": "tor')  # simulated torn write
        counter = []
        set_run_executor(_counting_executor(counter))
        runner_mod.drop_memory_state()
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.workload == "sphinx"
        assert counter == [1]  # re-simulated
        quarantined = list(_shard_dir(isolated_cache).glob("*.corrupt"))
        assert quarantined  # evidence kept


class TestSchemaDrift:
    def _store_bad_entry(self, entry):
        key = runner_mod._key("sphinx", "base", 65536, PARAMS)
        disk_key = json.dumps(key)
        runner_mod._store().write(disk_key, entry)
        return disk_key

    def test_unknown_field_raises_cache_entry_error(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict({"workload": "x", "from_the_future": 1})

    def test_missing_required_field_raises(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict({"workload": "x"})

    def test_non_dict_entry_raises(self):
        with pytest.raises(CacheEntryError):
            _result_from_dict([1, 2, 3])

    def test_drifted_entry_quarantined_and_resimulated(self, isolated_cache):
        from repro.exec.cache import cache_health, reset_cache_health

        bad = {"workload": "sphinx", "field_from_old_version": 42}
        disk_key = self._store_bad_entry(bad)
        shard = runner_mod._store().entry_path(disk_key)
        reset_cache_health()
        counter = []
        set_run_executor(_counting_executor(counter))
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.workload == "sphinx"
        assert counter == [1]  # drifted entry was NOT trusted
        # moved aside exactly like a torn shard, preserved for inspection
        corrupt = shard.with_name(shard.name + ".corrupt")
        assert json.loads(corrupt.read_text())["result"] == bad
        assert cache_health().quarantined == 1
        assert not (isolated_cache.parent / ".sim_cache.corrupt.json").exists()
        # and the shard now holds the re-simulated result
        assert _result_from_dict(runner_mod._store().read(disk_key)) == result

    def test_malformed_field_value_raises(self, isolated_cache):
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        entry = dict(runner_mod._result_to_dict(result), index_distribution=5)
        with pytest.raises(CacheEntryError):
            _result_from_dict(entry)

    def test_roundtrip_still_works(self, isolated_cache):
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        restored = _result_from_dict(runner_mod._result_to_dict(result))
        assert restored == result


class TestPeekAndSeed:
    def test_peek_never_simulates(self, isolated_cache):
        counter = []
        set_run_executor(_counting_executor(counter))
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None
        assert counter == []
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) == result
        assert counter == [1]

    def test_seed_cache_persists_for_fresh_process(
        self, isolated_cache, monkeypatch
    ):
        result = run_workload(
            "sphinx", runner_mod.resolve_config("base", 65536), PARAMS
        )
        runner_mod.seed_cache("sphinx", "base", result, scale=65536, params=PARAMS)
        runner_mod.drop_memory_state()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) == result


class TestFaultAwareKeys:
    def test_distinct_rates_get_distinct_keys(self):
        a = runner_mod._key("w", "base", 65536, SimulationParams(fault_rate=3e12))
        b = runner_mod._key("w", "base", 65536, SimulationParams(fault_rate=3e13))
        c = runner_mod._key(
            "w", "base", 65536, SimulationParams(fault_rate=3e13, ecc="none")
        )
        assert len({a, b, c}) == 3


class TestWriteErrorAccounting:
    """Shard write failures are counted, logged once, and breakered —
    never silently swallowed (the old `except OSError: pass`)."""

    @pytest.fixture(autouse=True)
    def fresh_health(self):
        from repro.exec.cache import reset_cache_health

        reset_cache_health()
        yield
        reset_cache_health()

    def _failing_store(self, tmp_path, monkeypatch):
        from repro.exec.cache import ShardedResultCache

        store = ShardedResultCache(tmp_path / "store.d")
        monkeypatch.setattr(
            type(store), "write",
            lambda self, key, result: (_ for _ in ()).throw(
                OSError(28, "no space left on device")
            ),
        )
        return store

    def test_safe_write_counts_errors_and_reports_false(
        self, tmp_path, monkeypatch
    ):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        assert store.safe_write("k", {"v": 1}) is False
        assert cache_health().write_errors == 1

    def test_breaker_opens_after_threshold_and_skips_writes(
        self, tmp_path, monkeypatch
    ):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        for _ in range(3):
            store.safe_write("k", {"v": 1})
        health = cache_health()
        assert health.is_open(store.entry_path("k"))
        # breaker open: the write method is no longer even attempted
        assert store.safe_write("k", {"v": 1}) is False
        assert health.write_errors == 3
        assert health.skipped_writes == 1

    def test_breaker_is_per_shard(self, tmp_path, monkeypatch):
        from repro.exec.cache import cache_health

        store = self._failing_store(tmp_path, monkeypatch)
        for _ in range(3):
            store.safe_write("poisoned", {"v": 1})
        assert cache_health().is_open(store.entry_path("poisoned"))
        assert not cache_health().is_open(store.entry_path("healthy"))

    def test_path_logged_once_per_shard(self, tmp_path, monkeypatch, caplog):
        import logging

        store = self._failing_store(tmp_path, monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
            store.safe_write("k", {"v": 1})
            store.safe_write("k", {"v": 1})
        write_failed = [
            r for r in caplog.records if "write failed" in r.getMessage()
        ]
        assert len(write_failed) == 1

    def test_success_resets_the_consecutive_count(self, tmp_path):
        from repro.exec.cache import ShardedResultCache, cache_health

        store = ShardedResultCache(tmp_path / "store.d")
        real_write = type(store).write
        # two failures, one success, two failures: never reaches 3 in a row
        health = cache_health()
        path = store.entry_path("k")
        health.record_error(path, OSError(28, "boom"))
        health.record_error(path, OSError(28, "boom"))
        assert store.safe_write("k", {"v": 1}) is True
        health.record_error(path, OSError(28, "boom"))
        health.record_error(path, OSError(28, "boom"))
        assert not health.is_open(path)
        assert real_write is type(store).write  # store untouched

    def test_runner_save_entry_survives_failing_disk(
        self, isolated_cache, monkeypatch
    ):
        from repro.exec import cache as cache_mod

        monkeypatch.setattr(
            cache_mod.ShardedResultCache, "write",
            lambda self, key, result: (_ for _ in ()).throw(
                OSError(28, "no space left on device")
            ),
        )
        counter = []
        set_run_executor(_counting_executor(counter))
        result = cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert result.cycles > 0  # the campaign result is unaffected
        assert cache_mod.cache_health().write_errors >= 1


class TestCacheStats:
    """`cache.stats()` / `runner.cache_stats()` — the cache-info surface."""

    def test_torn_utf8_shard_is_a_miss_not_a_crash(
        self, isolated_cache, monkeypatch
    ):
        """Regression: a shard torn mid-UTF-8 sequence raises
        UnicodeDecodeError (a ValueError, *not* a JSONDecodeError) from
        read_text(); peek_cached must treat it as a quarantined miss."""
        from repro.exec.cache import reset_cache_health

        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        (entry_file,) = _entry_files(isolated_cache)
        entry_file.write_bytes(b'{"key": "\xff\xfe torn mid-sequence')
        runner_mod.drop_memory_state()
        reset_cache_health()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None
        quarantined = list(_shard_dir(isolated_cache).glob("*.corrupt"))
        assert len(quarantined) == 1
        from repro.exec.cache import cache_health

        assert cache_health().quarantined == 1
        assert cache_health().misses >= 1

    def test_store_stats_shape(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        stats = runner_mod._store().stats()
        assert stats["shards"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined_files"] == 0
        for counter in ("hits", "misses", "quarantined", "write_errors",
                        "skipped_writes", "open_breakers"):
            assert counter in stats

    def test_hit_and_miss_counters_move(self, isolated_cache, monkeypatch):
        from repro.exec.cache import cache_health, reset_cache_health

        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        runner_mod.drop_memory_state()
        reset_cache_health()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS)
        assert cache_health().hits == 1
        assert peek_cached("sphinx", "tsi", scale=65536, params=PARAMS) is None
        assert cache_health().misses == 1

    def test_runner_cache_stats_merges_layers(self, isolated_cache):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        stats = runner_mod.cache_stats()
        assert stats["shards"] == 1
        assert stats["disk_cache_enabled"] is True
        assert stats["memory_entries"] == 1
        assert stats["model_digest"] == MODEL_DIGEST


class TestContentKeys:
    """A result is keyed by what was simulated: a change to the config's
    content, to any run parameter or to the model source is a miss, and
    a warm re-run with none of them hits."""

    def test_warm_rerun_hits(self, isolated_cache):
        counter = []
        set_run_executor(_counting_executor(counter))
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        runner_mod.drop_memory_state()
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        assert counter == [1]

    def test_same_config_name_with_different_content_misses(
        self, isolated_cache, monkeypatch
    ):
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        runner_mod.drop_memory_state()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS)
        # an edited factory behind the same name, seen by a fresh process
        monkeypatch.setitem(
            runner_mod.STANDARD_CONFIGS, "base",
            runner_mod._cfg(l4_latency_factor=0.5, name="base"),
        )
        runner_mod.drop_memory_state()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS) is None

    def test_every_param_field_is_part_of_the_key(self, isolated_cache):
        names = [f.name for f in dataclasses.fields(SimulationParams)]
        assert sorted(names) == sorted(CHANGED_PARAMS)
        cached_run("sphinx", "base", scale=65536, params=PARAMS)
        runner_mod.drop_memory_state()
        assert peek_cached("sphinx", "base", scale=65536, params=PARAMS)
        for name in names:
            changed = dataclasses.replace(PARAMS, **{name: CHANGED_PARAMS[name]})
            assert getattr(changed, name) != getattr(PARAMS, name)
            assert peek_cached(
                "sphinx", "base", scale=65536, params=changed
            ) is None, name

    def test_changed_model_source_misses(self, tmp_path):
        """Each process runs a copy of the package against one store: a
        rerun hits, an edit outside the model still hits, and an edit to a
        model module misses."""
        src = tmp_path / "src"
        shutil.copytree(
            SRC / "repro", src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        script = (
            "from repro.harness.runner import cached_run, peek_cached\n"
            "from repro.sim.engine import SimulationParams\n"
            "p = SimulationParams(accesses_per_core=120, seed=9)\n"
            "hit = peek_cached('sphinx', 'base', scale=65536, params=p)\n"
            "cached_run('sphinx', 'base', scale=65536, params=p)\n"
            "print('hit' if hit is not None else 'miss')\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(src),
            "PYTHONDONTWRITEBYTECODE": "1",
            "REPRO_CACHE_PATH": str(tmp_path / ".sim_cache.json"),
            "REPRO_DISK_CACHE": "1",
        }

        def lookup():
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=tmp_path,
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        def append_comment(rel):
            with open(src / "repro" / rel, "a") as handle:
                handle.write("# edited\n")

        assert lookup() == "miss"
        assert lookup() == "hit"
        append_comment("harness/report.py")
        assert lookup() == "hit"
        append_comment("sim/energy.py")
        assert lookup() == "miss"
        assert lookup() == "hit"
