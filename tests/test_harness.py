"""Tests for the experiment harness: configs, caching, reporting."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.harness.report import format_table, geomean, group_geomeans
from repro.harness.runner import (
    PREFETCH_CONFIGS,
    STANDARD_CONFIGS,
    cached_run,
    clear_cache,
    make_config,
    resolve_config,
    speedup,
)
from repro.sim.engine import SimulationParams, run_workload


class TestConfigs:
    def test_all_standard_configs_build(self):
        for name in STANDARD_CONFIGS:
            cfg = make_config(name, scale=65536)
            assert cfg.name == name

    def test_prefetch_configs_resolve(self):
        for name, (base, mode) in PREFETCH_CONFIGS.items():
            cfg = resolve_config(name, scale=65536)
            assert cfg.l3_prefetch == mode
            assert cfg.name == name

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            make_config("warp-drive")

    def test_threshold_variants(self):
        assert make_config("dice-t32", 65536).l4.dice_threshold == 32
        assert make_config("dice-t40", 65536).l4.dice_threshold == 40

    def test_knl_variant_hides_neighbor_tag(self):
        assert not make_config("dice-knl", 65536).l4.neighbor_tag_visible

    def test_ltt_variants(self):
        assert make_config("dice-ltt512", 65536).l4.cip_entries == 512
        assert make_config("dice-ltt8192", 65536).l4.cip_entries == 8192

    def test_sensitivity_variants(self):
        base = make_config("base", 65536)
        assert make_config("2xcap", 65536).l4.capacity_bytes == 2 * base.l4.capacity_bytes
        assert make_config("2xbw", 65536).l4.organization.channels == 8
        assert make_config("halflat", 65536).l4.organization.timings.tCAS == 22


class TestCaching:
    def setup_method(self):
        clear_cache()
        self.params = SimulationParams(accesses_per_core=120, seed=9)

    def test_cached_run_returns_identical_object(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
        a = cached_run("sphinx", "base", scale=65536, params=self.params)
        b = cached_run("sphinx", "base", scale=65536, params=self.params)
        assert a is b

    def test_different_params_rerun(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
        a = cached_run("sphinx", "base", scale=65536, params=self.params)
        other = SimulationParams(accesses_per_core=150, seed=9)
        b = cached_run("sphinx", "base", scale=65536, params=other)
        assert a is not b

    def test_capacity_sample_every_is_part_of_the_key(self, monkeypatch):
        """The sampling interval changes effective_capacity, so a run at
        a non-default interval must not be served the default run."""
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
        params = SimulationParams(accesses_per_core=400)
        dense = dataclasses.replace(params, capacity_sample_every=64)
        default = cached_run("mcf", "dice", params=params)
        sampled = cached_run("mcf", "dice", params=dense)
        assert sampled is not default
        fresh = run_workload("mcf", make_config("dice"), dense)
        assert sampled.effective_capacity == fresh.effective_capacity
        assert sampled.effective_capacity != default.effective_capacity

    def test_default_params_keep_their_historical_key(self):
        import repro.harness.runner as runner_mod

        params = SimulationParams(accesses_per_core=400)
        assert runner_mod._key("mcf", "dice", 4096, params) == (
            runner_mod._CACHE_VERSION, "mcf", "dice", 4096, 400, 0.35, 7,
        )

    def test_speedup_of_baseline_is_one(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
        s = speedup("sphinx", "base", "base", scale=65536, params=self.params)
        assert s == pytest.approx(1.0)

    def teardown_method(self):
        clear_cache()


class TestReport:
    def test_geomean_basics(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([1.0]) == 1.0
        assert geomean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_group_geomeans(self):
        values = {"a": 2.0, "b": 8.0, "c": 3.0}
        groups = {"ab": ["a", "b"], "missing": ["z"]}
        result = group_geomeans(values, groups)
        assert result["ab"] == pytest.approx(4.0)
        assert math.isnan(result["missing"])

    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["x", 1.5], ["longer", 2.25]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in out
        assert "2.250" in out

    def test_format_table_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out
