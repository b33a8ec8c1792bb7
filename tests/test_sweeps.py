"""Tests for the design-space sweep utilities."""

from __future__ import annotations

import pytest

import repro.harness.runner as runner_mod
from repro.harness.runner import peek_cached, set_run_executor
from repro.harness.sweeps import sweep_l4, threshold_sweep
from repro.sim.engine import SimulationParams, run_workload

TINY = SimulationParams(accesses_per_core=150, seed=4)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Sweep points are cached jobs: give every test its own store."""
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", tmp_path / ".sim_cache.json")
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod.drop_memory_state()
    yield
    runner_mod.drop_memory_state()
    set_run_executor(None)


class TestSweepL4:
    def test_points_returned_per_override(self):
        points = sweep_l4(
            "sphinx",
            [{"dice_threshold": 32}, {"dice_threshold": 40}],
            scale=65536,
            params=TINY,
        )
        assert len(points) == 2
        for override, speedup, result in points:
            assert "dice_threshold" in override
            assert speedup > 0
            assert result.config_name == "dice"

    def test_override_actually_applied(self):
        points = sweep_l4(
            "sphinx", [{"cip_entries": 64}], scale=65536, params=TINY
        )
        # cannot read the config back from the result, but the run must
        # complete and report CIP stats from the overridden predictor
        _override, _speedup, result = points[0]
        assert result.cip_accuracy is not None

    def test_points_equal_direct_runs_of_the_overridden_config(self):
        overrides = [{"dice_threshold": 0}, {"tag_sharing": False}]
        points = sweep_l4("sphinx", overrides, scale=65536, params=TINY)
        dice = runner_mod.resolve_config("dice", 65536)
        for override, _speedup, result in points:
            assert result == run_workload(
                "sphinx", dice.with_l4(**override), TINY
            )

    def test_every_point_is_cached_under_its_overrides(self):
        overrides = [{"dice_threshold": 32}, {"cip_entries": 64}]
        sweep_l4("sphinx", overrides, scale=65536, params=TINY, jobs=2)
        runner_mod.drop_memory_state()  # what a fresh process starts from
        assert peek_cached("sphinx", "base", scale=65536, params=TINY)
        for override in overrides:
            l4 = tuple(sorted(override.items()))
            assert peek_cached(
                "sphinx", "dice", scale=65536, params=TINY, l4=l4
            ) is not None
        # the plain config was never run: the overrides are in the key
        assert peek_cached("sphinx", "dice", scale=65536, params=TINY) is None

    def test_a_failing_point_raises(self):
        def doomed(workload, config, params=None, **kwargs):
            if config.l4.dice_threshold == 40:
                raise RuntimeError("injected failure")
            return run_workload(workload, config, params, **kwargs)

        set_run_executor(doomed)
        with pytest.raises(RuntimeError) as exc_info:
            sweep_l4(
                "sphinx", [{"dice_threshold": 32}, {"dice_threshold": 40}],
                scale=65536, params=TINY, jobs=2,
            )
        message = str(exc_info.value)
        assert "sphinx × dice[dice_threshold=40]" in message
        assert "injected failure" in message
        assert "dice_threshold=32" not in message


class TestParallelSweep:
    def test_parallel_sweep_matches_serial(self):
        # points cross the process boundary as jobs; results must come
        # back in override order and bit-identical whatever the pool size
        overrides = [{"dice_threshold": 32}, {"dice_threshold": 40}]
        serial = sweep_l4(
            "sphinx", overrides, scale=65536, params=TINY, jobs=1
        )
        runner_mod.clear_cache(disk=True)
        parallel = sweep_l4(
            "sphinx", overrides, scale=65536, params=TINY, jobs=2
        )
        assert serial == parallel


class TestThresholdSweep:
    def test_curve_endpoints_are_static_designs(self):
        curve = threshold_sweep(
            "sphinx", thresholds=(0, 36, 64), scale=65536, params=TINY
        )
        thresholds = [t for t, _ in curve]
        assert thresholds == [0, 36, 64]
        for _t, speedup in curve:
            assert speedup > 0
