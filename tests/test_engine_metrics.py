"""Tests for the simulation engine, metrics, and energy model."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.energy import EnergyParams, total_energy_nj
from repro.sim.engine import (
    CORE_ADDRESS_STRIDE,
    SimulationParams,
    run_workload,
)
from repro.sim.metrics import SimResult


def small_params(**kw) -> SimulationParams:
    defaults = dict(accesses_per_core=250, warmup_fraction=0.3, seed=5)
    defaults.update(kw)
    return SimulationParams(**defaults)


def small_config(**kw) -> SystemConfig:
    return SystemConfig.paper_scale(65536, **kw)


class TestRunWorkload:
    def test_produces_complete_result(self):
        result = run_workload("soplex", small_config(), small_params())
        assert result.workload == "soplex"
        assert result.cycles > 0
        assert result.instructions > 0
        assert len(result.per_core_ipc) == 8
        assert all(ipc > 0 for ipc in result.per_core_ipc)
        assert 0.0 <= result.l3_hit_rate <= 1.0
        assert 0.0 <= result.l4_hit_rate <= 1.0
        assert result.l4_accesses > 0
        assert result.energy_nj > 0

    def test_deterministic(self):
        a = run_workload("soplex", small_config(), small_params())
        b = run_workload("soplex", small_config(), small_params())
        assert a.cycles == b.cycles
        assert a.per_core_ipc == b.per_core_ipc
        assert a.l4_accesses == b.l4_accesses

    def test_seed_changes_outcome(self):
        a = run_workload("soplex", small_config(), small_params(seed=1))
        b = run_workload("soplex", small_config(), small_params(seed=2))
        assert a.cycles != b.cycles

    def test_dice_config_reports_cip_stats(self):
        cfg = small_config(compressed=True, index_scheme="dice")
        result = run_workload("soplex", cfg, small_params())
        assert result.cip_accuracy is not None
        assert result.index_distribution is not None
        inv, tsi, bai = result.index_distribution
        assert abs(inv + tsi + bai - 1.0) < 1e-6

    def test_baseline_has_no_cip_stats(self):
        result = run_workload("soplex", small_config(), small_params())
        assert result.cip_accuracy is None
        assert result.index_distribution is None

    def test_mix_workload_runs_different_profiles(self):
        result = run_workload("mix1", small_config(), small_params())
        assert result.instructions > 0

    def test_mix_requires_eight_cores(self):
        import dataclasses

        cfg = small_config()
        cfg = dataclasses.replace(
            cfg, core=dataclasses.replace(cfg.core, num_cores=4)
        )
        with pytest.raises(ValueError):
            run_workload("mix1", cfg, small_params())

    def test_zero_warmup(self):
        result = run_workload(
            "soplex", small_config(), small_params(warmup_fraction=0.0)
        )
        assert result.cycles > 0

    def test_core_address_spaces_disjoint(self):
        """Rate-mode cores must not collide in the address space."""
        assert CORE_ADDRESS_STRIDE > (1 << 26) * 64  # frame space per core


    def test_finished_run_is_freed_without_the_cycle_collector(
        self, monkeypatch
    ):
        """Nothing of a run outlives it: in-process rounds would otherwise
        pile up each run's caches until a full collection."""
        import gc
        import weakref

        from repro.sim.system import MemorySystem

        systems = []
        init = MemorySystem.__init__

        def capturing(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(weakref.ref(self))

        monkeypatch.setattr(MemorySystem, "__init__", capturing)
        gc.disable()
        try:
            run_workload("mcf", small_config(), small_params())
            assert systems and systems[0]() is None
        finally:
            gc.enable()


class TestSimResult:
    def make(self, ipcs, cycles=1000.0, energy=500.0) -> SimResult:
        return SimResult(
            workload="w",
            config_name="c",
            cycles=cycles,
            instructions=int(sum(ipcs) * cycles),
            per_core_ipc=list(ipcs),
            l3_hit_rate=0.5,
            l4_hit_rate=0.5,
            l4_accesses=10,
            l4_bytes=800,
            mem_accesses=5,
            mem_bytes=320,
            energy_nj=energy,
            effective_capacity=1.0,
        )

    def test_weighted_speedup_identity(self):
        r = self.make([1.0] * 8)
        assert r.weighted_speedup_over(r) == pytest.approx(1.0)

    def test_weighted_speedup_mixed(self):
        fast = self.make([2.0, 1.0])
        slow = self.make([1.0, 1.0])
        assert fast.weighted_speedup_over(slow) == pytest.approx(1.5)

    def test_core_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.make([1.0]).weighted_speedup_over(self.make([1.0, 2.0]))

    def test_ipc_and_edp(self):
        r = self.make([1.0, 1.0], cycles=100.0, energy=50.0)
        assert r.ipc == pytest.approx(r.instructions / 100.0)
        assert r.edp_au == pytest.approx(50.0 * 100.0)


class TestEnergyModel:
    def test_more_traffic_more_energy(self):
        low = total_energy_nj(1000, 10, 800, 5, 320)
        high = total_energy_nj(1000, 100, 8000, 50, 3200)
        assert high > low

    def test_background_scales_with_time(self):
        short = total_energy_nj(1000, 0, 0, 0, 0)
        long = total_energy_nj(2000, 0, 0, 0, 0)
        assert long == pytest.approx(2 * short)

    def test_ddr_bytes_cost_more_than_stacked(self):
        params = EnergyParams()
        l4 = total_energy_nj(0, 0, 1000, 0, 0, params)
        mem = total_energy_nj(0, 0, 0, 0, 1000, params)
        assert mem > l4
