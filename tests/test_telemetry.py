"""Bit-identity of a fully-telemetered run against a bare one.

``--trace`` (sampled) and ``--profile`` are the two switches that turn a
run's telemetry on; both at once must leave the simulation untouched.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.sim.engine import SimulationParams, run_workload


@pytest.fixture(autouse=True)
def clean_obs_config():
    obs.reset_configuration()
    yield
    obs.reset_configuration()


class TestBitIdentityWithTelemetryOn:
    def test_fully_telemetered_run_is_bit_identical(
        self, tiny_system, tmp_path
    ):
        """Sampled tracing and profiling on the same run must not perturb
        the simulation: identical SimResult, field for field."""
        params = SimulationParams(accesses_per_core=500)
        baseline = run_workload("mcf", tiny_system, params)
        obs.configure(
            trace=str(tmp_path / "t.jsonl"), every=4,
            profile=str(tmp_path / "p.prof.json"),
        )
        telemetered = run_workload("mcf", tiny_system, params)
        assert telemetered == baseline
        assert (tmp_path / "t.metrics.json").exists()
        assert (tmp_path / "p.prof.json").exists()
