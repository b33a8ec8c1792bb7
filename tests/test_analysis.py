"""Tests for the analysis package (paper references, report rendering)."""

from __future__ import annotations

import pytest

import repro.harness.runner as runner_mod
from repro.analysis.report import (
    experiment_section,
    render_comparison,
    write_experiments_md,
)
from repro.harness.cli import EXPERIMENTS
from repro.harness.runner import clear_cache
from repro.obs.fidelity import PAPER_TARGETS, paper_value
from repro.sim.engine import SimulationParams


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
    clear_cache()
    yield
    clear_cache()


class TestPaperReference:
    def test_every_experiment_key_is_known(self):
        for key in PAPER_TARGETS:
            assert key in EXPERIMENTS, key

    def test_headline_values(self):
        assert paper_value("fig10", "dice/ALL26") == pytest.approx(1.19)
        assert paper_value("fig14", "dice/edp") == pytest.approx(0.64)
        assert paper_value("table6", "base/AVG26") == pytest.approx(37.0)

    def test_unknown_returns_none(self):
        assert paper_value("fig10", "nonexistent") is None
        assert paper_value("nonexistent", "x") is None

    def test_values_are_sane(self):
        for experiment, entries in PAPER_TARGETS.items():
            for key, value in entries.items():
                assert value > 0, f"{experiment}/{key}"


class TestRendering:
    def test_render_comparison_pairs(self):
        rows = render_comparison("fig13", {"gmean": 1.05, "extra": 2.0})
        assert ("gmean", 1.05, 1.02) in rows
        assert ("extra", 2.0, None) in rows

    def test_experiment_section_fig13(self):
        params = SimulationParams(accesses_per_core=120, seed=2)
        section = experiment_section("fig13", params)
        assert section.startswith("## Fig 13")
        assert "povray" in section
        assert "paper" in section

    def test_write_experiments_md_smoke(self, tmp_path, monkeypatch):
        """Generate a report restricted to two cheap experiments."""
        import repro.analysis.report as report_mod

        cheap = {
            "fig4": EXPERIMENTS["fig4"],
            "fig13": EXPERIMENTS["fig13"],
        }
        monkeypatch.setattr(report_mod, "EXPERIMENTS", cheap)
        out = tmp_path / "EXPERIMENTS.md"
        params = SimulationParams(accesses_per_core=120, seed=2)
        text = write_experiments_md(out, params)
        assert out.exists()
        assert "# EXPERIMENTS" in text
        assert "## Fig 4" in text
        assert "## Fig 13" in text
