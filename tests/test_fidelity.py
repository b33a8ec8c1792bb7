"""Fidelity scoreboard tests: grading, baseline roundtrip, drift flags."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.harness.experiments import EXPERIMENTS
from repro.obs import fidelity
from repro.obs.fidelity import (
    BaselineContextMismatch,
    FidelityScore,
    KeyScore,
    PAPER_TARGETS,
    SHAPE_CHECKS,
    build_scoreboard,
    detect_drift,
    evaluate_shapes,
    format_scoreboard,
    load_baseline,
    paper_value,
    shape_label,
    write_baseline,
)

ROOT = Path(__file__).resolve().parents[1]

# every evaluation artifact of the paper, by experiment key
PAPER_ARTIFACTS = (
    "fig1", "fig4", "fig7", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "table4", "table5", "table6", "table7", "table8", "cip",
)

@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    """Keep collect_results' simulations out of the shared caches."""
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
    runner_mod.drop_memory_state()
    yield
    runner_mod.drop_memory_state()


FIG10_GOOD = {
    "tsi/ALL26": 1.068,
    "bai/ALL26": 1.002,
    "dice/ALL26": 1.191,
    "2xcap2xbw/ALL26": 1.217,
}

CONTEXT = {"accesses": 300, "seed": 7, "scale": 4096,
           "warmup_fraction": 0.35}


def scoreboard_for(summary, experiment="fig10"):
    return build_scoreboard({experiment: summary})


class TestTargetsAndScoring:
    def test_targets_cover_every_figure_and_table(self):
        for key in ("fig1", "fig10", "table5", "cip"):
            assert key in PAPER_TARGETS

    def test_paper_value_lookup(self):
        assert paper_value("fig10", "dice/ALL26") == 1.19
        assert paper_value("fig10", "nonexistent") is None
        assert paper_value("nonexistent", "x") is None

    def test_key_score_delta(self):
        ks = KeyScore("dice/ALL26", measured=1.19 * 1.02, paper=1.19)
        assert ks.delta_to_paper == pytest.approx(0.02)
        assert KeyScore("x", 1.0, paper=None).delta_to_paper is None

    def test_from_summary_grades_and_shapes(self):
        summary = dict(FIG10_GOOD, **{"dice/GAP": 1.49, "dice/SPEC RATE": 1.12})
        table = (
            ["workload", "tsi", "bai", "dice", "2xcap2xbw"],
            [["libq", 1.0, 0.8, 1.0, 1.3], ["soplex", 1.05, 1.3, 1.3, 1.3]],
        )
        score = FidelityScore.from_summary("fig10", summary, table)
        assert score.worst_delta < 0.01
        assert score.shapes_passed == len(score.shapes) == len(
            SHAPE_CHECKS["fig10"]
        )
        payload = score.to_dict()
        assert payload["keys"]["dice/ALL26"]["paper"] == 1.19
        assert all(payload["shapes"].values())

    def test_shape_ordering_failure_is_recorded(self):
        flipped = dict(FIG10_GOOD, **{"dice/ALL26": 0.99})
        shapes = evaluate_shapes("fig10", flipped)
        assert shapes[shape_label(("gt", "dice/ALL26", "tsi/ALL26"))] is False

    def test_missing_summary_key_fails_the_shape(self):
        shapes = evaluate_shapes("fig10", {"tsi/ALL26": 1.0})
        assert not all(shapes.values())

    def test_every_shape_check_references_real_ops(self):
        for experiment, checks in fidelity.SHAPE_CHECKS.items():
            for check in checks:
                assert shape_label(check)  # raises on an unknown op


class TestClaimForms:
    TABLE = (
        ["workload", "tsi", "bai"],
        [["libq", 1.0, 0.8], ["soplex", 1.02, 1.2]],
    )

    def holds(self, check, summary=None, table=TABLE):
        return fidelity._evaluate_shape(check, summary or {}, table)

    def test_a_cell_operand_reads_one_row_and_column(self):
        assert self.holds(("lt_const", "libq[bai]", 0.9))
        assert not self.holds(("gt_const", "libq[bai]", 0.9))
        assert self.holds(("gt", "soplex[bai]", "soplex[tsi]"))
        assert shape_label(("lt_const", "libq[bai]", 0.9)) == "libq[bai] < 0.9"

    def test_an_every_row_claim_must_hold_in_each_row(self):
        assert self.holds(("gt_const", "*[tsi]", 0.95))
        assert not self.holds(("gt_const", "*[bai]", 0.95))  # libq 0.8
        assert self.holds(("between", "*[tsi]", 1.0, 1.1))
        # two every-row operands pair up row by row
        assert self.holds(("gt", "*[tsi]", "*[bai]", -0.2))
        assert not self.holds(("gt", "*[tsi]", "*[bai]"))  # soplex
        assert shape_label(("gt_const", "*[tsi]", 0.95)) == "*[tsi] > 0.95"

    def test_a_margin_shifts_a_two_operand_comparison(self):
        summary = {"a": 1.2, "b": 1.0}
        assert self.holds(("gt", "a", "b", 0.15), summary)
        assert not self.holds(("gt", "a", "b", 0.25), summary)
        assert self.holds(("ge", "b", "a", -0.25), summary)
        assert not self.holds(("ge", "b", "a", -0.1), summary)
        assert shape_label(("gt", "a", "b", 0.15)) == "a > b + 0.15"
        assert shape_label(("ge", "b", "a", -0.01)) == "b >= a - 0.01"

    def test_gain_retention(self):
        check = ("retains", "knl", "dice", 0.5)
        assert self.holds(check, {"knl": 1.06, "dice": 1.10})
        assert not self.holds(check, {"knl": 1.04, "dice": 1.10})
        assert shape_label(check) == "knl - 1 > 0.5 * (dice - 1)"

    def test_a_missing_cell_fails_the_claim(self):
        assert not self.holds(("lt_const", "lbm[bai]", 0.9))  # no such row
        assert not self.holds(("lt_const", "libq[dice]", 0.9))  # no column
        assert not self.holds(("gt_const", "*[tsi]", 0.9), table=None)
        empty = (["workload", "tsi"], [])
        assert not self.holds(("gt_const", "*[tsi]", 0.9), table=empty)

    def test_unknown_op_is_an_error_not_a_failure(self):
        with pytest.raises(ValueError):
            self.holds(("lt", "a", "b"), {"a": 1.0, "b": 2.0})


class TestOneListOfClaims:
    """The claims CI judges are the claims a reader finds."""

    @pytest.mark.parametrize("experiment", PAPER_ARTIFACTS)
    def test_every_paper_artifact_has_claims(self, experiment):
        assert experiment in EXPERIMENTS
        assert experiment in PAPER_TARGETS
        assert SHAPE_CHECKS[experiment]

    def test_every_experiment_is_a_paper_artifact_or_an_extension(self):
        for key, (title, _fn) in EXPERIMENTS.items():
            assert (key in PAPER_ARTIFACTS) != title.startswith(
                "Extension:"
            ), key
            assert SHAPE_CHECKS.get(key), f"{key} states no claim"
        assert set(SHAPE_CHECKS) <= set(EXPERIMENTS)

    def test_paper_targets_are_exactly_the_paper_experiments(self):
        """The paper's numbers sit under the experiments that regenerate
        its figures and tables, and under no extension."""
        paper_experiments = {
            key
            for key, (title, _fn) in EXPERIMENTS.items()
            if not title.startswith("Extension:")
        }
        assert set(PAPER_TARGETS) == paper_experiments

    def test_labels_are_unique_per_experiment(self):
        for experiment, checks in SHAPE_CHECKS.items():
            labels = [shape_label(check) for check in checks]
            assert len(set(labels)) == len(labels), experiment

    def test_committed_baseline_records_exactly_these_claims(self):
        """A claim added without re-recording the baseline would never
        gate: drift detection compares only recorded outcomes."""
        recorded = load_baseline(ROOT / "FIDELITY_baseline.json")
        experiments = recorded["experiments"]
        assert set(experiments) == set(EXPERIMENTS)
        for experiment, entry in experiments.items():
            labels = {shape_label(c) for c in SHAPE_CHECKS[experiment]}
            assert set(entry["shapes"]) == labels, experiment


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        board = scoreboard_for(FIG10_GOOD)
        path = write_baseline(tmp_path / "b.json", board, CONTEXT)
        payload = load_baseline(path)
        assert payload["schema"] == fidelity.BASELINE_SCHEMA
        assert payload["context"] == CONTEXT
        keys = payload["experiments"]["fig10"]["keys"]
        assert keys["dice/ALL26"]["measured"] == FIG10_GOOD["dice/ALL26"]
        assert "delta_to_paper" in keys["dice/ALL26"]

    def test_load_rejects_non_baselines(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        with pytest.raises(ValueError, match="not JSON"):
            load_baseline(bad)
        bad.write_text('{"schema": 99, "experiments": {}}')
        with pytest.raises(ValueError, match="schema"):
            load_baseline(bad)
        bad.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a fidelity baseline"):
            load_baseline(bad)

    def test_context_mismatch_refuses_comparison(self, tmp_path):
        board = scoreboard_for(FIG10_GOOD)
        path = write_baseline(tmp_path / "b.json", board, CONTEXT)
        baseline = load_baseline(path)
        other = dict(CONTEXT, accesses=6000)
        with pytest.raises(BaselineContextMismatch):
            detect_drift(board, baseline, context=other)


class TestDriftDetection:
    def baseline(self, tmp_path, summary=FIG10_GOOD):
        path = write_baseline(
            tmp_path / "b.json", scoreboard_for(summary), CONTEXT
        )
        return load_baseline(path)

    def test_in_band_run_is_not_flagged(self, tmp_path):
        """Satellite: a run whose Fig 10 delta stays inside the band."""
        baseline = self.baseline(tmp_path)
        # dice moves by ~1.7% of the paper value: inside the 5% band
        nudged = dict(FIG10_GOOD, **{"dice/ALL26": 1.211})
        flags = detect_drift(
            scoreboard_for(nudged), baseline, context=CONTEXT
        )
        assert flags == []

    def test_fig10_delta_crossing_the_band_is_flagged(self, tmp_path):
        """Satellite: a Fig 10 delta-to-paper crossing the band flags."""
        baseline = self.baseline(tmp_path)
        # dice jumps from +0.1% to +8.5% vs the paper: movement > 5%
        drifted = dict(FIG10_GOOD, **{"dice/ALL26": 1.19 * 1.085})
        flags = detect_drift(scoreboard_for(drifted), baseline)
        assert len(flags) == 1
        flag = flags[0]
        assert (flag.experiment, flag.key) == ("fig10", "dice/ALL26")
        assert flag.kind == "delta-to-paper"
        assert flag.movement > 0.05
        assert "dice/ALL26" in flag.describe()

    def test_shape_flip_is_flagged_even_in_magnitude_band(self, tmp_path):
        baseline = self.baseline(tmp_path)
        # tiny magnitude change, but it flips dice > tsi
        flipped = dict(
            FIG10_GOOD, **{"dice/ALL26": 1.067, "tsi/ALL26": 1.068}
        )
        flags = detect_drift(scoreboard_for(flipped), baseline)
        kinds = {flag.kind for flag in flags}
        assert "shape" in kinds

    def test_standing_shape_failure_does_not_flag(self, tmp_path):
        """A shape failing at baseline time only flags when it *changes*."""
        failing = dict(FIG10_GOOD, **{"dice/ALL26": 0.95})
        baseline = self.baseline(tmp_path, failing)
        flags = detect_drift(scoreboard_for(failing), baseline)
        assert flags == []

    def test_non_paper_key_uses_relative_measured_movement(self, tmp_path):
        summary = {"custom/metric": 10.0}
        baseline = self.baseline(tmp_path, summary)
        ok = detect_drift(scoreboard_for({"custom/metric": 10.2}), baseline)
        assert ok == []
        moved = detect_drift(
            scoreboard_for({"custom/metric": 12.0}), baseline
        )
        assert [flag.kind for flag in moved] == ["measured"]

    def test_missing_baseline_entry_is_flagged(self, tmp_path):
        baseline = self.baseline(tmp_path)
        board = build_scoreboard(
            {"fig10": FIG10_GOOD, "fig13": {"gmean": 1.0}}
        )
        flags = detect_drift(board, baseline)
        assert any(flag.kind == "missing-baseline" for flag in flags)

    def test_tolerance_override_applies_per_experiment(self, tmp_path):
        summary = {"dice/faults": 4.0}
        path = write_baseline(
            tmp_path / "b.json", build_scoreboard({"faults": summary}),
            CONTEXT,
        )
        baseline = load_baseline(path)
        # 10% movement: outside the default 5% band, inside faults' 25%
        board = build_scoreboard({"faults": {"dice/faults": 4.4}})
        assert detect_drift(board, baseline) == []

    def test_explicit_tolerance_wins(self, tmp_path):
        baseline = self.baseline(tmp_path)
        drifted = dict(FIG10_GOOD, **{"dice/ALL26": 1.19 * 1.085})
        board = scoreboard_for(drifted)
        assert detect_drift(board, baseline, tolerance=0.5) == []
        assert detect_drift(board, baseline, tolerance=0.01)


class TestRendering:
    def test_format_scoreboard_marks_drifted_rows(self, tmp_path):
        board = scoreboard_for(FIG10_GOOD)
        path = write_baseline(tmp_path / "b.json", board, CONTEXT)
        drifted = dict(FIG10_GOOD, **{"dice/ALL26": 1.19 * 1.085})
        drifted_board = scoreboard_for(drifted)
        flags = detect_drift(drifted_board, load_baseline(path))
        text = format_scoreboard(drifted_board, flags)
        assert "DRIFT" in text
        assert "dice/ALL26" in text
        clean = format_scoreboard(board, [])
        assert "DRIFT" not in clean


class TestCollectSummaries:
    def test_collects_requested_experiments_via_drivers(self):
        from repro.sim.engine import SimulationParams

        summaries, tables = fidelity.collect_results(
            SimulationParams(accesses_per_core=100), ["fig13"]
        )
        assert set(summaries) == set(tables) == {"fig13"}
        assert "gmean" in summaries["fig13"]
        headers, rows = tables["fig13"]
        assert headers == ["workload", "dice"]
        assert "povray" in [row[0] for row in rows]


class TestRepetitionCollection:
    def test_rep_zero_matches_the_point_collection(self):
        """Tentpole bit-identity: rep 0 IS today's collect_results."""
        from repro.sim.engine import SimulationParams

        params = SimulationParams(accesses_per_core=100)
        point, point_tables = fidelity.collect_results(params, ["fig13"])
        first, first_tables, dists = fidelity.collect_results_repeated(
            params, ["fig13"], repetitions=2
        )
        assert first == point
        assert first_tables == point_tables
        assert dists["fig13"]["gmean"][0] == point["fig13"]["gmean"]
        assert len(dists["fig13"]["gmean"]) == 2
        # a derived-seed rep simulates different physics
        assert dists["fig13"]["gmean"][1] != dists["fig13"]["gmean"][0]

    def test_zero_repetitions_rejected(self):
        from repro.sim.engine import SimulationParams

        with pytest.raises(ValueError):
            fidelity.collect_results_repeated(
                SimulationParams(accesses_per_core=100), ["fig13"],
                repetitions=0,
            )


class TestComputeKeyStats:
    def test_without_baseline_describes_the_distribution(self):
        dists = {"fig10": {"dice/ALL26": [1.19, 1.20, 1.18]}}
        stats = fidelity.compute_key_stats(dists)
        ks = stats["fig10"]["dice/ALL26"]
        assert ks.n == 3
        assert ks.p_value is None  # nothing to test against
        # movement space is delta-to-paper: values symmetric around 1.19
        assert abs(ks.mean) < 0.01
        assert ks.ci_low <= ks.mean <= ks.ci_high

    def test_with_baseline_adds_a_p_value(self, tmp_path):
        path = write_baseline(
            tmp_path / "b.json", scoreboard_for(FIG10_GOOD), CONTEXT
        )
        baseline = load_baseline(path)
        dists = {"fig10": {"dice/ALL26": [1.30, 1.31, 1.29]}}
        ks = fidelity.compute_key_stats(dists, baseline)["fig10"]["dice/ALL26"]
        assert ks.p_value == pytest.approx(0.25)  # exact 2/8, n=3 same-sign
        assert ks.mean > 0.05  # ~+9% of the paper value vs baseline
        text = ks.describe()
        assert "95% CI" in text and "p=0.2500" in text and "n=3" in text

    def test_single_rep_distribution_has_no_p_value(self, tmp_path):
        path = write_baseline(
            tmp_path / "b.json", scoreboard_for(FIG10_GOOD), CONTEXT
        )
        baseline = load_baseline(path)
        dists = {"fig10": {"dice/ALL26": [1.30]}}
        ks = fidelity.compute_key_stats(dists, baseline)["fig10"]["dice/ALL26"]
        assert ks.p_value is None
        assert ks.ci_low == ks.ci_high == ks.mean


class TestDriftWithDistributions:
    def baseline(self, tmp_path):
        path = write_baseline(
            tmp_path / "b.json", scoreboard_for(FIG10_GOOD), CONTEXT
        )
        return load_baseline(path)

    def test_one_point_distributions_keep_point_semantics(self, tmp_path):
        """Single-rep campaigns must flag exactly as before."""
        baseline = self.baseline(tmp_path)
        drifted = dict(FIG10_GOOD, **{"dice/ALL26": 1.19 * 1.085})
        board = scoreboard_for(drifted)
        dists = {"fig10": {key: [value] for key, value in drifted.items()}}
        assert detect_drift(board, baseline, distributions=dists) == \
            detect_drift(board, baseline)

    def test_multi_rep_flag_carries_ci_and_p_value(self, tmp_path):
        baseline = self.baseline(tmp_path)
        drifted = dict(FIG10_GOOD, **{"dice/ALL26": 1.30})
        dists = {"fig10": {"dice/ALL26": [1.30, 1.31, 1.29]}}
        flags = detect_drift(
            scoreboard_for(drifted), baseline, distributions=dists
        )
        (flag,) = flags
        assert flag.kind == "delta-to-paper"
        assert flag.stats is not None
        assert flag.stats.n == 3
        assert flag.stats.p_value == pytest.approx(0.25)
        text = flag.describe()
        assert "mean Δ" in text and "p=0.2500" in text and "n=3" in text

    def test_seed_noise_averages_back_into_the_band(self, tmp_path):
        """One noisy rep alone would flag; the mean movement does not."""
        baseline = self.baseline(tmp_path)
        # rep 1 jumps +8.5% but reps 0/2 swing back: mean ≈ baseline
        noisy = [1.191, 1.19 * 1.085, 1.191 - (1.19 * 0.085)]
        dists = {"fig10": {"dice/ALL26": noisy}}
        point_flags = detect_drift(
            scoreboard_for(dict(FIG10_GOOD, **{"dice/ALL26": noisy[1]})),
            baseline,
        )
        assert point_flags  # the lone point estimate would have flagged
        mean_flags = detect_drift(
            scoreboard_for(FIG10_GOOD), baseline, distributions=dists
        )
        assert mean_flags == []
