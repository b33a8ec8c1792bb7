"""Flight-recorder report tests: assembly and rendering."""

from __future__ import annotations

import pytest

from repro.analysis import flight
from repro.analysis.flight import (
    build_flight_data,
    render_html,
    render_markdown,
    write_flight_report,
)
from repro.obs.fidelity import (
    build_scoreboard,
    detect_drift,
    load_baseline,
    write_baseline,
)

SUMMARY = {
    "tsi/ALL26": 1.068,
    "bai/ALL26": 1.002,
    "dice/ALL26": 1.191,
    "2xcap2xbw/ALL26": 1.217,
}

CONTEXT = {"accesses": 300, "seed": 7, "scale": 4096,
           "warmup_fraction": 0.35}


def make_board():
    return build_scoreboard({"fig10": SUMMARY})


def make_profile():
    return {
        "meta": {"run": "mcf"},
        "frames": [
            {"stack": "sim", "calls": 1, "wall_s": 1.0,
             "self_wall_s": 0.1, "cycles": 5000},
            {"stack": "sim;system.access", "calls": 300, "wall_s": 0.9,
             "self_wall_s": 0.6, "cycles": 4000},
            {"stack": "sim;system.access;l4.lookup", "calls": 300,
             "wall_s": 0.3, "self_wall_s": 0.3, "cycles": 2000},
        ],
    }


class TestBuildFlightData:
    def test_payload_shape_with_everything(self):
        data = build_flight_data(
            make_board(),
            [],
            context=CONTEXT,
            baseline_path="FIDELITY_baseline.json",
            profile=make_profile(),
            metrics={"metrics": {"counters": {"l4.hits": 10},
                                 "gauges": {"ipc": 0.91}}},
            trace_summary=None,
            top=2,
        )
        assert data["version"] == flight.FLIGHT_DATA_VERSION
        assert len(data["profile_top"]) == 2
        assert data["profile_meta"] == {"run": "mcf"}
        assert data["trace_summary"] is None

    def test_absent_inputs_default_to_none(self):
        data = build_flight_data(make_board())
        assert data["baseline_path"] is None
        assert data["profile_top"] is None
        assert data["metrics"] is None


class TestRenderMarkdown:
    def test_full_report_has_every_section(self):
        data = build_flight_data(
            make_board(),
            [],
            context=CONTEXT,
            baseline_path="FIDELITY_baseline.json",
            profile=make_profile(),
            metrics={"metrics": {"counters": {"l4.hits": 10},
                                 "gauges": {"ipc": 0.91}}},
        )
        text = render_markdown(data)
        assert "# Flight recorder report" in text
        assert "accesses=300" in text
        assert "all rows in-band" in text
        assert "dice/ALL26" in text          # scoreboard row
        assert "`sim;system.access`" in text  # profile frame
        assert "`l4.hits` | 10" in text      # metrics counter
        assert "_No trace summarized" in text

    def test_absent_sections_render_placeholders(self):
        text = render_markdown(build_flight_data(make_board()))
        assert "**Drift:** not checked" in text
        assert "_No profile recorded" in text
        assert "_No metrics snapshot" in text
        assert "_No trace summarized" in text

    def test_drift_flags_appear_in_verdict(self, tmp_path):
        board = make_board()
        path = write_baseline(tmp_path / "b.json", board, CONTEXT)
        drifted = build_scoreboard(
            {"fig10": dict(SUMMARY, **{"dice/ALL26": 1.19 * 1.085})}
        )
        flags = detect_drift(drifted, load_baseline(path))
        text = render_markdown(
            build_flight_data(
                drifted, flags, baseline_path=str(path)
            )
        )
        assert "out-of-band movement" in text
        assert "dice/ALL26" in text
        assert "DRIFT" in text

    def test_empty_metrics_snapshot_is_called_out(self):
        text = render_markdown(
            build_flight_data(make_board(), metrics={"metrics": {}})
        )
        assert "holds no counters or gauges" in text


class TestRenderHtml:
    def test_html_is_self_contained_and_escaped(self):
        data = build_flight_data(make_board())
        text = render_html(data)
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text
        # markdown content is escaped, not interpreted
        assert "**Drift:**" in text
        assert "<script" not in text


class TestWriteFlightReport:
    def test_writes_markdown_and_html(self, tmp_path):
        data = build_flight_data(make_board())
        md = write_flight_report(tmp_path / "r.md", data, "md")
        assert md.read_text().startswith("# Flight recorder report")
        page = write_flight_report(tmp_path / "r.html", data, "html")
        assert page.read_text().startswith("<!DOCTYPE html>")

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_flight_report(
                tmp_path / "r.pdf", build_flight_data(make_board()), "pdf"
            )


class TestStatisticsSection:
    def key_stats(self):
        from repro.obs.fidelity import KeyStats

        return {
            "fig10": {
                "dice/ALL26": KeyStats(
                    experiment="fig10", key="dice/ALL26", mean=0.0876,
                    ci_low=0.0792, ci_high=0.096, p_value=0.25, n=3,
                )
            }
        }

    def test_section_renders_ci_and_p_value(self):
        text = render_markdown(
            build_flight_data(make_board(), [], context=CONTEXT,
                              key_stats=self.key_stats())
        )
        assert "## Statistics (repetition campaign)" in text
        assert "| fig10 | `dice/ALL26` | +0.0876 " in text
        assert "[+0.0792, +0.0960]" in text
        assert "0.2500" in text

    def test_single_rep_report_has_no_statistics_section(self):
        """1-rep output must stay byte-identical to the pre-stats format."""
        text = render_markdown(
            build_flight_data(make_board(), [], context=CONTEXT)
        )
        assert "Statistics" not in text
