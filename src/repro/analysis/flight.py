"""Flight-recorder report: one self-contained document per campaign.

``cli report --flight`` joins everything the observability layer knows
about a campaign into a single reviewable artifact:

* the **fidelity scoreboard** (:mod:`repro.obs.fidelity`) — every
  experiment's summary keys vs the paper's targets, the outcome of each
  paper claim, and the drift verdict against ``FIDELITY_baseline.json``;
* the **top-N self-profile entries** of a ``*.prof.json`` run;
* a **metrics snapshot** (counters/gauges of a ``metrics.json`` export);
* a **trace summary** (the ``trace summarize`` aggregation).

Sections whose inputs were not recorded are listed as absent rather than
omitted silently, so a report always answers "what was measured?".
Markdown is the native format; ``--format html`` wraps the same content
in a dependency-free single-file HTML document.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.fidelity import (
    DriftFlag,
    FidelityScore,
    format_scoreboard,
)

FLIGHT_DATA_VERSION = 1


def build_flight_data(
    scoreboard: Dict[str, FidelityScore],
    flags: Optional[List[DriftFlag]] = None,
    *,
    context: Optional[Dict[str, object]] = None,
    baseline_path: Optional[str] = None,
    profile: Optional[Dict] = None,
    metrics: Optional[Dict] = None,
    trace_summary: Optional[Dict] = None,
    top: int = 10,
    key_stats: Optional[Dict] = None,
) -> Dict[str, object]:
    """Assemble the renderer-independent report payload.

    ``key_stats`` is :func:`repro.obs.fidelity.compute_key_stats` output
    from a repetition campaign — per-target mean Δ, 95% CI, and p-value.
    """
    from repro.obs.prof import top_frames

    return {
        "version": FLIGHT_DATA_VERSION,
        "context": dict(context or {}),
        "baseline_path": baseline_path,
        "scoreboard": scoreboard,
        "flags": list(flags or []),
        "profile_top": top_frames(profile, top) if profile else None,
        "profile_meta": (profile or {}).get("meta"),
        "metrics": metrics,
        "trace_summary": trace_summary,
        "key_stats": key_stats,
    }


# ---------------------------------------------------------------------------
# markdown rendering


def _verdict_line(data: Dict[str, object]) -> str:
    flags = data["flags"]
    if data["baseline_path"] is None:
        return "**Drift:** not checked (no baseline supplied)."
    if not flags:
        return (
            f"**Drift:** all rows in-band against "
            f"`{data['baseline_path']}`."
        )
    lines = [f"**Drift:** {len(flags)} out-of-band movement(s):", ""]
    lines += [f"- {flag.describe()}" for flag in flags]
    return "\n".join(lines)


def _statistics_section(key_stats: Dict) -> List[str]:
    """Per-target CI + p-value rows from a repetition campaign."""
    lines = [
        "| experiment | key | mean Δ | 95% CI | p-value | reps |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for experiment in sorted(key_stats):
        for key in sorted(key_stats[experiment]):
            ks = key_stats[experiment][key]
            p = "—" if ks.p_value is None else f"{ks.p_value:.4f}"
            lines.append(
                f"| {experiment} | `{key}` | {ks.mean:+.4f} "
                f"| [{ks.ci_low:+.4f}, {ks.ci_high:+.4f}] | {p} | {ks.n} |"
            )
    return lines


def _profile_section(data: Dict[str, object]) -> List[str]:
    top = data["profile_top"]
    if top is None:
        return ["_No profile recorded (run with `--profile PATH` or "
                "`REPRO_PROF`)._"]
    lines = [
        "| stack | calls | self wall s | incl wall s | sim cycles |",
        "|---|---:|---:|---:|---:|",
    ]
    for frame in top:
        lines.append(
            f"| `{frame['stack']}` | {frame['calls']} "
            f"| {frame['self_wall_s']:.4f} | {frame['wall_s']:.4f} "
            f"| {frame['cycles']} |"
        )
    return lines


def _metrics_section(metrics: Optional[Dict]) -> List[str]:
    if not metrics:
        return ["_No metrics snapshot (a `--trace PATH` run exports "
                "`<stem>.metrics.json` beside its trace)._"]
    payload = metrics.get("metrics", metrics)
    lines = ["| metric | value |", "|---|---:|"]
    for key, value in sorted(payload.get("counters", {}).items()):
        lines.append(f"| `{key}` | {value} |")
    for key, value in sorted(payload.get("gauges", {}).items()):
        lines.append(f"| `{key}` | {value:.4f} |")
    if len(lines) == 2:
        return ["_Metrics snapshot holds no counters or gauges._"]
    return lines


def _trace_section(trace_summary: Optional[Dict]) -> List[str]:
    if not trace_summary:
        return ["_No trace summarized (run with `--trace PATH` or "
                "`REPRO_TRACE`)._"]
    from repro.obs.tracer import format_summary

    return ["```", format_summary(trace_summary), "```"]


def render_markdown(data: Dict[str, object]) -> str:
    """The flight report as GitHub-flavored markdown."""
    context = ", ".join(
        f"{k}={v}" for k, v in data["context"].items()
    ) or "(unspecified)"
    parts: List[str] = [
        "# Flight recorder report",
        "",
        f"Parameter context: {context}",
        "",
        _verdict_line(data),
        "",
        "## Fidelity scoreboard",
        "",
        "```",
        format_scoreboard(data["scoreboard"], data["flags"]),
        "```",
        "",
        # present only for repetition campaigns — a single-rep report
        # stays byte-identical to the pre-statistics format
        *(
            [
                "## Statistics (repetition campaign)",
                "",
                *_statistics_section(data["key_stats"]),
                "",
            ]
            if data.get("key_stats")
            else []
        ),
        "## Self-profile (top frames by self wall time)",
        "",
        *_profile_section(data),
        "",
        "## Metrics snapshot",
        "",
        *_metrics_section(data["metrics"]),
        "",
        "## Trace summary",
        "",
        *_trace_section(data["trace_summary"]),
        "",
    ]
    return "\n".join(parts)


def render_html(data: Dict[str, object]) -> str:
    """Self-contained single-file HTML wrapping the markdown content."""
    body = html.escape(render_markdown(data))
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<title>Flight recorder report</title>"
        "<style>body{font-family:ui-monospace,monospace;max-width:72rem;"
        "margin:2rem auto;padding:0 1rem;background:#fdfdfd;color:#222}"
        "pre{background:#f4f4f4;padding:1rem;overflow-x:auto}</style>"
        "</head><body><pre>"
        f"{body}"
        "</pre></body></html>\n"
    )


def write_flight_report(
    path, data: Dict[str, object], fmt: str = "md"
) -> Path:
    """Render and write the report; returns the output path."""
    if fmt not in ("md", "html"):
        raise ValueError(f"unknown flight-report format {fmt!r}")
    text = render_markdown(data) if fmt == "md" else render_html(data)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
