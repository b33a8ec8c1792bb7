"""Structured event tracer: JSONL event stream + Chrome trace_event export.

Design constraints, in order:

1. **Zero cost when disabled.**  Every emitting call site guards with
   ``if tracer.enabled:`` before *building any arguments*, and the
   disabled tracer is the shared :data:`NULL_TRACER` singleton whose
   methods are never reached on the hot path.  A guard test
   (``tests/test_obs_tracer.py``) counts NullTracer method calls during
   an untraced simulation and asserts zero — so the untraced hot path
   provably allocates nothing per access.
2. **Sampled when enabled.**  High-frequency categories (``l4``,
   ``dram.*``) pass ``sampled=True``; the tracer keeps a per-category
   modulo counter and records one event in ``every`` (the ``--trace-every``
   knob), so full campaigns stay fast.  Lifecycle events (phases, jobs,
   faults) are never sampled out.
3. **Two outputs from one stream.**  ``close()`` writes the raw JSONL
   (one event object per line, schema below) and a Chrome-loadable
   ``trace_event`` file (open in ``chrome://tracing`` / Perfetto) next to
   it.

Event schema (one JSON object per line)::

    {"name": "l4.read", "cat": "l4", "ph": "i"|"X", "ts": <cycle or µs>,
     "dur": <span length, "X" only>, "phase": "warmup"|"measure"|"",
     "args": {...}}

``ts`` is in simulated cycles for simulator events and microseconds of
wall clock for exec-layer events; both render directly in Chrome's
timeline (which assumes µs).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites must still guard with ``if tracer.enabled:`` — the methods
    exist so that unguarded cold-path calls (phase changes, close) are
    safe, not to make hot-path calls cheap.
    """

    enabled = False
    phase = ""

    def set_phase(self, phase: str) -> None:
        pass

    def instant(self, name: str, cat: str, ts: int, sampled: bool = False, **args) -> None:
        pass

    def span(
        self, name: str, cat: str, ts: int, dur: int, sampled: bool = False, **args
    ) -> None:
        pass

    def close(self) -> List[Path]:
        return []


NULL_TRACER = NullTracer()
"""Shared disabled tracer; identity-checked by the overhead guard test."""


class Tracer:
    """Buffering JSONL event tracer with per-category sampling.

    Events stay in memory until :meth:`close` writes them in one pass.
    """

    enabled = True

    def __init__(
        self,
        path,
        *,
        every: int = 1,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = Path(path)
        self.every = every
        self.meta: Dict[str, object] = dict(meta or {})
        self.meta.setdefault("pid", os.getpid())
        self.phase = ""
        self.events: List[dict] = []
        self.emitted = 0
        self.sampled_out = 0
        self._sample_counts: Dict[str, int] = {}

    # -- emission -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Switch the phase stamped on subsequent events (always recorded)."""
        self.phase = phase
        self.instant("phase", "phase", 0, name_of_phase=phase)

    def _sample(self, cat: str) -> bool:
        count = self._sample_counts.get(cat, 0)
        self._sample_counts[cat] = count + 1
        if count % self.every:
            self.sampled_out += 1
            return False
        return True

    def instant(
        self, name: str, cat: str, ts: int, sampled: bool = False, **args
    ) -> None:
        if sampled and not self._sample(cat):
            return
        self.emitted += 1
        self.events.append(
            {"name": name, "cat": cat, "ph": "i", "ts": ts,
             "phase": self.phase, "args": args}
        )

    def span(
        self, name: str, cat: str, ts: int, dur: int, sampled: bool = False, **args
    ) -> None:
        if sampled and not self._sample(cat):
            return
        self.emitted += 1
        self.events.append(
            {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "phase": self.phase, "args": args}
        )

    # -- output ---------------------------------------------------------------

    def chrome_path(self) -> Path:
        if self.path.suffix == ".jsonl":
            return self.path.with_suffix(".chrome.json")
        return self.path.with_name(self.path.name + ".chrome.json")

    def to_chrome(self) -> Dict[str, object]:
        """The ``trace_event`` document Chrome/Perfetto loads directly."""
        tids: Dict[str, int] = {}
        trace_events = []
        for event in self.events:
            tid = tids.setdefault(event["cat"], len(tids) + 1)
            chrome = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "ts": event["ts"],
                "pid": 1,
                "tid": tid,
                "args": {**event["args"], "phase": event["phase"]},
            }
            if event["ph"] == "X":
                chrome["dur"] = max(1, event["dur"])
            trace_events.append(chrome)
        # name the rows so chrome://tracing shows categories, not numbers
        for cat, tid in tids.items():
            trace_events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": cat}}
            )
        return {
            "traceEvents": trace_events,
            "metadata": {**self.meta, "sampling_every": self.every,
                         "sampled_out": self.sampled_out},
        }

    def close(self) -> List[Path]:
        """Write the JSONL stream and its Chrome companion; returns paths."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as handle:
            handle.write(json.dumps({"meta": {
                **self.meta, "sampling_every": self.every,
                "events": self.emitted, "sampled_out": self.sampled_out,
            }}) + "\n")
            for event in self.events:
                handle.write(json.dumps(event) + "\n")
        chrome = self.chrome_path()
        chrome.write_text(json.dumps(self.to_chrome()))
        return [self.path, chrome]


# ---------------------------------------------------------------------------
# trace inspection (the `repro trace summarize` backend)


def read_events(path) -> List[dict]:
    """Load the event objects (skipping the leading meta line) of a JSONL
    trace; raises ``ValueError`` on a non-trace file."""
    events = []
    with open(path) as handle:
        for line_no, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                # covers truncated trailing lines from a killed writer too
                raise ValueError(f"{path}:{line_no + 1}: not JSONL: {exc}")
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{line_no + 1}: not a trace event "
                    f"(got {type(obj).__name__}, expected object)"
                )
            if "meta" in obj and line_no == 0:
                continue
            if "name" not in obj or "cat" not in obj:
                raise ValueError(
                    f"{path}:{line_no + 1}: not a trace event "
                    f"(missing 'name'/'cat' — is this really a trace file?)"
                )
            events.append(obj)
    return events


def _exec_sections(by_name: Dict[str, int]) -> Optional[Dict[str, Dict[str, int]]]:
    """Job-lifecycle and supervisor-incident rollups for exec traces.

    ``*.exec.jsonl`` files (scheduler job lifecycle) and chaos traces
    (``supervisor.*`` incidents) carry no sim events; this gives
    ``trace summarize`` something meaningful to say about them.
    """
    jobs = {
        name.split(".", 1)[1]: count
        for name, count in by_name.items()
        if name.startswith("job.")
    }
    supervisor = {
        name.split(".", 1)[1]: count
        for name, count in by_name.items()
        if name.startswith("supervisor.")
    }
    daemon = {
        name.split(".", 1)[1]: count
        for name, count in by_name.items()
        if name.startswith("daemon.")
    }
    if not jobs and not supervisor and not daemon:
        return None
    return {"jobs": jobs, "supervisor": supervisor, "daemon": daemon}


def summarize_trace(path) -> Dict[str, object]:
    """Aggregate one trace: event totals, per-phase L4 hit/miss replay,
    and span-duration quantiles — the data the replay test checks against
    :class:`~repro.sim.metrics.SimResult`."""
    from repro.sim.stats import LatencyHistogram

    events = read_events(path)
    by_name: Dict[str, int] = {}
    by_phase: Dict[str, int] = {}
    l4: Dict[str, Dict[str, int]] = {}
    spans: Dict[str, LatencyHistogram] = {}
    for event in events:
        by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        phase = event.get("phase", "")
        by_phase[phase] = by_phase.get(phase, 0) + 1
        if event["name"] == "l4.read":
            bucket = l4.setdefault(phase, {"hits": 0, "misses": 0})
            bucket["hits" if event.get("args", {}).get("hit") else "misses"] += 1
        if event.get("ph") == "X":
            spans.setdefault(event["name"], LatencyHistogram()).record(
                max(0, int(event.get("dur", 0)))
            )
    summary: Dict[str, object] = {
        "events": len(events),
        "by_name": dict(sorted(by_name.items())),
        "by_phase": dict(sorted(by_phase.items())),
        "l4_reads": l4,
        "spans": {
            name: {"count": hist.total, **hist.quantiles(), "max": hist.max}
            for name, hist in sorted(spans.items())
        },
    }
    exec_sections = _exec_sections(by_name)
    if exec_sections is not None:
        summary["exec"] = exec_sections
    return summary


def format_summary(summary: Dict[str, object]) -> str:
    """Human rendering of :func:`summarize_trace` for the CLI."""
    lines = [f"events: {summary['events']}"]
    lines.append("by name:")
    for name, count in summary["by_name"].items():
        lines.append(f"  {name:24s} {count}")
    lines.append("by phase:")
    for phase, count in summary["by_phase"].items():
        lines.append(f"  {phase or '(none)':24s} {count}")
    for phase, bucket in sorted(summary["l4_reads"].items()):
        total = bucket["hits"] + bucket["misses"]
        rate = bucket["hits"] / total if total else 0.0
        lines.append(
            f"l4 reads [{phase or 'none'}]: {bucket['hits']} hits / "
            f"{bucket['misses']} misses (hit rate {rate:.4f})"
        )
    if summary["spans"]:
        lines.append("span durations (p50/p95/p99/max):")
        for name, q in summary["spans"].items():
            lines.append(
                f"  {name:24s} n={q['count']} "
                f"{q['p50']}/{q['p95']}/{q['p99']}/{q['max']}"
            )
    exec_sections = summary.get("exec")
    if exec_sections:
        if exec_sections.get("jobs"):
            rollup = " · ".join(
                f"{count} {state}"
                for state, count in sorted(exec_sections["jobs"].items())
            )
            lines.append(f"job lifecycle: {rollup}")
        if exec_sections.get("supervisor"):
            rollup = ", ".join(
                f"{incident}×{count}"
                for incident, count in sorted(
                    exec_sections["supervisor"].items()
                )
            )
            lines.append(f"supervisor incidents: {rollup}")
        if exec_sections.get("daemon"):
            rollup = " · ".join(
                f"{count} {name}"
                for name, count in sorted(exec_sections["daemon"].items())
            )
            lines.append(f"daemon lifecycle: {rollup}")
    return "\n".join(lines)
