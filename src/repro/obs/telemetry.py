"""Cross-process telemetry: trace propagation and Prometheus exposition.

Two pieces that turn the single-process observability stack into a
service-era telemetry plane:

* **Trace propagation** — :class:`TraceContext` is the identity of one
  distributed trace: a 16-hex ``trace_id`` shared by every participant
  and an 8-hex ``span_id`` per participant.  The client mints a root
  context, sends it over HTTP headers (``X-Repro-Trace-Id`` /
  ``X-Repro-Parent-Span``), the daemon derives child contexts per job,
  stamps them onto frozen :class:`~repro.exec.job.Job` instances, and
  pool workers restore them as the *ambient* context around
  ``job.execute()`` so the sim tracer's file meta records its place in
  the tree.  :func:`stitch_traces` later merges the per-process JSONL
  files back into one chrome://tracing document on ``trace_id``.

* **Prometheus exposition** — :func:`render_prometheus` renders a
  registry in the text exposition format (``# TYPE`` lines, escaped
  label values, counters suffixed ``_total``) for the daemon's
  content-negotiated ``GET /metrics``; validated by
  ``scripts/promlint.py``.
"""

from __future__ import annotations

import json
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, parse_metric_key

# ---------------------------------------------------------------------------
# trace context propagation

TRACE_HEADER = "X-Repro-Trace-Id"
PARENT_HEADER = "X-Repro-Parent-Span"


@dataclass(frozen=True)
class TraceContext:
    """One participant's coordinates inside a distributed trace.

    ``trace_id`` names the whole tree; ``span_id`` names this
    participant's span; ``parent_id`` points at the span that caused it
    (``None`` for the root).  Frozen and tiny so it rides inside the
    frozen Job dataclass and pickles to pool workers unchanged.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a root context (fresh trace, no parent)."""
        return cls(trace_id=secrets.token_hex(8), span_id=secrets.token_hex(4))

    def child(self) -> "TraceContext":
        """A new span in the same trace, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=secrets.token_hex(4),
            parent_id=self.span_id,
        )

    def to_headers(self) -> Dict[str, str]:
        """The wire format: two HTTP headers carrying (trace, my span)."""
        return {TRACE_HEADER: self.trace_id, PARENT_HEADER: self.span_id}

    @classmethod
    def from_headers(cls, headers: Dict[str, str]) -> Optional["TraceContext"]:
        """Reconstruct the *sender's* context from (lowercased) headers.

        The receiver joins the trace by calling ``.child()`` on the
        result.  Returns ``None`` when the request carries no trace.
        """
        trace_id = headers.get(TRACE_HEADER.lower()) or headers.get(TRACE_HEADER)
        span_id = headers.get(PARENT_HEADER.lower()) or headers.get(PARENT_HEADER)
        if not trace_id or not span_id:
            return None
        return cls(trace_id=str(trace_id), span_id=str(span_id))

    def to_meta(self) -> Dict[str, object]:
        """The fields stamped into a tracer's file meta line."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span": self.parent_id,
        }


# The ambient context of the current process/worker: set around
# ``job.execute()`` so ``obs.begin_run`` — called deep inside the engine
# with no Job in sight — can stamp the trace coordinates into its meta.
_current: Optional[TraceContext] = None


def current() -> Optional[TraceContext]:
    """The ambient trace context, or ``None`` outside any trace."""
    return _current


@contextmanager
def activate(ctx: Optional[TraceContext]):
    """Install ``ctx`` as the ambient context for the duration.

    ``activate(None)`` is a no-op wrapper so call sites don't need to
    branch on whether the job carries a trace.
    """
    global _current
    if ctx is None:
        yield None
        return
    previous = _current
    _current = ctx
    try:
        yield ctx
    finally:
        _current = previous


# ---------------------------------------------------------------------------
# Prometheus text exposition

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Mangle a dotted metric name into the Prometheus charset.

    ``service.jobs.executed`` → ``repro_service_jobs_executed``; any
    character outside ``[a-zA-Z0-9_:]`` becomes ``_``.
    """
    mangled = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = f"{prefix}_{mangled}" if prefix else mangled
    if not _NAME_OK.match(full):
        full = "_" + full
    return full


def _prom_label_name(name: str) -> str:
    mangled = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    if not _LABEL_OK.match(mangled):
        mangled = "_" + mangled
    return mangled


def _prom_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_label_name(k)}="{_prom_label_value(merged[k])}"'
        for k in sorted(merged)
    )
    return "{" + inner + "}"


def wants_prometheus(accept: str) -> bool:
    """Content negotiation for ``GET /metrics``.

    The JSON payload predates this module and stdlib ``http.client``
    sends no ``Accept`` header at all, so JSON stays the default; an
    explicit ``application/json`` also gets JSON.  ``text/plain``,
    OpenMetrics, and the permissive ``*/*`` that curl sends get the
    exposition format.
    """
    accept = (accept or "").lower()
    if "application/json" in accept:
        return False
    return (
        "text/plain" in accept
        or "openmetrics" in accept
        or "*/*" in accept
    )


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters are suffixed ``_total``; histograms render as ``summary``
    metrics (quantile-labeled samples plus ``_count``/``_sum``);
    bandwidth trackers are internal-only and skipped.  Instruments that
    share a base name but differ in labels fold into one metric family,
    which is why the ``# TYPE`` line is emitted once per family.
    """
    from repro.obs.registry import Counter, Gauge
    from repro.sim.stats import LatencyHistogram

    registry.collect()
    # family name -> (type, [lines])
    families: Dict[str, Tuple[str, List[str]]] = {}

    def family(name: str, kind: str) -> List[str]:
        entry = families.get(name)
        if entry is None:
            entry = (kind, [])
            families[name] = entry
        return entry[1]

    for key, metric in registry._metrics.items():
        base, labels = parse_metric_key(key)
        if isinstance(metric, Counter):
            name = prometheus_name(base, prefix)
            if not name.endswith("_total"):  # service.jobs.total and kin
                name += "_total"
            family(name, "counter").append(
                f"{name}{_prom_labels(labels)} {int(metric.value)}"
            )
        elif isinstance(metric, Gauge):
            name = prometheus_name(base, prefix)
            family(name, "gauge").append(
                f"{name}{_prom_labels(labels)} {float(metric.value)}"
            )
        elif isinstance(metric, LatencyHistogram):
            name = prometheus_name(base, prefix)
            lines = family(name, "summary")
            for q, quantile in (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)):
                value = metric.percentile(quantile) if metric.total else 0
                lines.append(
                    f"{name}{_prom_labels(labels, {'quantile': q})} {value}"
                )
            lines.append(f"{name}_count{_prom_labels(labels)} {metric.total}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {metric.sum}")
    out: List[str] = []
    for name in sorted(families):
        kind, lines = families[name]
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n" if out else "\n"


# ---------------------------------------------------------------------------
# cross-process trace stitching


def read_trace_file(path) -> Tuple[Dict[str, object], List[dict]]:
    """Load one trace file's (meta, events); tolerant of a missing meta
    line (meta comes back empty) but strict about event shape."""
    from repro.obs.tracer import read_events

    meta: Dict[str, object] = {}
    try:
        with open(path) as handle:
            first = handle.readline().strip()
        if first:
            obj = json.loads(first)
            if isinstance(obj, dict) and "meta" in obj:
                meta = dict(obj["meta"])
    except (OSError, json.JSONDecodeError):
        pass
    return meta, read_events(path)


def stitch_traces(
    paths: Iterable, trace_id: Optional[str] = None
) -> Dict[str, object]:
    """Merge per-process trace files into one chrome://tracing document.

    Each input file becomes one Chrome *process* (pid from its meta
    line, or a synthetic one).  Files whose meta carries a ``trace_id``
    are included whole iff it matches the target; files without one
    (daemon/exec traces that interleave many traces) contribute only the
    events whose args name the target trace.  When ``trace_id`` is not
    given, the most common one across the inputs wins.

    Returns ``{"trace_id", "files", "spans", "chrome", "events"}`` where
    ``spans`` maps span_id → {name, parent_id, file} for ancestry checks
    and ``files`` records each input's pid/scope/root resolution.
    """
    loaded = []
    for path in paths:
        path = Path(path)
        meta, events = read_trace_file(path)
        loaded.append((path, meta, events))

    # -- pick the target trace -------------------------------------------
    votes: Dict[str, int] = {}
    for _, meta, events in loaded:
        if meta.get("trace_id"):
            votes[str(meta["trace_id"])] = votes.get(str(meta["trace_id"]), 0) + 1
        for event in events:
            tid = event.get("args", {}).get("trace_id")
            if tid:
                votes[str(tid)] = votes.get(str(tid), 0) + 1
    if trace_id is None and votes:
        trace_id = max(sorted(votes), key=lambda t: votes[t])

    spans: Dict[str, Dict[str, object]] = {}
    files: List[Dict[str, object]] = []
    trace_events: List[dict] = []
    total = 0
    next_pid = 100_000  # synthetic pids stay clear of real ones

    for path, meta, events in loaded:
        file_trace = meta.get("trace_id")
        if file_trace is not None and str(file_trace) != trace_id:
            continue  # a worker file from some other campaign
        if file_trace is None:
            events = [
                e for e in events
                if e.get("args", {}).get("trace_id") == trace_id
            ]
            if not events:
                continue
        pid = meta.get("pid")
        if not isinstance(pid, int):
            pid = next_pid
            next_pid += 1
        scope = str(meta.get("scope") or meta.get("run") or path.stem)
        record = {
            "path": str(path),
            "pid": pid,
            "scope": scope,
            "events": len(events),
            "span_id": meta.get("span_id"),
            "parent_span": meta.get("parent_span"),
        }
        files.append(record)
        # the file-level span (a worker run) joins the span table
        contributed: List[str] = []
        if meta.get("span_id"):
            spans[str(meta["span_id"])] = {
                "name": f"run:{scope}",
                "parent_id": meta.get("parent_span"),
                "file": str(path),
            }
            contributed.append(str(meta["span_id"]))
        tids: Dict[str, int] = {}
        for event in events:
            args = event.get("args", {})
            if args.get("span_id"):
                spans[str(args["span_id"])] = {
                    "name": event["name"],
                    "parent_id": args.get("parent_id"),
                    "file": str(path),
                }
                contributed.append(str(args["span_id"]))
            tid = tids.setdefault(event["cat"], len(tids) + 1)
            chrome = {
                "name": event["name"],
                "cat": event["cat"],
                "ph": event["ph"],
                "ts": event["ts"],
                "pid": pid,
                "tid": tid,
                "args": {**args, "phase": event.get("phase", "")},
            }
            if event["ph"] == "X":
                chrome["dur"] = max(1, event.get("dur", 1))
            trace_events.append(chrome)
            total += 1
        record["_contributed"] = contributed
        trace_events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"{scope} ({path.name})"}}
        )
        for cat, tid in tids.items():
            trace_events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": cat}}
            )

    # resolve every file's root ancestor through the span table; files
    # without a meta span (daemon traces interleaving many campaigns)
    # root wherever all their contributed spans agree
    for record in files:
        contributed = record.pop("_contributed", [])
        root = resolve_root(spans, record.get("span_id"))
        if root is None:
            roots = {resolve_root(spans, sid) for sid in contributed}
            roots.discard(None)
            if len(roots) == 1:
                root = roots.pop()
        record["root_span"] = root
    return {
        "trace_id": trace_id,
        "files": files,
        "spans": spans,
        "events": total,
        "chrome": {
            "traceEvents": trace_events,
            "metadata": {"trace_id": trace_id, "stitched_files": len(files)},
        },
    }


def resolve_root(
    spans: Dict[str, Dict[str, object]], span_id: Optional[str]
) -> Optional[str]:
    """Walk parent links to the top-most known ancestor of ``span_id``."""
    if not span_id or span_id not in spans:
        return None
    seen = set()
    node = str(span_id)
    while True:
        if node in seen:  # defensive: a cycle means corrupt input
            return node
        seen.add(node)
        parent = spans[node].get("parent_id")
        if not parent or str(parent) not in spans:
            return node
        node = str(parent)
