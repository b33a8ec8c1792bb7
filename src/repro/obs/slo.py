"""Declarative SLOs evaluated against the current metrics.

An SLO is one line of text (CLI ``--slo`` or the built-in defaults)::

    <name>: <fn>(<metric-expr>) <=|>= <threshold>

where ``fn`` is one of ``p50 p95 p99 last sum ratio`` and a metric-expr
is a label-qualified registry key (``metric_key`` form, e.g.
``service.submit.wall_us{kind=warm}``).  ``sum``/``ratio`` accept
``+``-joined counter keys; ``ratio`` takes two comma-separated
arguments (numerator, denominator).  Examples, which are also the
default service SLOs::

    warm_submit_p99_us: p99(service.submit.wall_us{kind=warm}) <= 500000
    queue_depth: last(service.queue.depth) <= 256
    dedupe_hit_rate: ratio(service.jobs.cached+service.jobs.deduped, service.jobs.total) >= 0.05
    crash_budget: sum(service.supervisor.pool_rebuilds) <= 2

Each spec's value is read from one metrics payload (the registry's
``to_dict()``), so offline ``cli slo check --metrics file.json`` works
on the same code path as the live daemon.

Specs whose metric has no data yet are *skipped* (``ok is None``), not
failed — a fresh daemon must be healthy by default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.stats import LatencyHistogram

_SPEC = re.compile(
    r"^\s*(?P<name>[\w.-]+)\s*:\s*"
    r"(?P<fn>p50|p95|p99|last|sum|ratio)\s*"
    r"\((?P<args>[^)]*)\)\s*"
    r"(?P<op><=|>=)\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*$"
)

_QUANTILE_FNS = {"p50": 50.0, "p95": 95.0, "p99": 99.0}


class SLOParseError(ValueError):
    """A spec string that doesn't match the grammar."""


@dataclass(frozen=True)
class SLOSpec:
    """One parsed objective."""

    name: str
    fn: str
    metrics: tuple  # one expr, or (numerator, denominator) for ratio
    op: str
    threshold: float

    def describe(self) -> str:
        args = ", ".join(self.metrics)
        return f"{self.name}: {self.fn}({args}) {self.op} {self.threshold:g}"


@dataclass
class SLOStatus:
    """The verdict on one spec: its current value against the threshold."""

    spec: SLOSpec
    value: Optional[float] = None
    ok: Optional[bool] = None  # None: no data yet — skipped, not failed

    @property
    def failed(self) -> bool:
        return self.ok is False

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.spec.name,
            "spec": self.spec.describe(),
            "value": self.value,
            "threshold": self.spec.threshold,
            "op": self.spec.op,
            "ok": self.ok,
            "failed": self.failed,
        }


def _split_args(text: str) -> List[str]:
    """Split on top-level commas — label blocks contain commas too."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "{":
            depth += 1
        elif char == "}":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_slo(text: str) -> SLOSpec:
    """Parse one spec line; raises :class:`SLOParseError` with the rule."""
    match = _SPEC.match(text)
    if not match:
        raise SLOParseError(
            f"bad SLO spec {text!r} — expected "
            f"'<name>: <fn>(<metric>) <=|>= <threshold>'"
        )
    fn = match.group("fn")
    args = _split_args(match.group("args"))
    if fn == "ratio":
        if len(args) != 2:
            raise SLOParseError(
                f"bad SLO spec {text!r} — ratio() takes exactly "
                f"(numerator, denominator), got {len(args)} args"
            )
    elif len(args) != 1:
        raise SLOParseError(
            f"bad SLO spec {text!r} — {fn}() takes exactly one metric"
        )
    return SLOSpec(
        name=match.group("name"),
        fn=fn,
        metrics=tuple(args),
        op=match.group("op"),
        threshold=float(match.group("threshold")),
    )


def parse_slos(texts: Sequence[str]) -> List[SLOSpec]:
    return [parse_slo(t) for t in texts]


def default_service_slos(max_queue: int = 256) -> List[SLOSpec]:
    """The built-in daemon objectives (see module docstring)."""
    return parse_slos([
        "warm_submit_p99_us: p99(service.submit.wall_us{kind=warm})"
        " <= 500000",
        f"queue_depth: last(service.queue.depth) <= {max_queue}",
        "dedupe_hit_rate: ratio(service.jobs.cached+service.jobs.deduped,"
        " service.jobs.total) >= 0.05",
        "crash_budget: sum(service.supervisor.pool_rebuilds) <= 2",
    ])


# ---------------------------------------------------------------------------
# evaluation


def _counter_sum(counters: Dict[str, float], expr: str) -> float:
    """Sum of ``+``-joined counter keys; a missing counter reads as 0."""
    return float(sum(float(counters.get(k.strip(), 0)) for k in expr.split("+")))


def _payload_value(
    payload: Dict[str, object], spec: SLOSpec
) -> Optional[float]:
    """The spec's instantaneous value from one metrics payload
    (``MetricsRegistry.to_dict()`` shape) — ``None`` means no data."""
    counters = payload.get("counters", {}) or {}
    gauges = payload.get("gauges", {}) or {}
    histograms = payload.get("histograms", {}) or {}
    expr = spec.metrics[0]
    if spec.fn in _QUANTILE_FNS:
        hist = histograms.get(expr)
        if not hist or not hist.get("total"):
            return None
        try:
            return float(
                LatencyHistogram.from_dict(hist).percentile(_QUANTILE_FNS[spec.fn])
            )
        except (KeyError, ValueError, TypeError):
            return None
    if spec.fn == "ratio":
        denom = _counter_sum(counters, spec.metrics[1])
        if denom <= 0:
            return None
        return _counter_sum(counters, expr) / denom
    if spec.fn == "sum":
        return _counter_sum(counters, expr)
    # last: a single gauge or counter's current value
    if expr in gauges:
        return float(gauges[expr])
    if expr in counters:
        return float(counters[expr])
    return None


def _meets(value: float, spec: SLOSpec) -> bool:
    return value <= spec.threshold if spec.op == "<=" else value >= spec.threshold


def evaluate(
    specs: Sequence[SLOSpec], metrics: Dict[str, object]
) -> List[SLOStatus]:
    """Judge every spec against one metrics payload."""
    statuses: List[SLOStatus] = []
    for spec in specs:
        status = SLOStatus(spec=spec, value=_payload_value(metrics, spec))
        if status.value is not None:
            status.ok = _meets(status.value, spec)
        statuses.append(status)
    return statuses


def healthy(statuses: Sequence[SLOStatus]) -> bool:
    """True when no evaluated spec failed (skipped specs don't count)."""
    return not any(s.failed for s in statuses)


def format_statuses(statuses: Sequence[SLOStatus]) -> str:
    """Fixed-width table for ``cli slo check`` / the flight recorder."""
    lines = [f"{'SLO':28s} {'value':>12s} {'target':>14s} {'verdict':s}"]
    for status in statuses:
        spec = status.spec
        value = "-" if status.value is None else f"{status.value:.6g}"
        target = f"{spec.op} {spec.threshold:g}"
        if status.ok is None:
            verdict = "SKIP (no data)"
        elif status.failed:
            verdict = "FAIL"
        else:
            verdict = "ok"
        lines.append(f"{spec.name:28s} {value:>12s} {target:>14s} {verdict}")
    return "\n".join(lines)
