"""Unified metrics registry: named counters, gauges, histograms, trackers.

One registry instance accompanies one scope of measurement — a single
simulation run (created by the engine, threaded through
:class:`~repro.sim.system.MemorySystem`) or one scheduler campaign
(created by :func:`repro.exec.scheduler.run_jobs`).  Components either

* *push*: hold a registry-owned :class:`Counter`/histogram and update it
  on the hot path (the memory system's demand counters work this way), or
* *pull*: register a **collector** — a callable invoked at export time
  that publishes component-internal counters (the L4 designs, MAP-I and
  CIP keep their fast plain-int counters and publish through
  collectors).

``to_dict()`` is the ``metrics.json`` payload: every instrument grouped
by kind, with label-qualified names (``name{k=v}``) as keys.

Metric naming convention (see DESIGN.md Sec 10): dot-separated
``<layer>.<component>.<quantity>``, e.g. ``sim.l4.read_hits``,
``exec.jobs.cached``.  Label values qualify a name without multiplying
it: ``sim.l4.read{kind=prefetch}``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.stats import BandwidthTracker, LatencyHistogram


class Counter:
    """Monotonic (from the hot path) integer metric.

    ``set`` exists for collectors that mirror a component-internal
    counter wholesale; hot paths use ``inc``.
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        self.value = int(value)

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Point-in-time float metric (rates, accuracies, occupancies)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


def _escape_label(value: object) -> str:
    """Escape the separator characters inside one label key or value.

    Without escaping, ``{"a": "1,b=2"}`` and ``{"a": "1", "b": "2"}``
    would render to the same key and silently share one instrument.
    """
    text = str(value)
    for char in ("\\", ",", "=", "{", "}"):
        text = text.replace(char, "\\" + char)
    return text


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical identity of a metric: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(
        f"{_escape_label(k)}={_escape_label(labels[k])}" for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> "tuple[str, Dict[str, str]]":
    """Invert :func:`metric_key`: ``name{k=v,...}`` → (name, labels).

    The Prometheus renderer needs the structured form back — label
    values re-escape differently there.  Honors the backslash escapes
    :func:`_escape_label` applied, so a label value containing ``,`` or
    ``=`` round-trips exactly.  A key without a label block (or with a
    malformed one) comes back as the whole key and no labels.
    """
    brace = key.find("{")
    if brace < 0 or not key.endswith("}"):
        return key, {}
    name, inner = key[:brace], key[brace + 1:-1]
    # tokenize once, remembering which characters were escaped
    chars: list = []  # (char, was_escaped)
    i = 0
    while i < len(inner):
        if inner[i] == "\\" and i + 1 < len(inner):
            chars.append((inner[i + 1], True))
            i += 2
        else:
            chars.append((inner[i], False))
            i += 1
    labels: Dict[str, str] = {}
    pair: list = []
    for char, escaped in chars + [(",", False)]:
        if char == "," and not escaped:
            if pair:
                text = pair
                for j, (c, esc) in enumerate(text):
                    if c == "=" and not esc:
                        labels["".join(c for c, _ in text[:j])] = "".join(
                            c for c, _ in text[j + 1:]
                        )
                        break
                else:
                    return key, {}  # no unescaped '=': not our encoding
            pair = []
        else:
            pair.append((char, escaped))
    return name, labels


class MetricsRegistry:
    """Get-or-create store of named instruments plus pull collectors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument accessors (get-or-create) --------------------------------

    def _get_or_create(self, name: str, labels: Dict, factory, kind) -> object:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(key)
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, labels, Counter, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, labels, Gauge, Gauge)

    def histogram(
        self, name: str, bounds: Optional[tuple] = None, **labels
    ) -> LatencyHistogram:
        factory = lambda _key: (  # noqa: E731
            LatencyHistogram(bounds) if bounds else LatencyHistogram()
        )
        return self._get_or_create(name, labels, factory, LatencyHistogram)

    def tracker(
        self, name: str, window_cycles: int = 10_000, **labels
    ) -> BandwidthTracker:
        factory = lambda _key: BandwidthTracker(window_cycles)  # noqa: E731
        return self._get_or_create(name, labels, factory, BandwidthTracker)

    def get(self, name: str, **labels) -> Optional[object]:
        return self._metrics.get(metric_key(name, labels))

    # -- collectors ----------------------------------------------------------

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a pull-style publisher, run by :meth:`collect`."""
        self._collectors.append(fn)

    def collect(self) -> None:
        """Run every collector so component-internal counters surface."""
        for fn in self._collectors:
            fn(self)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument *in place* — component references held to
        registry-owned histograms/counters survive a stats reset."""
        for metric in self._metrics.values():
            metric.reset()

    # -- export --------------------------------------------------------------

    def to_dict(self, collect: bool = True) -> Dict[str, Dict[str, object]]:
        """The ``metrics.json`` payload, grouped by instrument kind."""
        if collect:
            self.collect()
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "trackers": {},
        }
        for key, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out["counters"][key] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][key] = metric.value
            elif isinstance(metric, LatencyHistogram):
                out["histograms"][key] = metric.to_dict()
            elif isinstance(metric, BandwidthTracker):
                out["trackers"][key] = metric.to_dict()
        return out
