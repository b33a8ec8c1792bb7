"""Deterministic self-profiler: wall-time and simulated-cycle attribution.

Answers "where does the simulator spend its time?" per *component* —
compression codecs, the DRAM timing devices, MAP-I/CIP predictors, the
DICE controller's index decision, L4 lookup/install — without an external
sampling profiler, and without perturbing the simulation: a profiled run
is bit-identical to an unprofiled one (the profiler only reads the wall
clock and accumulates; ``tests/test_prof.py`` asserts the identity).

Design constraints, mirroring the tracer (DESIGN.md Sec 10/11):

1. **Zero cost when disabled.**  Frames are opened by wrappers that are
   installed once, at setup, and only when profiling is enabled:
   :func:`instrument_method` wraps one instance's bound method and
   :func:`instrument_iterator` one iterator, so disabled runs execute
   the original unwrapped methods and no hot path tests a flag.  The
   disabled profiler is the shared :data:`NULL_PROFILER` singleton, and
   the same counter-based guard test that protects the tracer counts
   NullProfiler method calls during an unprofiled simulation and
   requires exactly zero.
2. **Stack-shaped attribution.**  Frames nest (``sim`` →
   ``system.access`` → ``l4.install`` → ``codec.compressed_size``), so
   the output distinguishes codec time spent on installs from codec time
   spent on probes.  Each node records call count, inclusive and self
   wall time, and the simulated cycles the call site attributed to it.
3. **Two outputs from one run.**  ``close()`` writes ``*.prof.json``
   (machine-readable, sorted by self wall time) and a collapsed-stack
   text file (``stack;frames <self-µs>`` per line) that standard
   flamegraph tooling — ``flamegraph.pl``, speedscope, inferno — loads
   directly.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class NullProfiler:
    """The disabled profiler: every operation is a no-op.

    Call sites must still guard with ``if prof.enabled:`` — the methods
    exist so cold-path calls (close, report helpers) are safe, not to
    make hot-path calls cheap.
    """

    enabled = False

    def enter(self, name: str) -> None:
        pass

    def exit(self, cycles: int = 0) -> None:
        pass

    def close(self) -> List[Path]:
        return []


NULL_PROFILER = NullProfiler()
"""Shared disabled profiler; identity-checked by the overhead guard test."""


class Profiler:
    """Stack-based component profiler accumulating wall time and cycles."""

    enabled = True

    def __init__(
        self, path, *, meta: Optional[Dict[str, object]] = None
    ) -> None:
        self.path = Path(path)
        self.meta: Dict[str, object] = dict(meta or {})
        # open-frame stacks (parallel lists, hot-path cheap)
        self._names: List[str] = []
        self._starts: List[float] = []
        self._child: List[float] = []
        # full-stack tuple -> [calls, wall_s, self_wall_s, cycles]
        self._nodes: Dict[Tuple[str, ...], List[float]] = {}
        self._clock = time.perf_counter

    # -- hot path -------------------------------------------------------------

    def enter(self, name: str) -> None:
        """Open a frame; every ``enter`` must be paired with one ``exit``."""
        self._names.append(name)
        self._child.append(0.0)
        self._starts.append(self._clock())

    def exit(self, cycles: int = 0) -> None:
        """Close the innermost frame, attributing its self time.

        ``cycles`` is the simulated-cycle cost the call site assigns to
        this frame (0 for frames that model no simulated time).
        """
        end = self._clock()
        key = tuple(self._names)
        wall = end - self._starts.pop()
        child = self._child.pop()
        self._names.pop()
        if self._child:
            self._child[-1] += wall
        node = self._nodes.get(key)
        if node is None:
            node = [0, 0.0, 0.0, 0]
            self._nodes[key] = node
        node[0] += 1
        node[1] += wall
        node[2] += max(0.0, wall - child)
        node[3] += cycles

    # -- output ---------------------------------------------------------------

    def frames(self) -> List[Dict[str, object]]:
        """Per-stack records, heaviest self time first."""
        rows = [
            {
                "stack": ";".join(stack),
                "depth": len(stack),
                "calls": int(node[0]),
                "wall_s": round(node[1], 9),
                "self_wall_s": round(node[2], 9),
                "cycles": int(node[3]),
            }
            for stack, node in self._nodes.items()
        ]
        rows.sort(key=lambda r: (-r["self_wall_s"], r["stack"]))
        return rows

    def collapsed(self) -> str:
        """Collapsed-stack text: ``a;b;c <self-microseconds>`` per line."""
        lines = []
        for stack, node in sorted(self._nodes.items()):
            micros = int(round(node[2] * 1e6))
            lines.append(f"{';'.join(stack)} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def collapsed_path(self) -> Path:
        if self.path.suffix == ".json":
            return self.path.with_suffix(".collapsed.txt")
        return self.path.with_name(self.path.name + ".collapsed.txt")

    def to_dict(self) -> Dict[str, object]:
        frames = self.frames()
        return {
            "meta": {
                **self.meta,
                "frames": len(frames),
                "total_wall_s": round(
                    sum(f["self_wall_s"] for f in frames), 9
                ),
            },
            "frames": frames,
        }

    def close(self) -> List[Path]:
        """Write ``*.prof.json`` and the collapsed-stack companion."""
        if self._names:  # unbalanced enter/exit is a programming error
            raise RuntimeError(
                f"profiler closed with open frames: {self._names}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.to_dict(), indent=1))
        collapsed = self.collapsed_path()
        collapsed.write_text(self.collapsed())
        return [self.path, collapsed]


# ---------------------------------------------------------------------------
# component-method instrumentation


def instrument_method(
    obj,
    method_name: str,
    frame: str,
    prof,
    cycles: Optional[Callable[[tuple, Any], int]] = None,
) -> bool:
    """Wrap one *instance's* bound method in a profiler frame.

    Installed only when profiling is enabled (the memory system calls
    this during construction), so unprofiled runs keep the original,
    unwrapped methods and pay nothing.  The wrapper forwards arguments
    and the return value untouched — results stay bit-identical.
    ``cycles(args, result)``, when given, is the simulated-cycle cost
    the frame is charged (clamped at 0), computed from the positional
    arguments and the return value.

    Returns False (and installs nothing) when the object has no such
    method, so callers can instrument optional components blindly.
    """
    original = getattr(obj, method_name, None)
    if original is None or not callable(original):
        return False

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        prof.enter(frame)
        spent = 0
        try:
            result = original(*args, **kwargs)
            if cycles is not None:
                spent = max(0, int(cycles(args, result)))
            return result
        finally:
            prof.exit(spent)

    setattr(obj, method_name, wrapped)
    return True


def instrument_iterator(iterator: Iterator, frame: str, prof) -> Iterator:
    """``iterator``'s items, each ``next`` timed as one profiler frame."""
    while True:
        prof.enter(frame)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            prof.exit()
        yield item


def top_frames(prof_payload: Dict[str, object], n: int = 10) -> List[Dict[str, object]]:
    """The ``n`` heaviest frames of a ``*.prof.json`` payload."""
    frames = prof_payload.get("frames", [])
    if not isinstance(frames, list):
        return []
    return frames[: max(0, n)]


def read_profile(path) -> Dict[str, object]:
    """Load a ``*.prof.json`` file; raises ``ValueError`` on a non-profile."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "frames" not in payload:
        raise ValueError(f"{path}: not a profile (missing 'frames')")
    return payload
