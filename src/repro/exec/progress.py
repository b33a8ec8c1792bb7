"""Campaign progress reporting: done / running / failed counts plus ETA.

Progress goes to *stderr* so the tables an experiment prints to stdout
stay byte-identical between serial and parallel runs (and between runs
with and without a TTY attached).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, TextIO


@dataclass
class ProgressSnapshot:
    """One campaign heartbeat: the single struct every renderer shares.

    The scheduler's progress callback, the CLI progress line, and the
    campaign service's NDJSON event stream all carry this dataclass, so
    "what the terminal shows" and "what a remote client streams" cannot
    drift.  ``cache_hit_pct``, ``p50_wall_ms``, ``p95_wall_ms``, and
    ``ops_per_sec`` come from the producer's metrics registry
    (``exec.jobs.*`` / ``exec.job.wall_ms``); they stay None when the
    producer predates the registry, and the formatter then omits their
    segments.
    """

    done: int
    running: int
    failed: int
    total: int
    cached: int = 0
    eta_seconds: Optional[float] = None
    label: str = ""
    cache_hit_pct: Optional[float] = None
    p50_wall_ms: Optional[float] = None
    p95_wall_ms: Optional[float] = None
    ops_per_sec: Optional[float] = None
    elapsed_s: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the service's ``progress`` NDJSON event).

        Every field is a scalar, so a flat copy in declaration order is
        exactly what ``dataclasses.asdict`` returns, without its recursive
        deep copy on a path the daemon takes for every job event.
        """
        return {name: getattr(self, name) for name in _SNAPSHOT_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ProgressSnapshot":
        """Rebuild from :meth:`to_dict` output, ignoring foreign keys (a
        newer daemon may stream fields an older client doesn't know)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


_SNAPSHOT_FIELDS = tuple(f.name for f in fields(ProgressSnapshot))


def format_duration(seconds: Optional[float]) -> str:
    """``h:mm:ss`` / ``m:ss`` (``--:--`` for unknown): the progress
    line's ETA."""
    if seconds is None:
        return "--:--"
    seconds = max(0, int(round(seconds)))
    minutes, secs = divmod(seconds, 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


def format_progress(snap: ProgressSnapshot) -> str:
    """``jobs 12/40 · 4 running · 1 failed · eta 0:42 (mcf × dice)``"""
    parts = [
        f"jobs {snap.done}/{snap.total}",
        f"{snap.running} running",
        f"{snap.failed} failed",
        f"eta {format_duration(snap.eta_seconds)}",
    ]
    if snap.cache_hit_pct is not None:
        parts.append(f"cache {snap.cache_hit_pct:.0f}%")
    if snap.ops_per_sec is not None:
        parts.append(f"{snap.ops_per_sec:.1f} jobs/s")
    if snap.p50_wall_ms is not None:
        parts.append(f"p50 {snap.p50_wall_ms / 1000.0:.1f}s")
    if snap.p95_wall_ms is not None:
        parts.append(f"p95 {snap.p95_wall_ms / 1000.0:.1f}s")
    line = " · ".join(parts)
    if snap.label:
        line += f" ({snap.label})"
    return line


class ProgressPrinter:
    """Render scheduler snapshots as a single updating line (TTY) or a
    throttled trickle of lines (logs/CI), plus a final summary."""

    def __init__(
        self,
        stream: TextIO = sys.stderr,
        *,
        min_interval: float = 2.0,
    ) -> None:
        self.stream = stream
        self.min_interval = min_interval
        self._isatty = bool(getattr(stream, "isatty", lambda: False)())
        # None (not 0.0): time.monotonic()'s epoch is arbitrary — on a
        # freshly booted machine it is small enough that `now - 0.0 <
        # min_interval` wrongly throttles the very first snapshot.
        self._last_emit: Optional[float] = None
        self._last: Optional[ProgressSnapshot] = None

    def __call__(self, snap: ProgressSnapshot) -> None:
        self._last = snap
        now = time.monotonic()
        final = snap.done + snap.failed >= snap.total
        if (
            not final
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        line = format_progress(snap)
        if self._isatty:
            self.stream.write("\r\x1b[2K" + line)
            self.stream.flush()
        else:
            print(line, file=self.stream, flush=True)

    def finish(self) -> None:
        """Terminate the updating line and print the cache-hit summary."""
        if self._isatty and self._last is not None:
            self.stream.write("\n")
        snap = self._last
        if snap is None:
            return
        executed = snap.done - snap.cached
        hit_pct = (
            snap.cache_hit_pct
            if snap.cache_hit_pct is not None
            else (100.0 * snap.cached / snap.total if snap.total else 100.0)
        )
        line = (
            f"jobs: {snap.total} total · {snap.cached} from cache · "
            f"{executed} run · {snap.failed} failed "
            f"(cache hits: {hit_pct:.0f}%)"
        )
        if snap.p50_wall_ms is not None:
            line += f" · p50 {snap.p50_wall_ms / 1000.0:.1f}s/job"
        print(line, file=self.stream, flush=True)
