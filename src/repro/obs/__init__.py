"""End-to-end observability: event tracing, metrics registry, provenance.

Three pillars (see DESIGN.md Sec 10):

* :mod:`repro.obs.tracer` — a near-zero-overhead structured event tracer
  (``--trace PATH`` / ``REPRO_TRACE``) emitting JSONL plus Chrome
  ``trace_event`` spans, sampled by ``--trace-every N`` / ``REPRO_TRACE_EVERY``;
* :mod:`repro.obs.registry` — the unified metrics registry every layer
  (memory system, L4 designs, predictors, exec scheduler)
  registers into, exported per traced run as ``<stem>.metrics.json``;
* :mod:`repro.obs.manifest` — run-provenance manifests stamped onto every
  :class:`~repro.sim.metrics.SimResult` and cache shard.

Two switches turn observability on: ``--trace`` / ``REPRO_TRACE`` (the
event trace plus the metrics export beside it) and ``--profile`` /
``REPRO_PROF`` (the self-profile).  This module owns that *ambient*
configuration: the engine asks :func:`begin_run` for a per-run bundle (a
real tracer when tracing is configured, the shared :data:`NULL_TRACER`
otherwise — so untraced runs pay nothing), and :func:`finish_run` writes
the trace, Chrome export and metrics files.  With several runs in one
process, output paths are uniquified (``trace.jsonl``, ``trace.2.jsonl``,
…) so a campaign's traces never clobber each other.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.obs.manifest import (
    build_manifest,
    config_digest,
    format_manifest,
    git_sha,
)
from repro.obs.prof import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    instrument_iterator,
    instrument_method,
    read_profile,
    top_frames,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    metric_key,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    format_summary,
    read_events,
    summarize_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "Profiler",
    "RunObservability",
    "Tracer",
    "begin_run",
    "build_manifest",
    "config_digest",
    "configure",
    "finish_run",
    "format_manifest",
    "format_summary",
    "git_sha",
    "instrument_iterator",
    "instrument_method",
    "metric_key",
    "name_runs_as_parent",
    "profile_settings",
    "read_events",
    "read_profile",
    "reset_configuration",
    "summarize_trace",
    "top_frames",
    "trace_settings",
]

# ---------------------------------------------------------------------------
# ambient configuration (set by the CLI, read by the engine)

_explicit: Dict[str, Optional[object]] = {
    "trace": None, "every": None, "profile": None,
}
_run_seq = itertools.count()
_sole_worker = False


def name_runs_as_parent(offset: int) -> None:
    """Name this worker process's run files as its parent would.

    The worker of a one-worker pool is the only process writing run
    files, so it drops the ``.w<pid>`` tag and continues the parent's
    sequence ``offset`` runs on (past what earlier pools may have
    written): ``--jobs 1 --trace t.jsonl`` writes ``t.jsonl``,
    ``t.2.jsonl``, … exactly as an in-process campaign would.
    """
    global _run_seq, _sole_worker
    _sole_worker = True
    _run_seq = itertools.count(next(_run_seq) + offset)


def configure(
    trace: Optional[str] = None,
    every: Optional[int] = None,
    profile: Optional[str] = None,
) -> None:
    """Install explicit observability settings (the CLI's ``--trace`` /
    ``--trace-every`` / ``--profile`` flags); None leaves a knob as-is."""
    if trace is not None:
        _explicit["trace"] = trace
    if every is not None:
        _explicit["every"] = int(every)
    if profile is not None:
        _explicit["profile"] = profile


def reset_configuration() -> None:
    """Clear explicit settings and the output-path sequence (tests)."""
    global _run_seq
    _explicit.update(trace=None, every=None, profile=None)
    _run_seq = itertools.count()


def trace_settings():
    """Effective (path, every): explicit settings first, then the
    ``REPRO_TRACE`` / ``REPRO_TRACE_EVERY`` environment."""
    path = _explicit["trace"] or os.environ.get("REPRO_TRACE") or None
    every = _explicit["every"]
    if every is None:
        try:
            every = int(os.environ.get("REPRO_TRACE_EVERY", "1"))
        except ValueError:
            every = 1
    return path, max(1, every)


def profile_settings() -> Optional[str]:
    """Explicit ``--profile`` path, else ``REPRO_PROF``, else None."""
    return _explicit["profile"] or os.environ.get("REPRO_PROF") or None


def _uniquify(path_str: str, n: int) -> Path:
    """trace.jsonl, trace.2.jsonl, trace.3.jsonl, … for run n = 0, 1, 2.

    Worker processes of a parallel campaign inherit the parent's run
    counter, so their paths additionally carry the worker PID — N workers
    tracing concurrently never clobber each other's files (a sole worker
    needs no tag; see :func:`name_runs_as_parent`).
    """
    path = Path(path_str)
    stem = path.stem
    try:
        import multiprocessing

        if not _sole_worker and multiprocessing.parent_process() is not None:
            stem = f"{stem}.w{os.getpid()}"
    except (ImportError, AttributeError):
        pass
    if n > 0:
        stem = f"{stem}.{n + 1}"
    if stem == path.stem:
        return path
    return path.with_name(f"{stem}{path.suffix}")


# ---------------------------------------------------------------------------
# per-run bundle


@dataclass
class RunObservability:
    """What one simulation run observes itself with."""

    tracer: object = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    metrics_path: Optional[Path] = None
    profiler: object = NULL_PROFILER

    @classmethod
    def disabled(cls) -> "RunObservability":
        return cls()


def begin_run(label: str) -> RunObservability:
    """The observability bundle for one run about to start.

    Returns a disabled bundle (null tracer and profiler, fresh registry,
    no output paths) unless tracing or profiling is configured.  A traced
    run exports its metrics registry beside the trace.
    """
    trace_path, every = trace_settings()
    profile_path = profile_settings()
    if trace_path is None and profile_path is None:
        return RunObservability()
    n = next(_run_seq)
    profiler = (
        Profiler(_uniquify(profile_path, n), meta={"run": label})
        if profile_path is not None
        else NULL_PROFILER
    )
    if trace_path is None:
        return RunObservability(profiler=profiler)
    tracer = Tracer(_uniquify(trace_path, n), every=every, meta={"run": label})
    base = tracer.path
    name = f"{base.stem}.metrics.json" if base.suffix == ".jsonl" else (
        base.name + ".metrics.json"
    )
    return RunObservability(
        tracer=tracer, metrics_path=base.with_name(name), profiler=profiler
    )


def finish_run(
    obs: RunObservability, manifest: Optional[Dict[str, object]] = None
) -> None:
    """Flush one finished run's observability outputs (if any)."""
    if obs.metrics_path is not None:
        payload = {
            "manifest": manifest,
            "metrics": obs.metrics.to_dict(),
        }
        obs.metrics_path.parent.mkdir(parents=True, exist_ok=True)
        obs.metrics_path.write_text(json.dumps(payload, indent=1))
    obs.tracer.close()
    obs.profiler.close()
