"""The campaign scheduler: serve cache hits, supervise the rest.

``run_jobs`` answers every job the result cache already holds in the
parent, feeds the rest to one :class:`~repro.exec.supervisor.Supervisor`
of ``N`` worker processes (``--jobs N`` / ``REPRO_JOBS``, defaulting to
the machine's core count; ``--jobs 1`` is a pool of one), and merges the
outcomes back **in plan order**, so parallel campaigns are bit-identical
to single-worker ones: every job is a deterministic function of its
cache key, and only the completion *order* — which nothing downstream
observes — varies between runs.

Resilience is per job, not per campaign: every finished job persists
through the sharded result cache immediately, so a killed campaign
resumes at the granularity of single (workload, config) pairs.  A
failing job never aborts the pool: the scheduler drains the remaining
jobs and reports every failure, so one bad configuration costs one
table, not the whole campaign.  The supervisor adds per-job wall-clock
deadlines with watchdog cancellation, ``BrokenProcessPool`` recovery,
poison-job quarantine, corrupt-payload detection with cache
invalidation, and SIGTERM/SIGINT graceful drain; the
:class:`~repro.exec.supervisor.SupervisionReport` of the last run is
available via :func:`last_report`.

Worker processes are forked where available (POSIX), which lets them
inherit the parent's in-memory cache, installed executors, and
monkeypatched test state; ``spawn`` is the fallback elsewhere.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from pathlib import Path

from repro import obs
from repro.chaos import class_counts
from repro.chaos.policy import ChaosPolicy
from repro.exec.cache import cache_health
from repro.exec.job import Job
from repro.exec.progress import ProgressSnapshot
from repro.exec.supervisor import (
    DEFAULT_SUPERVISOR,
    ShutdownFlag,
    SupervisionReport,
    Supervisor,
    SupervisorPolicy,
)
from repro.sim.metrics import SimResult


def resolve_jobs(value: Optional[int] = None) -> int:
    """Worker count: explicit value, else ``REPRO_JOBS``, else CPU count."""
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


@dataclass
class JobOutcome:
    """What happened to one job: its result, or why it has none."""

    job: Job
    result: Optional[SimResult]
    error: Optional[str] = None
    source: str = "run"  # "cache" | "run" | "failed" | "quarantined"
    attempts: int = 1  # submissions the supervisor made for this job

    @property
    def ok(self) -> bool:
        return self.error is None


# -- progress accounting -----------------------------------------------------


class _Tracker:
    """Progress accounting over a campaign-scoped metrics registry.

    The registry (``exec.jobs.*`` counters, ``exec.job.wall_ms``
    histogram) is the single source for the done/cached/failed counts,
    the live cache-hit percentage, and the per-job p50 wall clock the
    progress line shows; the optional exec tracer records the job
    lifecycle (queued → running/retry → done) into ``*.exec.jsonl``.
    """

    def __init__(
        self,
        total: int,
        cached: int,
        callback: Optional[Callable[[ProgressSnapshot], None]],
        tracer=None,
    ) -> None:
        self.total = total
        self.running = 0
        self.callback = callback
        self.tracer = tracer if tracer is not None else obs.NULL_TRACER
        self.registry = obs.MetricsRegistry()
        self._done = self.registry.counter("exec.jobs.done")
        self._cached = self.registry.counter("exec.jobs.cached")
        self._failed = self.registry.counter("exec.jobs.failed")
        self._retried = self.registry.counter("exec.jobs.retried")
        self._wall_ms = self.registry.histogram("exec.job.wall_ms")
        self._done.inc(cached)
        self._cached.inc(cached)
        self._start = time.monotonic()

    @property
    def done(self) -> int:
        return self._done.value

    @property
    def cached(self) -> int:
        return self._cached.value

    @property
    def failed(self) -> int:
        return self._failed.value

    def now_us(self) -> int:
        """Microseconds since campaign start: the exec trace timebase."""
        return int((time.monotonic() - self._start) * 1e6)

    def _eta(self) -> Optional[float]:
        executed = self.done + self.failed - self.cached
        remaining = self.total - self.done - self.failed
        if executed <= 0 or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        elapsed = time.monotonic() - self._start
        return elapsed / executed * remaining

    def snapshot(self, label: str = "") -> ProgressSnapshot:
        """The current heartbeat (shared by the progress callback and the
        campaign service's NDJSON stream — one struct, two renderers)."""
        finished = self.done + self.failed
        elapsed = time.monotonic() - self._start
        executed = finished - self.cached
        return ProgressSnapshot(
            done=self.done,
            running=self.running,
            failed=self.failed,
            total=self.total,
            cached=self.cached,
            eta_seconds=self._eta(),
            label=label,
            cache_hit_pct=(
                100.0 * self.cached / finished if finished else None
            ),
            p50_wall_ms=(
                float(self._wall_ms.percentile(50))
                if self._wall_ms.total
                else None
            ),
            p95_wall_ms=(
                float(self._wall_ms.percentile(95))
                if self._wall_ms.total
                else None
            ),
            ops_per_sec=(
                executed / elapsed if executed > 0 and elapsed > 0 else None
            ),
            elapsed_s=elapsed,
        )

    def emit(self, label: str = "") -> None:
        if self.callback is None:
            return
        self.callback(self.snapshot(label))

    def step(self, outcome: JobOutcome) -> None:
        label = outcome.job.describe()
        if outcome.ok:
            self._done.inc()
        else:
            self._failed.inc()
        if outcome.attempts > 1:
            self._retried.inc(outcome.attempts - 1)
        elapsed = None
        if outcome.ok and outcome.source == "run":
            manifest = getattr(outcome.result, "manifest", None) or {}
            if isinstance(manifest.get("elapsed_s"), (int, float)):
                elapsed = manifest["elapsed_s"]
                self._wall_ms.record(max(0, int(elapsed * 1000)))
        if self.tracer.enabled:
            ts = self.now_us()
            dur = max(1, int(elapsed * 1e6)) if elapsed is not None else 1
            if outcome.attempts > 1:
                self.tracer.instant(
                    "job.retried", "exec", max(0, ts - dur),
                    job=label, attempts=outcome.attempts,
                )
            if not outcome.ok:
                name = (
                    "job.quarantined"
                    if outcome.source == "quarantined"
                    else "job.failed"
                )
                self.tracer.instant(
                    name, "exec", ts, job=label, error=outcome.error
                )
            elif outcome.source == "cache":
                self.tracer.instant("job.cached", "exec", ts, job=label)
            else:
                self.tracer.span(
                    "job.done", "exec", max(0, ts - dur), dur, job=label,
                    source=outcome.source,
                )
        self.emit(label)


# -- the scheduler -----------------------------------------------------------


_LAST_REPORT: Optional[SupervisionReport] = None


def last_report() -> Optional[SupervisionReport]:
    """The :class:`SupervisionReport` of the most recent ``run_jobs``."""
    return _LAST_REPORT


def run_jobs(
    jobs: Sequence[Job],
    *,
    max_workers: Optional[int] = None,
    progress: Optional[Callable[[ProgressSnapshot], None]] = None,
    supervisor: Optional[SupervisorPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    shutdown: Optional[ShutdownFlag] = None,
) -> List[JobOutcome]:
    """Execute ``jobs`` on a supervised pool of ``max_workers`` processes.

    Returns one :class:`JobOutcome` per input job **in input order**,
    regardless of completion order.  Jobs already satisfied by the result
    cache are served without touching the pool.  A job whose simulation
    raises yields an ``error`` outcome at once while the rest of the pool
    drains normally; jobs that keep crashing, hanging past the deadline,
    or returning corrupt payloads are retried and then quarantined per
    ``supervisor``.  When ``shutdown`` trips mid-campaign the drain
    stops gracefully and unfinished jobs are simply omitted from the
    outcome list (their cache entries were never written, so a rerun
    resumes them).  ``chaos`` arms deterministic fault injection — see
    :mod:`repro.chaos`.
    """
    global _LAST_REPORT
    jobs = list(jobs)
    supervisor = supervisor if supervisor is not None else DEFAULT_SUPERVISOR
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

    # Serve cache hits in the parent: free, and it keeps resumed campaigns
    # from paying any pool overhead for work that is already done.
    pending: List[int] = []
    for i, job in enumerate(jobs):
        hit = job.peek()
        if hit is not None:
            outcomes[i] = JobOutcome(job, hit, source="cache")
        else:
            pending.append(i)

    tracker = _Tracker(
        len(jobs),
        cached=len(jobs) - len(pending),
        callback=progress,
        tracer=_exec_tracer(),
    )
    if tracker.tracer.enabled:
        for i, job in enumerate(jobs):
            name = "job.cached" if outcomes[i] is not None else "job.queued"
            tracker.tracer.instant(name, "exec", 0, job=job.describe())
    workers = min(resolve_jobs(max_workers), max(1, len(pending)))

    report = SupervisionReport()
    try:
        if not pending:
            tracker.emit()
        else:
            pool = Supervisor(
                workers, registry=tracker.registry, tracer=tracker.tracer,
                policy=supervisor, chaos=chaos, shutdown=shutdown,
                now_us=tracker.now_us,
            )

            def record(i, result, error, source, attempts):
                job = jobs[i]
                if error is None:
                    job.seed(result)
                elif source == "quarantined":
                    pool.report.quarantined.append(job.describe())
                outcomes[i] = JobOutcome(job, result, error, source, attempts)
                tracker.running = pool.in_flight
                tracker.step(outcomes[i])

            for i in pending:
                pool.submit(i, jobs[i])
            pool.close()
            report = pool.run(record)
    finally:
        _publish_health(tracker, report, chaos)
        _LAST_REPORT = report
        tracker.tracer.close()
    return [outcome for outcome in outcomes if outcome is not None]


def _publish_health(tracker, report, chaos) -> None:
    """Export cache health and chaos-injection totals on the run registry."""
    health = cache_health()
    if health.write_errors:
        tracker.registry.counter("exec.cache.write_error").set(
            health.write_errors
        )
    if health.open_breakers:
        tracker.registry.gauge("exec.cache.breakers_open").set(
            len(health.open_breakers)
        )
    if chaos is not None and report is not None:
        report.chaos_injected = class_counts(chaos.ledger_path)
        for fault, count in sorted(report.chaos_injected.items()):
            tracker.registry.counter(
                "exec.chaos.injected", fault=fault
            ).set(count)


def _exec_tracer():
    """The job-lifecycle tracer (``<trace>.exec.jsonl``), or the shared
    null when ``--trace`` / ``REPRO_TRACE`` is not configured.

    Exec events use microseconds of wall clock since campaign start as
    ``ts`` — Chrome's native unit — so the lifecycle renders on a real
    timeline next to the per-run simulated-cycle traces.
    """
    trace_path, every = obs.trace_settings()
    if trace_path is None:
        return obs.NULL_TRACER
    base = Path(trace_path)
    suffix = base.suffix if base.suffix else ".jsonl"
    path = base.with_name(f"{base.stem}.exec{suffix}")
    return obs.Tracer(path, every=every, meta={"scope": "exec"})
