"""Campaign records: job specs, per-job states, events, checkpoints.

A *campaign* is one client submission — a set of (workload × config ×
params) jobs planned from experiment names or given raw.  The daemon
keeps one :class:`CampaignState` per submission: an ordered job list,
per-job status, the accumulated results, and an append-only event log
that any number of NDJSON watchers replay and follow.

Every job changes status through :meth:`CampaignState.transition`, which
keeps the campaign's done / failed / running / cached counts current, so
the progress snapshot emitted after each job costs O(1) rather than a
rescan of every job: completing an N-job campaign is O(N), not O(N²).

Checkpoints make drain bit-identically resumable: the daemon persists
the *specs* of unfinished campaigns (never results — those live in the
result cache / content store), so a restarted daemon re-plans the same
jobs and the cache answers everything that already ran.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.exec.job import Job, make_job
from repro.exec.progress import ProgressSnapshot
from repro.sim.engine import SimulationParams
from repro.sim.stats import LatencyHistogram

CHECKPOINT_VERSION = 1

DEFAULT_CHECKPOINT = Path(".service_checkpoint.json")

# terminal job states; a campaign completes when every job reaches one
DONE_STATES = ("done", "failed")
# sources that answer a job without running it for this campaign
CACHED_SOURCES = ("cache", "dedup")


def job_to_spec(job: Job) -> Dict[str, object]:
    """A JSON-ready spec that :func:`job_from_spec` round-trips exactly."""
    spec: Dict[str, object] = {
        "workload": job.workload,
        "config": job.config_name,
        "scale": job.scale,
        "accesses": job.params.accesses_per_core,
        "warmup_fraction": job.params.warmup_fraction,
        "seed": job.params.seed,
        "fault_rate": job.params.fault_rate,
        "ecc": job.params.ecc,
    }
    # rep-0 jobs serialize exactly as before the statistics era, so old
    # checkpoints and clients round-trip unchanged
    if job.rep:
        spec["rep"] = job.rep
    return spec


def job_from_spec(spec: Dict[str, object]) -> Job:
    """Rebuild a job; raises ``ValueError`` on a malformed spec.

    The config is resolved here, so an unknown name or a scale below 1
    is rejected before a campaign is registered, not inside the key
    lookup of a half-admitted one.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec is {type(spec).__name__}, not an object")
    for required in ("workload", "config"):
        if not isinstance(spec.get(required), str) or not spec[required]:
            raise ValueError(f"job spec needs a non-empty {required!r}")
    from repro.harness.runner import (
        DEFAULT_ACCESSES,
        DEFAULT_SCALE,
        named_config_digest,
    )

    try:
        accesses = int(spec.get("accesses") or DEFAULT_ACCESSES)
        params = SimulationParams(
            accesses_per_core=accesses,
            warmup_fraction=float(
                spec.get("warmup_fraction", SimulationParams().warmup_fraction)
            ),
            seed=int(spec.get("seed", SimulationParams().seed)),
            fault_rate=float(spec.get("fault_rate", 0.0)),
            ecc=str(spec.get("ecc", "secded")),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed job spec parameters: {exc}") from exc
    scale = spec.get("scale")
    try:
        scale = DEFAULT_SCALE if scale is None else int(scale)
        rep = int(spec.get("rep", 0))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed job spec scale or rep: {exc}") from exc
    if scale < 1:
        raise ValueError(f"job spec scale must be >= 1, got {scale}")
    if rep < 0:
        raise ValueError(f"job spec rep must be >= 0, got {rep}")
    try:
        named_config_digest(spec["config"], scale)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return make_job(
        str(spec["workload"]),
        str(spec["config"]),
        scale=scale,
        params=params,
        rep=rep,
    )


@dataclass
class JobState:
    """Where one job of one campaign stands.

    ``status`` and ``source`` change only through
    :meth:`CampaignState.transition`, which keeps the campaign's counts.
    ``running`` means the pool is executing the job right now, whichever
    campaign's submission queued it.
    """

    job: Job
    status: str = "pending"  # pending | running | done | failed
    source: str = ""  # cache | dedup | run | ""
    error: Optional[str] = None
    wall_ms: Optional[float] = None


class CampaignState:
    """One submission's jobs, results, and append-only event log."""

    def __init__(
        self,
        campaign_id: str,
        client: str,
        jobs: List[Job],
        *,
        experiments: Optional[List[str]] = None,
    ) -> None:
        self.id = campaign_id
        self.client = client
        self.jobs = list(jobs)
        self.experiments = list(experiments or [])
        self.states: Dict[str, JobState] = {
            job.job_id: JobState(job) for job in self.jobs
        }
        # jobs per status, plus done-from-cache/dedup: kept by transition()
        self._counts: Dict[str, int] = {
            "pending": len(self.states), "running": 0, "done": 0, "failed": 0,
        }
        self._cached = 0
        # payloads shared read-only with every campaign holding the job
        self.results: Dict[str, object] = {}
        self.status = "running"  # running | completed | failed | drained
        self.events: List[Dict[str, object]] = []
        # distributed-trace coordinates, set by the daemon at admission
        # when the submission carried trace headers (or tracing is on);
        # checkpoints persist job *specs* only, so a resumed campaign
        # roots a fresh trace rather than forging the old one.
        self.trace = None  # Optional[repro.obs.telemetry.TraceContext]
        self.submitted_us: Optional[int] = None
        self._event_cond = asyncio.Condition()
        self._started = time.monotonic()
        self._wall_ms = LatencyHistogram()

    # -- accounting ----------------------------------------------------------

    def transition(
        self, job_id: str, status: str, source: Optional[str] = None
    ) -> JobState:
        """Move one job to ``status`` (and ``source``, when given) in O(1),
        keeping the counts the properties below return current."""
        state = self.states[job_id]
        self._counts[state.status] -= 1
        if state.status == "done" and state.source in CACHED_SOURCES:
            self._cached -= 1
        state.status = status
        if source is not None:
            state.source = source
        self._counts[status] += 1
        if status == "done" and state.source in CACHED_SOURCES:
            self._cached += 1
        return state

    @property
    def done(self) -> int:
        return self._counts["done"]

    @property
    def failed(self) -> int:
        return self._counts["failed"]

    @property
    def running(self) -> int:
        return self._counts["running"]

    @property
    def cached(self) -> int:
        return self._cached

    @property
    def finished(self) -> bool:
        return self.done + self.failed == len(self.states)

    def snapshot(self) -> ProgressSnapshot:
        """This campaign's heartbeat — the same struct the CLI prints."""
        counts, cached, wall_ms = self._counts, self._cached, self._wall_ms
        finished = counts["done"] + counts["failed"]
        elapsed = time.monotonic() - self._started
        executed = finished - cached
        return ProgressSnapshot(
            done=counts["done"],
            running=counts["running"],
            failed=counts["failed"],
            total=len(self.jobs),
            cached=cached,
            eta_seconds=0.0 if finished == len(self.states) else None,
            label=self.id,
            cache_hit_pct=100.0 * cached / finished if finished else None,
            p50_wall_ms=(
                float(wall_ms.percentile(50)) if wall_ms.total else None
            ),
            p95_wall_ms=(
                float(wall_ms.percentile(95)) if wall_ms.total else None
            ),
            ops_per_sec=(
                executed / elapsed if executed > 0 and elapsed > 0 else None
            ),
            elapsed_s=elapsed,
        )

    def describe(self) -> Dict[str, object]:
        """The ``GET /campaigns/{id}`` status document."""
        return {
            "id": self.id,
            "client": self.client,
            "status": self.status,
            "experiments": self.experiments,
            "jobs": len(self.jobs),
            "done": self.done,
            "failed": self.failed,
            "running": self.running,
            "cached": self.cached,
            "trace_id": self.trace.trace_id if self.trace else None,
            "progress": self.snapshot().to_dict(),
        }

    # -- event log -----------------------------------------------------------

    async def emit(self, *events: Dict[str, object]) -> None:
        """Append events in order and wake every stream following this
        campaign once."""
        async with self._event_cond:
            self.events.extend(events)
            self._event_cond.notify_all()

    async def wait_for_event(self, index: int) -> bool:
        """Block until ``events[index]`` exists; False when the campaign is
        finished and no further events will ever arrive."""
        async with self._event_cond:
            while index >= len(self.events):
                if self.status != "running":
                    return False
                await self._event_cond.wait()
            return True

    # -- job completion ------------------------------------------------------

    def record_wall_ms(self, wall_ms: Optional[float]) -> None:
        if wall_ms is not None and wall_ms >= 0:
            self._wall_ms.record(int(wall_ms))


# ---------------------------------------------------------------------------
# checkpointing


def checkpoint_payload(campaigns: List[CampaignState]) -> Dict[str, object]:
    return {
        "version": CHECKPOINT_VERSION,
        "campaigns": [
            {
                "id": campaign.id,
                "client": campaign.client,
                "experiments": campaign.experiments,
                "jobs": [job_to_spec(job) for job in campaign.jobs],
            }
            for campaign in campaigns
        ],
    }


def write_checkpoint(path: Path, campaigns: List[CampaignState]) -> int:
    """Atomically persist the specs of unfinished campaigns; the count.

    An empty list removes the checkpoint — a cleanly drained daemon
    leaves nothing behind to resume.
    """
    path = Path(path)
    if not campaigns:
        try:
            path.unlink()
        except OSError:
            pass
        return 0
    payload = json.dumps(checkpoint_payload(campaigns), sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent or Path(".")
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(campaigns)


def load_checkpoint(path: Path) -> List[Dict[str, object]]:
    """The checkpointed campaign specs, oldest first ([] when none)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    except (ValueError, OSError):
        return []  # a torn checkpoint resumes nothing, breaks nothing
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
        or not isinstance(payload.get("campaigns"), list)
    ):
        return []
    return [c for c in payload["campaigns"] if isinstance(c, dict)]
