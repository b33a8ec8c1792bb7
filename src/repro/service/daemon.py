"""The campaign service: a persistent sim-as-a-service asyncio daemon.

One long-lived process turns the exec engine into shared infrastructure:
many clients submit campaigns over HTTP, one supervised worker pool runs
the misses, and one content-addressed result store answers repeats in
microseconds.  The contract, endpoint by endpoint:

* ``POST /campaigns`` — submit experiment names and/or raw workload ×
  config jobs.  The planner dedupes within the submission; the service
  dedupes *across* clients three ways: result-cache hits complete at
  submission time without touching the pool, jobs already in flight for
  another campaign are subscribed to (``service.jobs.deduped``), and
  everything else enters a bounded queue.  A full queue answers **429**
  with ``Retry-After`` — backpressure, not buffering.
* ``GET /campaigns/{id}/events`` — chunked NDJSON: per-job completions
  interleaved with rolling :class:`~repro.exec.progress.ProgressSnapshot`
  heartbeats (ops/s, p50/p95 wall-clock) — the same struct the CLI
  progress line renders, so local and remote progress cannot drift.
* ``GET /healthz`` / ``GET /metrics`` — result-cache + content-store
  stats, and the full ``service.*`` metrics registry.
* SIGTERM (or ``POST /drain``) — graceful drain: stop admitting, give
  in-flight jobs a grace window (each persists its own cache shard),
  terminate the workers still running after it, checkpoint the specs of
  unfinished campaigns, exit 0.  A restarted daemon re-plans those specs
  and the cache answers everything that already ran — bit-identical
  resume.

Scheduling is fair per client: pending jobs live on per-client queues
and the dispatcher round-robins between them, so one client submitting
a thousand-job sweep cannot starve another's three-job smoke run.  It
hands one job per free worker slot to the daemon's
:class:`~repro.exec.supervisor.Supervisor`, which one thread drives: the
same loop the CLI runs, with its watchdog, crash attribution,
quarantine and result validation.  Outcomes come back to the event loop
through ``call_soon_threadsafe``, so all daemon state stays on the
event-loop thread.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import secrets
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.chaos.policy import ChaosPolicy
from repro.exec.job import Job
from repro.exec.scheduler import resolve_jobs
from repro.exec.supervisor import DEFAULT_SUPERVISOR, Supervisor, SupervisorPolicy
from repro.harness import runner as runner_mod
from repro.obs import slo as slo_mod
from repro.obs import telemetry
from repro.service.http import (
    ChunkedNdjsonWriter,
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from repro.service.state import (
    CampaignState,
    DEFAULT_CHECKPOINT,
    job_from_spec,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.store import ContentStore
from repro.sim.engine import SimulationParams
from repro.sim.metrics import SimResult


@dataclass
class ServiceConfig:
    """Daemon knobs, all CLI-settable via ``cli serve``."""

    host: str = "127.0.0.1"
    port: int = 7414
    workers: Optional[int] = None  # None: REPRO_JOBS / CPU count
    max_queue: int = 256  # pending (not yet running) jobs across clients
    # per-job deadline, attempts, and the drain grace window (--grace)
    supervisor: SupervisorPolicy = DEFAULT_SUPERVISOR
    chaos: Optional[ChaosPolicy] = None  # fault injection (REPRO_CHAOS)
    checkpoint: Path = DEFAULT_CHECKPOINT
    resume: bool = True
    promote: bool = True  # promote the shard store into the content store
    slos: Optional[List[str]] = None  # extra SLO specs beyond the defaults


class SimService:
    """The daemon: HTTP front end, fair scheduler, shared caches."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.workers = resolve_jobs(self.config.workers)
        self.registry = obs.MetricsRegistry()
        self.campaigns: Dict[str, CampaignState] = {}
        self.store = ContentStore(
            runner_mod._CACHE_PATH.with_suffix(".cas")
        )
        self._queues: Dict[str, Deque[Job]] = {}
        self._rr: Deque[str] = deque()  # client round-robin order
        self._runs: Dict[str, "_SharedRun"] = {}
        # job_id -> (result, payload): each result's JSON-ready payload,
        # built once and shared read-only by every campaign holding it
        self._payloads: Dict[str, Tuple[SimResult, Dict[str, object]]] = {}
        self._active = 0  # campaigns whose status is "running"
        self._seq = 0
        self._draining = False
        self._started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._supervisor = Supervisor(
            self.workers, registry=self.registry, scope="service",
            policy=self.config.supervisor, chaos=self.config.chaos,
        )
        self._supervisor_thread: Optional[threading.Thread] = None
        self.failure: Optional[str] = None  # why the supervisor thread died
        self._aborting: Optional[asyncio.Task] = None  # the drain it forced
        self._slots: Optional[asyncio.Semaphore] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._tasks: set = set()  # outcomes being delivered
        self._dispatcher: Optional[asyncio.Task] = None
        # the metric names the acceptance tests and docs rely on
        self._m_submitted = self.registry.counter("service.campaigns.submitted")
        self._m_completed = self.registry.counter("service.campaigns.completed")
        self._m_resumed = self.registry.counter("service.campaigns.resumed")
        self._m_drained = self.registry.counter("service.campaigns.drained")
        self._m_jobs = self.registry.counter("service.jobs.total")
        self._m_cached = self.registry.counter("service.jobs.cached")
        self._m_deduped = self.registry.counter("service.jobs.deduped")
        self._m_executed = self.registry.counter("service.jobs.executed")
        self._m_failed = self.registry.counter("service.jobs.failed")
        self._m_retried = self.registry.counter("service.jobs.retried")
        self._m_requests = self.registry.counter("service.http.requests")
        self._m_rejected = self.registry.counter("service.backpressure.rejected")
        self._g_queue = self.registry.gauge("service.queue.depth")
        self._g_inflight = self.registry.gauge("service.jobs.inflight")
        self._g_active = self.registry.gauge("service.campaigns.active")
        self._h_wall = self.registry.histogram("service.job.wall_ms")
        # submit-handler latency in µs, split warm (all jobs answered at
        # submission time) vs cold — the warm side is what the p99 SLO
        # judges against ROADMAP's "cache-hit answers in microseconds"
        self._h_submit_warm = self.registry.histogram(
            "service.submit.wall_us", kind="warm"
        )
        self._h_submit_cold = self.registry.histogram(
            "service.submit.wall_us", kind="cold"
        )
        # telemetry plane: SLOs and the daemon's own tracer
        self.slos = slo_mod.default_service_slos(self.config.max_queue)
        for text in self.config.slos or []:
            self.slos.append(slo_mod.parse_slo(text))
        self.tracer = self._daemon_tracer()

    def _daemon_tracer(self):
        """A long-lived tracer for daemon-side spans (campaign/queue/run),
        written next to the configured trace path as ``<stem>.daemon.jsonl``
        when the daemon stops — or the shared null tracer when tracing is
        off."""
        trace_path, every = obs.trace_settings()
        if trace_path is None:
            return obs.NULL_TRACER
        base = Path(trace_path)
        suffix = base.suffix if base.suffix else ".jsonl"
        path = base.with_name(f"{base.stem}.daemon{suffix}")
        return obs.Tracer(path, every=every, meta={"scope": "daemon"})

    def _now_us(self) -> int:
        """Microseconds since daemon start: the daemon trace timebase."""
        return int((time.monotonic() - self._started) * 1e6)

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (authoritative when configured with port 0)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind, start the supervisor, promote the cache, resume checkpoints."""
        self._slots = asyncio.Semaphore(self.workers)
        self._wakeup = asyncio.Event()
        self._stopped = asyncio.Event()
        loop = asyncio.get_running_loop()

        def deliver(job, result, error, _source, attempts) -> None:
            loop.call_soon_threadsafe(
                self._on_outcome, job, result, error, attempts
            )

        def supervise() -> None:
            try:
                self._supervisor.run(deliver)
            except Exception as exc:  # noqa: BLE001 - no job can run now
                traceback.print_exc()
                loop.call_soon_threadsafe(self._abort, exc)

        self._supervisor_thread = threading.Thread(
            target=supervise, name="repro-supervisor", daemon=True,
        )
        self._supervisor_thread.start()
        if self.config.promote:
            promoted = self.store.promote(runner_mod._store().read_all())
            if promoted > 0:
                self.registry.counter("service.store.promoted").inc(promoted)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.create_task(self._dispatch())
        if self.config.resume:
            await self._resume_checkpoint()

    async def serve_forever(self) -> None:
        """Block until a drain completes (the daemon's main coroutine)."""
        assert self._stopped is not None
        await self._stopped.wait()

    async def drain(self, reason: str = "signal") -> None:
        """Graceful stop: admit nothing, finish what fits in the grace
        window, checkpoint the rest, release every socket and process."""
        if self._draining:
            return
        self._draining = True
        self._wakeup.set()
        if self._server is not None:
            self._server.close()
        # The supervisor gives in-flight jobs their grace window, then
        # terminates the workers still running; each job that finishes
        # persists its own cache shard, shrinking what resume must redo.
        self._supervisor.shutdown.trip(signal.SIGTERM)
        self._supervisor.close()
        if self._supervisor_thread is not None:  # None: never started
            await asyncio.to_thread(self._supervisor_thread.join)
        if self._tasks:
            await asyncio.wait(list(self._tasks))
        unfinished = [
            campaign
            for campaign in self.campaigns.values()
            if not campaign.finished
        ]
        write_checkpoint(Path(self.config.checkpoint), unfinished)
        for campaign in unfinished:
            self._end_campaign(campaign, "drained")
            self._m_drained.inc()
            await campaign.emit(
                {
                    "event": "done",
                    "id": campaign.id,
                    "status": "drained",
                    "reason": reason,
                    "checkpoint": str(self.config.checkpoint),
                }
            )
            # wake any stream still blocked in wait_for_event
            async with campaign._event_cond:
                campaign._event_cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        self.tracer.close()
        self._stopped.set()

    def _abort(self, exc: Exception) -> None:
        """The supervisor thread died: drain, checkpointing unfinished
        campaigns for a restart to resume."""
        self.failure = f"{type(exc).__name__}: {exc}"
        self._aborting = asyncio.get_running_loop().create_task(
            self.drain(f"supervisor failed: {self.failure}")
        )

    async def _resume_checkpoint(self) -> None:
        specs = load_checkpoint(Path(self.config.checkpoint))
        if not specs:
            return
        try:
            Path(self.config.checkpoint).unlink()
        except OSError:
            pass
        for spec in specs:
            try:
                jobs = [
                    job_from_spec(job_spec)
                    for job_spec in spec.get("jobs", [])
                ]
            except ValueError:
                continue  # a garbled record resumes nothing else
            if not jobs:
                continue
            await self._register_campaign(
                jobs,
                client=str(spec.get("client", "anon")),
                experiments=[str(k) for k in spec.get("experiments", [])],
                campaign_id=str(spec["id"]) if spec.get("id") else None,
                enforce_backpressure=False,
            )
            self._m_resumed.inc()

    # -- submission ----------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"c{self._seq:04d}-{secrets.token_hex(3)}"

    def _lookup_cached(self, job: Job) -> Optional[SimResult]:
        """Result cache, then content store (backfilling the former)."""
        hit = job.peek()
        if hit is not None:
            return hit
        disk_key = json.dumps(job.cache_key)
        payload = self.store.get(disk_key)
        if payload is None:
            return None
        try:
            result = runner_mod._result_from_dict(payload)
        except runner_mod.CacheEntryError:
            return None  # schema drift: re-simulate rather than serve it
        job.seed(result)
        return result

    def _payload_for(self, job: Job, result: SimResult) -> Dict[str, object]:
        """``result`` as the JSON-ready dict ``GET /results`` serves.

        Built once per result and shared by every campaign that holds the
        job, so callers must never mutate it.  The entry is keyed on the
        result object itself: a job whose cached result was invalidated
        and replaced gets a fresh payload, never the old one.
        """
        entry = self._payloads.get(job.job_id)
        if entry is not None and entry[0] is result:
            return entry[1]
        payload = dataclasses.asdict(result)
        self._payloads[job.job_id] = (result, payload)
        return payload

    def _retry_after(self) -> int:
        """Honest backpressure hint: queue depth over drain rate."""
        depth = sum(len(q) for q in self._queues.values())
        p50_s = 2.0
        if self._h_wall.total:
            p50_s = max(0.1, self._h_wall.percentile(50) / 1000.0)
        return max(1, min(600, int(depth * p50_s / self.workers) + 1))

    async def _register_campaign(
        self,
        jobs: List[Job],
        *,
        client: str,
        experiments: Optional[List[str]] = None,
        campaign_id: Optional[str] = None,
        enforce_backpressure: bool = True,
        parent: Optional[telemetry.TraceContext] = None,
    ) -> Tuple[CampaignState, Dict[str, int]]:
        """Admit one campaign: serve hits, subscribe overlaps, queue misses.

        Raises :class:`HttpError` 429 when the queued misses would not fit
        the bounded queue (checked before any state mutates, so a rejected
        submission leaves no trace).

        ``parent`` is the submitting client's trace context (from the
        ``X-Repro-Trace-Id`` headers); the campaign joins that trace, or
        roots a fresh one when the daemon's own tracer is on.
        """
        jobs = list(dict.fromkeys(jobs))
        cached: Dict[str, SimResult] = {}
        inflight: List[Job] = []
        fresh: List[Job] = []
        for job in jobs:
            if job.job_id in self._runs:
                inflight.append(job)
                continue
            hit = self._lookup_cached(job)
            if hit is not None:
                cached[job.job_id] = hit
            else:
                fresh.append(job)
        depth = sum(len(q) for q in self._queues.values())
        if enforce_backpressure and depth + len(fresh) > self.config.max_queue:
            self._m_rejected.inc()
            raise HttpError(
                429,
                f"queue full: {depth} job(s) pending, "
                f"{len(fresh)} more would exceed the "
                f"{self.config.max_queue}-job bound",
            )

        campaign = CampaignState(
            campaign_id or self._next_id(),
            client,
            jobs,
            experiments=experiments,
        )
        # The campaign's place in the distributed trace: a child of the
        # client's span when one arrived, else a fresh root (when the
        # daemon traces at all — otherwise carry only what came in).
        if parent is not None:
            campaign.trace = parent.child()
        elif self.tracer.enabled:
            campaign.trace = telemetry.TraceContext.new()
        campaign.submitted_us = self._now_us()
        self.campaigns[campaign.id] = campaign
        self._active += 1
        self._m_submitted.inc()
        self._m_jobs.inc(len(jobs))
        self._m_cached.inc(len(cached))
        self._m_deduped.inc(len(inflight))
        if self.tracer.enabled and campaign.trace is not None:
            self.tracer.instant(
                "daemon.campaign.submitted", "daemon", campaign.submitted_us,
                id=campaign.id, client=client, jobs=len(jobs),
                trace_id=campaign.trace.trace_id,
                span_id=campaign.trace.span_id,
                parent_id=campaign.trace.parent_id,
            )
        # subscribe, queue and answer hits before the first await, so no
        # run can finish between the in-flight check above and its
        # subscription; no stream can follow the campaign before the POST
        # answers, so its opening events are appended in one batch
        for job in inflight:
            run = self._runs[job.job_id]
            run.subscribers.append((campaign, job))
            if run.started_us is not None:
                campaign.transition(job.job_id, "running")
        for job in fresh:
            if campaign.trace is not None:
                # attached after dedupe/peek (trace is compare=False, so
                # identity, cache key and queue membership are unchanged)
                job = dataclasses.replace(job, trace=campaign.trace.child())
            run = _SharedRun(job)
            run.enqueued_us = self._now_us()
            run.subscribers.append((campaign, job))
            self._runs[job.job_id] = run
            queue = self._queues.get(client)
            if queue is None:
                queue = self._queues[client] = deque()
                self._rr.append(client)
            queue.append(job)
        self._publish_gauges()
        if fresh:
            self._wakeup.set()
        events: List[Dict[str, object]] = [
            {
                "event": "campaign",
                "id": campaign.id,
                "client": client,
                "jobs": len(jobs),
                "cached": len(cached),
                "deduped": len(inflight),
                "queued": len(fresh),
            }
        ]
        for job in jobs:
            if job.job_id in cached:
                events += self._finish_job(
                    campaign, job, "cache",
                    payload=self._payload_for(job, cached[job.job_id]),
                )
        await campaign.emit(*events)
        await self._maybe_finalize(campaign)
        return campaign, {
            "cached": len(cached),
            "deduped": len(inflight),
            "queued": len(fresh),
        }

    # -- scheduling ----------------------------------------------------------

    def _publish_gauges(self) -> None:
        self._g_queue.set(sum(len(q) for q in self._queues.values()))
        self._g_inflight.set(len(self._runs))
        self._g_active.set(self._active)
        # per-client depth (fairness visibility in GET /metrics); client
        # names are label values, so escaping is the registry's problem
        for client, queue in self._queues.items():
            self.registry.gauge(
                "service.queue.depth", client=client
            ).set(len(queue))

    def _next_job(self) -> Optional[Job]:
        """Round-robin over clients with pending work (fairness)."""
        for _ in range(len(self._rr)):
            client = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(client)
            if queue:
                return queue.popleft()
        return None

    async def _dispatch(self) -> None:
        """Hand the supervisor one job per free worker slot, fairly."""
        while not self._draining:
            job = self._next_job()
            if job is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._slots.acquire()
            if self._draining:
                self._slots.release()
                break
            self._publish_gauges()
            self._begin_run(job)
            self._supervisor.submit(job, job)

    def _begin_run(self, job: Job) -> None:
        """Mark a dequeued job running in every campaign subscribed to it."""
        run = self._runs.get(job.job_id)
        if run is None:
            return
        run.started_us = self._now_us()
        for campaign, sub_job in run.subscribers:
            campaign.transition(sub_job.job_id, "running")
        if (
            self.tracer.enabled and job.trace is not None
            and run.enqueued_us is not None
        ):
            # queue-wait span: a sibling of the job's own run span
            self.tracer.span(
                "daemon.queue", "daemon", run.enqueued_us,
                max(1, run.started_us - run.enqueued_us),
                job=job.describe(), job_id=job.job_id,
                trace_id=job.trace.trace_id,
                span_id=f"{job.trace.span_id}.q",
                parent_id=job.trace.parent_id,
            )

    def _on_outcome(
        self, job: Job, result: Optional[SimResult], error: Optional[str],
        attempts: int,
    ) -> None:
        """A job's final outcome, back on the event-loop thread: free its
        worker slot, then deliver it to every subscribed campaign."""
        if attempts > 1:
            self._m_retried.inc(attempts - 1)
        self._slots.release()
        task = asyncio.get_running_loop().create_task(
            self._finalize_run(job, result, error)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _finalize_run(
        self, job: Job, result: Optional[SimResult], error: Optional[str]
    ) -> None:
        """Seed every cache layer, then deliver to all subscribed campaigns.

        The cache seeding and the removal from the in-flight table happen
        back-to-back with no ``await`` in between: on a single-threaded
        loop that makes "simulated exactly once" an invariant — any
        submission arriving later sees either the in-flight run or the
        seeded cache, never neither.
        """
        run = self._runs.pop(job.job_id, None)
        payload: Optional[Dict[str, object]] = None
        wall_ms: Optional[float] = None
        if self.tracer.enabled and job.trace is not None and run is not None:
            started = run.started_us if run.started_us is not None else self._now_us()
            self.tracer.span(
                "daemon.run", "daemon", started,
                max(1, self._now_us() - started),
                job=job.describe(), job_id=job.job_id, error=error,
                trace_id=job.trace.trace_id,
                span_id=job.trace.span_id,
                parent_id=job.trace.parent_id,
            )
        if result is not None and error is None:
            job.seed(result)
            payload = self._payload_for(job, result)
            self.store.put(json.dumps(job.cache_key), payload)
            self._m_executed.inc()
            manifest = payload.get("manifest") or {}
            elapsed = manifest.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                wall_ms = max(0.0, float(elapsed) * 1000.0)
                self._h_wall.record(int(wall_ms))
        else:
            self._m_failed.inc()
        self._publish_gauges()
        if run is None:
            return
        for position, (campaign, sub_job) in enumerate(run.subscribers):
            source = "run" if position == 0 else "dedup"
            await campaign.emit(
                *self._finish_job(
                    campaign, sub_job, source,
                    payload=payload, error=error, wall_ms=wall_ms,
                )
            )
            await self._maybe_finalize(campaign)

    def _finish_job(
        self,
        campaign: CampaignState,
        job: Job,
        source: str,
        *,
        payload: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
        wall_ms: Optional[float] = None,
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Finish one job of one campaign; its ``job`` and ``progress``
        events, for the caller to emit."""
        state = campaign.transition(
            job.job_id, "failed" if error is not None else "done", source
        )
        state.error = error
        state.wall_ms = wall_ms
        if payload is not None:
            campaign.results[job.job_id] = payload
        campaign.record_wall_ms(wall_ms)
        return (
            {
                "event": "job",
                "job_id": job.job_id,
                "label": job.describe(),
                "status": state.status,
                "source": source,
                "wall_ms": wall_ms,
                "error": error,
            },
            {"event": "progress", **campaign.snapshot().to_dict()},
        )

    def _end_campaign(self, campaign: CampaignState, status: str) -> None:
        """End a running campaign, keeping the active-campaign count."""
        if campaign.status == "running":
            self._active -= 1
        campaign.status = status

    async def _maybe_finalize(self, campaign: CampaignState) -> None:
        if campaign.status != "running" or not campaign.finished:
            return
        self._end_campaign(
            campaign, "failed" if campaign.failed else "completed"
        )
        if campaign.failed:
            self.registry.counter("service.campaigns.failed").inc()
        else:
            self._m_completed.inc()
        if (
            self.tracer.enabled and campaign.trace is not None
            and campaign.submitted_us is not None
        ):
            self.tracer.span(
                "daemon.campaign", "daemon", campaign.submitted_us,
                max(1, self._now_us() - campaign.submitted_us),
                id=campaign.id, client=campaign.client,
                status=campaign.status,
                trace_id=campaign.trace.trace_id,
                span_id=campaign.trace.span_id,
                parent_id=campaign.trace.parent_id,
            )
        self._publish_gauges()
        snapshot = campaign.snapshot()
        await campaign.emit(
            {
                "event": "done",
                "id": campaign.id,
                "status": campaign.status,
                "done": campaign.done,
                "failed": campaign.failed,
                "cached": campaign.cached,
                "total": len(campaign.jobs),
                "elapsed_s": snapshot.elapsed_s,
            }
        )
        # one final notify so streams blocked on a finished campaign exit
        async with campaign._event_cond:
            campaign._event_cond.notify_all()

    # -- HTTP front end ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(
                    json_response(exc.status, {"error": exc.message})
                )
                await writer.drain()
                return
            if request is None:
                return
            self._m_requests.inc()
            try:
                await self._route(request, writer)
            except HttpError as exc:
                headers = (
                    {"Retry-After": str(self._retry_after())}
                    if exc.status == 429
                    else None
                )
                writer.write(
                    json_response(
                        exc.status, {"error": exc.message},
                        extra_headers=headers,
                    )
                )
                await writer.drain()
            except Exception as exc:  # noqa: BLE001 - keep the daemon alive
                self.registry.counter("service.http.errors").inc()
                writer.write(
                    json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            writer.write(json_response(200, self.healthz()))
        elif method == "GET" and path == "/metrics":
            # content negotiation: the pre-existing JSON payload stays the
            # default (ServiceClient sends no Accept header); curl's */*
            # and any text/plain / OpenMetrics ask get the exposition text
            if telemetry.wants_prometheus(request.headers.get("accept", "")):
                writer.write(
                    text_response(
                        200, telemetry.render_prometheus(self.registry),
                        content_type="text/plain; version=0.0.4; charset=utf-8",
                    )
                )
            else:
                writer.write(json_response(200, self.registry.to_dict()))
        elif method == "GET" and path == "/slo":
            writer.write(json_response(200, self._slo_payload()))
        elif method == "POST" and path == "/campaigns":
            await self._handle_submit(request, writer)
        elif method == "POST" and path == "/drain":
            asyncio.get_running_loop().create_task(self.drain("api"))
            writer.write(
                json_response(
                    202,
                    {
                        "status": "draining",
                        "checkpoint": str(self.config.checkpoint),
                    },
                )
            )
        elif method == "GET" and path == "/campaigns":
            writer.write(
                json_response(
                    200,
                    {
                        "campaigns": [
                            c.describe() for c in self.campaigns.values()
                        ]
                    },
                )
            )
        elif path.startswith("/campaigns/"):
            await self._handle_campaign_path(request, writer)
        else:
            raise HttpError(404, f"no route for {method} {path}")
        await writer.drain()

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            raise HttpError(503, "service is draining; resubmit after restart")
        started = time.monotonic()
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "submission must be a JSON object")
        client = str(payload.get("client") or "anon")
        jobs = self._plan_submission(payload)
        if not jobs:
            raise HttpError(400, "submission plans no jobs")
        campaign, breakdown = await self._register_campaign(
            jobs, client=client,
            experiments=[str(k) for k in payload.get("experiments") or []],
            parent=telemetry.TraceContext.from_headers(request.headers),
        )
        wall_us = int((time.monotonic() - started) * 1e6)
        # warm = every job answered at submission time (cache/dedupe);
        # cold = the pool got involved.  The warm p99 is an SLO input.
        if breakdown["queued"] == 0:
            self._h_submit_warm.record(wall_us)
        else:
            self._h_submit_cold.record(wall_us)
        writer.write(
            json_response(
                202,
                {
                    "id": campaign.id,
                    "status": campaign.status,
                    "jobs": len(campaign.jobs),
                    "trace_id": (
                        campaign.trace.trace_id if campaign.trace else None
                    ),
                    **breakdown,
                },
            )
        )

    def _plan_submission(self, payload: Dict[str, object]) -> List[Job]:
        """Expand a submission body into a deduped job list (400 on junk)."""
        from repro.exec.planner import build_plan
        from repro.harness.experiments import EXPERIMENTS
        from repro.harness.runner import DEFAULT_ACCESSES

        raw_accesses = payload.get("accesses")
        try:
            accesses = (
                DEFAULT_ACCESSES if raw_accesses is None else int(raw_accesses)
            )
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed accesses: {exc}")
        if accesses < 1:
            raise HttpError(400, f"accesses must be >= 1, got {accesses}")
        defaults = {
            "accesses": accesses,
            "seed": payload.get("seed", SimulationParams().seed),
            "fault_rate": payload.get("fault_rate", 0.0),
            "ecc": payload.get("ecc", "secded"),
        }
        raw_reps = payload.get("repetitions")
        try:
            repetitions = 1 if raw_reps is None else int(raw_reps)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"malformed repetitions: {exc}")
        if repetitions < 1:
            raise HttpError(400, f"repetitions must be >= 1, got {repetitions}")
        jobs: List[Job] = []
        keys = payload.get("experiments") or []
        if keys:
            if not isinstance(keys, list):
                raise HttpError(400, "'experiments' must be a list of keys")
            unknown = [k for k in keys if k not in EXPERIMENTS]
            if unknown:
                raise HttpError(
                    400, f"unknown experiment(s): {', '.join(map(str, unknown))}"
                )
            try:
                params = SimulationParams(
                    accesses_per_core=accesses,
                    seed=int(defaults["seed"]),
                    fault_rate=float(defaults["fault_rate"]),
                    ecc=str(defaults["ecc"]),
                )
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"malformed parameters: {exc}")
            jobs.extend(
                build_plan([str(k) for k in keys], params, repetitions).jobs
            )
        raw = payload.get("jobs") or []
        if raw:
            if not isinstance(raw, list):
                raise HttpError(400, "'jobs' must be a list of job specs")
            for spec in raw:
                if not isinstance(spec, dict):
                    raise HttpError(400, "each job spec must be an object")
                merged = {**defaults, **spec}
                try:
                    jobs.append(job_from_spec(merged))
                except ValueError as exc:
                    raise HttpError(400, str(exc))
        return list(dict.fromkeys(jobs))

    async def _handle_campaign_path(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        campaign = self.campaigns.get(parts[1] if len(parts) > 1 else "")
        if campaign is None:
            raise HttpError(404, f"unknown campaign {parts[1] if len(parts) > 1 else ''!r}")
        if request.method != "GET":
            raise HttpError(405, "campaign resources are read-only")
        tail = parts[2] if len(parts) > 2 else ""
        if tail == "":
            writer.write(json_response(200, campaign.describe()))
        elif tail == "results":
            writer.write(
                json_response(
                    200,
                    {
                        "id": campaign.id,
                        "status": campaign.status,
                        "results": {
                            job.job_id: campaign.results.get(job.job_id)
                            for job in campaign.jobs
                        },
                        "errors": {
                            jid: state.error
                            for jid, state in campaign.states.items()
                            if state.error
                        },
                    },
                )
            )
        elif tail == "events":
            await self._stream_events(campaign, writer)
        elif tail == "run_table":
            writer.write(
                text_response(
                    200,
                    self._run_table_csv(campaign),
                    content_type="text/csv; charset=utf-8",
                )
            )
        else:
            raise HttpError(404, f"no campaign resource {tail!r}")

    def _run_table_csv(self, campaign: CampaignState) -> str:
        """The campaign's per-(workload, design, rep) CSV, from the cache.

        Every finished job's result lives in the shared result cache, so
        rows are rebuilt by peeking it — a job not finished (or whose
        shard was lost) simply has no row yet, which the lint layer's
        repetition-coverage check surfaces downstream.
        """
        from repro.analysis.runtable import run_table_csv
        from repro.exec.scheduler import JobOutcome

        outcomes = []
        for job in campaign.jobs:
            result = job.peek()
            if result is None:
                continue
            state = campaign.states.get(job.job_id)
            source = "cache" if state and state.source == "cache" else "run"
            outcomes.append(JobOutcome(job, result, source=source))
        return run_table_csv(outcomes)

    async def _stream_events(
        self, campaign: CampaignState, writer: asyncio.StreamWriter
    ) -> None:
        """Replay the event log from the start, then follow it live."""
        stream = ChunkedNdjsonWriter(writer)
        await stream.send_head()
        index = 0
        while True:
            if index < len(campaign.events):
                await stream.send(campaign.events[index])
                index += 1
                continue
            if not await campaign.wait_for_event(index):
                break
        await stream.close()

    # -- introspection -------------------------------------------------------

    def _slo_payload(self) -> Dict[str, object]:
        """Every SLO judged against the live registry."""
        statuses = slo_mod.evaluate(self.slos, self.registry.to_dict())
        return {
            "ok": slo_mod.healthy(statuses),
            "results": [status.to_dict() for status in statuses],
        }

    def healthz(self) -> Dict[str, object]:
        by_status: Dict[str, int] = {}
        for campaign in self.campaigns.values():
            by_status[campaign.status] = by_status.get(campaign.status, 0) + 1
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.monotonic() - self._started,
            "workers": self.workers,
            "queue_depth": sum(len(q) for q in self._queues.values()),
            "inflight": len(self._runs),
            "max_queue": self.config.max_queue,
            "clients": {
                client: len(queue)
                for client, queue in sorted(self._queues.items())
            },
            "campaigns": by_status,
            "cache": runner_mod.cache_stats(),
            "content_store": self.store.stats(),
            "slo": self._slo_payload(),
        }


class _SharedRun:
    """One in-flight execution shared by every campaign that needs it."""

    __slots__ = ("job", "subscribers", "enqueued_us", "started_us")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.subscribers: List[Tuple[CampaignState, Job]] = []
        # daemon-trace timestamps (µs since daemon start) for the
        # queue-wait and execution spans; None until reached
        self.enqueued_us: Optional[int] = None
        self.started_us: Optional[int] = None


async def run_service(config: ServiceConfig, *, ready=None) -> int:
    """Start the daemon, announce the bound address, serve until drained.

    ``ready`` (if given) is called with the service once it is listening —
    the smoke script and tests use it to learn an ephemeral port.  SIGTERM
    and SIGINT trigger a graceful drain when the loop allows handler
    installation (i.e. in a real ``cli serve`` process).  Returns 0, or
    1 when the drain was forced by a failed supervisor.
    """
    service = SimService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum,
                lambda: loop.create_task(service.drain("signal")),
            )
        except (NotImplementedError, RuntimeError, ValueError):
            break  # not the main thread / unsupported platform
    print(
        f"service: listening on http://{service.config.host}:{service.port} "
        f"({service.workers} worker(s), queue bound {service.config.max_queue})",
        file=sys.stderr,
        flush=True,
    )
    if ready is not None:
        ready(service)
    await service.serve_forever()
    if service.failure is not None:
        print(f"service: supervisor failed: {service.failure}", file=sys.stderr)
    print(
        f"service: drained — {len(service.campaigns)} campaign(s) served",
        file=sys.stderr,
        flush=True,
    )
    return 0 if service.failure is None else 1
