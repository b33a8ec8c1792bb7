"""Supervised execution: the one loop that runs a job attempt.

Every simulation job — from ``cli`` and ``cli all`` (through
:func:`repro.exec.run_jobs`), ``cli chaos`` and the campaign daemon —
runs through a :class:`Supervisor`: one process pool that lives as long
as its caller, takes jobs from a feed, keeps at most ``workers`` of them
in flight, and converts every way a worker can fail into a bounded,
observable incident:

* **watchdog deadlines** — workers append a start marker (ticket, attempt,
  PID) to a private ledger the moment they pick a job up; the supervisor
  reads it and terminates the pool when a job overstays ``deadline``
  seconds;
* **crash recovery** — a broken pool is rebuilt and its in-flight jobs
  requeued; the attempt is charged only to the job whose worker died on
  its own (exit-code attribution), never to the co-flight innocents the
  pool's cleanup terminated;
* **poison-job quarantine** — a job whose attempts keep dying is
  quarantined after ``max_attempts``: the campaign drains and the
  outcome names it, instead of the whole run aborting;
* **payload validation** — results are sanity-checked (finite cycles,
  rates in [0, 1]) in the worker *and* the parent; a corrupt payload is
  invalidated from the cache and the job requeued;
* **graceful shutdown** — a tripped :class:`ShutdownFlag` stops new
  submissions and gives running jobs a grace window to finish (each
  persists its own cache shard); whatever is still running then is
  terminated, so no worker outlives the shutdown and the campaign stays
  resumable bit-identically;
* **trace-once dispatch** — each worker's jobs draw on its process
  :class:`~repro.sim.linestore.LineStore`, and a worker freed by a job of
  one workload takes the oldest queued job of that workload, so the
  designs replaying one trace share its line contents and compressed
  sizes.

An attempt that *raises* fails its job at once: a simulation is a
deterministic function of its cache key, so running it again would only
raise again.

Every incident emits a ``<scope>.supervisor.*`` metric on the caller's
registry and, when the caller's tracer is enabled, a ``supervisor.*``
event.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Deque, Dict, List, Optional, Sequence

from repro import obs
from repro.chaos import ledger as ledger_mod
from repro.chaos import controller as chaos_controller
from repro.chaos.policy import ChaosPolicy
from repro.exec.job import Job
from repro.obs import telemetry
from repro.sim.metrics import SimResult


class CorruptResultError(Exception):
    """A job's result payload failed validation (and was invalidated)."""


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for pool supervision.

    ``deadline`` is the per-job wall-clock budget the watchdog enforces
    (None disables it).  ``max_attempts`` counts *started* submissions of
    one job before it is quarantined.  ``max_pool_rebuilds`` bounds the
    crash/hang rebuilds in a row that no finished job separates: past
    it, every queued job fails and the count starts over.  ``grace`` is
    how long a graceful shutdown waits for in-flight jobs before
    terminating them.
    """

    deadline: Optional[float] = None
    max_attempts: int = 3
    max_pool_rebuilds: int = 20
    tick: float = 0.25
    grace: float = 10.0


DEFAULT_SUPERVISOR = SupervisorPolicy()


@dataclass
class SupervisionReport:
    """What a :class:`Supervisor` saw and did over its lifetime (for
    ``run_jobs``, one campaign).  ``quarantined`` names the jobs
    ``run_jobs`` saw quarantined; a long-lived supervisor only counts
    them, as ``<scope>.supervisor.quarantined``."""

    pool_rebuilds: int = 0
    crash_incidents: int = 0
    watchdog_kills: int = 0
    requeues: int = 0
    corrupt_results: int = 0
    quarantined: List[str] = field(default_factory=list)
    interrupted: bool = False
    chaos_injected: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        bits = []
        if self.crash_incidents:
            bits.append(f"{self.crash_incidents} crash(es)")
        if self.watchdog_kills:
            bits.append(f"{self.watchdog_kills} watchdog kill(s)")
        if self.corrupt_results:
            bits.append(f"{self.corrupt_results} corrupt result(s)")
        if self.pool_rebuilds:
            bits.append(f"{self.pool_rebuilds} pool rebuild(s)")
        if self.requeues:
            bits.append(f"{self.requeues} requeue(s)")
        if self.quarantined:
            bits.append(f"{len(self.quarantined)} quarantined")
        if self.interrupted:
            bits.append("interrupted")
        return ", ".join(bits) if bits else "no incidents"


# ---------------------------------------------------------------------------
# graceful shutdown


class ShutdownFlag:
    """Latched by the signal handler, polled by the supervisor loop."""

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self.count = 0

    def trip(self, signum: int) -> None:
        self.signum = signum
        self.count += 1

    @property
    def requested(self) -> bool:
        return self.signum is not None


@contextmanager
def graceful_signals(
    flag: ShutdownFlag,
    signums: Sequence[int] = (signal.SIGINT, signal.SIGTERM),
):
    """Route SIGINT/SIGTERM into ``flag`` for the duration of a campaign.

    The first signal requests a graceful stop (drain in-flight jobs,
    checkpoint, exit); a second one falls back to ``KeyboardInterrupt``
    for users who really mean *now*.  Outside the main thread (where
    signal handlers cannot be installed) this degrades to a no-op.
    """

    def _handler(signum, _frame):
        flag.trip(signum)
        if flag.count >= 2:
            raise KeyboardInterrupt

    previous = {}
    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, _handler)
    except ValueError:  # not the main thread
        previous = {}
    try:
        yield flag
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


# ---------------------------------------------------------------------------
# result validation


def validate_result(result) -> Optional[str]:
    """Why ``result`` is not a sane :class:`SimResult`, or None if it is.

    This is the detection side of the ``exec.corrupt`` failure class:
    cheap structural invariants every real simulation satisfies, strict
    enough to catch garbled payloads (chaos-injected or otherwise)
    before they poison a table or the result cache.
    """
    if not isinstance(result, SimResult):
        return f"payload is {type(result).__name__}, not SimResult"
    for name in ("cycles", "energy_nj"):
        value = getattr(result, name)
        if (
            not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            return f"{name}={value!r} is not a finite non-negative number"
    if result.cycles <= 0:
        return f"cycles={result.cycles!r} is not positive"
    if not isinstance(result.instructions, int) or result.instructions < 0:
        return f"instructions={result.instructions!r} is negative"
    for name in ("l3_hit_rate", "l4_hit_rate"):
        rate = getattr(result, name)
        if (
            not isinstance(rate, (int, float))
            or not math.isfinite(rate)
            or not 0.0 <= rate <= 1.0
        ):
            return f"{name}={rate!r} is outside [0, 1]"
    ipcs = result.per_core_ipc
    if not isinstance(ipcs, (list, tuple)) or not ipcs:
        return f"per_core_ipc={ipcs!r} is not a non-empty list"
    for ipc in ipcs:
        if (
            not isinstance(ipc, (int, float))
            or not math.isfinite(ipc)
            or ipc < 0
        ):
            return f"per_core_ipc contains {ipc!r}"
    return None


# ---------------------------------------------------------------------------
# worker-side entry points (top level: picklable under spawn)

def _worker_init(
    chaos_policy: Optional[ChaosPolicy], run_offset: Optional[int]
) -> None:
    """Set a worker up: its signals, chaos seams (if any) and, in a
    one-worker pool, trace/profile file names the way an in-process run
    had them."""
    # Shutdown is the parent's call.  A fork inherits the parent's Python
    # handlers (graceful_signals, the daemon's event loop), which would
    # make SIGTERM a no-op here and leave the supervisor unable to
    # terminate a hung or drained worker; and a terminal's Ctrl-C, sent
    # to the whole process group, must reach only the parent's drain.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if chaos_policy is not None:
        chaos_controller.configure(chaos_policy)
        chaos_controller.install_executor_chaos()
    if run_offset is not None:
        obs.name_runs_as_parent(run_offset)


def _supervised_execute(
    job: Job, ticket: int, attempt: int, marker_path: str
) -> SimResult:
    """Run one job attempt under supervision bookkeeping.

    The start marker is what gives the parent watchdog a job-accurate
    clock (queue time excluded) and gives crash attribution its ground
    truth: whatever started and never finished was in the blast radius.
    """
    ledger_mod.append_jsonl(
        marker_path,
        {"ticket": ticket, "attempt": attempt, "pid": os.getpid()},
    )
    with chaos_controller.job_site(job.job_id, attempt):
        # restore the job's distributed-trace coordinates as this
        # worker's ambient context (no-op for an untraced job)
        with telemetry.activate(job.trace):
            result = job.execute()
    problem = validate_result(result)
    if problem is not None:
        # The poisoned value reached the cache inside job.execute();
        # scrub it here, where we still know it is poisoned.
        job.invalidate()
        raise CorruptResultError(f"corrupt result: {problem}")
    return result


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _terminate_pool(pool: ProcessPoolExecutor) -> Dict[int, Optional[int]]:
    """Forcibly stop a pool whose workers cannot be trusted to return.

    Returns ``{pid: exitcode}`` for the pool's workers.  Exit codes are
    the crash-attribution evidence: a worker that died *on its own*
    (segfault, ``os._exit``, OOM kill) keeps its own exit code, while
    innocents terminated here (or by the pool's own broken-state cleanup)
    show ``-SIGTERM`` — so the supervisor can penalize only the job whose
    worker actually crashed.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # noqa: BLE001 - already-dead processes etc.
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        # The pool's manager thread reaps the dead workers itself; let it
        # finish first, or our join races its waitpid and one of the two
        # reads no exit code (losing the crash culprit).
        manager.join(2.0)
    exit_codes: Dict[int, Optional[int]] = {}
    for process in processes:
        try:
            process.join(2.0)
            exit_codes[process.pid] = process.exitcode
        except Exception:  # noqa: BLE001
            pass
    return exit_codes


def _died_on_its_own(code: Optional[int]) -> bool:
    """Whether a worker exit code indicates a self-inflicted death (the
    crash culprit) rather than a clean exit or a supervisor SIGTERM."""
    return code is not None and code not in (0, -signal.SIGTERM)


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__


# ---------------------------------------------------------------------------
# the supervisor


@dataclass(eq=False)
class _Ticket:
    """One fed job and its attempt bookkeeping."""

    key: object
    job: Job
    seq: int
    attempts: int = 0  # attempts charged so far (the one in flight included)
    started: int = 0  # the attempt its latest start marker names
    started_at: float = 0.0
    pid: int = 0
    reason: str = "unknown"  # why its last charged attempt failed


class Supervisor:
    """One supervised worker pool, fed jobs for as long as its caller lives.

    Callers :meth:`submit` jobs (from any thread) and drive :meth:`run`
    on one thread; ``run`` reports each job's final outcome exactly once
    through its callback, as ``on_outcome(key, result, error, source,
    attempts)`` with ``source`` one of ``"run"``, ``"failed"`` or
    ``"quarantined"``.  ``run`` returns once :meth:`close` was called and
    every fed job has an outcome, or when ``shutdown`` trips (after the
    grace window); jobs without an outcome then simply never ran to the
    end, and their cache entries were never written.  With nothing in
    flight it sleeps until fed or closed, so a caller that trips
    ``shutdown`` while the feed is open also calls :meth:`close` (the
    daemon's drain does both).

    The pool is built on the first job and rebuilt only after a crash or
    a watchdog kill.  Metrics are ``<scope>.supervisor.*`` counters on
    ``registry``; trace events are stamped by ``now_us`` (default:
    microseconds since construction).
    """

    def __init__(
        self,
        workers: int,
        *,
        registry,
        tracer=obs.NULL_TRACER,
        scope: str = "exec",
        policy: SupervisorPolicy = DEFAULT_SUPERVISOR,
        chaos: Optional[ChaosPolicy] = None,
        shutdown: Optional[ShutdownFlag] = None,
        now_us: Optional[Callable[[], int]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.policy = policy
        self.chaos = chaos
        self.shutdown = shutdown if shutdown is not None else ShutdownFlag()
        self.report = SupervisionReport()
        self._tracer = tracer
        started = time.monotonic()
        self._now_us = now_us or (
            lambda: int((time.monotonic() - started) * 1e6)
        )
        prefix = f"{scope}.supervisor."
        self._c_rebuilds = registry.counter(prefix + "pool_rebuilds")
        self._c_watchdog = registry.counter(prefix + "watchdog_kills")
        self._c_requeue = registry.counter(prefix + "requeues")
        self._c_quarantined = registry.counter(prefix + "quarantined")
        self._c_corrupt = registry.counter(prefix + "corrupt_results")
        # the feed: written by submit/close on any thread, drained by run
        self._lock = threading.Lock()
        self._fed: Deque[_Ticket] = deque()
        self._closed = False
        self._doorbell: Future = Future()
        self._seq = itertools.count()
        # run's own state (the run thread only)
        self._queue: Deque[_Ticket] = deque()
        self._futures: Dict[Future, _Ticket] = {}
        self._tickets: Dict[int, _Ticket] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._launched = 0
        self._stalled = 0  # pool rebuilds since a job last ran to the end
        self._markers = ""
        self._marker_offset = 0
        self._on_outcome: Callable = lambda *_args: None

    @property
    def in_flight(self) -> int:
        """Jobs handed to the pool and not yet settled (the run thread)."""
        return len(self._futures)

    # -- the feed (any thread) -----------------------------------------------

    def submit(self, key, job: Job) -> None:
        """Feed one job; its outcome reaches ``run``'s callback under ``key``."""
        with self._lock:
            self._fed.append(_Ticket(key, job, next(self._seq)))
            self._ring()

    def close(self) -> None:
        """No more jobs: ``run`` returns once the fed ones have outcomes."""
        with self._lock:
            self._closed = True
            self._ring()

    def _ring(self) -> None:
        # Wakes run's wait() at once, so a job fed while it sleeps starts
        # now rather than at the next tick (callers hold the lock).
        if not self._doorbell.done():
            self._doorbell.set_result(None)

    # -- the loop (one thread) -----------------------------------------------

    def run(self, on_outcome: Callable) -> SupervisionReport:
        """Supervise fed jobs until closed and finished, or shut down."""
        self._on_outcome = on_outcome
        marker_dir = tempfile.mkdtemp(prefix=".exec_supervise.")
        self._markers = os.path.join(marker_dir, "started.jsonl")
        try:
            self._loop()
        finally:
            if self._pool is not None:
                if self._futures:
                    # shutdown grace expired (or the caller raised): the
                    # workers still running must not outlive this call
                    _terminate_pool(self._pool)
                else:
                    self._pool.shutdown(wait=True)
                self._pool = None
            self._futures.clear()
            shutil.rmtree(marker_dir, ignore_errors=True)
        return self.report

    def _loop(self) -> None:
        grace_ends: Optional[float] = None
        while True:
            closed = self._take_fed()
            if self.shutdown.requested:
                if grace_ends is None:
                    grace_ends = self._begin_grace()
                if not self._futures or time.monotonic() > grace_ends:
                    return
            elif not self._futures and not self._queue:
                if closed:
                    return
                # idle: no tick, so the daemon's thread sleeps between jobs
                wait([self._doorbell])
                continue
            self._fill()
            self._step()

    def _take_fed(self) -> bool:
        """Move fed jobs onto the run queue; whether the feed is closed."""
        with self._lock:
            if self._doorbell.done():
                self._doorbell = Future()
            fed = list(self._fed)
            self._fed.clear()
            closed = self._closed
        for ticket in fed:
            self._tickets[ticket.seq] = ticket
        self._queue.extend(fed)
        return closed

    def _fill(self, freed: Sequence[str] = ()) -> None:
        """Hand queued jobs to the pool until ``workers`` are in flight;
        ``freed`` names the workloads of the jobs that just finished, one
        per freed worker (see :meth:`_take` for who goes next)."""
        if self.shutdown.requested:
            return
        if self._stalled > self.policy.max_pool_rebuilds:
            self._fail_queued()
            return
        freed = list(freed)
        while self._queue and len(self._futures) < self.workers:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_mp_context(),
                    initializer=_worker_init,
                    # a sole worker continues the parent's run numbering
                    # past every attempt earlier pools may have started
                    initargs=(
                        self.chaos,
                        self._launched if self.workers == 1 else None,
                    ),
                )
            ticket = self._take(freed.pop(0) if freed else None)
            ticket.attempts += 1
            # an uncharged requeue resubmits the same attempt number: its
            # previous incarnation's start must not reach the watchdog
            ticket.started = 0
            try:
                future = self._pool.submit(
                    _supervised_execute, ticket.job, ticket.seq,
                    ticket.attempts, self._markers,
                )
            except (BrokenProcessPool, RuntimeError, OSError):
                # the pool died under us (an idle worker was killed) or
                # could not start a worker (fork failed): rebuild it
                ticket.attempts -= 1
                self._queue.appendleft(ticket)
                self._rebuild([], crashed=True)
                return
            self._launched += 1
            self._futures[future] = ticket

    def _take(self, freed: Optional[str]) -> _Ticket:
        """Dequeue the job a free worker runs next.

        A worker freed by a job of workload ``freed`` takes the oldest
        queued job of that workload, so the designs replaying one
        workload land on the worker whose store already holds it.
        Failing that (or for a slot no finished job freed), it takes the
        oldest job of a workload no worker is running, and failing that
        the oldest job.  Each workload's jobs stay in queue order.
        """
        queue = self._queue
        pick = None
        if freed is not None:
            pick = next((t for t in queue if t.job.workload == freed), None)
        if pick is None:
            running = {t.job.workload for t in self._futures.values()}
            pick = next(
                (t for t in queue if t.job.workload not in running), None
            )
        if pick is None:
            return queue.popleft()
        queue.remove(pick)
        return pick

    def _step(self) -> None:
        """Wait up to one tick for a completion or a fed job, then settle
        what finished and enforce the deadline."""
        done, _ = wait(
            [*self._futures, self._doorbell],
            timeout=self.policy.tick,
            return_when=FIRST_COMPLETED,
        )
        finished = [
            (future, self._futures.pop(future))
            for future in done
            if future in self._futures  # not the doorbell
        ]
        if not any(
            isinstance(future.exception(), BrokenProcessPool)
            for future, _ in finished
        ):
            # hand the freed workers their next jobs before the
            # bookkeeping below, so they do not idle through it
            self._fill([ticket.job.workload for _future, ticket in finished])
        now = time.monotonic()
        self._read_markers(now)
        broken: List[_Ticket] = []
        for future, ticket in finished:
            try:
                result = future.result()
            except BrokenProcessPool:
                broken.append(ticket)
            except CorruptResultError as exc:
                self._corrupt(ticket, str(exc))
            except Exception as exc:  # noqa: BLE001 - a raise fails its job
                self._finish(ticket, None, _describe_error(exc), "failed")
            else:
                problem = validate_result(result)
                if problem is None:
                    self._finish(ticket, result, None, "run")
                else:
                    # Parent-side belt and braces: a worker whose own
                    # validation was corrupted still cannot poison the
                    # campaign.
                    ticket.job.invalidate()
                    self._corrupt(ticket, f"corrupt result: {problem}")
        if broken:
            self._rebuild(broken, crashed=True)
        elif self.policy.deadline is not None:
            hung = {
                ticket
                for ticket in self._futures.values()
                if ticket.started == ticket.attempts
                and now - ticket.started_at > self.policy.deadline
            }
            if hung:
                self._rebuild([], hung=hung)

    def _read_markers(self, now: float) -> None:
        self._marker_offset, markers = ledger_mod.read_jsonl(
            self._markers, self._marker_offset
        )
        for marker in markers:
            ticket = self._tickets.get(marker.get("ticket"))
            if ticket is not None:
                ticket.started = int(marker.get("attempt", 0))
                ticket.started_at = now
                ticket.pid = int(marker.get("pid", 0))

    def _rebuild(
        self,
        broken: List[_Ticket],
        *,
        crashed: bool = False,
        hung: AbstractSet[_Ticket] = frozenset(),
    ) -> None:
        """Tear the pool down after a crash or a watchdog kill and settle
        every job that was in it; the next :meth:`_fill` builds a new one."""
        exit_codes = _terminate_pool(self._pool)
        self._pool = None
        unfinished = broken + list(self._futures.values())
        self._futures.clear()
        self._stalled += 1
        self.report.pool_rebuilds += 1
        self._c_rebuilds.inc()
        if crashed:
            self.report.crash_incidents += 1
        self._event(
            "supervisor.pool_rebuild",
            reason="watchdog" if hung else "broken_pool",
            unfinished=len(unfinished),
        )
        self._read_markers(time.monotonic())
        for ticket in unfinished:
            started = ticket.started == ticket.attempts
            code = exit_codes.get(ticket.pid)
            if started and ticket in hung:
                self.report.watchdog_kills += 1
                self._c_watchdog.inc()
                self._event(
                    "supervisor.watchdog_kill",
                    job=ticket.job.describe(),
                    deadline=self.policy.deadline,
                )
                self._fail_or_requeue(
                    ticket,
                    f"exceeded the {self.policy.deadline:g}s deadline "
                    f"(watchdog kill)",
                    "hang",
                )
            elif started and _died_on_its_own(code):
                self._fail_or_requeue(
                    ticket, f"worker process crashed (exit code {code})",
                    "crash",
                )
            else:
                # Never started this attempt, or started but its worker was
                # terminated by the cleanup, not by its own death (an
                # innocent co-flight of the incident): requeue, no penalty.
                ticket.attempts -= 1
                self._queue.append(ticket)
                if started:
                    self.report.requeues += 1
                    self._c_requeue.inc()
                    self._event(
                        "supervisor.requeue", job=ticket.job.describe(),
                        attempt=ticket.attempts + 1, reason="collateral",
                    )

    def _corrupt(self, ticket: _Ticket, reason: str) -> None:
        self.report.corrupt_results += 1
        self._c_corrupt.inc()
        self._event(
            "supervisor.corrupt_result",
            job=ticket.job.describe(), attempt=ticket.attempts,
        )
        self._fail_or_requeue(ticket, reason, "corrupt")

    def _fail_or_requeue(self, ticket: _Ticket, reason: str, kind: str) -> None:
        """One attributed failed attempt: retry the job or quarantine it."""
        ticket.reason = reason
        if ticket.attempts < self.policy.max_attempts:
            self._queue.append(ticket)
            self.report.requeues += 1
            self._c_requeue.inc()
            self._event(
                "supervisor.requeue",
                job=ticket.job.describe(), attempt=ticket.attempts,
                reason=kind,
            )
            return
        label = ticket.job.describe()
        self._c_quarantined.inc()
        self._event(
            "supervisor.quarantine",
            job=label, attempts=ticket.attempts, reason=kind,
        )
        self._finish(
            ticket, None,
            f"quarantined after {ticket.attempts} failed attempt(s); "
            f"last failure: {reason}",
            "quarantined",
        )

    def _fail_queued(self) -> None:
        """The rebuild budget is spent: fail every waiting job at once.
        Jobs fed from now on get a fresh budget."""
        self._stalled = 0
        while self._queue:
            ticket = self._queue.popleft()
            self._finish(
                ticket, None,
                f"supervisor: pool rebuild budget "
                f"({self.policy.max_pool_rebuilds}) exhausted; "
                f"last failure: {ticket.reason}",
                "failed",
            )

    def _begin_grace(self) -> float:
        """Shutdown: stop submitting, withdraw what never started, and
        return when the grace window for the running rest ends."""
        self.report.interrupted = bool(self._queue or self._futures)
        for future in list(self._futures):
            if future.cancel():
                self._futures.pop(future).attempts -= 1
        if self.report.interrupted:
            self._event(
                "supervisor.interrupted",
                signum=self.shutdown.signum, draining=len(self._futures),
            )
        return time.monotonic() + self.policy.grace

    def _finish(self, ticket: _Ticket, result, error, source: str) -> None:
        self._tickets.pop(ticket.seq, None)
        if source == "run":
            self._stalled = 0
        self._on_outcome(ticket.key, result, error, source, ticket.attempts)

    def _event(self, name: str, **fields) -> None:
        if self._tracer.enabled:
            self._tracer.instant(name, "exec", self._now_us(), **fields)
