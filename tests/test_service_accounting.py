"""Campaign bookkeeping in the daemon: incremental counts, linear cost.

These drive a bare :class:`SimService` (no HTTP listener, no worker
pool) through its admission, run-start, completion and drain paths with
fake results, so each transition is exercised without simulating:

* after any sequence of transitions, every campaign's incremental
  done / failed / running / cached counts equal a brute-force recount
  over its job states, and the daemon's active-campaign count equals a
  recount over its campaigns;
* completing thousands of cached jobs in one campaign takes time linear
  in the job count.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.harness.runner as runner_mod
from repro.exec.job import make_job
from repro.service import ServiceConfig, SimService
from repro.service.state import CACHED_SOURCES, DONE_STATES
from repro.sim.engine import SimulationParams
from repro.sim.metrics import SimResult

UNIVERSE = 6


def _job(index: int):
    return make_job(
        "mcf", "dice",
        params=SimulationParams(accesses_per_core=100, seed=index),
    )


def _fake_result(job) -> SimResult:
    return SimResult(
        workload=job.workload, config_name=job.config_name,
        cycles=float(job.params.seed + 1), instructions=1,
        per_core_ipc=[1.0], l3_hit_rate=0.0, l4_hit_rate=0.0,
        l4_accesses=0, l4_bytes=0, mem_accesses=0, mem_bytes=0,
        energy_nj=0.0, effective_capacity=0.0,
    )


class _NullStore:
    """Content-store stand-in: every read misses, writes vanish."""

    def get(self, key):
        return None

    def put(self, key, payload):
        return None


def _bare_service(tmp: Path) -> SimService:
    service = SimService(
        ServiceConfig(
            port=0, workers=2, max_queue=10_000, promote=False,
            resume=False, checkpoint=tmp / "ckpt.json",
        )
    )
    service.store = _NullStore()
    service._wakeup = asyncio.Event()
    service._stopped = asyncio.Event()
    return service


@pytest.fixture
def memory_only_cache(monkeypatch):
    """Results live in a private in-memory cache; nothing touches disk."""
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", False)
    monkeypatch.setattr(runner_mod, "_memory_cache", {})


def _recount(campaign):
    statuses = [state.status for state in campaign.states.values()]
    return {
        "done": statuses.count("done"),
        "failed": statuses.count("failed"),
        "running": statuses.count("running"),
        "cached": sum(
            1
            for state in campaign.states.values()
            if state.status == "done" and state.source in CACHED_SOURCES
        ),
        "finished": all(status in DONE_STATES for status in statuses),
    }


def _check_counts(service: SimService) -> None:
    for campaign in service.campaigns.values():
        assert {
            "done": campaign.done,
            "failed": campaign.failed,
            "running": campaign.running,
            "cached": campaign.cached,
            "finished": campaign.finished,
        } == _recount(campaign), campaign.id
        snap = campaign.snapshot()
        assert (snap.done, snap.failed, snap.running, snap.cached) == (
            campaign.done, campaign.failed, campaign.running, campaign.cached
        )
        # `running` means the pool holds the job right now; `pending`
        # means it waits in the in-flight table, not yet started
        for job_id, state in campaign.states.items():
            run = service._runs.get(job_id)
            if state.status == "running":
                assert run is not None and run.started_us is not None
            elif state.status == "pending":
                assert run is not None and run.started_us is None
    assert service._active == sum(
        1 for c in service.campaigns.values() if c.status == "running"
    )
    # only clients with queued jobs are in the round-robin rotation
    assert sorted(service._rr) == sorted(service._queues)
    assert all(service._queues.values())


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.lists(
                st.integers(0, UNIVERSE - 1), min_size=1, max_size=UNIVERSE
            ),
            st.sampled_from(["alice", "bob"]),
        ),
        st.tuples(st.just("start")),
        st.tuples(st.just("finish"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("drain")),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(cached=st.sets(st.integers(0, UNIVERSE - 1)), ops=_OPS)
# always covered: a cache hit, a dedup subscriber joining a started run
# and one joining a queued run, a run that succeeds, one that fails, and
# a drain that leaves a campaign unfinished
@example(
    cached={0},
    ops=[
        ("submit", [0, 1, 2], "alice"),
        ("start",),
        ("submit", [1, 2, 3], "bob"),
        ("start",),
        ("finish", 0, True),
        ("finish", 0, False),
        ("drain",),
    ],
)
def test_incremental_counts_match_a_recount(cached, ops):
    """Cache hits, dedup subscribers, runs that succeed or fail, and a
    drain, in any order: the counts never drift from the job states."""
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as tmp:
        patch.setattr(runner_mod, "_DISK_CACHE", False)
        patch.setattr(runner_mod, "_memory_cache", {})
        for index in cached:
            job = _job(index)
            runner_mod.seed_cache(
                job.workload, job.config_name, _fake_result(job),
                scale=job.scale, params=job.params,
            )
        asyncio.run(_drive(_bare_service(Path(tmp)), ops))


async def _drive(service: SimService, ops) -> None:
    started = []
    for op in ops:
        if op[0] == "submit":
            if service._draining:
                continue  # the HTTP front end answers 503 from here on
            await service._register_campaign(
                [_job(i) for i in op[1]], client=op[2]
            )
        elif op[0] == "start":
            if service._draining:
                continue  # the dispatcher is cancelled by a drain
            job = service._next_job()
            if job is None:
                continue
            service._begin_run(job)
            started.append(job)
        elif op[0] == "finish":
            if not started:
                continue
            job = started.pop(op[1] % len(started))
            ok = op[2]
            await service._finalize_run(
                job,
                _fake_result(job) if ok else None,
                None if ok else "RuntimeError: injected",
            )
        else:
            await service.drain("test")
        _check_counts(service)


def test_completing_thousands_of_cached_jobs_is_linear(
    memory_only_cache, tmp_path
):
    """4,512 cached jobs in one campaign: rescanning every job on every
    event took about 10 s on a 2-core VM; O(1) bookkeeping per job takes
    well under 1 s."""
    jobs = [_job(index) for index in range(4512)]
    for job in jobs:
        runner_mod.seed_cache(
            job.workload, job.config_name, _fake_result(job),
            scale=job.scale, params=job.params,
        )

    async def admit():
        service = _bare_service(tmp_path)
        started = time.perf_counter()
        campaign, breakdown = await service._register_campaign(
            jobs, client="sweep"
        )
        return time.perf_counter() - started, campaign, breakdown

    elapsed, campaign, breakdown = asyncio.run(admit())
    assert breakdown == {"cached": 4512, "deduped": 0, "queued": 0}
    assert campaign.status == "completed"
    assert campaign.cached == 4512
    assert len(campaign.events) == 2 + 2 * 4512
    assert elapsed < 1.0, f"{elapsed:.2f}s to complete 4512 cached jobs"


def test_payload_is_rebuilt_when_the_cached_result_changes(
    memory_only_cache, tmp_path
):
    """A replaced (e.g. invalidated and re-run) result never serves the
    payload built for its predecessor."""
    job = _job(0)
    first, second = _fake_result(job), _fake_result(job)
    service = _bare_service(tmp_path)
    shared = service._payload_for(job, first)
    assert service._payload_for(job, first) is shared
    rebuilt = service._payload_for(job, second)
    assert rebuilt is not shared and rebuilt == shared


def _dispatch_all(service: SimService):
    """Every queued job, in the order the dispatcher would take them."""
    order = []
    while True:
        job = service._next_job()
        if job is None:
            return order
        service._begin_run(job)
        order.append(job)


def test_next_job_alternates_between_clients(memory_only_cache, tmp_path):
    async def scenario():
        service = _bare_service(tmp_path)
        await service._register_campaign(
            [_job(i) for i in range(3)], client="alice"
        )
        await service._register_campaign(
            [_job(i) for i in range(3, 5)], client="bob"
        )
        return [job.params.seed for job in _dispatch_all(service)]

    assert asyncio.run(scenario()) == [0, 3, 1, 4, 2]


def test_a_client_leaves_the_rotation_once_its_queue_empties(
    memory_only_cache, tmp_path
):
    """Two clients each finish a campaign: neither is still listed."""

    async def scenario():
        service = _bare_service(tmp_path)
        for client, seeds in (("alice", (0, 1)), ("bob", (2,))):
            await service._register_campaign(
                [_job(i) for i in seeds], client=client
            )
        for job in _dispatch_all(service):
            await service._finalize_run(job, _fake_result(job), None)
        return service

    service = asyncio.run(scenario())
    assert all(c.status == "completed" for c in service.campaigns.values())
    assert service._queues == {}
    assert list(service._rr) == []
    for client in ("alice", "bob"):
        gauge = service.registry.gauge("service.queue.depth", client=client)
        assert gauge.value == 0
