"""End-to-end campaign-service tests: the daemon runs in a background
thread of this process (so its fork()ed workers inherit the isolated
cache), and real HTTP clients talk to it over localhost.

The load-bearing assertions mirror the service's contract:

* two simultaneous submitters of overlapping campaigns get bit-identical
  results with the overlap simulated **exactly once**;
* a warm resubmission is answered 100% from cache without touching the
  worker pool;
* drain checkpoints unfinished campaigns and a restarted daemon resumes
  them bit-identically;
* a full queue answers 429 + Retry-After instead of buffering.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.harness.runner as runner_mod
from repro.exec import Supervisor, SupervisorPolicy
from repro.exec.progress import ProgressSnapshot
from repro.harness.runner import set_run_executor
from repro.service import ServiceConfig, SimService
from repro.service.client import ServiceClient, ServiceError
from repro.service.state import load_checkpoint
from repro.sim.engine import SimulationParams, run_workload

TINY = {"accesses": 120, "seed": 9}

# Run parameters no simulation can mean: each is rejected at admission.
BAD_RUN_PARAMS = (
    {"ecc": "bogus"},
    {"ecc": "bogus", "fault_rate": 3e12},  # used to fail only in the worker
    {"fault_rate": -1},
    {"fault_rate": float("nan")},
    {"fault_rate": float("inf")},
    {"warmup_fraction": 1.5},
    {"warmup_fraction": 1.0},
    {"warmup_fraction": -0.2},
)


def _specs(*pairs, **overrides):
    merged = {**TINY, **overrides}
    return [
        {"workload": wl, "config": cfg, **merged} for wl, cfg in pairs
    ]


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    cache_path = tmp_path / ".sim_cache.json"
    monkeypatch.setattr(runner_mod, "_CACHE_PATH", cache_path)
    monkeypatch.setattr(runner_mod, "_DISK_CACHE", True)
    runner_mod._memory_cache.clear()
    yield cache_path
    runner_mod._memory_cache.clear()
    set_run_executor(None)


class DaemonHandle:
    """One in-process daemon on its own thread + event loop."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: SimService = None
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        import asyncio

        asyncio.run(self._main())

    async def _main(self) -> None:
        import asyncio

        self.loop = asyncio.get_running_loop()
        self.service = SimService(self.config)
        await self.service.start()
        self._ready.set()
        await self.service.serve_forever()

    def start(self) -> "DaemonHandle":
        self._thread.start()
        assert self._ready.wait(30), "daemon did not come up"
        return self

    @property
    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.service.port, timeout=120.0)

    def drain(self) -> None:
        import asyncio

        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.service.drain("test"), self.loop
            ).result(60)
        self._thread.join(30)
        assert not self._thread.is_alive()

    def counters(self) -> dict:
        return self.client.metrics()["counters"]


@pytest.fixture
def daemon(isolated_cache, tmp_path):
    handle = DaemonHandle(
        ServiceConfig(
            port=0,
            workers=2,
            max_queue=64,
            supervisor=SupervisorPolicy(grace=5.0),
            checkpoint=tmp_path / "service_ckpt.json",
        )
    ).start()
    yield handle
    handle.drain()


class TestConcurrentSubmitters:
    def test_overlap_simulated_exactly_once_bit_identical(self, daemon):
        jobs_a = _specs(
            ("bc_twi", "base"), ("bc_twi", "dice"),
            ("cc_twi", "base"), ("cc_twi", "dice"),
        )
        jobs_b = _specs(
            ("cc_twi", "base"), ("cc_twi", "dice"),  # overlaps A
            ("pr_twi", "base"), ("pr_twi", "dice"),
        )
        docs = {}

        def submit(name, jobs):
            docs[name] = daemon.client.run_campaign(jobs=jobs, client=name)

        threads = [
            threading.Thread(target=submit, args=("alice", jobs_a)),
            threading.Thread(target=submit, args=("bob", jobs_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert docs["alice"]["final"]["status"] == "completed"
        assert docs["bob"]["final"]["status"] == "completed"
        assert docs["alice"]["final"]["failed"] == 0
        assert docs["bob"]["final"]["failed"] == 0

        # the overlap (cc_twi × base/dice) is byte-for-byte the same result
        overlap = set(docs["alice"]["results"]) & set(docs["bob"]["results"])
        assert len(overlap) == 2
        for job_id in overlap:
            assert (
                docs["alice"]["results"][job_id]
                == docs["bob"]["results"][job_id]
            )

        # ...and was simulated exactly once: 6 unique jobs, 8 submitted
        counters = daemon.counters()
        assert counters["service.jobs.total"] == 8
        assert counters["service.jobs.executed"] == 6
        assert counters["service.jobs.failed"] == 0
        # the 2 shared jobs were answered by dedup-subscription or by the
        # cache (depending on which client got there first) — never re-run
        assert (
            counters["service.jobs.deduped"] + counters["service.jobs.cached"]
            == 2
        )
        # the exec-layer cache agrees: one shard per unique job, no more
        assert runner_mod.cache_stats()["shards"] == 6

        # bit-identical to a direct serial simulation (no cache involved);
        # SimResult's == ignores the manifest, whose host/wall-clock
        # provenance legitimately differs between runs
        params = SimulationParams(accesses_per_core=120, seed=9)
        direct = run_workload(
            "cc_twi", runner_mod.resolve_config("base"), params
        )
        served = docs["alice"]["results"][
            next(
                jid
                for jid, payload in docs["alice"]["results"].items()
                if payload["manifest"]["config"] == "base"
                and payload["manifest"]["workload"] == "cc_twi"
            )
        ]
        assert runner_mod._result_from_dict(served) == direct


class TestWarmResubmission:
    def test_second_submission_is_pure_cache_hit(self, daemon):
        jobs = _specs(("bc_twi", "base"), ("bc_twi", "dice"))
        first = daemon.client.run_campaign(jobs=jobs, client="warm")
        assert first["final"]["status"] == "completed"
        executed_before = daemon.counters()["service.jobs.executed"]

        second = daemon.client.submit(jobs=jobs, client="warm")
        # answered synchronously at POST time: already completed, all cached
        assert second["status"] == "completed"
        assert second["cached"] == 2
        assert second["queued"] == 0
        counters = daemon.counters()
        assert counters["service.jobs.executed"] == executed_before
        assert counters["service.jobs.cached"] >= 2
        # and byte-identical to the first campaign's results
        again = daemon.client.results(str(second["id"]))
        assert again["results"] == first["results"]
        # no new copy per submission: one shared payload object per result
        campaigns = daemon.service.campaigns
        cold_results = campaigns[str(first["id"])].results
        warm_results = campaigns[str(second["id"])].results
        assert set(warm_results) == set(cold_results)
        for job_id, payload in warm_results.items():
            assert payload is cold_results[job_id]
        # the warm GET /results body is the cold one, byte for byte
        cold_body = _raw_get(daemon, f"/campaigns/{first['id']}/results")
        warm_body = _raw_get(daemon, f"/campaigns/{second['id']}/results")
        assert warm_body == cold_body.replace(
            str(first["id"]).encode(), str(second["id"]).encode()
        )


def _raw_get(daemon, path: str) -> bytes:
    """One GET's response body, exactly as the daemon wrote it."""
    import http.client

    conn = http.client.HTTPConnection(
        "127.0.0.1", daemon.service.port, timeout=60
    )
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


class TestStreamingAndIntrospection:
    def test_ndjson_stream_shape(self, daemon):
        jobs = _specs(("cc_web", "base"), ("cc_web", "dice"))
        submitted = daemon.client.submit(jobs=jobs, client="stream")
        events = list(daemon.client.events(str(submitted["id"])))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign"
        assert kinds[-1] == "done"
        job_events = [e for e in events if e["event"] == "job"]
        assert len(job_events) == 2
        assert all(e["status"] == "done" for e in job_events)
        assert all(e["source"] in ("run", "dedup", "cache") for e in job_events)
        # progress heartbeats parse into the CLI's own snapshot struct
        progress = [e for e in events if e["event"] == "progress"]
        assert progress
        snap = ProgressSnapshot.from_dict(progress[-1])
        assert snap.done == 2 and snap.total == 2

    def test_progress_reports_running_jobs(self, daemon):
        # two workers, four uncached jobs: when the first job finishes,
        # the second has been running since dispatch
        jobs = _specs(
            ("pr_web", "base"), ("pr_web", "dice"),
            ("bc_web", "base"), ("bc_web", "dice"),
        )
        submitted = daemon.client.submit(jobs=jobs, client="busy")
        events = list(daemon.client.events(str(submitted["id"])))
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) == 4
        assert max(e["running"] for e in progress) >= 1
        assert progress[-1]["running"] == 0
        assert progress[-1]["done"] == 4
        status = daemon.client.campaign(str(submitted["id"]))
        assert status["running"] == 0 and status["done"] == 4

    def test_healthz_and_metrics_surface_cache_stats(self, daemon):
        daemon.client.run_campaign(
            jobs=_specs(("mix1", "base")), client="health"
        )
        health = daemon.client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["cache"]["shards"] == 1
        for counter in ("hits", "misses", "write_errors"):
            assert counter in health["cache"]
        assert health["content_store"]["objects"] == 1
        assert health["campaigns"] == {"completed": 1}
        assert health["clients"] == {}  # its one campaign is done
        metrics = daemon.client.metrics()
        assert metrics["counters"]["service.campaigns.completed"] == 1
        assert "service.job.wall_ms" in metrics["histograms"]

    def test_slo_route_is_gone(self, daemon):
        with pytest.raises(ServiceError) as excinfo:
            daemon.client._request("GET", "/slo")
        assert excinfo.value.status == 404

    def test_metrics_answer_json_whatever_the_accept_header(self, daemon):
        import http.client
        import json

        for accept in ("text/plain", "*/*", "application/openmetrics-text"):
            conn = http.client.HTTPConnection(
                "127.0.0.1", daemon.service.port, timeout=60
            )
            try:
                conn.request("GET", "/metrics", headers={"Accept": accept})
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type").startswith(
                    "application/json"
                )
                body = json.loads(response.read())
            finally:
                conn.close()
            assert set(body) == {"counters", "gauges", "histograms", "trackers"}
            assert "service.jobs.total" in body["counters"]

    def test_healthz_and_acceptance_carry_no_telemetry_keys(self, daemon):
        accepted = daemon.client.submit(
            jobs=_specs(("mix1", "base")), client="plain"
        )
        assert "trace_id" not in accepted
        list(daemon.client.events(str(accepted["id"])))
        assert "trace_id" not in daemon.client.campaign(str(accepted["id"]))
        assert "slo" not in daemon.client.healthz()

    def test_unknown_routes_and_campaigns_are_404(self, daemon):
        with pytest.raises(ServiceError) as excinfo:
            daemon.client.campaign("c9999-nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            daemon.client._request("GET", "/frobnicate")
        assert excinfo.value.status == 404

    def test_malformed_submissions_are_400(self, daemon):
        with pytest.raises(ServiceError) as excinfo:
            daemon.client.submit(experiments=["not-an-experiment"])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            daemon.client.submit(jobs=[{"workload": "bc_twi"}])  # no config
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            daemon.client._request("POST", "/campaigns", {"client": "empty"})
        assert excinfo.value.status == 400  # plans no jobs
        # rejected at parse time, before any campaign state changes
        for bad in (
            {"config": "warp-drive"}, {"scale": 0},
            {"workload": "no-such-workload"}, {"accesses": -5},
            {"accesses": 0},  # an error, not the default
            *BAD_RUN_PARAMS,
        ):
            with pytest.raises(ServiceError) as excinfo:
                daemon.client.submit(jobs=[{**_specs(("mcf", "base"))[0], **bad}])
            assert excinfo.value.status == 400
        # an experiment submission takes fault_rate and ecc, not warmup
        for bad in (
            {"accesses": -5},
            *(bad for bad in BAD_RUN_PARAMS if "warmup_fraction" not in bad),
        ):
            with pytest.raises(ServiceError) as excinfo:
                daemon.client.submit(experiments=["fig13"], **bad)
            assert excinfo.value.status == 400
        assert daemon.client._request("GET", "/campaigns") == {"campaigns": []}
        assert daemon.counters()["service.campaigns.submitted"] == 0


class TestDaemonTrace:
    def test_traced_daemon_writes_its_lifecycle_with_campaign_and_job_ids(
        self, isolated_cache, tmp_path
    ):
        import repro.obs as obs

        obs.configure(trace=str(tmp_path / "svc.jsonl"))
        try:
            handle = DaemonHandle(
                ServiceConfig(
                    port=0, workers=1, max_queue=8,
                    checkpoint=tmp_path / "service_ckpt.json",
                )
            ).start()
            try:
                jobs = _specs(("mix1", "base"))
                cold = handle.client.run_campaign(jobs=jobs, client="traced")
                warm = handle.client.submit(jobs=jobs, client="traced")
                assert warm["queued"] == 0 and warm["cached"] == 1
            finally:
                handle.drain()
        finally:
            obs.reset_configuration()
        assert cold["final"]["status"] == "completed"
        (job_id,) = cold["results"]
        cold_id, warm_id = str(cold["id"]), str(warm["id"])

        path = tmp_path / "svc.daemon.jsonl"
        events = obs.read_events(path)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event["args"])
        assert [a["campaign"] for a in by_name["daemon.campaign.submitted"]] == [
            cold_id, warm_id,
        ]
        assert [a["campaign"] for a in by_name["daemon.campaign"]] == [
            cold_id, warm_id,
        ]
        assert all(a["status"] == "completed" for a in by_name["daemon.campaign"])
        # only the fresh job queued and ran; the resubmission was a hit
        for name in ("daemon.queue", "daemon.run"):
            (args,) = by_name[name]
            assert args["campaign"] == cold_id
            assert args["job_id"] == job_id
        for event in events:
            assert not {"trace_id", "span_id", "parent_id"} & set(event["args"])
        assert obs.summarize_trace(path)["exec"]["daemon"] == {
            "campaign": 2, "campaign.submitted": 2, "queue": 1, "run": 1,
        }
        # the sole worker traced its simulation under the plain name
        assert obs.summarize_trace(tmp_path / "svc.jsonl")["by_name"]["l4.read"]


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(
        self, isolated_cache, tmp_path
    ):
        handle = DaemonHandle(
            ServiceConfig(
                port=0,
                workers=1,
                max_queue=0,  # no waiting room at all
                supervisor=SupervisorPolicy(grace=5.0),
                checkpoint=tmp_path / "bp_ckpt.json",
            )
        ).start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                handle.client.submit(
                    jobs=_specs(("pr_web", "base")), client="pushy"
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            assert (
                handle.counters()["service.backpressure.rejected"] == 1
            )
            # a rejected submission leaves no campaign behind
            assert handle.client._request("GET", "/campaigns") == {
                "campaigns": []
            }
            # cache hits are still admitted: they need no queue slot
            runner_mod.cached_run(
                "pr_web", "base",
                params=SimulationParams(accesses_per_core=120, seed=9),
            )
            doc = handle.client.submit(
                jobs=_specs(("pr_web", "base")), client="pushy"
            )
            assert doc["status"] == "completed"
            assert doc["cached"] == 1
        finally:
            handle.drain()


class TestDrainAndResume:
    def test_drain_checkpoints_and_restart_resumes_bit_identically(
        self, isolated_cache, tmp_path
    ):
        checkpoint = tmp_path / "drain_ckpt.json"
        jobs = _specs(
            ("bc_web", "base"), ("bc_web", "dice"),
            ("cc_twi", "base"), ("cc_twi", "dice"),
            ("mix2", "base"), ("mix2", "dice"),
            accesses=900,
        )
        first = DaemonHandle(
            ServiceConfig(
                port=0, workers=1, supervisor=SupervisorPolicy(grace=0.5),
                checkpoint=checkpoint,
            )
        ).start()
        submitted = first.client.submit(jobs=jobs, client="drainee")
        campaign_id = str(submitted["id"])
        first.client.drain()  # POST /drain — the SIGTERM path's twin
        first._thread.join(30)
        assert not first._thread.is_alive()
        assert first.service.campaigns[campaign_id].status in (
            "drained",
            "completed",  # a very fast machine may have finished them all
        )
        if first.service.campaigns[campaign_id].status == "completed":
            pytest.skip("campaign finished inside the grace window")
        assert checkpoint.is_file()

        # a fresh daemon resumes the checkpointed campaign by itself
        second = DaemonHandle(
            ServiceConfig(
                port=0, workers=2, supervisor=SupervisorPolicy(grace=5.0),
                checkpoint=checkpoint,
            )
        ).start()
        try:
            assert (
                second.counters()["service.campaigns.resumed"] == 1
            )
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                doc = second.client.campaign(campaign_id)
                if doc["status"] == "completed":
                    break
                time.sleep(0.2)
            assert doc["status"] == "completed"
            resumed = second.client.results(campaign_id)
            assert len(resumed["results"]) == 6
            assert all(v is not None for v in resumed["results"].values())

            # bit-identical: a direct simulation of one job matches, and a
            # warm resubmission of the full set returns the same payloads
            params = SimulationParams(accesses_per_core=900, seed=9)
            direct = run_workload(
                "mix2", runner_mod.resolve_config("dice"), params
            )
            match = [
                payload
                for payload in resumed["results"].values()
                if payload["manifest"]["workload"] == "mix2"
                and payload["manifest"]["config"] == "dice"
            ]
            assert len(match) == 1
            assert runner_mod._result_from_dict(match[0]) == direct
            warm = second.client.run_campaign(jobs=jobs, client="verifier")
            assert warm["results"] == resumed["results"]
            # resumed jobs that finished pre-drain came from cache, so the
            # two daemons together simulated each job exactly once
            executed_first = first.service.registry.to_dict()["counters"][
                "service.jobs.executed"
            ]
            executed_second = second.counters()["service.jobs.executed"]
            assert executed_first + executed_second == 6
        finally:
            second.drain()
        # a cleanly finished daemon leaves no checkpoint to resume
        assert not checkpoint.exists()


class TestSupervisedDaemon:
    """The daemon runs its jobs through the CLI's supervisor: one crash is
    one incident charged to its culprit, poison jobs are quarantined,
    deadlines hold, and a drain leaves no worker behind."""

    JOBS = _specs(
        ("mcf", "base"), ("sphinx", "base"), ("lbm", "base"), ("pr_twi", "base"),
    )

    @staticmethod
    def _handle(tmp_path, **policy) -> DaemonHandle:
        return DaemonHandle(
            ServiceConfig(
                port=0, workers=2,
                supervisor=SupervisorPolicy(**{"grace": 5.0, **policy}),
                checkpoint=tmp_path / "supervised_ckpt.json",
            )
        ).start()

    @staticmethod
    def _finished(handle, campaign_id, timeout=30.0) -> dict:
        """The campaign's document once it stops running (or on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            doc = handle.client.campaign(campaign_id)
            if doc["status"] != "running" or time.monotonic() > deadline:
                return doc
            time.sleep(0.1)

    def test_rebuild_budget_resets_when_jobs_make_progress(
        self, isolated_cache, tmp_path
    ):
        # Each campaign's job crashes once.  The budget allows one rebuild
        # in a row; a job finishing in between starts the count over, so
        # a daemon that makes progress never fails its later campaigns.
        def crash_each_workload_once(workload, config, params=None, **kwargs):
            try:
                (tmp_path / f"crashed-{workload}").touch(exist_ok=False)
            except FileExistsError:
                return run_workload(workload, config, params, **kwargs)
            os._exit(86)

        set_run_executor(crash_each_workload_once)
        handle = self._handle(tmp_path, max_pool_rebuilds=1)
        try:
            docs = [
                handle.client.run_campaign(jobs=_specs((wl, "base")), client=wl)
                for wl in ("mcf", "sphinx")
            ]
            counters = handle.counters()
        finally:
            handle.drain()
        assert [doc["final"]["status"] for doc in docs] == [
            "completed", "completed",
        ]
        assert counters["service.supervisor.pool_rebuilds"] == 2
        assert counters["service.jobs.retried"] == 2

    def test_submit_that_cannot_fork_is_retried(
        self, isolated_cache, tmp_path, monkeypatch
    ):
        real_submit = ProcessPoolExecutor.submit
        refused = []

        def submit_refused_once(pool, *args, **kwargs):
            if not refused:
                refused.append(True)
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_refused_once)
        handle = self._handle(tmp_path)
        try:
            campaign_id = str(
                handle.client.submit(jobs=self.JOBS[:2], client="fork")["id"]
            )
            doc = self._finished(handle, campaign_id)
            counters = handle.counters()
        finally:
            handle.drain()
        assert refused
        assert doc["status"] == "completed"
        assert counters["service.supervisor.pool_rebuilds"] == 1
        assert counters.get("service.jobs.retried", 0) == 0  # never started

    def test_failed_supervisor_drains_and_checkpoints(
        self, isolated_cache, tmp_path, monkeypatch, capsys
    ):
        def broken_step(self):
            raise RuntimeError("supervisor bug")

        monkeypatch.setattr(Supervisor, "_step", broken_step)
        before = {child.pid for child in multiprocessing.active_children()}
        handle = self._handle(tmp_path)
        try:
            campaign_id = str(
                handle.client.submit(jobs=self.JOBS[:1], client="doomed")["id"]
            )
            handle._thread.join(30.0)  # the daemon drains on its own
            assert not handle._thread.is_alive()
        finally:
            handle.drain()
        assert handle.service.failure == "RuntimeError: supervisor bug"
        assert "RuntimeError: supervisor bug" in capsys.readouterr().err
        assert [
            spec["id"]
            for spec in load_checkpoint(tmp_path / "supervised_ckpt.json")
        ] == [campaign_id]
        assert [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ] == []

    def test_one_crash_is_one_rebuild_charged_to_the_culprit(
        self, isolated_cache, tmp_path
    ):
        flag = tmp_path / "crashed-once"

        def crash_mcf_once(workload, config, params=None, **kwargs):
            time.sleep(0.3)  # keep both workers busy when mcf dies
            if workload == "mcf":
                try:
                    flag.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    os._exit(86)
            return run_workload(workload, config, params, **kwargs)

        set_run_executor(crash_mcf_once)
        handle = self._handle(tmp_path)
        try:
            doc = handle.client.run_campaign(jobs=self.JOBS, client="crashy")
            counters = handle.counters()
        finally:
            handle.drain()
        assert doc["final"]["status"] == "completed"
        assert all(v is not None for v in doc["results"].values())
        assert counters["service.supervisor.pool_rebuilds"] == 1
        assert counters["service.jobs.retried"] == 1  # mcf's second attempt

    def test_persistent_crasher_is_quarantined_and_the_rest_complete(
        self, isolated_cache, tmp_path
    ):
        def crash_mcf(workload, config, params=None, **kwargs):
            if workload == "mcf":
                os._exit(86)
            return run_workload(workload, config, params, **kwargs)

        set_run_executor(crash_mcf)
        handle = self._handle(tmp_path)
        try:
            doc = handle.client.run_campaign(jobs=self.JOBS, client="poison")
            counters = handle.counters()
        finally:
            handle.drain()
        assert doc["final"]["status"] == "failed"
        assert doc["final"]["failed"] == 1
        (error,) = doc["errors"].values()
        assert "quarantined after 3" in error
        assert "exit code 86" in error
        assert sum(v is not None for v in doc["results"].values()) == 3
        assert counters["service.supervisor.quarantined"] == 1

    def test_deadline_watchdog_bounds_a_hung_job(self, isolated_cache, tmp_path):
        def hang_mcf(workload, config, params=None, **kwargs):
            if workload == "mcf":
                time.sleep(60.0)
            return run_workload(workload, config, params, **kwargs)

        set_run_executor(hang_mcf)
        handle = self._handle(tmp_path, deadline=1.0, max_attempts=2)
        try:
            started = time.monotonic()
            doc = handle.client.run_campaign(jobs=self.JOBS, client="hung")
            elapsed = time.monotonic() - started
            counters = handle.counters()
        finally:
            handle.drain()
        assert elapsed < 30.0
        (error,) = doc["errors"].values()
        assert "deadline" in error
        assert counters["service.supervisor.watchdog_kills"] == 2
        assert sum(v is not None for v in doc["results"].values()) == 3

    def test_drain_terminates_workers_after_the_grace_window(
        self, isolated_cache, tmp_path
    ):
        def sleep_forever(workload, config, params=None, **kwargs):
            time.sleep(60.0)
            return run_workload(workload, config, params, **kwargs)

        before = {child.pid for child in multiprocessing.active_children()}
        set_run_executor(sleep_forever)
        checkpoint = tmp_path / "supervised_ckpt.json"
        # `cli serve` traps SIGTERM in its event loop; forked workers
        # inherit such a handler, and must still die when terminated
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            handle = self._handle(tmp_path, grace=0.5)
            campaign_id = str(
                handle.client.submit(jobs=self.JOBS[:1], client="sleepy")["id"]
            )
            time.sleep(1.0)  # the job is running in its worker
            started = time.monotonic()
            handle.drain()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert time.monotonic() - started < 5.0
        leftover = [
            child for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        assert leftover == []
        assert [spec["id"] for spec in load_checkpoint(checkpoint)] == [
            campaign_id
        ]


class TestRepetitionSpecs:
    def test_rep_zero_spec_keeps_the_pre_statistics_shape(self):
        from repro.exec.job import make_job
        from repro.service.state import job_from_spec, job_to_spec

        job = make_job(
            "mcf", "dice", params=SimulationParams(accesses_per_core=120)
        )
        spec = job_to_spec(job)
        assert "rep" not in spec  # old checkpoints round-trip unchanged
        assert job_from_spec(spec) == job
        assert job_from_spec(spec).rep == 0

    def test_rep_round_trips_through_the_spec(self):
        from repro.exec.job import derive_rep_seed, make_job
        from repro.service.state import job_from_spec, job_to_spec

        params = SimulationParams(
            accesses_per_core=120, seed=derive_rep_seed(9, 2)
        )
        job = make_job("mcf", "dice", params=params, rep=2)
        spec = job_to_spec(job)
        assert spec["rep"] == 2
        rebuilt = job_from_spec(spec)
        assert rebuilt == job
        assert rebuilt.rep == 2
        assert rebuilt.params.seed == derive_rep_seed(9, 2)

    def test_malformed_rep_specs_are_rejected(self):
        from repro.service.state import job_from_spec

        base = {"workload": "mcf", "config": "dice", "accesses": 120}
        with pytest.raises(ValueError):
            job_from_spec({**base, "rep": -1})
        with pytest.raises(ValueError):
            job_from_spec({**base, "rep": "three"})


class TestJobSpecs:
    def test_non_default_spec_round_trips_with_the_same_key(self):
        import dataclasses

        from repro.exec.job import make_job
        from repro.service.state import job_from_spec, job_to_spec

        changed = {
            "accesses_per_core": 130,
            "warmup_fraction": 0.25,
            "seed": 10,
            "fault_rate": 3e12,
            "ecc": "none",
        }
        defaults = SimulationParams()
        assert sorted(f.name for f in dataclasses.fields(SimulationParams)) == (
            sorted(changed)
        )
        for name, value in changed.items():
            assert value != getattr(defaults, name), name
        job = make_job(
            "mcf", "dice-nextline", scale=65536,
            params=SimulationParams(**changed), rep=3,
        )
        rebuilt = job_from_spec(job_to_spec(job))
        assert rebuilt == job
        assert rebuilt.rep == 3
        assert rebuilt.cache_key == job.cache_key

    @pytest.mark.parametrize("bad", BAD_RUN_PARAMS, ids=repr)
    def test_meaningless_run_parameters_are_rejected(self, bad):
        from repro.service.state import job_from_spec

        base = {"workload": "mcf", "config": "dice", "accesses": 120}
        with pytest.raises(ValueError):
            job_from_spec({**base, **bad})

    def test_zero_warmup_stays_valid(self):
        from repro.service.state import job_from_spec

        job = job_from_spec(
            {"workload": "mcf", "config": "dice", "accesses": 120,
             "warmup_fraction": 0.0, "fault_rate": 0.0, "ecc": "none"}
        )
        assert job.params.warmup_fraction == 0.0

    def test_unknown_config_and_bad_scale_are_rejected(self):
        from repro.service.state import job_from_spec

        base = {"workload": "mcf", "config": "dice", "accesses": 120}
        with pytest.raises(ValueError, match="known: .*dice-nextline"):
            job_from_spec({**base, "config": "warp-drive"})
        for scale in (0, -4, "big"):
            with pytest.raises(ValueError):
                job_from_spec({**base, "scale": scale})


class TestStatisticalCampaigns:
    def test_bad_repetitions_are_400(self, daemon):
        for value in (0, -2, "many"):
            with pytest.raises(ServiceError) as exc_info:
                daemon.client.submit(
                    experiments=["fig13"], accesses=120,
                    repetitions=value, client="bad",
                )
            assert exc_info.value.status == 400

    def test_repeated_campaign_serves_a_lint_clean_run_table(self, daemon):
        import os
        import sys

        sys.path.insert(
            0, os.path.join(os.path.dirname(__file__), "..", "scripts")
        )
        from runtable_lint import lint_rows

        doc = daemon.client.run_campaign(
            experiments=["fig13"], accesses=120, seed=9,
            repetitions=2, client="stats",
        )
        assert doc["final"].get("event") == "done"
        csv_text = daemon.client.run_table(str(doc["submitted"]["id"]))
        lines = csv_text.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert lint_rows(header, rows, expect_reps=2) == []
        assert {row["rep"] for row in rows} == {"0", "1"}
        seeds = {row["rep"]: row["seed"] for row in rows}
        assert seeds["0"] == "9"
        assert seeds["1"] != "9"

    def test_run_table_of_unknown_campaign_is_404(self, daemon):
        with pytest.raises(ServiceError) as exc_info:
            daemon.client.run_table("nope")
        assert exc_info.value.status == 404
