#!/usr/bin/env python
"""CI smoke for the campaign service — the acceptance path, end to end.

Drives a real ``cli serve`` daemon through its whole lifecycle:

1. daemon up on an ephemeral port (announced on stderr, parsed here);
2. submit the smoke campaign (fig13) and stream its NDJSON events;
3. resubmit it — the second pass must be **100% cache-hit**, answered
   synchronously without touching the worker pool;
4. ``GET /healthz`` and ``GET /metrics`` sanity checks;
5. submit a fresh (uncached) campaign, SIGTERM the daemon mid-flight —
   it must exit 0 leaving a resumable checkpoint;
6. restart the daemon — it resumes the drained campaign by itself and
   completes it bit-identically from the shared cache;
7. tracing: ``cli submit`` against ``cli serve --trace`` leaves the
   daemon's ``<stem>.daemon.jsonl``, which ``cli trace summarize`` rolls
   up into a ``daemon lifecycle:`` line, and worker trace files from
   >= 2 distinct pids.

Exit 0 means every step held.
Usage::

    PYTHONPATH=src REPRO_ACCESSES=300 python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.client import ServiceClient  # noqa: E402

ANNOUNCE = re.compile(r"listening on http://([\d.]+):(\d+)")


class Daemon:
    """One ``cli serve`` subprocess with its announce line parsed."""

    def __init__(self, workdir: str, env: dict, extra_args=()) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness.cli", "serve",
                "--port", "0", "--jobs", "2",
                "--checkpoint", os.path.join(workdir, "ckpt.json"),
                *extra_args,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address = None
        announced = threading.Event()

        def pump():
            for line in self.proc.stderr:
                sys.stderr.write(f"  [daemon] {line}")
                match = ANNOUNCE.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    announced.set()
            announced.set()  # EOF without announce: fail fast below

        threading.Thread(target=pump, daemon=True).start()
        if not announced.wait(60) or self.address is None:
            raise SystemExit("error: daemon never announced its port")
        self.client = ServiceClient(*self.address, timeout=300.0)

    def terminate_and_wait(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120)


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"error: service-smoke failed: {what}")
    print(f"service-smoke: ok — {what}")


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-service-smoke.")
    env = dict(os.environ)
    env.setdefault("REPRO_ACCESSES", "300")
    env["REPRO_CACHE_PATH"] = os.path.join(workdir, ".sim_cache.json")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    try:
        print("service-smoke: phase 1/4 — daemon up, cold + warm campaign")
        daemon = Daemon(workdir, env)

        events = []
        cold = daemon.client.run_campaign(
            experiments=["fig13"], client="smoke", on_event=events.append
        )
        final = cold["final"]
        check(final.get("status") == "completed", "cold campaign completed")
        check(final.get("failed") == 0, "cold campaign had no failures")
        kinds = {e.get("event") for e in events}
        check(
            {"campaign", "job", "progress", "done"} <= kinds,
            "NDJSON stream carried campaign/job/progress/done events",
        )

        warm = daemon.client.submit(experiments=["fig13"], client="smoke")
        check(
            warm.get("status") == "completed"
            and warm.get("queued") == 0
            and warm.get("cached") == warm.get("jobs"),
            f"warm resubmission 100% cache-hit "
            f"({warm.get('cached')}/{warm.get('jobs')} jobs, pool untouched)",
        )

        health = daemon.client.healthz()
        check(health.get("status") == "ok", "healthz answers ok")
        check(
            health.get("cache", {}).get("shards", 0) > 0
            and health.get("content_store", {}).get("objects", 0) > 0,
            "healthz surfaces result-cache and content-store stats",
        )
        metrics = daemon.client.metrics()
        counters = metrics.get("counters", {})
        check(
            counters.get("service.jobs.executed", 0) > 0
            and counters.get("service.jobs.cached", 0) > 0,
            "metrics count executed and cached jobs",
        )

        print("service-smoke: phase 2/4 — SIGTERM drain mid-campaign")
        fresh = daemon.client.submit(
            experiments=["fig13"], client="smoke", seed=11
        )
        campaign_id = str(fresh["id"])
        code = daemon.terminate_and_wait()
        check(code == 0, f"SIGTERM drain exited 0 (got {code})")
        checkpoint = os.path.join(workdir, "ckpt.json")
        check(
            os.path.isfile(checkpoint),
            "drain left a resumable checkpoint",
        )
        payload = json.loads(open(checkpoint).read())
        check(
            any(c.get("id") == campaign_id for c in payload["campaigns"]),
            "checkpoint records the drained campaign",
        )

        print("service-smoke: phase 3/4 — restart resumes the checkpoint")
        daemon = Daemon(workdir, env)
        counters = daemon.client.metrics().get("counters", {})
        check(
            counters.get("service.campaigns.resumed", 0) == 1,
            "restarted daemon resumed the drained campaign",
        )
        deadline = time.monotonic() + 240
        status = None
        while time.monotonic() < deadline:
            status = daemon.client.campaign(campaign_id).get("status")
            if status == "completed":
                break
            time.sleep(0.5)
        check(status == "completed", "resumed campaign completed")
        resumed = daemon.client.results(campaign_id)
        check(
            all(v is not None for v in resumed["results"].values()),
            f"all {len(resumed['results'])} resumed results present",
        )
        # bit-identity: a warm resubmission returns the same payloads
        warm = daemon.client.run_campaign(
            experiments=["fig13"], client="verifier", seed=11
        )
        check(
            warm["results"] == resumed["results"],
            "resumed results bit-identical to a warm resubmission",
        )
        code = daemon.terminate_and_wait()
        check(code == 0, f"final drain exited 0 (got {code})")
        check(
            not os.path.exists(checkpoint),
            "a cleanly finished daemon leaves no checkpoint",
        )

        print("service-smoke: phase 4/4 — a traced daemon")
        trace_base = os.path.join(workdir, "svc.jsonl")
        daemon = Daemon(workdir, env, extra_args=["--trace", trace_base])
        host, port = daemon.address
        code = subprocess.call(
            [
                sys.executable, "-m", "repro.harness.cli", "submit", "fig13",
                "--host", host, "--port", str(port), "--seed", "23",
            ],
            env=env,
        )
        check(code == 0, f"`cli submit` to a traced daemon exited 0 (got {code})")
        code = daemon.terminate_and_wait()
        check(code == 0, f"traced daemon drained 0 (got {code})")

        summary = subprocess.run(
            [
                sys.executable, "-m", "repro.harness.cli", "trace",
                "summarize", os.path.join(workdir, "svc.daemon.jsonl"),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        check(
            summary.returncode == 0,
            f"`cli trace summarize` read the daemon trace (got "
            f"{summary.returncode}: {summary.stderr.strip()})",
        )
        lifecycle = [
            line for line in summary.stdout.splitlines()
            if line.startswith("daemon lifecycle:")
        ]
        check(bool(lifecycle), f"daemon trace rolls up ({lifecycle})")
        worker_pids = set()
        for name in os.listdir(workdir):
            if name.startswith("svc.w") and name.endswith(".jsonl"):
                with open(os.path.join(workdir, name)) as handle:
                    worker_pids.add(json.loads(handle.readline())["meta"]["pid"])
        check(
            len(worker_pids) >= 2,
            f"worker trace files came from >= 2 distinct pids ({worker_pids})",
        )

        print("service-smoke: OK — daemon lifecycle held end to end")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
