"""Kill-and-resume tests: a campaign killed outright (SIGKILL, no chance
to clean up) or stopped gracefully (SIGTERM) must resume to results
bit-identical to an uninterrupted run."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.cache import ShardedResultCache

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

CMD = [
    sys.executable, "-m", "repro.harness.cli", "all",
    "--experiments", "fig13", "--jobs", "2",
]


def _env(cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_SRC)
    env["REPRO_ACCESSES"] = "160"
    # the default cache path is repo-rooted; isolate each campaign fully
    env["REPRO_CACHE_PATH"] = str(Path(cwd) / ".sim_cache.json")
    for var in ("REPRO_CHAOS", "REPRO_JOBS"):
        env.pop(var, None)
    return env


def _run_to_completion(cwd):
    return subprocess.run(
        CMD, cwd=cwd, env=_env(cwd), capture_output=True, text=True,
        timeout=300,
    )


def _normalized_results(cwd):
    """Every cached result in ``cwd``, with run-provenance stripped.

    Manifests carry wall-clock timings and attempt counts that honestly
    differ between runs; everything else — cycles, IPC, hit rates,
    energy, fault counters — must be bit-identical.
    """
    entries = ShardedResultCache(Path(cwd) / ".sim_cache.d").read_all()
    normalized = {}
    for key, value in entries.items():
        if isinstance(value, dict):
            value = dict(value)
            value.pop("manifest", None)
        normalized[key] = value
    return normalized


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted campaign: the ground truth both tests compare to."""
    cwd = tmp_path_factory.mktemp("reference")
    done = _run_to_completion(cwd)
    assert done.returncode == 0, done.stderr
    results = _normalized_results(cwd)
    assert results  # the campaign really cached simulations
    return {"results": results, "stdout": done.stdout}


class TestKillResume:
    def test_sigkill_mid_campaign_resumes_bit_identically(
        self, tmp_path, reference
    ):
        victim = tmp_path / "victim"
        victim.mkdir()
        proc = subprocess.Popen(
            CMD, cwd=victim, env=_env(victim),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # so the kill takes the workers too
        )
        time.sleep(1.5)
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # no cleanup, no goodbye
        except ProcessLookupError:
            pass  # finished early: resume is then trivially identical
        proc.wait(timeout=30)

        resumed = _run_to_completion(victim)
        assert resumed.returncode == 0, resumed.stderr
        assert _normalized_results(victim) == reference["results"]
        assert resumed.stdout == reference["stdout"]

    def test_sigterm_stops_gracefully_and_resumes(self, tmp_path, reference):
        work = tmp_path / "graceful"
        work.mkdir()
        proc = subprocess.Popen(
            CMD, cwd=work, env=_env(work),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        time.sleep(1.2)
        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=120)
        if proc.returncode == 0:
            pytest.skip("campaign finished before the signal landed")
        assert proc.returncode == 5, err  # EXIT_INTERRUPTED
        assert "re-run to resume" in err

        resumed = _run_to_completion(work)
        assert resumed.returncode == 0, resumed.stderr
        assert _normalized_results(work) == reference["results"]
        assert resumed.stdout == reference["stdout"]

    def test_clean_rerun_is_a_full_cache_hit(self, tmp_path, reference):
        # control: the reference directory itself re-runs from cache only
        rerun_cwd = tmp_path / "rerun"
        rerun_cwd.mkdir()
        first = _run_to_completion(rerun_cwd)
        assert first.returncode == 0, first.stderr
        again = _run_to_completion(rerun_cwd)
        assert again.returncode == 0, again.stderr
        assert _normalized_results(rerun_cwd) == reference["results"]
        # every run renders every step, so the rerun replays them all from
        # cache and the tables are byte-identical
        assert again.stdout == first.stdout == reference["stdout"]
