"""Kill-and-resume tests: a campaign killed outright (SIGKILL, no chance
to clean up) or stopped gracefully (SIGTERM) must resume to results
bit-identical to an uninterrupted run.  A single experiment command is a
campaign too, and stops the same way."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec.cache import ShardedResultCache

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

CLI = [sys.executable, "-m", "repro.harness.cli"]
CMD = [*CLI, "all", "--experiments", "fig13", "--jobs", "2"]
# `cli fig13` prints what `cli all --experiments fig13` prints
COMMANDS = {"all": CMD, "experiment": [*CLI, "fig13", "--jobs", "2"]}


def _env(cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_SRC)
    env["REPRO_ACCESSES"] = "160"
    # the default cache path is repo-rooted; isolate each campaign fully
    env["REPRO_CACHE_PATH"] = str(Path(cwd) / ".sim_cache.json")
    for var in ("REPRO_CHAOS", "REPRO_JOBS"):
        env.pop(var, None)
    return env


def _run_to_completion(cwd, cmd=CMD):
    return subprocess.run(
        cmd, cwd=cwd, env=_env(cwd), capture_output=True, text=True,
        timeout=300,
    )


def _wait_for_empty_group(pgid, timeout=5.0):
    """Whether every process of group ``pgid`` (the CLI's pool workers
    included) is gone within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)  # leave no orphan behind the test
    return False


def _signal_mid_campaign(proc, cwd, signum, *, group=False):
    """Send ``signum`` once the campaign has cached its first simulation.

    A fixed sleep races the campaign at both ends: too early and the
    signal lands before the CLI installs its handlers, too late and the
    campaign has already finished.  The first result shard on disk shows
    the handlers are up while most of the jobs are still to run.
    """
    shards = Path(cwd) / ".sim_cache.d"
    deadline = time.monotonic() + 120
    while proc.poll() is None and time.monotonic() < deadline:
        if any(shards.glob("*.json")):
            break
        time.sleep(0.01)
    if proc.poll() is not None:
        return  # finished early
    if group:
        os.killpg(proc.pid, signum)
    else:
        proc.send_signal(signum)


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
        # no cleanup, no goodbye; had it finished early, resume would be
        # trivially identical
        _signal_mid_campaign(proc, victim, signal.SIGKILL, group=True)
        proc.wait(timeout=30)

        resumed = _run_to_completion(victim)
        assert resumed.returncode == 0, resumed.stderr
        assert _normalized_results(victim) == reference["results"]
        assert resumed.stdout == reference["stdout"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_sigterm_stops_gracefully_and_resumes(
        self, tmp_path, reference, command
    ):
        cmd = COMMANDS[command]
        work = tmp_path / "graceful"
        work.mkdir()
        # Only the CLI's pid is signalled, as `kill <pid>` or a service
        # manager does; its own session makes the group checkable after.
        # stderr goes to a file: a worker that outlived the CLI would
        # hold a pipe open and hang the read.
        with open(tmp_path / "stderr.txt", "w+") as err_file:
            proc = subprocess.Popen(
                cmd, cwd=work, env=_env(work),
                stdout=subprocess.DEVNULL, stderr=err_file, text=True,
                start_new_session=True,
            )
            _signal_mid_campaign(proc, work, signal.SIGTERM)
            proc.wait(timeout=120)
            err_file.seek(0)
            err = err_file.read()
        assert _wait_for_empty_group(proc.pid), "a worker outlived the CLI"
        if proc.returncode == 0:
            pytest.skip("campaign finished before the signal landed")
        assert proc.returncode == 5, err  # EXIT_INTERRUPTED
        assert "re-run to resume" in err

        resumed = _run_to_completion(work, cmd)
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
