"""Crash-safe campaign execution: prefetch, checkpoint/resume.

A figure-regeneration campaign (``cli all``) is hours of simulation at
paper fidelity.  This module keeps it restartable:

* :func:`prefetch_experiments` is the bridge to the execution engine
  (:mod:`repro.exec`): it plans the simulations a set of experiments
  needs, runs them on the supervised worker pool (which bounds, retries
  and quarantines each job — see :mod:`repro.exec.supervisor`), and
  leaves every result cached so the table rendering that follows is
  instant.  Each finished simulation persists atomically, so resume
  happens at simulation granularity;
* :class:`Campaign` walks a list of experiments, checkpointing each
  completed step to disk (atomically) so a killed campaign resumes where
  it stopped.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

CHECKPOINT_VERSION = 1

DEFAULT_CHECKPOINT = Path(".campaign_checkpoint.json")

FLIGHT_VERSION = 1

DEFAULT_FLIGHT_DATA = Path(".campaign_flight.json")


# ---------------------------------------------------------------------------
# prefetch


def prefetch_experiments(
    keys: Sequence[str],
    params,
    *,
    jobs: Optional[int] = None,
    stream=None,
    supervisor=None,
    chaos=None,
    shutdown=None,
    repetitions: int = 1,
):
    """Fan out every simulation the given experiments need, ahead of time.

    Plans the (deduped) job list, runs it on the supervised scheduler,
    and returns ``(outcomes, failures)`` — ``failures`` being the outcomes
    of jobs that failed or were quarantined.  Successful results land in
    the (sharded, concurrency-safe) result cache, so the experiments' own
    loops replay from memory and their output is bit-identical whatever
    the worker count.  Progress (done/running/failed + ETA) goes to
    ``stream`` (default stderr).

    ``supervisor``, ``chaos``, and ``shutdown`` thread straight through to
    :func:`repro.exec.run_jobs` — watchdog deadlines, fault injection,
    and graceful-drain respectively.  When ``shutdown`` trips, the
    returned outcome list simply omits the jobs that never ran.

    ``repetitions`` expands every planned job once per repetition at a
    derived per-rep seed (see :func:`repro.exec.job.derive_rep_seed`);
    the default of 1 plans exactly what it always did.
    """
    import sys

    from repro.exec import ProgressPrinter, build_plan, run_jobs

    plan = build_plan(keys, params, repetitions)
    if not plan.jobs:
        return [], []
    printer = ProgressPrinter(stream if stream is not None else sys.stderr)
    outcomes = run_jobs(
        plan.jobs, max_workers=jobs, progress=printer,
        supervisor=supervisor, chaos=chaos, shutdown=shutdown,
    )
    printer.finish()
    failures = [outcome for outcome in outcomes if not outcome.ok]
    return outcomes, failures


# ---------------------------------------------------------------------------
# checkpoint/resume campaign


class Campaign:
    """Run named steps in order, checkpointing completion after each.

    ``steps`` is a sequence of ``(name, thunk)`` pairs.  A checkpoint file
    records the names already completed (under a context string, so a
    campaign at different parameters does not reuse stale completions);
    re-running skips them.  Checkpoint writes are atomic, and a corrupt or
    foreign checkpoint file is quarantined rather than trusted.
    """

    def __init__(
        self,
        steps: Sequence[Tuple[str, Callable[[], object]]],
        *,
        checkpoint_path: Path = DEFAULT_CHECKPOINT,
        context: str = "",
        resume: bool = True,
        repetitions: Optional[Dict[str, int]] = None,
    ) -> None:
        self.steps = list(steps)
        self.checkpoint_path = Path(checkpoint_path)
        self.context = context
        self.resume = resume
        self.completed: List[str] = []
        self.skipped: List[str] = []
        self.timings: Dict[str, float] = {}
        self.interrupted = False
        # per-step repetition counts (flight report statistics section);
        # None keeps the flight payload exactly its pre-statistics shape
        self.repetitions = dict(repetitions) if repetitions else None

    # -- checkpoint persistence ---------------------------------------------

    def _load_checkpoint(self) -> List[str]:
        if not self.resume or not self.checkpoint_path.exists():
            return []
        try:
            data = json.loads(self.checkpoint_path.read_text())
        except (json.JSONDecodeError, OSError):
            self._quarantine_checkpoint()
            return []
        if (
            not isinstance(data, dict)
            or data.get("version") != CHECKPOINT_VERSION
            or data.get("context") != self.context
            or not isinstance(data.get("completed"), list)
        ):
            # Different campaign (or drifted schema): start clean.
            return []
        return [str(name) for name in data["completed"]]

    def _quarantine_checkpoint(self) -> None:
        try:
            os.replace(
                self.checkpoint_path,
                self.checkpoint_path.with_suffix(".corrupt.json"),
            )
        except OSError:
            pass

    def _save_checkpoint(self, completed: List[str]) -> None:
        payload = json.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "context": self.context,
                "completed": completed,
            }
        )
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=self.checkpoint_path.name + ".",
                suffix=".tmp",
                dir=self.checkpoint_path.parent or Path("."),
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.checkpoint_path)
        except OSError:
            pass

    def clear_checkpoint(self) -> None:
        """Forget recorded progress (a finished campaign cleans up)."""
        try:
            self.checkpoint_path.unlink()
        except OSError:
            pass

    # -- execution -----------------------------------------------------------

    def run(
        self,
        on_step: Optional[Callable[[str, object], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> Dict[str, object]:
        """Execute pending steps; returns ``{name: step result}``.

        Completed steps from a previous (killed) run are skipped.  A step
        that raises stops the campaign with its progress checkpointed, so
        the next invocation resumes right there.  ``should_stop`` is
        polled between steps (the graceful SIGTERM/SIGINT path): when it
        returns True the campaign stops cleanly with ``self.interrupted``
        set and the checkpoint intact, so a rerun resumes bit-identically.
        """
        done = self._load_checkpoint()
        results: Dict[str, object] = {}
        self.completed = list(done)
        self.skipped = [name for name, _ in self.steps if name in done]
        self.interrupted = False
        for name, thunk in self.steps:
            if name in done:
                continue
            if should_stop is not None and should_stop():
                self.interrupted = True
                break
            step_started = time.perf_counter()
            outcome = thunk()
            self.timings[name] = time.perf_counter() - step_started
            results[name] = outcome
            if on_step is not None:
                on_step(name, outcome)
            self.completed.append(name)
            self._save_checkpoint(self.completed)
        if len(self.completed) == len(self.steps):
            self.clear_checkpoint()
        return results

    # -- flight data ---------------------------------------------------------

    def flight_payload(self) -> Dict[str, object]:
        """Per-step wall timings, the flight report's campaign section."""
        steps = []
        for name, _ in self.steps:
            if name not in self.timings:
                continue
            step: Dict[str, object] = {
                "name": name,
                "seconds": round(self.timings[name], 6),
            }
            if self.repetitions and name in self.repetitions:
                step["repetitions"] = self.repetitions[name]
            steps.append(step)
        return {
            "version": FLIGHT_VERSION,
            "context": self.context,
            "steps": steps,
            "total_seconds": round(
                sum(step["seconds"] for step in steps), 6
            ),
            "skipped": list(self.skipped),
        }

    def write_flight_data(self, path: Path = DEFAULT_FLIGHT_DATA) -> Path:
        """Persist the timings next to the checkpoint (atomically)."""
        path = Path(path)
        payload = json.dumps(self.flight_payload(), indent=1)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent or Path(".")
        )
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
        return path
