"""Campaign execution: prefetch, then render each experiment in turn.

A figure-regeneration campaign (``cli all``, or one experiment such as
``cli fig13``) can be hours of simulation at paper fidelity.  It stays
restartable through the result cache alone:

* :func:`prefetch_experiments` is the bridge to the execution engine
  (:mod:`repro.exec`): it plans the simulations a set of experiments
  needs, runs them on the supervised worker pool (which bounds, retries
  and quarantines each job — see :mod:`repro.exec.supervisor`), and
  leaves every result cached so the table rendering that follows is
  instant.  Each finished simulation persists atomically, so a killed
  campaign resumes at simulation granularity;
* :class:`Campaign` walks the list of experiments, timing each step for
  the flight report and stopping between steps when asked to.  A rerun
  renders every step again, from the cache, so its output never depends
  on an earlier run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
# campaign steps


class Campaign:
    """Run named steps in order, timing each.

    ``steps`` is a sequence of ``(name, thunk)`` pairs.  Every run
    executes every step; resuming a killed campaign is the result
    cache's job, not this class's.
    """

    def __init__(
        self,
        steps: Sequence[Tuple[str, Callable[[], object]]],
        *,
        repetitions: Optional[Dict[str, int]] = None,
    ) -> None:
        self.steps = list(steps)
        self.completed: List[str] = []
        self.timings: Dict[str, float] = {}
        self.interrupted = False
        # per-step repetition counts (flight report statistics section);
        # None keeps the flight payload exactly its pre-statistics shape
        self.repetitions = dict(repetitions) if repetitions else None

    def run(
        self, should_stop: Optional[Callable[[], bool]] = None
    ) -> Dict[str, object]:
        """Execute the steps; returns ``{name: step result}``.

        A step that raises stops the campaign.  ``should_stop`` is polled
        between steps (the graceful SIGTERM/SIGINT path): when it returns
        True the campaign stops cleanly with ``self.interrupted`` set.
        """
        results: Dict[str, object] = {}
        self.completed = []
        self.interrupted = False
        for name, thunk in self.steps:
            if should_stop is not None and should_stop():
                self.interrupted = True
                break
            step_started = time.perf_counter()
            outcome = thunk()
            self.timings[name] = time.perf_counter() - step_started
            results[name] = outcome
            self.completed.append(name)
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
            "steps": steps,
            "total_seconds": round(
                sum(step["seconds"] for step in steps), 6
            ),
        }

    def write_flight_data(self, path: Path = DEFAULT_FLIGHT_DATA) -> Path:
        """Persist the timings in the working directory (atomically)."""
        path = Path(path)
        payload = json.dumps(self.flight_payload(), indent=1)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent or Path(".")
        )
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
        return path
