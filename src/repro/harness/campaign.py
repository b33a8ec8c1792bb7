"""Campaign prefetch: run every simulation a set of experiments needs.

A figure-regeneration campaign (``cli all``, or one experiment such as
``cli fig13``) can be hours of simulation at paper fidelity.  It stays
restartable through the result cache alone: :func:`prefetch_experiments`
is the bridge to the execution engine (:mod:`repro.exec`).  It plans the
simulations the experiments need, runs them on the supervised worker
pool (which bounds, retries and quarantines each job — see
:mod:`repro.exec.supervisor`), and leaves every result cached, so the
table rendering that follows is instant.  Each finished simulation
persists atomically, so a killed campaign resumes at simulation
granularity, and a rerun renders every table again from the cache, so
its output never depends on an earlier run.
"""

from __future__ import annotations

from typing import Optional, Sequence


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
