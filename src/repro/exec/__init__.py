"""Parallel execution engine: jobs, planning, and supervised scheduling.

The subsystem that turns a figure-regeneration campaign from a serial
loop into a sharded, resumable, deterministic fan-out:

* :mod:`repro.exec.job` — the unit of work (workload × config × params)
  with a stable cache key;
* :mod:`repro.exec.planner` — expands experiments into a deduped job
  list in deterministic order;
* :mod:`repro.exec.scheduler` — ``run_jobs``: cache hits served in the
  parent, the rest run on a supervisor, outcomes merged in plan order
  with drain-on-failure semantics;
* :mod:`repro.exec.supervisor` — the one loop that runs a job attempt,
  for the CLI and the campaign daemon alike: a long-lived worker pool
  with watchdog deadlines, broken-pool rebuild + requeue, poison-job
  quarantine, result validation, and graceful SIGTERM/SIGINT shutdown;
* :mod:`repro.exec.cache` — the concurrency-safe sharded result store
  backing the harness result cache, with per-shard write circuit
  breakers;
* :mod:`repro.exec.progress` — done/running/failed/ETA reporting.
"""

from repro.exec.cache import (
    CacheHealth,
    ShardedResultCache,
    cache_health,
    reset_cache_health,
)
from repro.exec.job import Job, make_job
from repro.exec.planner import Plan, build_plan, plan_experiment
from repro.exec.progress import ProgressPrinter, ProgressSnapshot, format_progress
from repro.exec.scheduler import (
    JobOutcome,
    last_report,
    resolve_jobs,
    run_jobs,
)
from repro.exec.supervisor import (
    CorruptResultError,
    ShutdownFlag,
    SupervisionReport,
    Supervisor,
    SupervisorPolicy,
    graceful_signals,
    validate_result,
)

__all__ = [
    "CacheHealth",
    "CorruptResultError",
    "Job",
    "JobOutcome",
    "Plan",
    "ProgressPrinter",
    "ProgressSnapshot",
    "ShardedResultCache",
    "ShutdownFlag",
    "SupervisionReport",
    "Supervisor",
    "SupervisorPolicy",
    "build_plan",
    "cache_health",
    "format_progress",
    "graceful_signals",
    "last_report",
    "make_job",
    "plan_experiment",
    "reset_cache_health",
    "resolve_jobs",
    "run_jobs",
    "validate_result",
]
