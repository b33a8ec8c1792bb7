"""Generic design-space sweeps over DRAM-cache parameters.

`sweep_l4` runs one workload across a list of `DRAMCacheConfig` field
overrides (thresholds, CIP sizes, tag sharing, victim policy, ...) and
reports speedups over a shared baseline — the machinery behind the paper's
Table 4-style sensitivity studies, exposed for ad-hoc exploration.

Each sweep point is a :class:`~repro.exec.Job` whose ``l4`` field holds
its overrides, so points run like any campaign's jobs: through
:func:`repro.exec.run_jobs` on a supervised pool of ``jobs=`` worker
processes (``REPRO_JOBS``, defaulting to the CPU count), cached under a
key that includes the overrides, and resumable.  Results come back in
override order, so a parallel sweep is indistinguishable from a serial
one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import make_job, run_jobs
from repro.harness.runner import DEFAULT_SCALE
from repro.sim.engine import SimulationParams
from repro.sim.metrics import SimResult


def sweep_l4(
    workload: str,
    overrides: Sequence[Dict[str, object]],
    *,
    base_config: str = "dice",
    baseline: str = "base",
    scale: int = DEFAULT_SCALE,
    params: Optional[SimulationParams] = None,
    jobs: Optional[int] = None,
) -> List[Tuple[Dict[str, object], float, SimResult]]:
    """Run ``workload`` once per override dict.

    Returns ``(override, speedup_over_baseline, result)`` per point.
    ``jobs`` bounds the worker processes (None: ``REPRO_JOBS`` or the CPU
    count).  Raises ``RuntimeError`` naming every point that failed: a
    sweep without one of its points is not a sweep.
    """
    params = params or SimulationParams()
    points = [make_job(workload, baseline, scale=scale, params=params)] + [
        make_job(workload, base_config, scale=scale, params=params, l4=override)
        for override in overrides
    ]
    outcomes = run_jobs(points, max_workers=jobs)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        raise RuntimeError(
            "sweep point(s) failed: "
            + "; ".join(f"{o.job.describe()}: {o.error}" for o in failed)
        )
    ref, rest = outcomes[0].result, outcomes[1:]
    return [
        (override, outcome.result.weighted_speedup_over(ref), outcome.result)
        for override, outcome in zip(overrides, rest)
    ]


def threshold_sweep(
    workload: str,
    thresholds: Sequence[int] = (0, 16, 24, 32, 36, 40, 48, 64),
    **kw,
) -> List[Tuple[int, float]]:
    """DICE insertion-threshold curve for one workload (Table 4 extended).

    0 degenerates to pure TSI and 64 to pure BAI, so the curve's endpoints
    are the two static designs and its peak is the paper's 36 B story.
    """
    points = sweep_l4(
        workload,
        [{"dice_threshold": t} for t in thresholds],
        **kw,
    )
    return [
        (override["dice_threshold"], speedup)
        for override, speedup, _result in points
    ]
