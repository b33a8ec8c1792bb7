"""The unit of schedulable work: one (workload × config × params) simulation.

A :class:`Job` is a value object — frozen, hashable, and picklable — so the
planner can dedupe jobs shared between figures with a plain dict and the
scheduler can ship them to worker processes.  Its :attr:`cache_key` is the
*same* tuple the result cache keys on, which is what makes "checkpoint and
resume per job" fall out for free: a job whose key is already cached is
complete, wherever (and whenever) it ran.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Optional, Tuple, Union

from repro.harness import runner as runner_mod
from repro.sim.engine import SimulationParams
from repro.sim.metrics import SimResult

if TYPE_CHECKING:  # import at runtime would close an import cycle:
    # repro.obs initializes via repro.sim, which this module precedes
    from repro.obs.telemetry import TraceContext


def derive_rep_seed(base_seed: int, rep: int) -> int:
    """Deterministic per-repetition seed: identity at rep 0.

    Repetition 0 reuses ``base_seed`` unchanged, which is what keeps a
    single-repetition campaign bit-identical to a campaign that never
    heard of repetitions.  Later reps hash ``(base_seed, rep)`` so the
    derived seeds are pairwise distinct, order-independent, and stable
    across processes and platforms (sha256, not ``hash()``).
    """
    if rep == 0:
        return base_seed
    digest = hashlib.sha256(f"rep:{base_seed}:{rep}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Job:
    """One independent simulation, addressable by its stable cache key."""

    workload: str
    config_name: str
    # default_factory (not a plain default) so the partially-initialized
    # runner module is never touched during the runner <-> exec import cycle
    scale: int = field(default_factory=lambda: runner_mod.DEFAULT_SCALE)
    params: SimulationParams = field(default_factory=SimulationParams)
    # Sorted (field, value) pairs overriding the named config's
    # DRAMCacheConfig: a design-space sweep point.  Part of identity and
    # of the cache key's config digest.
    l4: runner_mod.L4Overrides = ()
    # Distributed-trace coordinates, attached by the scheduler/daemon when
    # tracing is on.  compare=False keeps identity (eq/hash), cache_key and
    # job_id exactly what they were without a trace — telemetry must never
    # change which results dedupe or where they land in the cache.
    trace: Optional["TraceContext"] = field(
        default=None, compare=False, repr=False
    )
    # Repetition index within a statistical campaign.  compare=False for
    # the same reason as ``trace``: identity stays keyed on what was
    # simulated.  Distinct reps already differ there — the planner derives
    # a distinct per-rep seed into ``params`` — so ``rep`` is pure
    # labeling metadata for the run table, never a dedupe discriminator
    # beyond what the derived seed provides.
    rep: int = field(default=0, compare=False)

    @property
    def cache_key(self) -> Tuple:
        """The result-cache key tuple (see ``runner._key``)."""
        return runner_mod._key(
            self.workload, self.config_name, self.scale, self.params, self.l4
        )

    @cached_property
    def job_id(self) -> str:
        """Short stable identifier derived from the cache key.

        Computed once per ``Job``: the daemon reads it several times per
        job on every submission.  ``cached_property`` stores it in the
        instance ``__dict__``, outside the dataclass fields, so equality,
        hashing and ``dataclasses.replace`` are unaffected.
        """
        digest = hashlib.sha256(
            json.dumps(self.cache_key).encode("utf-8")
        ).hexdigest()
        return digest[:12]

    def describe(self) -> str:
        """Human label for progress lines and failure reports."""
        label = f"{self.workload} × {self.config_name}"
        if self.l4:
            label += "[" + ", ".join(f"{k}={v}" for k, v in self.l4) + "]"
        if self.params.fault_rate:
            label += f" @fault={self.params.fault_rate:g}"
        if self.rep:
            label += f" rep={self.rep}"
        return label

    def peek(self) -> Optional[SimResult]:
        """This job's cached result, if any (memory or disk)."""
        return runner_mod.peek_cached(
            self.workload, self.config_name, scale=self.scale,
            params=self.params, l4=self.l4,
        )

    def execute(self) -> SimResult:
        """Run (or fetch) the simulation through the shared result cache."""
        return runner_mod.cached_run(
            self.workload, self.config_name, scale=self.scale,
            params=self.params, l4=self.l4,
        )

    def seed(self, result: SimResult) -> None:
        """Install a result computed elsewhere (a worker) as this job's."""
        runner_mod.seed_cache(
            self.workload, self.config_name, result, scale=self.scale,
            params=self.params, l4=self.l4,
        )

    def invalidate(self) -> None:
        """Forget this job's cached result, in memory and on disk."""
        runner_mod.invalidate(
            self.workload, self.config_name, scale=self.scale,
            params=self.params, l4=self.l4,
        )


def make_job(
    workload: str,
    config_name: str,
    *,
    scale: Optional[int] = None,
    params: Optional[SimulationParams] = None,
    rep: int = 0,
    l4: Union[Mapping[str, object], runner_mod.L4Overrides] = (),
) -> Job:
    """Build a Job, normalizing defaults exactly like ``cached_run`` does.

    ``cached_run(params=None)`` substitutes ``SimulationParams(accesses_per_core
    = DEFAULT_ACCESSES)``; the planner must mirror that so planned keys equal
    executed keys.  ``l4`` (a dict or pairs) is stored sorted, so equal
    overrides make equal jobs.
    """
    return Job(
        workload=workload,
        config_name=config_name,
        scale=runner_mod.DEFAULT_SCALE if scale is None else scale,
        params=params
        or SimulationParams(accesses_per_core=runner_mod.DEFAULT_ACCESSES),
        l4=tuple(sorted(dict(l4).items())) if l4 else (),
        rep=rep,
    )
