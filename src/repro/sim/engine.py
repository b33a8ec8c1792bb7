"""The multi-core simulation loop and its two entry points.

Cores execute in a global-time-ordered loop (the earliest core issues next),
so contention for the shared L3, DRAM-cache banks and DDR bus emerges from
the devices' next-free times.  Each core charges compute cycles from the
trace's instruction gaps and an amortized stall for each memory access — the
stand-in for out-of-order overlap (bounded memory-level parallelism).
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

from repro import obs
from repro.config import SystemConfig
from repro.resilience.ecc import SCHEMES
from repro.sim.energy import EnergyParams, total_energy_nj
from repro.sim.linestore import LineStore, process_store
from repro.sim.metrics import SimResult
from repro.sim.system import MemorySystem
from repro.workloads.base import TraceGenerator
from repro.workloads.registry import get_profile, is_mix, mix_members

CORE_ADDRESS_STRIDE = 1 << 40
"""Per-core virtual address offset (cores do not share data in rate mode)."""

CAPACITY_SAMPLE_EVERY = 512
"""Measured accesses between two samples of the L4's valid-line count."""


@dataclass(frozen=True)
class SimulationParams:
    """Run-length knobs, independent of the machine configuration."""

    accesses_per_core: int = 6000
    warmup_fraction: float = 0.35
    seed: int = 7
    # resilience knobs (fault_rate == 0.0 leaves the fault-free fast path
    # untouched: no injector is built and results are bit-identical)
    fault_rate: float = 0.0  # injected faults per GB-hour of simulated time
    ecc: str = "secded"  # "secded" | "none" (see repro.resilience.ecc)


def check_params(params: SimulationParams) -> None:
    """Reject run parameters no simulation can mean (``ValueError``).

    An ``ecc`` outside :data:`~repro.resilience.ecc.SCHEMES`, a negative
    or non-finite ``fault_rate`` and a ``warmup_fraction`` outside
    [0, 1) would each be simulated, cached under a key of their own, or
    fail only inside a worker.  An infinite ``fault_rate`` would never
    return: its fault arrivals never advance simulated time.
    """
    if params.ecc not in SCHEMES:
        raise ValueError(
            f"unknown ecc {params.ecc!r}; known: {', '.join(SCHEMES)}"
        )
    if not (math.isfinite(params.fault_rate) and params.fault_rate >= 0):
        raise ValueError(
            f"fault_rate must be finite and >= 0, got {params.fault_rate}"
        )
    if not 0 <= params.warmup_fraction < 1:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {params.warmup_fraction}"
        )


def _build_generators(
    workload: str,
    config: SystemConfig,
    params: SimulationParams,
    store: LineStore,
) -> List[TraceGenerator]:
    """One trace generator per core (rate mode or a mix), each drawing its
    initial line contents from ``store``."""
    num_cores = config.core.num_cores
    if is_mix(workload):
        names = mix_members(workload)
        if len(names) != num_cores:
            raise ValueError(
                f"mix {workload!r} defines {len(names)} members for "
                f"{num_cores} cores"
            )
    else:
        names = [workload] * num_cores
    generators = [
        TraceGenerator(
            get_profile(name),
            scale=config.scale,
            seed=params.seed + core,
            core_offset=core * CORE_ADDRESS_STRIDE,
        )
        for core, name in enumerate(names)
    ]
    tables = store.line_tables([g.data for g in generators])
    for generator, table in zip(generators, tables):
        generator.lines = table
    return generators


def _build_injector(config: SystemConfig, params: SimulationParams):
    """FaultInjector for this run, or None when injection is disabled."""
    if params.fault_rate <= 0.0:
        return None
    from repro.resilience import FaultInjector, FaultModel

    return FaultInjector(
        FaultModel(rate_per_gb_hour=params.fault_rate),
        capacity_bytes=config.l4.capacity_bytes,
        ecc=params.ecc,
        seed=params.seed,
    )


class _DataRouter:
    """Routes line addresses to the owning core's data factory."""

    def __init__(self, generators: List[TraceGenerator]) -> None:
        self._generators = generators

    def __call__(self, line_addr: int) -> bytes:
        core = min(
            line_addr // CORE_ADDRESS_STRIDE, len(self._generators) - 1
        )
        return self._generators[core].line_data(line_addr)


_Sources = Tuple[MemorySystem, List[Iterator[list]], List[int], List[int]]
"""A run's memory system and, per core, its chunk iterator, access quota
and warmup access count (what :func:`_drive` loops over)."""


def run_workload(
    workload: str,
    config: SystemConfig,
    params: Optional[SimulationParams] = None,
    energy_params: EnergyParams = EnergyParams(),
    store: Optional[LineStore] = None,
) -> SimResult:
    """Simulate one workload on one machine configuration.

    The run draws line contents and compressed sizes from ``store`` and
    leaves its own there for later runs; without one it uses the process
    store (:func:`~repro.sim.linestore.process_store`).  The result is the
    same on any store.
    """
    params = params or SimulationParams()
    store = store if store is not None else process_store()

    def sources(run_obs) -> _Sources:
        generators = _build_generators(workload, config, params, store)
        system = MemorySystem(
            config,
            _DataRouter(generators),
            fault_injector=_build_injector(config, params),
            obs=run_obs,
            store=store,
        )
        # Access quotas are instruction-matched: every core targets the
        # same instruction count (like the paper's 4B-instructions-per-
        # benchmark rule), so a mix's low-intensity cores serve
        # proportionally fewer accesses and all cores finish at comparable
        # simulated times.
        max_apki = max(g.profile.l3_apki for g in generators)
        quotas = [
            max(64, int(params.accesses_per_core * g.profile.l3_apki / max_apki))
            for g in generators
        ]
        warmups = [int(q * params.warmup_fraction) for q in quotas]
        chunks = [g.chunks(TraceGenerator.DEFAULT_CHUNK) for g in generators]
        return system, chunks, quotas, warmups

    return _drive(workload, config, params, energy_params, sources)


def run_trace(
    trace,
    config: SystemConfig,
    *,
    name: str = "trace",
    warmup_fraction: float = 0.0,
    energy_params: EnergyParams = EnergyParams(),
) -> SimResult:
    """Replay a recorded trace (see :mod:`repro.trace`) on one core.

    ``trace`` is anything iterable of Access records that also provides
    ``line_data(addr)`` for initial memory contents (a
    :class:`~repro.trace.RecordedTrace` does); a plain iterable works too,
    with untouched memory reading as zeros.

    The trace is one core's source for the loop :func:`run_workload`
    runs, read in chunks; the core's quota is the trace's length, learned
    when the last chunk is read.  So the trace is *streamed*: it is only
    materialized when a warmup window is requested on a trace that does
    not know its own length.
    """
    line_data = getattr(trace, "line_data", lambda _addr: bytes(64))
    warmup = 0
    if warmup_fraction > 0.0:
        try:
            total = len(trace)
        except TypeError:
            trace = list(trace)
            total = len(trace)
        warmup = int(total * warmup_fraction)

    def sources(run_obs) -> _Sources:
        system = MemorySystem(config, line_data, obs=run_obs)
        quotas = [sys.maxsize]  # until the last chunk is read
        return system, [_trace_chunks(trace, quotas)], quotas, [warmup]

    return _drive(name, config, None, energy_params, sources)


def _trace_chunks(trace, quotas: List[int]) -> Iterator[list]:
    """``trace`` in chunks for the loop's one core.  Reading the last chunk
    sets ``quotas[0]`` to the trace's length; an empty trace raises."""
    size = TraceGenerator.DEFAULT_CHUNK
    accesses = iter(trace)
    chunk = list(islice(accesses, size))
    if not chunk:
        raise ValueError("trace is empty")
    total = 0
    while chunk:
        total += len(chunk)
        following = list(islice(accesses, size))
        if not following:
            quotas[0] = total
        yield chunk
        chunk = following


def _drive(
    name: str,
    config: SystemConfig,
    params: Optional[SimulationParams],
    energy_params: EnergyParams,
    sources: Callable[..., _Sources],
) -> SimResult:
    """Run the cores of one simulation to their quotas; the result.

    ``sources(run_obs)`` builds the run's memory system and per-core
    sources (see :data:`_Sources`); it is called here because the memory
    system needs the run's observability and its set-up belongs to the
    run's ``sim`` profiler frame.  Each core's measurement window opens
    after its warmup accesses (at its first access for a warmup of 0) and
    closes at its quota.  ``params`` (None for a trace replay) is checked
    by :func:`check_params` and goes into the manifest.
    """
    if params is not None:
        check_params(params)
    run_obs = obs.begin_run(f"{name}x{config.name}")
    tracer = run_obs.tracer
    prof = run_obs.profiler
    started = time.perf_counter()
    if prof.enabled:
        prof.enter("sim")
    system, chunk_iters, quotas, warmups = sources(run_obs)

    num_cores = len(quotas)
    ipc = config.core.base_ipc
    mlp = config.core.mlp
    times = [0.0] * num_cores
    insts = [0] * num_cores
    served = [0] * num_cores
    # Chunked synthesis: each core refills a buffer of trace records in
    # batches, replacing a generator resume per access with a list index.
    # The access sequence is identical (chunks() drains the same
    # iterator), so results are too.
    chunk = TraceGenerator.DEFAULT_CHUNK
    if prof.enabled:
        # one workload.gen frame per chunk refill; the memory system has
        # wrapped its own handle_access in system.access frames
        chunk_iters = [
            obs.instrument_iterator(ci, "workload.gen", prof)
            for ci in chunk_iters
        ]
    bufs = [next(ci) for ci in chunk_iters]
    idxs = [0] * num_cores
    heap = [(0.0, core) for core in range(num_cores)]
    heapq.heapify(heap)

    # Per-core measurement windows.  Mixed workloads have wildly different
    # per-core intensities, so cores reach their access quotas at very
    # different simulated times; like the paper (Sec 3.2: run "until all
    # benchmarks ... execute at least 4 billion instructions each"), cores
    # that finish keep running to maintain contention, and each core's IPC
    # covers its own warmup->quota window.
    warm_times: List[Optional[float]] = [
        0.0 if warmup == 0 else None for warmup in warmups
    ]
    warm_insts: List[int] = [0] * num_cores
    end_times: List[Optional[float]] = [None] * num_cores
    end_insts: List[int] = [0] * num_cores
    capacity_samples: List[int] = []
    sample_every = CAPACITY_SAMPLE_EVERY
    accesses_since_sample = 0
    stats_reset_done = all(w is not None for w in warm_times)
    reset_cycle = 0
    tracer.set_phase("measure" if stats_reset_done else "warmup")

    while heap:
        _, core = heapq.heappop(heap)
        i = idxs[core]
        if i >= chunk:
            bufs[core] = next(chunk_iters[core])
            i = 0
        access = bufs[core][i]
        idxs[core] = i + 1
        t = times[core] + access.inst_gap / ipc
        finish = system.handle_access(access, int(t))
        stall = max(0.0, (finish - t) / mlp)
        times[core] = t + stall
        insts[core] += access.inst_gap
        served[core] += 1

        if stats_reset_done:
            accesses_since_sample += 1
            if accesses_since_sample >= sample_every:
                capacity_samples.append(system.l4.valid_line_count())
                accesses_since_sample = 0

        if warm_times[core] is None and served[core] >= warmups[core]:
            warm_times[core] = times[core]
            warm_insts[core] = insts[core]
        if end_times[core] is None and served[core] >= quotas[core]:
            end_times[core] = times[core]
            end_insts[core] = insts[core]

        if not stats_reset_done and all(w is not None for w in warm_times):
            system.reset_stats()
            stats_reset_done = True
            reset_cycle = int(max(w for w in warm_times if w is not None))
            if tracer.enabled:
                tracer.span(
                    "sim.warmup", "sim", 0, max(1, reset_cycle),
                    accesses=sum(warmups),
                )
            # events after this carry phase="measure", so a trace replay
            # can reconstruct the same window SimResult reports
            tracer.set_phase("measure")

        if any(e is None for e in end_times):
            heapq.heappush(heap, (times[core], core))

    window_cycles = max(
        1.0,
        max(
            end_times[c] - (warm_times[c] or 0.0) for c in range(num_cores)
        ),
    )
    window_insts = sum(end_insts[c] - warm_insts[c] for c in range(num_cores))
    per_core_ipc = [
        (end_insts[c] - warm_insts[c])
        / max(1.0, end_times[c] - (warm_times[c] or 0.0))
        for c in range(num_cores)
    ]

    l4 = system.l4
    l4_accesses = l4.device.total_accesses
    l4_bytes = l4.device.total_bytes_transferred
    mem_accesses = system.memory.device.total_accesses
    mem_bytes = system.memory.device.total_bytes_transferred
    energy = total_energy_nj(
        window_cycles, l4_accesses, l4_bytes, mem_accesses, mem_bytes,
        energy_params,
    )
    if not capacity_samples:
        capacity_samples.append(l4.valid_line_count())
    capacity = (sum(capacity_samples) / len(capacity_samples)) / l4.config.num_sets

    result = SimResult(
        workload=name,
        config_name=config.name,
        cycles=window_cycles,
        instructions=window_insts,
        per_core_ipc=per_core_ipc,
        l3_hit_rate=system.hierarchy.hit_rate,
        l4_hit_rate=l4.hit_rate,
        l4_accesses=l4_accesses,
        l4_bytes=l4_bytes,
        mem_accesses=mem_accesses,
        mem_bytes=mem_bytes,
        energy_nj=energy,
        effective_capacity=capacity,
        mapi_accuracy=system.mapi.accuracy,
        l3_bonus_installs=system.hierarchy.bonus_installs,
        l3_bonus_hits=system.hierarchy.bonus_hits,
    )
    cip = getattr(l4, "cip", None)
    if cip is not None:
        result.cip_accuracy = cip.accuracy
    if hasattr(l4, "write_prediction_accuracy"):
        result.cip_write_accuracy = l4.write_prediction_accuracy
    if hasattr(l4, "index_distribution"):
        result.index_distribution = l4.index_distribution()
    if system.fault_injector is not None:
        stats = system.fault_injector.stats
        result.faults_injected = stats.faults_injected
        result.ecc_corrected = stats.ecc_corrected
        result.ecc_detected_refetches = stats.ecc_detected_refetches
        result.silent_corruptions = stats.silent_corruptions
    result.manifest = obs.build_manifest(
        name, config, params, elapsed_s=time.perf_counter() - started
    )
    if tracer.enabled:
        end_cycle = int(max(e for e in end_times if e is not None))
        tracer.span(
            "sim.measure", "sim", reset_cycle,
            max(1, end_cycle - reset_cycle),
            instructions=window_insts,
        )
    if prof.enabled:
        prof.exit(int(window_cycles))  # close the root "sim" frame
    obs.finish_run(run_obs, result.manifest)
    return result
