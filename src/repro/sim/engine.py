"""Multi-core simulation loop and the per-run entry point.

Cores execute in a global-time-ordered loop (the earliest core issues next),
so contention for the shared L3, DRAM-cache banks and DDR bus emerges from
the devices' next-free times.  Each core charges compute cycles from the
trace's instruction gaps and an amortized stall for each memory access — the
stand-in for out-of-order overlap (bounded memory-level parallelism).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.config import SystemConfig
from repro.sim.energy import EnergyParams, total_energy_nj
from repro.sim.linestore import LineStore
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


def run_workload(
    workload: str,
    config: SystemConfig,
    params: Optional[SimulationParams] = None,
    energy_params: EnergyParams = EnergyParams(),
    store: Optional[LineStore] = None,
) -> SimResult:
    """Simulate one workload on one machine configuration.

    ``store`` keeps line contents and compressed sizes for later runs (a
    pool worker passes its own); without one the run builds a fresh store
    and nothing outlives it.  The result is the same either way.
    """
    params = params or SimulationParams()
    store = store if store is not None else LineStore()
    run_obs = obs.begin_run(f"{workload}x{config.name}")
    tracer = run_obs.tracer
    prof = run_obs.profiler
    started = time.perf_counter()
    if prof.enabled:
        prof.enter("sim")
    generators = _build_generators(workload, config, params, store)
    system = MemorySystem(
        config,
        _DataRouter(generators),
        fault_injector=_build_injector(config, params),
        obs=run_obs,
        store=store,
    )
    tracer.set_phase("warmup")

    num_cores = config.core.num_cores
    ipc = config.core.base_ipc
    mlp = config.core.mlp
    # Access quotas are instruction-matched: every core targets the same
    # instruction count (like the paper's 4B-instructions-per-benchmark
    # rule), so a mix's low-intensity cores serve proportionally fewer
    # accesses and all cores finish at comparable simulated times.
    max_apki = max(g.profile.l3_apki for g in generators)
    quotas = [
        max(64, int(params.accesses_per_core * g.profile.l3_apki / max_apki))
        for g in generators
    ]
    warmups = [int(q * params.warmup_fraction) for q in quotas]

    times = [0.0] * num_cores
    insts = [0] * num_cores
    served = [0] * num_cores
    # Chunked synthesis: each core refills a preallocated buffer of trace
    # records in batches, replacing a generator resume per access with a
    # list index.  The access sequence is identical (chunks() drains the
    # same iterator), so results are too.
    chunk = TraceGenerator.DEFAULT_CHUNK
    chunk_iters = [g.chunks(chunk) for g in generators]
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
    warm_times: List[Optional[float]] = [None] * num_cores
    warm_insts: List[int] = [0] * num_cores
    end_times: List[Optional[float]] = [None] * num_cores
    end_insts: List[int] = [0] * num_cores
    capacity_samples: List[int] = []
    sample_every = CAPACITY_SAMPLE_EVERY
    accesses_since_sample = 0
    stats_reset_done = False
    reset_cycle = 0

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
        workload=workload,
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
        workload, config, params, elapsed_s=time.perf_counter() - started
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

    The trace is *streamed*: it is only materialized when a warmup window
    is requested on a trace that does not know its own length (replaying a
    multi-gigabyte recorded trace no longer builds a Python list of it).
    Warmup and measurement windows are emitted as ``sim.warmup`` /
    ``sim.measure`` tracer spans, mirroring :func:`run_workload`.
    """
    line_data = getattr(trace, "line_data", lambda _addr: bytes(64))
    run_obs = obs.begin_run(f"{name}x{config.name}")
    tracer = run_obs.tracer
    prof = run_obs.profiler
    started = time.perf_counter()
    if prof.enabled:
        prof.enter("sim")
    system = MemorySystem(config, line_data, obs=run_obs)
    ipc = config.core.base_ipc
    mlp = config.core.mlp

    accesses = trace
    warmup = 0
    if warmup_fraction > 0.0:
        try:
            total = len(trace)
        except TypeError:
            accesses = list(trace)
            total = len(accesses)
        warmup = int(total * warmup_fraction)
    tracer.set_phase("warmup" if warmup > 0 else "measure")
    now = 0.0
    insts = 0
    warm_time = 0.0
    warm_insts = 0
    reset_cycle = 0
    count = 0
    for access in accesses:
        if count == warmup and warmup > 0:
            warm_time, warm_insts = now, insts
            system.reset_stats()
            reset_cycle = int(now)
            if tracer.enabled:
                tracer.span(
                    "sim.warmup", "sim", 0, max(1, reset_cycle),
                    accesses=warmup,
                )
            tracer.set_phase("measure")
        t = now + access.inst_gap / ipc
        finish = system.handle_access(access, int(t))
        now = t + max(0.0, (finish - t) / mlp)
        insts += access.inst_gap
        count += 1
    if count == 0:
        raise ValueError("trace is empty")
    time_end = now

    cycles = max(1.0, time_end - warm_time)
    window_insts = insts - warm_insts
    l4 = system.l4
    energy = total_energy_nj(
        cycles,
        l4.device.total_accesses,
        l4.device.total_bytes_transferred,
        system.memory.device.total_accesses,
        system.memory.device.total_bytes_transferred,
        energy_params,
    )
    result = SimResult(
        workload=name,
        config_name=config.name,
        cycles=cycles,
        instructions=window_insts,
        per_core_ipc=[window_insts / cycles],
        l3_hit_rate=system.hierarchy.hit_rate,
        l4_hit_rate=l4.hit_rate,
        l4_accesses=l4.device.total_accesses,
        l4_bytes=l4.device.total_bytes_transferred,
        mem_accesses=system.memory.device.total_accesses,
        mem_bytes=system.memory.device.total_bytes_transferred,
        energy_nj=energy,
        effective_capacity=l4.valid_line_count() / l4.config.num_sets,
        mapi_accuracy=system.mapi.accuracy,
        l3_bonus_installs=system.hierarchy.bonus_installs,
        l3_bonus_hits=system.hierarchy.bonus_hits,
    )
    result.manifest = obs.build_manifest(
        name, config, elapsed_s=time.perf_counter() - started
    )
    if tracer.enabled:
        tracer.span(
            "sim.measure", "sim", reset_cycle,
            max(1, int(time_end) - reset_cycle),
            instructions=window_insts,
        )
    if prof.enabled:
        prof.exit(int(cycles))
    obs.finish_run(run_obs, result.manifest)
    return result
