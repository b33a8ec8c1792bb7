"""The full memory system: shared L3, L4 DRAM cache, DDR main memory.

`MemorySystem.handle_access` walks one L3 access through the hierarchy and
returns the cycle at which the demand resolves.  Side traffic — installs,
writebacks, stale-copy invalidations, MAP-I's parallel memory probes, and
explicit prefetches — is charged to the timing devices without blocking the
demand, which is how a real controller overlaps it.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.cache.hierarchy import OnChipHierarchy
from repro.config import SystemConfig
from repro.core.compressed_cache import CompressedDRAMCache
from repro.core.dice import DICECache
from repro.core.knl import KNLDICECache
from repro.dram.mainmemory import MainMemory
from repro.dramcache.alloy import AlloyCache, L4ReadResult
from repro.dramcache.mapi import MAPIPredictor
from repro.dramcache.scc import SCCDRAMCache
from repro.obs import RunObservability, instrument_method
from repro.resilience.ecc import CORRECTED, DETECTED
from repro.resilience.injector import FaultInjector
from repro.sim.linestore import LineStore
from repro.sim.prefetch import prefetch_target
from repro.workloads.base import Access

DataGenerator = Callable[[int], bytes]


def build_l4(config, store: Optional[LineStore] = None):
    """Instantiate the DRAM-cache design named by a config.

    Accepts either a full :class:`SystemConfig` or a bare
    :class:`~repro.config.DRAMCacheConfig`.  A compressed design builds
    its compressor and pair-size cache around ``store``'s memos.
    """
    l4cfg = getattr(config, "l4", config)
    if not l4cfg.compressed:
        return AlloyCache(l4cfg)
    scheme = l4cfg.index_scheme
    if scheme in ("tsi", "nsi", "bai"):
        return CompressedDRAMCache(l4cfg, store=store)
    if scheme == "dice":
        if l4cfg.neighbor_tag_visible:
            return DICECache(l4cfg, store=store)
        return KNLDICECache(l4cfg, store=store)
    if scheme == "scc":
        return SCCDRAMCache(l4cfg, store=store)
    if scheme == "lcp":
        from repro.dramcache.lcp import LCPDRAMCache

        return LCPDRAMCache(l4cfg, store=store)
    raise ValueError(f"unknown L4 design {scheme!r}")


class MemorySystem:
    """Shared memory system below the cores' private caches."""

    def __init__(
        self,
        config: SystemConfig,
        data_generator: DataGenerator,
        fault_injector: Optional[FaultInjector] = None,
        obs: Optional[RunObservability] = None,
        store: Optional[LineStore] = None,
    ) -> None:
        self.config = config
        self.hierarchy = OnChipHierarchy(config.l3)
        self.l4 = build_l4(config, store)
        self.memory = MainMemory(config.memory, data_generator)
        self.mapi = MAPIPredictor()
        self.fault_injector = fault_injector
        # Observability: the tracer is consulted (guarded, so the disabled
        # singleton is never even called on the hot path) and the registry
        # owns this system's push-style instruments.  Components with their
        # own fast plain-int counters publish through the pull collector.
        self.obs = obs if obs is not None else RunObservability.disabled()
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        self._demand_reads = self.metrics.counter("sim.demand.reads")
        self._prefetch_issued = self.metrics.counter("sim.prefetch.issued")
        self._wasted_parallel_probes = self.metrics.counter(
            "sim.mapi.wasted_probes"
        )
        self.demand_latency = self.metrics.histogram(
            "sim.demand.latency_cycles"
        )
        self.l4_bandwidth = self.metrics.tracker("sim.l4.bandwidth")
        # Held weakly: a bound method in our own registry would make every
        # finished run cyclic garbage, kept (with its caches, memos and
        # line tables) until a full collection.
        collect = weakref.WeakMethod(self._collect_metrics)

        def collect_while_alive(registry) -> None:
            method = collect()
            if method is not None:
                method(registry)

        self.metrics.add_collector(collect_while_alive)
        if self.tracer.enabled:
            # hand the run's tracer down to the timing devices (instance
            # attributes shadow the class-level NULL_TRACER)
            self.l4.tracer = self.tracer
            self.l4.device.tracer = self.tracer
            self.l4.device.trace_cat = "dram.l4"
            self.memory.device.tracer = self.tracer
            self.memory.device.trace_cat = "dram.mem"
        self.prof = self.obs.profiler
        if self.prof.enabled:
            # Component attribution: wrap the *instances'* hot methods in
            # profiler frames.  Applied only when profiling is enabled, so
            # unprofiled runs keep the original unwrapped bound methods.
            # The compressor instance is shared with the pair-size cache,
            # so one wrap covers both install- and probe-side codec calls;
            # it is this run's own (the line store shares only its memos),
            # so the wrap ends with the run.
            # Frames that model simulated time are charged the cycles from
            # their start argument to the finish cycle they return; L4
            # prefetch probes share the l4.lookup frame with demand reads.
            prof = self.prof
            instrument_method(
                self, "handle_access", "system.access", prof,
                cycles=lambda args, finish: finish - args[1],
            )
            instrument_method(
                self.l4, "read", "l4.lookup", prof,
                cycles=lambda args, res: res.finish_cycle - args[1],
            )
            instrument_method(
                self.l4, "install", "l4.install", prof,
                cycles=lambda args, res: res.finish_cycle - args[2],
            )
            instrument_method(
                self.memory, "read", "dram.mainmemory", prof,
                cycles=lambda args, res: res[1] - args[1],
            )
            instrument_method(self.mapi, "predict_miss", "mapi.predict", prof)
            compressor = getattr(self.l4, "compressor", None)
            if compressor is not None:
                instrument_method(
                    compressor, "compressed_size", "codec.compressed_size",
                    prof,
                )
            cip = getattr(self.l4, "cip", None)
            if cip is not None:
                instrument_method(cip, "predict_bai", "cip.predict", prof)
            instrument_method(
                self.l4, "choose_index", "dice.choose_index", prof
            )
            instrument_method(self.l4.device, "access", "dram.l4.access", prof)
            instrument_method(
                self.memory.device, "access", "dram.mem.access", prof
            )

    # registry-backed counters, exposed as the plain ints tests and the
    # harness have always read
    @property
    def demand_reads(self) -> int:
        return self._demand_reads.value

    @property
    def prefetch_issued(self) -> int:
        return self._prefetch_issued.value

    @property
    def wasted_parallel_probes(self) -> int:
        return self._wasted_parallel_probes.value

    # -- public entry points -------------------------------------------------

    def handle_access(self, access: Access, now: int) -> int:
        """Serve one L3 access; returns the resolve cycle."""
        if access.is_write:
            return self._handle_write(access, now)
        return self._handle_read(access, now)

    # -- write path ------------------------------------------------------------

    def _handle_write(self, access: Access, now: int) -> int:
        """Stores write-allocate into L3; dirtiness drains via evictions."""
        line = access.line_addr
        data = self._store_data(line)
        if self.hierarchy.write(line, data):
            return now + self.config.l3.latency_cycles
        finish = self._miss_fill(access, now)
        self.hierarchy.write(line, data)
        return finish

    def _store_data(self, line_addr: int) -> bytes:
        """New contents for a stored-to line (same data class, new values)."""
        current = self.memory.read_data(line_addr)
        # Flip a value-sized chunk deterministically: preserves the line's
        # compressibility class while changing its bytes.  The low bits
        # cycle mod 4 so repeated stores revisit a small set of variants,
        # keeping the compressor's memo effective.
        mutated = bytearray(current)
        word = int.from_bytes(mutated[0:4], "little")
        word = (word & ~0x3) | ((word + 1) & 0x3)
        mutated[0:4] = word.to_bytes(4, "little")
        return bytes(mutated)

    # -- read path ---------------------------------------------------------------

    def _handle_read(self, access: Access, now: int) -> int:
        data = self.hierarchy.lookup(access.line_addr)
        if data is not None:
            return now + self.config.l3.latency_cycles
        return self._miss_fill(access, now)

    def _miss_fill(self, access: Access, now: int) -> int:
        """L3 miss: consult L4 (and memory), install, maybe prefetch."""
        finish = self._miss_fill_inner(access, now)
        self.demand_latency.record(max(0, finish - now))
        return finish

    def _miss_fill_inner(self, access: Access, now: int) -> int:
        self._demand_reads.inc()
        line = access.line_addr
        t = now + self.config.l3.latency_cycles
        predicted_miss = self.mapi.predict_miss(access.pc)

        result = self.l4.read(line, t, access.pc)
        tracer = self.tracer
        if tracer.enabled:
            # Emitted before fault filtering so the event stream replays to
            # exactly the L4-internal hit/miss accounting.
            tracer.instant(
                "l4.read", "l4", t, sampled=True,
                kind="demand", hit=result.hit, line=line,
            )
            if predicted_miss == result.hit:
                tracer.instant(
                    "mapi.mispredict", "mapi", t, sampled=True,
                    predicted_miss=predicted_miss, hit=result.hit,
                )
        self.l4_bandwidth.record(t, result.accesses * 80)
        if self.fault_injector is not None and result.hit:
            # Narrow resilience hook: on fault-free runs the injector is
            # None and this branch costs one attribute check per read.
            result = self._filter_faulty_read(line, result, t)
        if result.hit:
            self.mapi.update(access.pc, was_miss=False)
            if predicted_miss:
                # MAP-I launched a useless memory read in parallel.
                self.memory.read(line, t)
                self._wasted_parallel_probes.inc()
            self._install_l3(line, result.data, now=result.finish_cycle)
            for extra_addr, extra_data in result.extra_lines:
                self._install_l3_bonus(extra_addr, extra_data)
            finish = result.finish_cycle
        else:
            self.mapi.update(access.pc, was_miss=True)
            mem_arrival = t if predicted_miss else result.finish_cycle
            data, mem_finish = self.memory.read(line, mem_arrival)
            self._install_l4(line, data, mem_finish, after_demand_read=True)
            self._install_l3(line, data, now=mem_finish)
            finish = max(result.finish_cycle, mem_finish)

        self._maybe_prefetch(line, finish)
        return finish

    # -- resilience ------------------------------------------------------------------

    def _filter_faulty_read(
        self, line: int, result: L4ReadResult, now: int
    ) -> L4ReadResult:
        """Apply injected faults + the ECC verdict to one L4 read hit.

        * corrected — single-bit error fixed by SECDED; data passes clean;
        * detected — uncorrectable: the poisoned frame is invalidated (both
          lines, if pair-compressed) and the demand falls through to the
          ordinary miss path, refetching from DDR at its real cost;
        * silent — multi-bit miscorrection (or no ECC): poisoned data is
          written back into the frame and propagates to the L3.
        """
        injector = self.fault_injector
        set_index = (
            result.set_index
            if result.set_index is not None
            else line % self.l4.num_sets
        )
        bit_errors = injector.bit_errors_for_read(set_index, now)
        if bit_errors == 0:
            return result
        if self.tracer.enabled:
            # faults are rare lifecycle events: never sampled out
            self.tracer.instant(
                "resilience.fault", "resilience", now,
                set_index=set_index, bits=bit_errors,
                verdict=injector.verdict(bit_errors),
            )

        # A fault strikes the physical frame.  If the demand line is
        # pair-compressed there, its buddy shares the tag and bases, so the
        # blast radius covers both lines (the DICE-specific hazard).
        pair_buddy = getattr(self.l4, "pair_buddy", None)
        buddy = pair_buddy(line) if pair_buddy is not None else None
        affected = 2 if buddy is not None else 1
        stats = injector.stats
        stats.lines_corrupted += affected
        if buddy is not None:
            stats.pair_blast_events += 1

        verdict = injector.verdict(bit_errors)
        if verdict == CORRECTED:
            stats.ecc_corrected += affected
            return result
        if verdict == DETECTED:
            self.l4.invalidate(line)
            if buddy is not None:
                self.l4.invalidate(buddy)
            stats.ecc_detected_invalidations += affected
            stats.ecc_detected_refetches += 1
            # Miss-shaped result: the caller's miss path charges the DDR
            # refetch and reinstalls the line — graceful degradation.
            return L4ReadResult(
                hit=False,
                data=None,
                finish_cycle=result.finish_cycle,
                accesses=result.accesses,
            )
        # silent
        stats.silent_corruptions += affected
        poison = lambda data: injector.corrupt(data, bit_errors)  # noqa: E731
        corrupted = self.l4.corrupt_stored(line, poison)
        result.data = corrupted if corrupted is not None else poison(result.data)
        if buddy is not None:
            corrupted_buddy = self.l4.corrupt_stored(buddy, poison)
            if corrupted_buddy is not None and result.extra_lines:
                result.extra_lines = [
                    (addr, corrupted_buddy if addr == buddy else data)
                    for addr, data in result.extra_lines
                ]
        return result

    # -- fills, writebacks, prefetch ------------------------------------------------

    def _install_l3(self, line_addr: int, data: bytes, now: int) -> None:
        evicted = self.hierarchy.install(line_addr, data)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l4(evicted.line_addr, evicted.data, now)

    def _install_l3_bonus(self, line_addr: int, data: bytes) -> None:
        evicted = self.hierarchy.install_bonus(line_addr, data)
        if evicted is not None and evicted.dirty:
            self._writeback_to_l4(evicted.line_addr, evicted.data, now=0)

    def _install_l4(
        self, line_addr: int, data: bytes, now: int, *, after_demand_read: bool
    ) -> None:
        wres = self.l4.install(
            line_addr,
            data,
            now,
            dirty=not after_demand_read,
            after_demand_read=after_demand_read,
        )
        for victim_addr, victim_data in wres.writebacks:
            self.memory.write(victim_addr, victim_data, wres.finish_cycle)

    def _writeback_to_l4(self, line_addr: int, data: bytes, now: int) -> None:
        """Dirty L3 victim drains into the (write-allocating) L4."""
        self._install_l4(line_addr, data, now, after_demand_read=False)

    def _maybe_prefetch(self, line_addr: int, now: int) -> None:
        target = prefetch_target(self.config.l3_prefetch, line_addr)
        if target is None or self.hierarchy.l3.contains(target):
            return
        self._prefetch_issued.inc()
        result = self.l4.read(target, now, pc=0)
        if self.tracer.enabled:
            # prefetch probes hit the same L4 counters as demand reads, so
            # the replayable event stream must cover them too
            self.tracer.instant(
                "l4.read", "l4", now, sampled=True,
                kind="prefetch", hit=result.hit, line=target,
            )
        if result.hit:
            self._install_l3_bonus(target, result.data)
        # prefetch L4 misses are dropped: no memory fetch, bandwidth only

    # -- stats -------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Open the measurement window: zero every counter the run reports.

        Resets in place — components hold references to registry-owned
        instruments, and those references must survive.  The resilience
        counters reset here too, so post-warmup windows never inherit
        warmup fault exposure (the injector's planted stuck sites and
        timeline are state, not accounting, and keep firing).
        """
        self.hierarchy.reset_stats()
        self.l4.reset_stats()
        self.memory.reset_stats()
        if self.fault_injector is not None:
            self.fault_injector.stats.reset()
        self.metrics.reset()

    # -- metrics export -----------------------------------------------------------

    def _collect_metrics(self, registry) -> None:
        """Pull collector: publish component-internal counters into the
        registry at export time (the components keep their fast plain-int
        counters on the hot path)."""
        l4 = self.l4
        registry.counter("sim.l4.read_hits").set(l4.read_hits)
        registry.counter("sim.l4.read_misses").set(l4.read_misses)
        registry.counter("sim.l4.installs").set(l4.installs)
        registry.gauge("sim.l4.hit_rate").set(l4.hit_rate)
        registry.counter("sim.l4.device_accesses").set(
            l4.device.total_accesses
        )
        registry.counter("sim.l4.device_bytes").set(
            l4.device.total_bytes_transferred
        )
        registry.counter("sim.mem.device_accesses").set(
            self.memory.device.total_accesses
        )
        registry.counter("sim.mem.device_bytes").set(
            self.memory.device.total_bytes_transferred
        )
        registry.gauge("sim.l3.hit_rate").set(self.hierarchy.hit_rate)
        registry.counter("sim.l3.bonus_installs").set(
            self.hierarchy.bonus_installs
        )
        registry.counter("sim.l3.bonus_hits").set(self.hierarchy.bonus_hits)
        registry.counter("sim.mapi.predictions").set(self.mapi.predictions)
        registry.counter("sim.mapi.correct").set(self.mapi.correct)
        registry.gauge("sim.mapi.accuracy").set(self.mapi.accuracy)
        cip = getattr(l4, "cip", None)
        if cip is not None:
            registry.counter("sim.cip.lookups").set(cip.lookups)
            registry.counter("sim.cip.correct").set(cip.correct)
            registry.gauge("sim.cip.accuracy").set(cip.accuracy)
        for name in (
            "installs_invariant", "installs_tsi", "installs_bai",
            "second_accesses", "index_switches",
        ):
            value = getattr(l4, name, None)
            if value is not None:
                registry.counter(f"sim.dice.{name}").set(value)
        compressor = getattr(l4, "compressor", None)
        if compressor is not None:
            memo_stats = getattr(compressor, "memo_stats", None)
            if memo_stats is not None:
                for key, value in memo_stats().items():
                    if key == "entries":
                        registry.gauge("codec.memo.entries").set(value)
                    else:
                        registry.counter(f"codec.memo.{key}").set(value)
        pair_sizes = getattr(l4, "pair_sizes", None)
        if pair_sizes is not None:
            for key, value in pair_sizes.stats().items():
                if key == "entries":
                    registry.gauge("codec.pair_memo.entries").set(value)
                else:
                    registry.counter(f"codec.pair_memo.{key}").set(value)
        if self.fault_injector is not None:
            stats = self.fault_injector.stats
            for name in (
                "faults_injected", "lines_corrupted", "ecc_corrected",
                "ecc_detected_refetches", "ecc_detected_invalidations",
                "silent_corruptions", "stuck_sites_planted",
                "pair_blast_events",
            ):
                registry.counter(f"sim.resilience.{name}").set(
                    getattr(stats, name)
                )
