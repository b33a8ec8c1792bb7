"""LCP-style compressed DRAM cache (the main-memory-compression contrast).

Sec 2.2 motivates DICE against Linearly-Compressed-Pages-style main-memory
compression: pages are compressed to a uniform per-line target so a single
access fetches multiple lines, but (a) page layout needs OS involvement and
(b) lines that do not meet the target live in an *exception region*, costing
a second serialized access.  Sec 7.2 makes the same point about the hybrid
PCM/DRAM designs built on this idea: "an additional serialized access to
find compressed size and offset ... double the bandwidth usage and double
the latency per access".

This model transplants that organization onto the DRAM cache so the
trade-off is measurable in the same harness:

* each page (16-line region) holds lines compressed to a fixed 16 B target;
* a line meeting the target is read with one access that also returns its
  page neighbors (bandwidth benefit, like BAI);
* an exception line costs a second, serialized access;
* per-page metadata (which lines are exceptions) is charged as an SRAM
  table lookup, standing in for the OS-managed page table the paper calls
  out — the design's structural disadvantage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.config import DRAMCacheConfig, LINE_SIZE, TAD_TRANSFER_BYTES
from repro.core.compressed_cache import DECOMPRESSION_CYCLES
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import L4ReadResult, L4WriteResult
from repro.dramcache.cset import l4_codecs

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore

TARGET_SIZE = 16
"""Per-line compression target (LCP compresses lines to 1/4 size)."""

PAGE_LINES = 16
"""Lines per compressed page region."""


class LCPDRAMCache:
    """Page-granular fixed-target compression over the DRAM array."""

    def __init__(
        self,
        config: DRAMCacheConfig,
        compressor: Optional[Compressor] = None,
        store: Optional["LineStore"] = None,
    ) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.device = DRAMDevice(config.organization)
        self.compressor, _pairs = l4_codecs(compressor, store)
        # set -> (line_addr, data, dirty, is_exception)
        self._sets: Dict[int, Tuple[int, bytes, bool, bool]] = {}
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0
        self.exception_accesses = 0

    def set_index(self, line_addr: int) -> int:
        """Pages stay contiguous so one access spans neighbors."""
        return line_addr % self.num_sets

    def _is_exception(self, data: bytes) -> bool:
        return self.compressor.compressed_size(data) > TARGET_SIZE

    def read(self, line_addr: int, arrival: int, pc: int = 0) -> L4ReadResult:
        set_index = self.set_index(line_addr)
        finish = self.device.access(set_index, arrival, TAD_TRANSFER_BYTES)
        resident = self._sets.get(set_index)
        if resident is None or resident[0] != line_addr:
            self.read_misses += 1
            return L4ReadResult(hit=False, data=None, finish_cycle=finish)
        self.read_hits += 1
        _addr, data, _dirty, is_exception = resident
        accesses = 1
        extras: List[Tuple[int, bytes]] = []
        if is_exception:
            # Serialized second access into the exception region.
            finish = self.device.access(
                set_index ^ 1, finish, TAD_TRANSFER_BYTES
            )
            self.exception_accesses += 1
            accesses = 2
        else:
            # The 80 B burst carries ~4 more target-sized page neighbors;
            # forward the spatially adjacent one, like DICE does.
            buddy_index = self.set_index(line_addr ^ 1)
            buddy = self._sets.get(buddy_index)
            if (
                buddy is not None
                and buddy[0] == (line_addr ^ 1)
                and not buddy[3]
            ):
                extras.append((buddy[0], buddy[1]))
        return L4ReadResult(
            hit=True,
            data=data,
            finish_cycle=finish + DECOMPRESSION_CYCLES,
            accesses=accesses,
            extra_lines=extras,
            set_index=set_index,
        )

    def install(
        self,
        line_addr: int,
        data: bytes,
        arrival: int,
        *,
        dirty: bool = False,
        after_demand_read: bool = True,
    ) -> L4WriteResult:
        if len(data) != LINE_SIZE:
            raise ValueError("DRAM cache stores whole lines")
        set_index = self.set_index(line_addr)
        accesses = 0
        if not after_demand_read:
            arrival = self.device.access(
                set_index, arrival, TAD_TRANSFER_BYTES
            )
            accesses += 1
        is_exception = self._is_exception(data)
        victim = self._sets.get(set_index)
        writebacks: List[Tuple[int, bytes]] = []
        if victim is not None and victim[0] != line_addr and victim[2]:
            writebacks.append((victim[0], victim[1]))
        if victim is not None and victim[0] == line_addr:
            dirty = dirty or victim[2]
        self._sets[set_index] = (line_addr, data, dirty, is_exception)
        finish = self.device.access(set_index, arrival, TAD_TRANSFER_BYTES)
        accesses += 1
        if is_exception:
            # exception-region write, serialized
            finish = self.device.access(
                set_index ^ 1, finish, TAD_TRANSFER_BYTES
            )
            accesses += 1
        self.installs += 1
        return L4WriteResult(
            finish_cycle=finish, accesses=accesses, writebacks=writebacks
        )

    def contains(self, line_addr: int) -> bool:
        resident = self._sets.get(self.set_index(line_addr))
        return resident is not None and resident[0] == line_addr

    # -- resilience hooks ----------------------------------------------------

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line without writeback (detected-uncorrectable error)."""
        set_index = self.set_index(line_addr)
        resident = self._sets.get(set_index)
        if resident is not None and resident[0] == line_addr:
            del self._sets[set_index]
            return True
        return False

    def corrupt_stored(self, line_addr: int, corrupt_fn) -> Optional[bytes]:
        """Mutate a resident line's payload (silent fault propagation)."""
        set_index = self.set_index(line_addr)
        resident = self._sets.get(set_index)
        if resident is not None and resident[0] == line_addr:
            data = corrupt_fn(resident[1])
            self._sets[set_index] = (line_addr, data, resident[2], resident[3])
            return data
        return None

    def pair_buddy(self, line_addr: int) -> Optional[int]:
        """LCP frames hold one line each: no co-located compressed pair."""
        return None

    def valid_line_count(self) -> int:
        return len(self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0
        self.exception_accesses = 0
        self.device.reset()
