"""Compressed Alloy cache with a *static* indexing scheme.

This is the paper's "TSI" (compress for capacity only), "NSI" and "BAI"
(compress for capacity + bandwidth) design points, and the machinery DICE
builds on.  Each 72 B set holds a variable number of compressed lines under
the Fig 5 format; reads transfer one 80 B TAD-sized burst and may yield the
spatially adjacent line for free; installs compress and evict until fit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.config import DRAMCacheConfig, LINE_SIZE, TAD_TRANSFER_BYTES
from repro.core.indexing import index_for
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import L4ReadResult, L4WriteResult
from repro.dramcache.cset import CompressedSet, StoredLine, l4_codecs
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore

DECOMPRESSION_CYCLES = 2
"""FPC/BDI decompression is 1-5 cycles (Sec 4.2); charged on read hits."""


class CompressedDRAMCache:
    """Direct-mapped-frame compressed DRAM cache with one index scheme."""

    # replaced with the run's tracer by the memory system when tracing is
    # enabled; the class-level null means standalone caches trace nothing
    tracer = NULL_TRACER

    def __init__(
        self,
        config: DRAMCacheConfig,
        compressor: Optional[Compressor] = None,
        store: Optional["LineStore"] = None,
    ) -> None:
        if not config.compressed:
            raise ValueError("config.compressed must be True")
        self.config = config
        self.num_sets = config.num_sets
        self.device = DRAMDevice(config.organization)
        self.compressor, self.pair_sizes = l4_codecs(compressor, store)
        self._sets: Dict[int, CompressedSet] = {}
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0
        self.extra_lines_supplied = 0

    # -- indexing ----------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set for this line under the cache's static scheme."""
        return index_for(self.config.index_scheme, line_addr, self.num_sets)

    def _set(self, index: int) -> CompressedSet:
        cset = self._sets.get(index)
        if cset is None:
            cset = CompressedSet(
                tag_sharing=self.config.tag_sharing,
                victim_policy=self.config.victim_policy,
            )
            self._sets[index] = cset
        return cset

    # -- timing helpers ------------------------------------------------------

    def _access_device(self, set_index: int, arrival: int, nbytes: int = TAD_TRANSFER_BYTES) -> int:
        return self.device.access(set_index, arrival, nbytes)

    # -- read path -----------------------------------------------------------

    def read(self, line_addr: int, arrival: int, pc: int = 0) -> L4ReadResult:
        """Probe the (single) location for this line."""
        set_index = self.set_index(line_addr)
        finish = self._access_device(set_index, arrival)
        cset = self._sets.get(set_index)
        stored = cset.get(line_addr) if cset is not None else None
        if stored is None:
            self.read_misses += 1
            return L4ReadResult(hit=False, data=None, finish_cycle=finish)
        self.read_hits += 1
        cset.touch(line_addr)
        extras = self._free_neighbors(cset, line_addr)
        return L4ReadResult(
            hit=True,
            data=stored.data,
            finish_cycle=finish + DECOMPRESSION_CYCLES,
            extra_lines=extras,
            set_index=set_index,
        )

    def _free_neighbors(
        self, cset: CompressedSet, line_addr: int
    ) -> List[Tuple[int, bytes]]:
        """Lines decompressed from the same access worth forwarding to L3.

        Only the spatially adjacent line is useful prefetch material; under
        TSI, co-resident lines are GBs apart and are *not* forwarded
        (Sec 4.4), which is exactly why TSI compresses only for capacity.
        """
        buddy = cset.get(line_addr ^ 1)
        if buddy is None:
            return []
        self.extra_lines_supplied += 1
        return [(buddy.line_addr, buddy.data)]

    # -- write path ----------------------------------------------------------

    def install(
        self,
        line_addr: int,
        data: bytes,
        arrival: int,
        *,
        dirty: bool = False,
        after_demand_read: bool = True,
    ) -> L4WriteResult:
        """Compress and insert; evictions surface as memory writebacks."""
        if len(data) != LINE_SIZE:
            raise ValueError("DRAM cache stores whole lines")
        size = self.compressor.compressed_size(data)
        set_index = self.set_index(line_addr)
        accesses = 0
        if not after_demand_read:
            # L3 writeback: must read the set to learn resident layout.
            arrival = self._access_device(set_index, arrival)
            accesses += 1
        stored = StoredLine(
            line_addr=line_addr, data=data, size=size, dirty=dirty
        )
        evicted = self._set(set_index).insert(stored, self.pair_sizes)
        finish = self._access_device(set_index, arrival)
        accesses += 1
        self.installs += 1
        writebacks = [(v.line_addr, v.data) for v in evicted if v.dirty]
        return L4WriteResult(
            finish_cycle=finish, accesses=accesses, writebacks=writebacks
        )

    # -- introspection -------------------------------------------------------

    def contains(self, line_addr: int) -> bool:
        cset = self._sets.get(self.set_index(line_addr))
        return cset is not None and cset.get(line_addr) is not None

    # -- resilience hooks ----------------------------------------------------

    def _resident_set_index(self, line_addr: int) -> Optional[int]:
        """Set currently holding the line, or None (DICE overrides: two)."""
        set_index = self.set_index(line_addr)
        cset = self._sets.get(set_index)
        if cset is not None and cset.get(line_addr) is not None:
            return set_index
        return None

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line without writeback (detected-uncorrectable error)."""
        set_index = self._resident_set_index(line_addr)
        if set_index is None:
            return False
        self._sets[set_index].remove(line_addr)
        return True

    def corrupt_stored(self, line_addr: int, corrupt_fn) -> Optional[bytes]:
        """Mutate a resident line's payload in place (silent fault).

        ``corrupt_fn(old_data) -> new_data``; returns the stored corrupted
        payload, or None when the line is not resident.  Size bookkeeping is
        left untouched: the corrupted payload still occupies the slot its
        original compression earned, which is what a flipped cell does to an
        already-written frame.
        """
        set_index = self._resident_set_index(line_addr)
        if set_index is None:
            return None
        stored = self._sets[set_index].lines[line_addr]
        stored.data = corrupt_fn(stored.data)
        return stored.data

    def pair_buddy(self, line_addr: int) -> Optional[int]:
        """Buddy address if the line is pair-compressed with its neighbor.

        Pair-compressed lines share one tag and BDI bases inside a single
        72 B frame (Fig 5), so a physical fault on that frame corrupts both
        lines — the compression blast-radius effect the resilience layer
        measures.
        """
        if not self.config.tag_sharing:
            return None
        set_index = self._resident_set_index(line_addr)
        if set_index is None:
            return None
        buddy_addr = line_addr ^ 1
        if self._sets[set_index].get(buddy_addr) is not None:
            return buddy_addr
        return None

    def valid_line_count(self) -> int:
        """Resident lines across all sets (Table 5's capacity metric)."""
        return sum(len(cset) for cset in self._sets.values())

    @property
    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0
        self.extra_lines_supplied = 0
        self.device.reset()
