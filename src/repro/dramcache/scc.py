"""Skewed Compressed Cache transplanted onto a DRAM cache (paper Sec 7.3).

SCC (Sardashti et al., MICRO 2014) was designed for SRAM: superblock tags
are shared across spatially contiguous sets and lines are placed in one of
several skewed ways according to their compressibility.  Looking up a line
therefore means probing multiple skewed locations.  On SRAM all tag ways are
read in parallel for free; on a DRAM cache every probed location is a
separate DRAM access.

Following the paper's evaluation, each SCC request costs four DRAM-cache
accesses (three tag probes plus the data access), which is what makes SCC
lose 22% on a bandwidth-sensitive DRAM cache while DICE gains 19%.  The
functional model keeps SCC's capacity benefit: lines compress into skewed
ways with superblock tag sharing, giving an effective capacity similar to a
compressed associative design.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.config import DRAMCacheConfig, LINE_SIZE, TAD_TRANSFER_BYTES
from repro.core.compressed_cache import DECOMPRESSION_CYCLES
from repro.dram.device import DRAMDevice
from repro.dramcache.alloy import L4ReadResult, L4WriteResult
from repro.dramcache.cset import CompressedSet, StoredLine, l4_codecs

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore

SCC_WAYS = 4
"""Skewed ways probed per request (3 tag probes + 1 data access)."""

SUPERBLOCK_LINES = 4
"""Lines per superblock sharing one tag (4x superblocks, Sec 7.3)."""


def _skew_hash(value: int, way: int) -> int:
    """Deterministic per-way skewing function."""
    return zlib.crc32(value.to_bytes(8, "little") + bytes([way])) & 0x7FFFFFFF


class SCCDRAMCache:
    """Skewed compressed cache over the DRAM array."""

    def __init__(
        self,
        config: DRAMCacheConfig,
        compressor: Optional[Compressor] = None,
        store: Optional["LineStore"] = None,
    ) -> None:
        self.config = config
        # Partition the frame space into SCC_WAYS skewed banks of sets.
        self.sets_per_way = max(2, config.num_sets // SCC_WAYS)
        self.device = DRAMDevice(config.organization)
        self.compressor, self.pair_sizes = l4_codecs(compressor, store)
        self._ways: List[Dict[int, CompressedSet]] = [
            {} for _ in range(SCC_WAYS)
        ]
        # superblock -> per-way skewed set indices (and the way-spread
        # hash install uses): the CRC skewing function is pure, and every
        # read probes all four ways, so one miss fills four lookups
        self._sb_locations: Dict[int, Tuple[int, ...]] = {}
        self._sb_spread: Dict[int, int] = {}
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0

    def _superblock(self, line_addr: int) -> int:
        return line_addr // SUPERBLOCK_LINES

    def _locations(self, line_addr: int) -> Tuple[int, ...]:
        """Skewed set indices for this line, one per way (memoized)."""
        sb = line_addr // SUPERBLOCK_LINES
        locs = self._sb_locations.get(sb)
        if locs is None:
            sets = self.sets_per_way
            locs = tuple(
                way * sets + _skew_hash(sb, way) % sets
                for way in range(SCC_WAYS)
            )
            self._sb_locations[sb] = locs
        return locs

    def _location(self, line_addr: int, way: int) -> int:
        """Skewed set index for this line in the given way."""
        return self._locations(line_addr)[way]

    def _probe_all(self, line_addr: int, arrival: int) -> Tuple[int, Optional[Tuple[int, StoredLine]]]:
        """Serially probe every skewed location; returns (finish, hit info).

        Every request pays SCC_WAYS DRAM accesses (Sec 7.3's four accesses).
        """
        found: Optional[Tuple[int, StoredLine]] = None
        finish = arrival
        device_access = self.device.access
        ways = self._ways
        for way, set_index in enumerate(self._locations(line_addr)):
            finish = device_access(set_index, finish, TAD_TRANSFER_BYTES)
            cset = ways[way].get(set_index)
            stored = cset.get(line_addr) if cset is not None else None
            if stored is not None and found is None:
                found = (way, stored)
        return finish, found

    def read(self, line_addr: int, arrival: int, pc: int = 0) -> L4ReadResult:
        finish, found = self._probe_all(line_addr, arrival)
        if found is None:
            self.read_misses += 1
            return L4ReadResult(
                hit=False, data=None, finish_cycle=finish, accesses=SCC_WAYS
            )
        self.read_hits += 1
        way, stored = found
        return L4ReadResult(
            hit=True,
            data=stored.data,
            finish_cycle=finish + DECOMPRESSION_CYCLES,
            accesses=SCC_WAYS,
            set_index=self._location(line_addr, way),
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
        size = self.compressor.compressed_size(data)
        # Way choice: compressibility picks the way (SCC places lines by
        # compressed size class); hash spreads superblocks across ways.
        size_class = 0 if size <= 16 else 1 if size <= 32 else 2 if size <= 48 else 3
        sb = self._superblock(line_addr)
        spread = self._sb_spread.get(sb)
        if spread is None:
            spread = _skew_hash(sb, 7)
            self._sb_spread[sb] = spread
        way = (size_class + spread) % SCC_WAYS
        locations = self._locations(line_addr)
        set_index = locations[way]
        accesses = 0
        if not after_demand_read:
            arrival = self.device.access(
                set_index, arrival, TAD_TRANSFER_BYTES
            )
            accesses += 1
        # Remove stale copies in other ways.
        for other_way in range(SCC_WAYS):
            if other_way == way:
                continue
            cset = self._ways[other_way].get(locations[other_way])
            if cset is not None:
                cset.remove(line_addr)
        bucket = self._ways[way]
        cset = bucket.get(set_index)
        if cset is None:
            cset = CompressedSet(tag_sharing=True)
            bucket[set_index] = cset
        stored = StoredLine(
            line_addr=line_addr, data=data, size=size, dirty=dirty
        )
        evicted = cset.insert(stored, self.pair_sizes)
        finish = self.device.access(set_index, arrival, TAD_TRANSFER_BYTES)
        accesses += 1
        self.installs += 1
        writebacks = [(v.line_addr, v.data) for v in evicted if v.dirty]
        return L4WriteResult(
            finish_cycle=finish, accesses=accesses, writebacks=writebacks
        )

    def contains(self, line_addr: int) -> bool:
        for way in range(SCC_WAYS):
            cset = self._ways[way].get(self._location(line_addr, way))
            if cset is not None and cset.get(line_addr) is not None:
                return True
        return False

    # -- resilience hooks ----------------------------------------------------

    def _resident(self, line_addr: int) -> Optional[Tuple[int, CompressedSet]]:
        for way in range(SCC_WAYS):
            set_index = self._location(line_addr, way)
            cset = self._ways[way].get(set_index)
            if cset is not None and cset.get(line_addr) is not None:
                return set_index, cset
        return None

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line without writeback (detected-uncorrectable error)."""
        found = self._resident(line_addr)
        if found is None:
            return False
        found[1].remove(line_addr)
        return True

    def corrupt_stored(self, line_addr: int, corrupt_fn) -> Optional[bytes]:
        """Mutate a resident line's payload (silent fault propagation)."""
        found = self._resident(line_addr)
        if found is None:
            return None
        stored = found[1].lines[line_addr]
        stored.data = corrupt_fn(stored.data)
        return stored.data

    def pair_buddy(self, line_addr: int) -> Optional[int]:
        """Buddy address when pair-compressed in the same skewed frame."""
        found = self._resident(line_addr)
        if found is None:
            return None
        buddy_addr = line_addr ^ 1
        if found[1].get(buddy_addr) is not None:
            return buddy_addr
        return None

    def valid_line_count(self) -> int:
        return sum(
            len(cset) for bucket in self._ways for cset in bucket.values()
        )

    @property
    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0
        self.device.reset()
