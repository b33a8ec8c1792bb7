"""Uncompressed Alloy Cache: the paper's baseline L4 (Sec 2.3).

Direct-mapped, one 72 B TAD per set, tags inline with data.  Every access
transfers 80 B (the TAD plus the neighboring set's 8 B tag — the stacked bus
is 16 B wide so five bursts move 80 B).  The neighbor-tag visibility is what
later lets DICE resolve both candidate locations in one access.

The class exposes the common L4 interface consumed by the system model:
``read``, ``install``, ``writeback_hint`` plus counters.  Results carry both
functional payloads and finish cycles computed on the underlying
:class:`~repro.dram.device.DRAMDevice`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import DRAMCacheConfig, LINE_SIZE, TAD_TRANSFER_BYTES
from repro.dram.device import DRAMDevice
from repro.obs.tracer import NULL_TRACER


@dataclass
class L4ReadResult:
    """Outcome of a demand read probing the DRAM cache."""

    hit: bool
    data: Optional[bytes]
    finish_cycle: int
    accesses: int = 1  # DRAM-cache accesses consumed (2 on CIP mispredict)
    extra_lines: List[Tuple[int, bytes]] = field(default_factory=list)
    set_index: Optional[int] = None  # frame the hit came from (fault target)


@dataclass
class L4WriteResult:
    """Outcome of an install or writeback into the DRAM cache."""

    finish_cycle: int
    accesses: int
    writebacks: List[Tuple[int, bytes]] = field(default_factory=list)


class AlloyCache:
    """Baseline uncompressed direct-mapped DRAM cache."""

    # replaced with the run's tracer by the memory system when tracing is
    # enabled; the class-level null means standalone caches trace nothing
    tracer = NULL_TRACER

    def __init__(self, config: DRAMCacheConfig) -> None:
        if config.compressed:
            raise ValueError("AlloyCache models the uncompressed baseline")
        self.config = config
        self.num_sets = config.num_sets
        self.device = DRAMDevice(config.organization)
        # set index -> (line_addr, data, dirty)
        self._sets: Dict[int, Tuple[int, bytes, bool]] = {}
        self.read_hits = 0
        self.read_misses = 0
        self.installs = 0

    def set_index(self, line_addr: int) -> int:
        """Traditional Set Indexing: consecutive lines, consecutive sets."""
        return line_addr % self.num_sets

    def _access_device(self, set_index: int, arrival: int) -> int:
        return self.device.access(set_index, arrival, TAD_TRANSFER_BYTES)

    def read(self, line_addr: int, arrival: int, pc: int = 0) -> L4ReadResult:
        """Probe the direct-mapped location; one access either way."""
        set_index = self.set_index(line_addr)
        finish = self._access_device(set_index, arrival)
        resident = self._sets.get(set_index)
        if resident is not None and resident[0] == line_addr:
            self.read_hits += 1
            return L4ReadResult(
                hit=True,
                data=resident[1],
                finish_cycle=finish,
                set_index=set_index,
            )
        self.read_misses += 1
        return L4ReadResult(hit=False, data=None, finish_cycle=finish)

    def install(
        self,
        line_addr: int,
        data: bytes,
        arrival: int,
        *,
        dirty: bool = False,
        after_demand_read: bool = True,
    ) -> L4WriteResult:
        """Fill a line, returning the dirty victim (if any) for writeback.

        ``after_demand_read=False`` marks L3 writebacks, which must first
        read the set to check residency/dirty state (one extra access).
        """
        if len(data) != LINE_SIZE:
            raise ValueError("DRAM cache stores whole lines")
        set_index = self.set_index(line_addr)
        accesses = 0
        if not after_demand_read:
            arrival = self._access_device(set_index, arrival)
            accesses += 1
        victim = self._sets.get(set_index)
        writebacks: List[Tuple[int, bytes]] = []
        if victim is not None and victim[0] != line_addr and victim[2]:
            writebacks.append((victim[0], victim[1]))
        if victim is not None and victim[0] == line_addr:
            dirty = dirty or victim[2]
        self._sets[set_index] = (line_addr, data, dirty)
        finish = self._access_device(set_index, arrival)
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
        """Mutate a resident line's payload (silent fault propagation).

        ``corrupt_fn(old_data) -> new_data``; returns the stored corrupted
        payload, or None when the line is not resident.
        """
        set_index = self.set_index(line_addr)
        resident = self._sets.get(set_index)
        if resident is not None and resident[0] == line_addr:
            data = corrupt_fn(resident[1])
            self._sets[set_index] = (line_addr, data, resident[2])
            return data
        return None

    def pair_buddy(self, line_addr: int) -> Optional[int]:
        """Uncompressed frames hold one line: no co-located pair, ever."""
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
        self.device.reset()
