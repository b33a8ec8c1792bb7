"""Packing logic for one compressed DRAM-cache set (72 B, up to 28 lines).

A set stores a variable number of compressed lines.  Byte accounting follows
the paper's format (Fig 5):

* every resident line costs one 4 B tag entry plus its compressed data;
* two spatially adjacent lines (addresses 2i and 2i+1) that are both
  resident are *pair-compressed*: they share one 4 B tag and BDI bases, so
  their combined cost is ``4 + pair_compressed_size`` (Sec 4.2-4.3);
* total bytes must fit in 72 and the line count may not exceed 28.

Insertion evicts the least recently inserted/used lines until the newcomer
fits — the direct-mapped Alloy baseline degenerates to exactly one line per
set, so this generalizes the baseline's replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.pair import pair_size_of
from repro.config import MAX_LINES_PER_SET, TAG_BYTES_COMPRESSED
from repro.dramcache.tad import SET_DATA_BYTES

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore


@dataclass
class StoredLine:
    """One compressed line resident in a set."""

    line_addr: int
    data: bytes
    size: int  # individual compressed size in bytes
    dirty: bool = False
    bai: bool = False  # placed here by bandwidth-aware indexing


class PairSizeCache:
    """Memoizes pair-compressed sizes; co-compression is deterministic.

    Bounded LRU keyed on the pair's raw bytes: a hit re-inserts the entry
    (dict order is insertion order) and, at capacity, the least recently
    used entry is dropped — unlike a clear-when-full cache, the hot working
    set of pairs survives capacity pressure.  ``cache`` may be a dict that
    outlives this instance (a line store's pair memo, see
    :func:`l4_codecs`); the counters are always this instance's own.

    A miss sizes each line through the compressor's ``compressed_size``
    as bound here, before a profiled run wraps the instance's method, so
    the ``codec.compressed_size`` frame counts only the L4's own sizing
    calls, whatever share of pairs a warm memo already answers.
    """

    __slots__ = ("_size", "_cache", "_capacity", "hits", "misses", "evictions")

    def __init__(
        self,
        compressor: Compressor,
        capacity: int = 1 << 15,
        cache: Optional[Dict[Tuple[bytes, bytes], int]] = None,
    ) -> None:
        self._size = compressor.compressed_size
        self._cache: Dict[Tuple[bytes, bytes], int] = {} if cache is None else cache
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def size(self, a: bytes, b: bytes) -> int:
        cache = self._cache
        key = (a, b)
        cached = cache.get(key)
        if cached is not None:
            self.hits += 1
            del cache[key]
            cache[key] = cached
            return cached
        self.misses += 1
        cached, _shared = pair_size_of(self._size(a), self._size(b), a, b)
        if self._capacity > 0:
            if len(cache) >= self._capacity:
                del cache[next(iter(cache))]
                self.evictions += 1
            cache[key] = cached
        return cached

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cache),
        }


def l4_codecs(
    compressor: Optional[Compressor], store: Optional["LineStore"]
) -> Tuple[Compressor, PairSizeCache]:
    """A compressed L4's own compressor and pair-size cache.

    With a line store, both are built around the store's size and pair
    memos, so what one run sized the next one finds.  A caller's own
    compressor keeps private memos: the store's hold hybrid sizes only.
    """
    if compressor is not None or store is None:
        compressor = compressor or HybridCompressor()
        return compressor, PairSizeCache(compressor)
    compressor = HybridCompressor(sizes=store.sizes)
    return compressor, PairSizeCache(compressor, cache=store.pairs)


class CompressedSet:
    """One set of the compressed Alloy cache.

    ``victim_policy`` selects who leaves when a newcomer does not fit:

    * ``"lru"`` (default) — least recently inserted/touched first;
    * ``"largest"`` — biggest compressed line first, which frees space
      fastest but ignores recency (an ablation point: ``dice-evict-largest``
      in the ``ablations`` experiment).
    """

    __slots__ = ("lines", "_lru", "tag_sharing", "victim_policy")

    def __init__(
        self, tag_sharing: bool = True, victim_policy: str = "lru"
    ) -> None:
        if victim_policy not in ("lru", "largest"):
            raise ValueError(f"unknown victim policy {victim_policy!r}")
        self.lines: Dict[int, StoredLine] = {}
        self._lru: List[int] = []  # line addresses, least recent first
        self.tag_sharing = tag_sharing
        self.victim_policy = victim_policy

    def __len__(self) -> int:
        return len(self.lines)

    def get(self, line_addr: int) -> Optional[StoredLine]:
        return self.lines.get(line_addr)

    def touch(self, line_addr: int) -> None:
        """Move a line to most-recently-used position."""
        if line_addr in self.lines:
            self._lru.remove(line_addr)
            self._lru.append(line_addr)

    def bytes_used(self, pair_sizes: Optional[PairSizeCache] = None) -> int:
        """Current byte occupancy under pair-aware accounting."""
        total = 0
        seen_pair = set()
        for addr, line in self.lines.items():
            if addr in seen_pair:
                continue
            buddy_addr = addr ^ 1
            buddy = self.lines.get(buddy_addr)
            if self.tag_sharing and buddy is not None:
                even, odd = (line, buddy) if addr % 2 == 0 else (buddy, line)
                if pair_sizes is not None:
                    data_bytes = pair_sizes.size(even.data, odd.data)
                else:
                    data_bytes = even.size + odd.size
                total += TAG_BYTES_COMPRESSED + data_bytes
                seen_pair.add(addr)
                seen_pair.add(buddy_addr)
            else:
                total += TAG_BYTES_COMPRESSED + line.size
        return total

    def would_fit(
        self,
        candidate: StoredLine,
        pair_sizes: Optional[PairSizeCache] = None,
    ) -> bool:
        """True if ``candidate`` fits alongside the current residents."""
        if len(self.lines) >= MAX_LINES_PER_SET:
            return False
        self.lines[candidate.line_addr] = candidate
        try:
            return self.bytes_used(pair_sizes) <= SET_DATA_BYTES
        finally:
            del self.lines[candidate.line_addr]

    def insert(
        self,
        candidate: StoredLine,
        pair_sizes: Optional[PairSizeCache] = None,
    ) -> List[StoredLine]:
        """Insert, evicting LRU residents until the newcomer fits.

        Returns evicted lines (dirty ones need writeback).  The candidate
        always fits alone (size <= 64, tag 4, total <= 68 <= 72).
        """
        existing = self.lines.pop(candidate.line_addr, None)
        if existing is not None:
            self._lru.remove(candidate.line_addr)
            candidate.dirty = candidate.dirty or existing.dirty
        evicted: List[StoredLine] = []
        while not self.would_fit(candidate, pair_sizes):
            if not self._lru:
                raise AssertionError("empty set cannot reject a single line")
            victim_addr = self._pick_victim()
            self._lru.remove(victim_addr)
            evicted.append(self.lines.pop(victim_addr))
        self.lines[candidate.line_addr] = candidate
        self._lru.append(candidate.line_addr)
        return evicted

    def _pick_victim(self) -> int:
        if self.victim_policy == "largest":
            return max(self._lru, key=lambda addr: self.lines[addr].size)
        return self._lru[0]

    def remove(self, line_addr: int) -> Optional[StoredLine]:
        line = self.lines.pop(line_addr, None)
        if line is not None:
            self._lru.remove(line_addr)
        return line

    def resident_addresses(self) -> Tuple[int, ...]:
        return tuple(self.lines.keys())
