"""Compressor interface shared by every algorithm in the pool.

Two hot-path facilities live here alongside the abstract interface:

* **Size-only kernels** — ``compressed_size`` routes to a per-codec
  ``_size_kernel`` that computes the encoded byte count with integer
  arithmetic only (no token tuples, no :class:`CompressedLine`
  allocation).  Every kernel is property-tested to agree exactly with
  ``compress(data).size`` (``tests/test_codec_equivalence.py``), so the
  packing logic can budget space without paying for payloads it never
  reads.
* **Content-addressed memoization** — compression is deterministic and
  pure, so each compressor carries a bounded LRU :class:`CodecMemo`
  keyed by the line bytes.  The simulator compresses the same line on
  install, writeback, and probe paths; the memo makes the repeats a
  dict hit.  Results are bit-identical to the bare kernels'.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import LINE_SIZE

DEFAULT_MEMO_CAPACITY = 1 << 16
"""Per-compressor memo entries."""


class CodecMemo:
    """Bounded LRU memo for per-line compression results.

    Two stores share one stat block: ``sizes`` (line bytes -> encoded
    byte count, fed by ``compressed_size``) and ``lines`` (line bytes ->
    :class:`CompressedLine`, fed by memoizing compressors like the
    hybrid).  Keys reference the caller's ``bytes`` objects, so the memo
    costs dict overhead, not data copies.

    ``sizes`` may be a dict that outlives this memo (the process's
    :class:`~repro.sim.linestore.LineStore` hands every run's hybrid the
    same one); the counters are always this memo's own.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_sizes", "_lines")

    def __init__(
        self,
        capacity: int = DEFAULT_MEMO_CAPACITY,
        sizes: Optional[Dict[bytes, int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._sizes: Dict[bytes, int] = {} if sizes is None else sizes
        self._lines: Dict[bytes, "CompressedLine"] = {}

    def __len__(self) -> int:
        return len(self._sizes) + len(self._lines)

    def get_size(self, data: bytes) -> Optional[int]:
        sizes = self._sizes
        size = sizes.get(data)
        if size is None:
            self.misses += 1
            return None
        self.hits += 1
        # refresh recency: dicts preserve insertion order, so re-inserting
        # moves the key to the young end of the eviction queue
        del sizes[data]
        sizes[data] = size
        return size

    def put_size(self, data: bytes, size: int) -> None:
        sizes = self._sizes
        if len(sizes) >= self.capacity:
            del sizes[next(iter(sizes))]
            self.evictions += 1
        sizes[data] = size

    def get_line(self, data: bytes) -> Optional["CompressedLine"]:
        lines = self._lines
        line = lines.get(data)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        del lines[data]
        lines[data] = line
        return line

    def put_line(self, data: bytes, line: "CompressedLine") -> None:
        lines = self._lines
        if len(lines) >= self.capacity:
            del lines[next(iter(lines))]
            self.evictions += 1
        lines[data] = line

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self),
        }


@dataclass(frozen=True)
class CompressedLine:
    """Result of compressing one cache line.

    ``payload`` is an opaque encoding sufficient for ``Compressor.decompress``
    to reconstruct the original bytes; ``size`` is the number of bytes the
    hardware encoding would occupy (what the set-packing logic budgets), which
    is deliberately independent of the Python payload representation.
    """

    algorithm: str
    size: int
    payload: object

    def __post_init__(self) -> None:
        if not 0 <= self.size <= LINE_SIZE:
            raise ValueError(f"compressed size {self.size} out of range")


class Compressor(ABC):
    """A low-latency line compressor (FPC, BDI, ZCA, or a hybrid of them)."""

    name: str = "abstract"

    # Lazily replaced by a per-instance CodecMemo on first use; the class
    # default keeps subclasses free of mandatory __init__ chaining.
    _memo: Optional[CodecMemo] = None

    @abstractmethod
    def compress(self, data: bytes) -> CompressedLine:
        """Compress one 64 B line.  Never fails: incompressible data is
        returned stored (size == 64)."""

    @abstractmethod
    def decompress(self, line: CompressedLine) -> bytes:
        """Reconstruct the original 64 bytes from ``compress``'s output."""

    def _size_kernel(self, data: bytes) -> int:
        """Encoded byte count for one validated line.

        Subclasses override with an integer-only computation; the default
        falls back to full compression so third-party compressors keep
        working unchanged.
        """
        return self.compress(data).size

    @property
    def memo(self) -> CodecMemo:
        """This compressor's memo, created on first access."""
        memo = self._memo
        if memo is None:
            memo = CodecMemo()
            self._memo = memo
        return memo

    def memo_stats(self) -> Dict[str, int]:
        """Memo hit/miss/eviction counters (zeros when never used)."""
        memo = self._memo
        if memo is None:
            return {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        return memo.stats()

    def compressed_size(self, data: bytes) -> int:
        """The byte budget this line needs in a set (memoized size kernel)."""
        memo = self._memo
        if memo is None:
            memo = self.memo
        size = memo.get_size(data)
        if size is None:
            check_line(data)
            size = self._size_kernel(data)
            memo.put_size(data, size)
        return size


def check_line(data: bytes) -> None:
    """Validate input is exactly one cache line."""
    if len(data) != LINE_SIZE:
        raise ValueError(f"expected a {LINE_SIZE}-byte line, got {len(data)}")
