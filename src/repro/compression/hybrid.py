"""Hybrid FPC+BDI compressor used throughout the paper's evaluation.

Each line is compressed with every algorithm in the pool and the smallest
encoding wins (Sec 4.2: "We use both FPC and BDI, and compress with the
policy that gives better compression ratio").  A few bits recording the
winning algorithm live in the tag metadata, not in the data payload, so they
do not count against the line's data size.

Compression is deterministic and pure, so the hybrid memoizes results in
its :class:`~repro.compression.base.CodecMemo` — the simulator compresses
the same line on install, writeback and probe paths and the cache keeps
those calls cheap.  The size-only path (``compressed_size``) never builds
payloads at all: it takes the minimum of the pool members' integer size
kernels, called directly, since the hybrid's memo already sees every
repeat before a member would.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.compression.base import (
    CodecMemo,
    CompressedLine,
    Compressor,
    check_line,
)
from repro.compression.bdi import BDICompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.zca import ZCACompressor

_SIZE_SENTINEL = 1 << 30  # upper bound seed for the pool minimum


class HybridCompressor(Compressor):
    """Best-of-pool compressor (default pool: ZCA, FPC, BDI)."""

    name = "hybrid"

    def __init__(
        self,
        pool: Optional[Sequence[Compressor]] = None,
        cache_size: int = 1 << 16,
        sizes: Optional[Dict[bytes, int]] = None,
    ) -> None:
        self.pool: Tuple[Compressor, ...] = tuple(
            pool if pool is not None else (ZCACompressor(), BDICompressor(), FPCCompressor())
        )
        if not self.pool:
            raise ValueError("compressor pool must not be empty")
        self._by_name: Dict[str, Compressor] = {c.name: c for c in self.pool}
        # ``sizes``, when given, is a size memo shared with earlier runs;
        # this instance still counts only its own lookups
        self._memo = CodecMemo(cache_size, sizes)

    def compress(self, data: bytes) -> CompressedLine:
        memo = self._memo
        line = memo.get_line(data)
        if line is None:
            check_line(data)
            line = self._best_line(data)
            memo.put_line(data, line)
        return line

    def _best_line(self, data: bytes) -> CompressedLine:
        best: Optional[CompressedLine] = None
        for compressor in self.pool:
            line = compressor.compress(data)
            if best is None or line.size < best.size:
                best = line
        return best

    def _size_kernel(self, data: bytes) -> int:
        best = _SIZE_SENTINEL
        for compressor in self.pool:
            size = compressor._size_kernel(data)
            if size < best:
                best = size
                if best <= 1:  # nothing encodes below one byte
                    break
        return best

    def decompress(self, line: CompressedLine) -> bytes:
        algo = self._by_name.get(line.algorithm)
        if algo is None:
            raise ValueError(f"no compressor named {line.algorithm!r} in pool")
        return algo.decompress(line)
