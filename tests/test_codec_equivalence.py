"""Equivalence gates for the hot-path codec kernels and memoization.

Three families of guarantees, for every codec in the pool:

* **size-kernel equivalence** — ``compressed_size(data)`` (the integer-only
  kernel, memoized) equals ``compress(data).size`` (the payload path) on
  random and adversarial lines;
* **round-trip** — ``decompress(compress(data)) == data`` on the same lines;
* **memo transparency** — the bare size kernels match the memoized
  sizes, and the LRU bound/stat counters behave.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.compression.base import CodecMemo
from repro.compression.bdi import BDICompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.zca import ZCACompressor
from repro.config import LINE_SIZE


def _make_codecs():
    return [
        ZCACompressor(),
        FPCCompressor(),
        BDICompressor(),
        HybridCompressor(),
    ]


def _adversarial_lines():
    """Lines chosen to sit exactly on codec decision boundaries."""
    lines = [
        bytes(LINE_SIZE),  # all zero
        b"\xab" * LINE_SIZE,  # repeated byte
        bytes(LINE_SIZE - 8) + b"\xff" * 8,  # zero run ending in raw
        struct.pack("<16i", *([3, -3, 120, -120] * 4)),  # narrow values
        struct.pack("<16I", *([0xDEADBEEF] * 16)),  # repeated word
        struct.pack("<8Q", *(0x7FFF000000000000 + i for i in range(8))),  # BDI b8d1
        struct.pack("<16I", *(0x12340000 + i * 7 for i in range(16))),  # BDI b4
        struct.pack("<16I", *([0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])),
        # exactly 8 zero words then a 9th: the FPC run-length cap boundary
        struct.pack("<16I", *([0] * 9 + [0xFFFFFFFF] * 7)),
        struct.pack("<16I", *([0x00FF00FF] * 8 + [0] * 8)),  # two-half-se8 mix
        struct.pack("<16H", *([0x7FFF] * 16)) * 2,  # halfword boundary
    ]
    rng = random.Random(0xD1CE)
    for _ in range(200):
        lines.append(bytes(rng.getrandbits(8) for _ in range(LINE_SIZE)))
    # low-entropy random: mostly small deltas around a shared base
    for _ in range(100):
        base = rng.getrandbits(32) & ~0xFF
        words = [(base + rng.randrange(-100, 100)) & 0xFFFFFFFF for _ in range(16)]
        lines.append(struct.pack("<16I", *words))
    return lines


LINES = _adversarial_lines()


@pytest.mark.parametrize("codec", _make_codecs(), ids=lambda c: c.name)
class TestKernelEquivalence:
    def test_size_kernel_matches_compress(self, codec):
        for data in LINES:
            assert codec.compressed_size(data) == codec.compress(data).size, (
                f"{codec.name} kernel drifted on {data[:16].hex()}..."
            )

    def test_roundtrip(self, codec):
        for data in LINES:
            assert codec.decompress(codec.compress(data)) == data

    def test_memo_disabled_matches_memoized(self, codec):
        memoized = [codec.compressed_size(data) for data in LINES]
        bare = type(codec)()
        assert [bare._size_kernel(data) for data in LINES] == memoized


class TestFPCZeroRunBoundary:
    """Regression for the 8-word zero-run cap (3-bit run-length residue)."""

    def test_exactly_eight_zero_words_is_one_token(self):
        fpc = FPCCompressor()
        line = struct.pack("<16I", *([0] * 8 + [0xFFFFFFFF] * 8))
        tokens = fpc.compress(line).payload
        assert tokens[0] == ("zero_run", 8)

    def test_nine_zero_words_splits_into_two_runs(self):
        fpc = FPCCompressor()
        line = struct.pack("<16I", *([0] * 9 + [0xFFFFFFFF] * 7))
        tokens = fpc.compress(line).payload
        assert tokens[0] == ("zero_run", 8)
        assert tokens[1] == ("zero_run", 1)

    def test_boundary_sizes_agree_with_kernel(self):
        fpc = FPCCompressor()
        for zeros in range(0, 17):
            line = struct.pack(
                "<16I", *([0] * zeros + [0xFFFFFFFF] * (16 - zeros))
            )
            assert fpc.compressed_size(line) == fpc.compress(line).size


class TestCodecMemo:
    def test_lru_eviction_order(self):
        memo = CodecMemo(capacity=2)
        memo.put_size(b"a", 1)
        memo.put_size(b"b", 2)
        assert memo.get_size(b"a") == 1  # refresh "a": "b" is now oldest
        memo.put_size(b"c", 3)  # evicts "b"
        assert memo.get_size(b"b") is None
        assert memo.get_size(b"a") == 1
        assert memo.get_size(b"c") == 3
        assert memo.evictions == 1

    def test_stats_counters(self):
        memo = CodecMemo(capacity=4)
        assert memo.get_size(b"x") is None
        memo.put_size(b"x", 10)
        assert memo.get_size(b"x") == 10
        stats = memo.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_capacity_below_one_is_rejected(self, capacity):
        with pytest.raises(ValueError, match="must be >= 1"):
            CodecMemo(capacity=capacity)
        with pytest.raises(ValueError, match="must be >= 1"):
            HybridCompressor(cache_size=capacity)

    def test_rejects_bad_line_even_on_memo_path(self):
        fpc = FPCCompressor()
        with pytest.raises(ValueError):
            fpc.compressed_size(b"short")
        with pytest.raises(ValueError):
            fpc.compressed_size(b"short")  # second call must not memo-hit
