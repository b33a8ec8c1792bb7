"""Unit tests for the hybrid (best-of FPC/BDI/ZCA) compressor and ZCA."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bdi import BDICompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.zca import ZCACompressor
from repro.config import LINE_SIZE


class TestZCA:
    def test_zero_line(self, zero_line):
        zca = ZCACompressor()
        result = zca.compress(zero_line)
        assert result.size == 1
        assert zca.decompress(result) == zero_line

    def test_nonzero_stored_raw(self, random_line):
        zca = ZCACompressor()
        result = zca.compress(random_line)
        assert result.size == LINE_SIZE
        assert zca.decompress(result) == random_line

    def test_rejects_foreign_payload(self, zero_line):
        zca = ZCACompressor()
        with pytest.raises(ValueError):
            zca.decompress(BDICompressor().compress(zero_line))


class TestHybrid:
    def test_picks_smallest_of_pool(self, hybrid, bdi36_line):
        fpc_size = FPCCompressor().compress(bdi36_line).size
        bdi_size = BDICompressor().compress(bdi36_line).size
        assert hybrid.compress(bdi36_line).size == min(fpc_size, bdi_size)

    def test_fpc_wins_on_small_word_patterns(self, hybrid):
        line = struct.pack("<16i", *([5, -3, 0, 7] * 4))
        result = hybrid.compress(line)
        assert result.algorithm == "fpc"

    def test_bdi_wins_on_pointer_arrays(self, hybrid):
        base = 0x7FFF12345000
        line = struct.pack("<8Q", *(base + i * 8 for i in range(8)))
        result = hybrid.compress(line)
        assert result.algorithm == "bdi"
        assert result.size == 16

    def test_decompress_routes_by_algorithm(self, hybrid, bdi36_line, random_line):
        for line in (bdi36_line, random_line, bytes(LINE_SIZE)):
            assert hybrid.decompress(hybrid.compress(line)) == line

    def test_memoization_returns_same_result(self, random_line):
        h = HybridCompressor()
        first = h.compress(random_line)
        second = h.compress(random_line)
        assert first is second

    def test_cache_bounded(self):
        h = HybridCompressor(cache_size=4)
        for i in range(10):
            h.compress(struct.pack("<16I", *([i] * 16)))
        assert len(h.memo) <= 4
        assert h.memo.evictions >= 6

    def test_cache_lru_keeps_hot_entries(self):
        h = HybridCompressor(cache_size=2)
        hot = struct.pack("<16I", *([1] * 16))
        first = h.compress(hot)
        for i in range(2, 6):
            h.compress(struct.pack("<16I", *([i] * 16)))
            assert h.compress(hot) is first  # touched every round: never evicted

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            HybridCompressor(pool=[])

    def test_unknown_algorithm_rejected(self, hybrid):
        from repro.compression.base import CompressedLine

        foreign = CompressedLine("nonexistent", 10, None)
        with pytest.raises(ValueError):
            hybrid.decompress(foreign)

    def test_custom_pool(self, zero_line, random_line):
        h = HybridCompressor(pool=[ZCACompressor()])
        assert h.compress(zero_line).size == 1
        assert h.compress(random_line).size == LINE_SIZE


    def test_simulation_leaves_pool_member_memos_empty(self, monkeypatch):
        """The hybrid's memo sees every repeat first, so it sizes through
        its members' kernels and their memos are never built; the sizes
        are still the best member's encoding."""
        from repro.harness.runner import resolve_config
        from repro.sim.engine import SimulationParams, run_workload
        from repro.sim.linestore import LineStore
        from repro.sim.system import MemorySystem

        systems = []
        init = MemorySystem.__init__

        def capturing(self, *args, **kwargs):
            init(self, *args, **kwargs)
            systems.append(self)

        monkeypatch.setattr(MemorySystem, "__init__", capturing)
        run_workload(
            "mcf", resolve_config("dice", 4096),
            SimulationParams(accesses_per_core=200), store=LineStore(),
        )
        hybrid = systems[0].l4.compressor
        assert hybrid.memo_stats()["misses"] > 0
        for member in hybrid.pool:
            assert member.memo_stats()["entries"] == 0
            assert member.memo_stats()["misses"] == 0
        sized = list(hybrid.memo._sizes.items())
        assert sized
        for data, size in sized:
            assert size == min(m.compress(data).size for m in hybrid.pool)


class TestCompressedLineValidation:
    def test_size_bounds_enforced(self):
        from repro.compression.base import CompressedLine

        with pytest.raises(ValueError):
            CompressedLine("x", -1, None)
        with pytest.raises(ValueError):
            CompressedLine("x", LINE_SIZE + 1, None)


@settings(max_examples=150)
@given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE))
def test_hybrid_roundtrip_property(data):
    h = HybridCompressor()
    assert h.decompress(h.compress(data)) == data


@settings(max_examples=100)
@given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE))
def test_hybrid_never_worse_than_any_member(data):
    """The hybrid's size is the pool minimum by construction."""
    h = HybridCompressor()
    size = h.compress(data).size
    for member in (ZCACompressor(), FPCCompressor(), BDICompressor()):
        assert size <= member.compress(data).size
