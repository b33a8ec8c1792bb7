"""Synthetic 64 B line contents by compressibility class.

Every page of a workload's footprint is assigned one data class; lines
within the page draw deterministic contents from that class.  Classes are
designed against the *real* FPC/BDI implementations so that their hybrid
compressed sizes land exactly where the paper's mechanics need them:

=========  ==============  =====================================================
class      hybrid size     role
=========  ==============  =====================================================
zero       1 B             trivially compressible (ZCA/BDI zero line)
narrow8    16 B            base8-delta1; pairs share a base -> tiny pairs
small4     20 B            base4-delta1; "Single<=32" material
quad       <= 22 B         FPC sign-extended bytes; "Single<=32" material
mid36      36 B            base4-delta2; the paper's flagship: single 36 B,
                           shared-base pair 68 B -> fits one 72 B TAD
heavy40    40 B            base8-delta4; single > 36 B, pair 72 B > 68 B ->
                           correctly rejected at threshold 36, harmful at 40
text       ~30-44 B        FPC-compressible ASCII-like mix
rand       64 B            incompressible
=========  ==============  =====================================================

Determinism: contents depend only on (class, line address, seed), via
splitmix-style hashing — no global RNG state, safe across processes.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Tuple

from repro.config import LINE_SIZE


def _mix(value: int) -> int:
    """splitmix64 finalizer: cheap, deterministic, well-distributed."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _stream(seed: int, count: int) -> Tuple[int, ...]:
    """``count`` deterministic 64-bit values derived from ``seed``."""
    return tuple(_mix(seed + i * 0x9E3779B9) for i in range(count))


# Lines in the same region share a class and per-region BDI bases, giving
# the within-page compressibility correlation the paper leans on (Sec 5.2,
# [30]).  The region is 16 lines (a quarter page) rather than a full 4 KB
# page so that scaled-down footprints — which shrink by the system scale
# factor while pages do not — still span many regions.
_PAGE_LINES = 16


def _page_seed(line_addr: int, seed: int) -> int:
    return _mix((line_addr // _PAGE_LINES) * 2654435761 + seed)


def _zero(line_addr: int, seed: int) -> bytes:
    return bytes(LINE_SIZE)


def _narrow8(line_addr: int, seed: int) -> bytes:
    """8-byte elements: page base + tiny deltas -> BDI base8-delta1 (16 B)."""
    base = _page_seed(line_addr, seed) & 0x7FFFFFFFFFFFF000
    vals = _stream(_mix(line_addr + seed), 8)
    return struct.pack("<8Q", *((base + (v % 100)) & 0xFFFFFFFFFFFFFFFF for v in vals))


def _small4(line_addr: int, seed: int) -> bytes:
    """4-byte elements: page base + byte deltas -> BDI base4-delta1 (20 B)."""
    base = 0x40000000 | (_page_seed(line_addr, seed) & 0x0FFFF000)
    vals = _stream(_mix(line_addr * 3 + seed), 16)
    return struct.pack("<16I", *((base + (v % 120)) & 0xFFFFFFFF for v in vals))


def _quad(line_addr: int, seed: int) -> bytes:
    """Small signed ints -> FPC sign-extended 8-bit words (22 B)."""
    vals = _stream(_mix(line_addr * 5 + seed), 16)
    return struct.pack("<16i", *([(v % 200) - 100 for v in vals]))


def _mid36(line_addr: int, seed: int) -> bytes:
    """Page base + 16-bit deltas -> BDI base4-delta2: 36 B, pair 68 B."""
    base = 0x20000000 | (_page_seed(line_addr, seed) & 0x1FFF0000)
    vals = _stream(_mix(line_addr * 7 + seed), 16)
    return struct.pack(
        "<16I", *((base + (v % 30000)) & 0xFFFFFFFF for v in vals)
    )


def _heavy40(line_addr: int, seed: int) -> bytes:
    """8-byte pointers, 4-byte spread -> BDI base8-delta4: 40 B."""
    base = 0x00007F0000000000 | (_page_seed(line_addr, seed) & 0xFFFF000000)
    vals = _stream(_mix(line_addr * 11 + seed), 8)
    return struct.pack(
        "<8Q",
        *((base + (v % (1 << 30)) + (1 << 24)) & 0xFFFFFFFFFFFFFFFF for v in vals),
    )


def _trap36(line_addr: int, seed: int) -> bytes:
    """FPC-only ~35 B lines whose pairs do NOT fit 68 B.

    9 byte-sized words (se8), 4 halfword values (se16), and 3 words drawn
    from three distinct high clusters: FPC lands at 35 B, but BDI fails
    (three bases needed, BDI has two), so pairs cannot share a base —
    35 + 35 = 70 B > 68 B.  These lines pass DICE's 36 B insertion
    threshold yet thrash under BAI: the risk case the paper's threshold
    heuristic accepts (Sec 5.2).
    """
    vals = _stream(_mix(line_addr * 19 + seed), 16)
    words = []
    for i, v in enumerate(vals):
        if i < 9:
            words.append(v % 100)  # se8
        elif i < 13:
            words.append(0x1000 + (v % 0x6000))  # se16
        else:
            cluster = (1 << 20) << (i - 13)  # 3 far-apart clusters
            words.append(cluster + 200 + (v % 20000))
    return struct.pack("<16I", *words)


def _text(line_addr: int, seed: int) -> bytes:
    """ASCII-ish bytes with zero padding: FPC mixed patterns, mid 30s-40s B."""
    vals = _stream(_mix(line_addr * 13 + seed), 16)
    words = []
    for i, v in enumerate(vals):
        if i % 4 == 3:
            words.append(0)  # zero run material
        else:
            words.append(0x20 + (v % 0x5F) | ((0x20 + ((v >> 8) % 0x5F)) << 8))
    return struct.pack("<16I", *words)


def _rand(line_addr: int, seed: int) -> bytes:
    """Full-entropy line: incompressible under FPC/BDI/ZCA."""
    vals = _stream(_mix(line_addr * 17 + seed) | 1, 8)
    out = struct.pack("<8Q", *vals)
    # guard against astronomically unlikely compressible draws
    return out


DataClassFn = Callable[[int, int], bytes]

DATA_CLASSES: Dict[str, DataClassFn] = {
    "zero": _zero,
    "narrow8": _narrow8,
    "small4": _small4,
    "quad": _quad,
    "mid36": _mid36,
    "heavy40": _heavy40,
    "trap36": _trap36,
    "text": _text,
    "rand": _rand,
}


class LineDataFactory:
    """Maps line addresses to contents given a per-page class assignment.

    ``class_weights`` is a mapping class-name -> weight; each page draws its
    class deterministically from the cumulative distribution.
    """

    def __init__(self, class_weights: Dict[str, float], seed: int = 0) -> None:
        if not class_weights:
            raise ValueError("need at least one data class")
        unknown = set(class_weights) - set(DATA_CLASSES)
        if unknown:
            raise ValueError(f"unknown data classes: {sorted(unknown)}")
        total = float(sum(class_weights.values()))
        if total <= 0:
            raise ValueError("class weights must sum to a positive value")
        self.seed = seed
        self._cdf: Tuple[Tuple[float, str], ...] = tuple(
            (acc, name)
            for acc, name in _cumulative(class_weights, total)
        )

    @property
    def key(self) -> Tuple:
        """Everything :meth:`line_data` reads besides the address: two
        factories with equal keys synthesize identical lines."""
        return (self.seed, self._cdf)

    def class_for_page(self, page: int) -> str:
        """Deterministic class assignment for a page."""
        u = (_mix(page * 0x9E3779B1 + self.seed * 31 + 7) >> 11) / float(1 << 53)
        for acc, name in self._cdf:
            if u < acc:
                return name
        return self._cdf[-1][1]

    def class_for_line(self, line_addr: int) -> str:
        return self.class_for_page(line_addr // _PAGE_LINES)

    def line_data(self, line_addr: int) -> bytes:
        """The 64 B initial contents of a line."""
        return DATA_CLASSES[self.class_for_line(line_addr)](line_addr, self.seed)

    def mutated_line_data(self, line_addr: int, version: int) -> bytes:
        """Contents after the ``version``-th store to the line.

        Stores perturb a value while keeping the page's data class, the way
        real programs overwrite fields without changing a structure's shape.
        """
        data = bytearray(
            DATA_CLASSES[self.class_for_line(line_addr)](
                line_addr, self.seed + version
            )
        )
        return bytes(data)


def _cumulative(weights: Dict[str, float], total: float):
    acc = 0.0
    for name in sorted(weights):
        acc += weights[name] / total
        yield acc, name
