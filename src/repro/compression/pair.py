"""Pair compression for spatially adjacent lines stored in the same set.

When BAI places lines 2i and 2i+1 in one set, the controller may compress
them together: they share BDI bases (Sec 4.2 "If two adjacent lines are
compressed together, we share tags and bases") and a single 4 B tag.  The
paper's headline packing rule follows: two adjacent lines co-compressed to
<= 68 B fit in one 72 B TAD (Fig 4, "Double<=68").

``pair_compressed_size`` returns the co-compressed data size for two lines,
which is never worse than the sum of their individual sizes;
``pair_size_of`` does the same from sizes the caller already has.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.compression.base import Compressor
from repro.compression.bdi import best_encoding_params, pinned_base_fits
from repro.config import LINE_SIZE

def _shared_base_size(a: bytes, b: bytes) -> Optional[int]:
    """Size of the pair when both lines BDI-encode against one shared base.

    The second line drops its copy of the base (Sec 4.2 base sharing), so a
    base4-delta2 pair costs 36 + 32 = 68 B — the paper's "Double<=68".

    Size-only: both halves use the same (base, delta) widths, so the pair
    costs ``size_a + (size_a - base_bytes)`` whenever the partner fits the
    pinned base — no delta arrays are ever materialized.
    """
    params = best_encoding_params(a)
    if params is None:
        return None
    base_bytes, delta_bytes, base, size_a = params
    if not pinned_base_fits(b, base_bytes, delta_bytes, base):
        return None
    return size_a + (size_a - base_bytes)


def pair_compressed_size(
    compressor: Compressor, a: bytes, b: bytes
) -> Tuple[int, bool]:
    """Co-compressed size of two adjacent lines and whether sharing helped.

    Returns ``(size, shared)``; ``size`` is at most the sum of the individual
    compressed sizes and at most 2 * LINE_SIZE.
    """
    return pair_size_of(
        compressor.compressed_size(a), compressor.compressed_size(b), a, b
    )


def pair_size_of(
    size_a: int, size_b: int, a: bytes, b: bytes
) -> Tuple[int, bool]:
    """:func:`pair_compressed_size` given the lines' individual sizes."""
    independent = size_a + size_b
    shared = _shared_base_size(a, b)
    if shared is not None and shared < independent:
        return min(shared, 2 * LINE_SIZE), True
    return min(independent, 2 * LINE_SIZE), False
