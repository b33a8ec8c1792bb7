"""Low-latency hardware compression algorithms used by the DRAM cache.

The paper compresses each 64 B line with both Frequent Pattern Compression
(FPC) and Base-Delta-Immediate (BDI) and keeps whichever is smaller
(Sec 4.2).  Spatially adjacent lines that are stored together may be
pair-compressed, sharing BDI bases and a tag (Sec 4.3 / Sec 6.2).
"""

from repro.compression.base import CompressedLine, Compressor
from repro.compression.bdi import BDICompressor
from repro.compression.fpc import FPCCompressor
from repro.compression.hybrid import HybridCompressor
from repro.compression.pair import pair_compressed_size
from repro.compression.zca import ZCACompressor

__all__ = [
    "CompressedLine",
    "Compressor",
    "BDICompressor",
    "FPCCompressor",
    "HybridCompressor",
    "ZCACompressor",
    "pair_compressed_size",
]
