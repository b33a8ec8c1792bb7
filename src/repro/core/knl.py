"""DICE on a Knights-Landing-style DRAM cache (paper Sec 6.6).

KNL stores tags in the ECC lanes: each access moves a 72 B TAD over four
bursts but does *not* reveal the neighboring set's tag.  Consequences for
DICE:

* on a predicted-set miss, residency next door is unknown — when the two
  candidate sets differ (50% of lines), the miss path must probe the second
  location before the access can be declared a miss;
* the two probes target the same DRAM row, and spatially adjacent requests
  are frequently merged by the controller, so the second probe is usually a
  cheap row-buffer hit.  The bank model captures exactly that mitigation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compression.base import Compressor
from repro.config import DRAMCacheConfig
from repro.core.compressed_cache import DECOMPRESSION_CYCLES
from repro.core.dice import DICECache
from repro.dramcache.alloy import L4ReadResult

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore

KNL_TRANSFER_BYTES = 72
"""KNL moves the TAD over four 18 B (16 B + ECC) bursts — no neighbor tag."""


class KNLDICECache(DICECache):
    """DICE controller over a tags-in-ECC cache without neighbor-tag reads."""

    def __init__(
        self,
        config: DRAMCacheConfig,
        compressor: Optional[Compressor] = None,
        store: Optional["LineStore"] = None,
    ) -> None:
        if config.neighbor_tag_visible:
            config = type(config)(
                **{**config.__dict__, "neighbor_tag_visible": False}
            )
        super().__init__(config, compressor, store)
        self.miss_double_probes = 0

    def _access_device(self, set_index, arrival, nbytes=KNL_TRANSFER_BYTES):
        return super()._access_device(set_index, arrival, nbytes)

    def read(self, line_addr: int, arrival: int, pc: int = 0) -> L4ReadResult:
        tsi_set, bai_set = self.locations(line_addr)
        if tsi_set == bai_set:
            return self._read_single(line_addr, tsi_set, arrival)

        predict_bai = self._predict_read_bai(line_addr)
        first = bai_set if predict_bai else tsi_set
        second = tsi_set if predict_bai else bai_set

        finish = self._access_device(first, arrival)
        first_set = self._sets.get(first)
        stored = first_set.get(line_addr) if first_set is not None else None
        if stored is not None:
            self.read_hits += 1
            first_set.touch(line_addr)
            self.cip.record_outcome(line_addr, was_bai=stored.bai)
            return L4ReadResult(
                hit=True,
                data=stored.data,
                finish_cycle=finish + DECOMPRESSION_CYCLES,
                extra_lines=self._free_neighbors(first_set, line_addr),
                set_index=first,
            )

        # Without the neighbor tag the second location must always be
        # probed before a miss is declared.
        finish = self._access_device(second, finish)
        self.second_accesses += 1
        second_set = self._sets.get(second)
        stored = second_set.get(line_addr) if second_set is not None else None
        if stored is not None:
            self.read_hits += 1
            second_set.touch(line_addr)
            self.cip.record_outcome(line_addr, was_bai=stored.bai)
            return L4ReadResult(
                hit=True,
                data=stored.data,
                finish_cycle=finish + DECOMPRESSION_CYCLES,
                accesses=2,
                extra_lines=self._free_neighbors(second_set, line_addr),
                set_index=second,
            )
        self.read_misses += 1
        self.miss_double_probes += 1
        return L4ReadResult(hit=False, data=None, finish_cycle=finish, accesses=2)
