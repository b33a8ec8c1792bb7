"""DICE: Dynamic-Indexing Cache comprEssion (paper Sec 5).

DICE lets every line live at one of two locations — its TSI set or its BAI
set — and picks per install based on compressibility:

* **Insertion** (Sec 5.2): compress the incoming line; size <= threshold
  (36 B default) means its page likely pair-compresses, so install at the
  BAI index; otherwise install at TSI.  For half of all lines the two
  indices coincide and no decision is needed.
* **Reads** (Sec 5.3): a Cache Index Predictor picks which location to probe
  first.  Because BAI's alternate set is always the probed set's immediate
  neighbor, the Alloy access streams the neighbor's tag: one access resolves
  whether the line is here, next door, or absent.  Only a confirmed
  next-door residency pays a second (row-hit) access.
* **Coherence across indices**: installing a line at one index invalidates a
  stale copy at the other; the stale set is in the same DRAM row, so the
  invalidation write is a row-buffer hit.

Statistics feed Figs 10-12 and Table 4/5 plus the Sec 5.3 accuracy numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.compression.base import Compressor
from repro.config import DRAMCacheConfig, LINE_SIZE
from repro.core.cip import CacheIndexPredictor
from repro.core.compressed_cache import (
    DECOMPRESSION_CYCLES,
    CompressedDRAMCache,
)
from repro.core.indexing import bai_index, tsi_index
from repro.dramcache.alloy import L4ReadResult, L4WriteResult
from repro.dramcache.cset import StoredLine

if TYPE_CHECKING:  # repro.sim imports this module
    from repro.sim.linestore import LineStore

INVALIDATE_BYTES = 16
"""Bus bytes charged for a stale-copy invalidation write (one burst)."""


class DICECache(CompressedDRAMCache):
    """Compressed DRAM cache that adapts between TSI and BAI."""

    def __init__(
        self,
        config: DRAMCacheConfig,
        compressor: Optional[Compressor] = None,
        store: Optional["LineStore"] = None,
    ) -> None:
        if config.index_scheme != "dice":
            raise ValueError("DICECache requires index_scheme='dice'")
        super().__init__(config, compressor, store)
        self.threshold = config.dice_threshold
        self.cip = CacheIndexPredictor(config.cip_entries)
        # Fig 11 install accounting
        self.installs_invariant = 0
        self.installs_bai = 0
        self.installs_tsi = 0
        # write-path prediction accuracy (Sec 5.3: ~95%)
        self.write_predictions = 0
        self.write_predictions_correct = 0
        # read-path probe accounting
        self.second_accesses = 0
        # reinstalls that moved a resident line between TSI and BAI
        self.index_switches = 0

    # -- index selection -----------------------------------------------------

    def locations(self, line_addr: int) -> Tuple[int, int]:
        """(TSI set, BAI set) for a line; they differ only in bit 0."""
        return (
            tsi_index(line_addr, self.num_sets),
            bai_index(line_addr, self.num_sets),
        )

    def choose_index(self, compressed_size: int, line_addr: int) -> Tuple[int, bool]:
        """Insertion policy: (set index, used_bai)."""
        tsi_set, bai_set = self.locations(line_addr)
        if tsi_set == bai_set:
            return tsi_set, False
        if compressed_size <= self.threshold:
            return bai_set, True
        return tsi_set, False

    # -- read path -------------------------------------------------------------

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

        # Not in the predicted set.  The neighbor set's tags arrived with
        # this access (Alloy streams them), so residency next door is known.
        second_set = self._sets.get(second)
        stored = second_set.get(line_addr) if second_set is not None else None
        if stored is not None and self.config.neighbor_tag_visible:
            finish = self._access_device(second, finish)
            self.second_accesses += 1
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
        if stored is not None:
            # KNL-style cache: neighbor tags are invisible, so the second
            # location must be probed with a full access before the hit is
            # known (handled by the subclass read path).
            raise AssertionError(
                "base DICE read requires neighbor_tag_visible; "
                "use KNLDICECache otherwise"
            )
        self.read_misses += 1
        return L4ReadResult(hit=False, data=None, finish_cycle=finish)

    def _predict_read_bai(self, line_addr: int) -> bool:
        mode = self.config.cip_mode
        if mode == "ltt":
            return self.cip.predict_bai(line_addr)
        if mode == "oracle":
            tsi_set, bai_set = self.locations(line_addr)
            bai_cset = self._sets.get(bai_set)
            if bai_cset is not None and bai_cset.get(line_addr) is not None:
                return True
            return False
        if mode == "none":
            # No predictor: always start at TSI (probing "both" is modeled
            # as the guaranteed second access on a wrong first probe).
            return False
        raise ValueError(f"unknown cip_mode {mode!r}")

    def _read_single(self, line_addr: int, set_index: int, arrival: int) -> L4ReadResult:
        """Fast path for the 50% of lines whose two indices coincide."""
        finish = self._access_device(set_index, arrival)
        cset = self._sets.get(set_index)
        stored = cset.get(line_addr) if cset is not None else None
        if stored is None:
            self.read_misses += 1
            return L4ReadResult(hit=False, data=None, finish_cycle=finish)
        self.read_hits += 1
        cset.touch(line_addr)
        return L4ReadResult(
            hit=True,
            data=stored.data,
            finish_cycle=finish + DECOMPRESSION_CYCLES,
            extra_lines=self._free_neighbors(cset, line_addr),
            set_index=set_index,
        )

    # -- write path ------------------------------------------------------------

    def install(
        self,
        line_addr: int,
        data: bytes,
        arrival: int,
        *,
        dirty: bool = False,
        after_demand_read: bool = True,
    ) -> L4WriteResult:
        if len(data) != LINE_SIZE:
            raise ValueError("DRAM cache stores whole lines")
        size = self.compressor.compressed_size(data)
        set_index, used_bai = self.choose_index(size, line_addr)
        tsi_set, bai_set = self.locations(line_addr)

        accesses = 0
        if not after_demand_read:
            arrival = self._access_device(set_index, arrival)
            accesses += 1
            self._grade_write_prediction(line_addr, used_bai)

        writebacks: List[Tuple[int, bytes]] = []
        # Invalidate a stale copy at the alternate index (same DRAM row;
        # residency was visible in the tags already fetched).
        if tsi_set != bai_set:
            alternate = bai_set if set_index == tsi_set else tsi_set
            alt_cset = self._sets.get(alternate)
            stale = alt_cset.remove(line_addr) if alt_cset is not None else None
            if stale is not None:
                arrival = self._access_device(
                    alternate, arrival, INVALIDATE_BYTES
                )
                accesses += 1
                self.index_switches += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "dice.index_switch", "dice", arrival, sampled=True,
                        line=line_addr, to_bai=used_bai,
                    )
                if stale.dirty and not dirty:
                    # Never lose the freshest data: merging a dirty stale
                    # copy with a clean re-install keeps the dirty bit.
                    dirty = True

        stored = StoredLine(
            line_addr=line_addr, data=data, size=size, dirty=dirty, bai=used_bai
        )
        evicted = self._set(set_index).insert(stored, self.pair_sizes)
        finish = self._access_device(set_index, arrival)
        accesses += 1
        self.installs += 1
        self._count_install(line_addr, tsi_set, bai_set, used_bai)
        self.cip.update_quietly(line_addr, was_bai=used_bai)
        writebacks.extend((v.line_addr, v.data) for v in evicted if v.dirty)
        return L4WriteResult(
            finish_cycle=finish, accesses=accesses, writebacks=writebacks
        )

    def _grade_write_prediction(self, line_addr: int, predicted_bai: bool) -> None:
        """Writes predict the resident copy's index from compressibility."""
        tsi_set, bai_set = self.locations(line_addr)
        if tsi_set == bai_set:
            return
        resident_bai: Optional[bool] = None
        for set_index, is_bai in ((bai_set, True), (tsi_set, False)):
            cset = self._sets.get(set_index)
            if cset is not None and cset.get(line_addr) is not None:
                resident_bai = is_bai
                break
        if resident_bai is None:
            return
        self.write_predictions += 1
        if resident_bai == predicted_bai:
            self.write_predictions_correct += 1

    def _count_install(
        self, line_addr: int, tsi_set: int, bai_set: int, used_bai: bool
    ) -> None:
        if tsi_set == bai_set:
            self.installs_invariant += 1
        elif used_bai:
            self.installs_bai += 1
        else:
            self.installs_tsi += 1

    # -- introspection -----------------------------------------------------------

    def contains(self, line_addr: int) -> bool:
        for set_index in set(self.locations(line_addr)):
            cset = self._sets.get(set_index)
            if cset is not None and cset.get(line_addr) is not None:
                return True
        return False

    def _resident_set_index(self, line_addr: int) -> Optional[int]:
        """Either candidate location may hold the line (at most one does)."""
        for set_index in set(self.locations(line_addr)):
            cset = self._sets.get(set_index)
            if cset is not None and cset.get(line_addr) is not None:
                return set_index
        return None

    @property
    def write_prediction_accuracy(self) -> float:
        if not self.write_predictions:
            return 0.0
        return self.write_predictions_correct / self.write_predictions

    def index_distribution(self) -> Tuple[float, float, float]:
        """(invariant, tsi, bai) install fractions — Fig 11's stack."""
        total = self.installs_invariant + self.installs_bai + self.installs_tsi
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            self.installs_invariant / total,
            self.installs_tsi / total,
            self.installs_bai / total,
        )
