"""Deterministic fault injection into DRAM-cache reads.

The :class:`FaultInjector` sits behind a narrow hook on the memory system's
L4 read path (``repro.sim.system``): each read hit asks it how many bit
errors the accessed frame observed, and the ECC model's verdict decides
whether data passes clean, gets corrected, forces an invalidate-and-refetch
from DDR, or propagates silently poisoned.

Fault events from the seeded timeline attach to the frame being read when
they fire (a read-disturb-flavored simplification that keeps injection
O(1) and makes every fault observable).  Stuck-at events additionally
plant a permanent site at that frame: in the Alloy organization a set *is*
a physical 72 B frame, so keying stuck sites by set index is keying them
by physical location.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import LINE_SIZE
from repro.resilience.ecc import SCHEMES, classify
from repro.resilience.faults import (
    STUCK,
    TRANSIENT,
    Fault,
    FaultModel,
    FaultTimeline,
)


@dataclass
class ResilienceStats:
    """Counters kept by the injector across one simulation run.

    ``faults_injected`` counts fault *experiences* (timeline events, forced
    events, and re-reads of stuck sites).  The per-line outcome counters
    satisfy the invariant::

        lines_corrupted == ecc_corrected
                           + ecc_detected_invalidations
                           + silent_corruptions
    """

    faults_injected: int = 0
    lines_corrupted: int = 0
    ecc_corrected: int = 0
    ecc_detected_refetches: int = 0
    ecc_detected_invalidations: int = 0
    silent_corruptions: int = 0
    stuck_sites_planted: int = 0
    pair_blast_events: int = 0
    faults: List[Fault] = field(default_factory=list)

    def reset(self) -> None:
        """Zero every counter in place (the warmup-boundary stats reset).

        Only the *accounting* resets — planted stuck sites and the fault
        timeline are injector state and keep firing; post-warmup windows
        simply stop inheriting warmup-era counts.
        """
        self.faults_injected = 0
        self.lines_corrupted = 0
        self.ecc_corrected = 0
        self.ecc_detected_refetches = 0
        self.ecc_detected_invalidations = 0
        self.silent_corruptions = 0
        self.stuck_sites_planted = 0
        self.pair_blast_events = 0
        self.faults.clear()


class FaultInjector:
    """Seeded, deterministic source of DRAM-cache bit errors.

    One instance serves one simulation run.  All randomness flows through a
    single :class:`random.Random`, so a fixed ``seed`` plus a fixed read
    sequence reproduces identical fault sites, multiplicities, and
    corrupted payloads.
    """

    def __init__(
        self,
        model: FaultModel,
        *,
        capacity_bytes: int,
        ecc: str = "secded",
        seed: int = 0,
    ) -> None:
        if ecc not in SCHEMES:
            raise ValueError(f"unknown ECC scheme {ecc!r}; known: {SCHEMES}")
        self.model = model
        self.ecc = ecc
        self._rng = random.Random(0x5EED ^ (seed * 0x9E3779B1 & 0xFFFFFFFF))
        self._timeline = FaultTimeline(model, capacity_bytes, self._rng)
        # set index -> accumulated stuck bit flips at that physical frame
        self._stuck: Dict[int, int] = {}
        # (target set or None=next read, bits, kind) queued by tests/demos
        self._forced: List[Tuple[Optional[int], int, str]] = []
        self.stats = ResilienceStats()

    # -- injection -----------------------------------------------------------

    def force_fault(
        self,
        set_index: Optional[int] = None,
        bits: int = 1,
        kind: str = TRANSIENT,
    ) -> None:
        """Queue one fault for the next read (of ``set_index``, if given)."""
        if bits < 1:
            raise ValueError("a fault flips at least one bit")
        if kind not in (TRANSIENT, STUCK):
            raise ValueError(f"unknown fault kind {kind!r}")
        self._forced.append((set_index, bits, kind))

    def bit_errors_for_read(self, set_index: int, cycle: int) -> int:
        """Total flipped bits the read of ``set_index`` at ``cycle`` sees."""
        stuck_before = self._stuck.get(set_index, 0)
        bits = 0

        pending: List[Tuple[Optional[int], int, str]] = []
        for target, forced_bits, kind in self._forced:
            if target is None or target == set_index:
                bits += forced_bits
                self._record(set_index, forced_bits, kind, cycle)
            else:
                pending.append((target, forced_bits, kind))
        self._forced = pending

        for _ in range(self._timeline.events_until(cycle)):
            event_bits = self._timeline.draw_bits()
            kind = STUCK if self._timeline.draw_is_stuck() else TRANSIENT
            bits += event_bits
            self._record(set_index, event_bits, kind, cycle)

        if stuck_before:
            # Re-read of a previously planted stuck site: the same cells
            # are still flipped, experienced as one more fault.
            bits += stuck_before
            self.stats.faults_injected += 1
        return bits

    def _record(self, set_index: int, bits: int, kind: str, cycle: int) -> None:
        self.stats.faults_injected += 1
        self.stats.faults.append(
            Fault(set_index=set_index, bits=bits, kind=kind, cycle=cycle)
        )
        if kind == STUCK:
            self._stuck[set_index] = self._stuck.get(set_index, 0) + bits
            self.stats.stuck_sites_planted += 1

    # -- outcomes ------------------------------------------------------------

    def verdict(self, bit_errors: int) -> str:
        """ECC classification for this injector's configured scheme."""
        return classify(bit_errors, self.ecc)

    def corrupt(self, data: bytes, bit_errors: int) -> bytes:
        """Return ``data`` with ``bit_errors`` distinct bits flipped; more
        errors than the line has bits flip every bit once."""
        if len(data) != LINE_SIZE:
            raise ValueError("corruption operates on whole 64 B lines")
        mutated = bytearray(data)
        bits = LINE_SIZE * 8
        positions = self._rng.sample(range(bits), min(bit_errors, bits))
        for pos in positions:
            mutated[pos // 8] ^= 1 << (pos % 8)
        return bytes(mutated)
