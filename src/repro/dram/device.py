"""A whole DRAM device: channels x banks with physical address mapping.

Address mapping interleaves consecutive row-buffer-sized blocks across
channels and banks (row-interleaved within a bank), the common mapping for
both stacked DRAM caches and DDR parts.  For the DRAM cache the caller maps
*set index* -> physical location; for main memory the caller maps line
addresses.

The simulator is cycle-accounting rather than cycle-by-cycle: each bank
tracks the cycle at which it next becomes free and which row its row buffer
holds, and each channel the cycle at which its data bus next becomes free.
An access computes its completion time from the requester's arrival cycle,
the bank's availability, the row-buffer state (hit, closed, or conflict)
and the bus.  This O(1)-per-access model reproduces queueing delay and
row-locality effects, which is what the paper's bandwidth results hinge on.
The state is kept in flat per-bank and per-channel lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import DRAMOrganization
from repro.obs.tracer import NULL_TRACER


class DRAMDevice:
    """Channels + banks + address mapping for one DRAM pool."""

    # replaced (with a per-pool category) by the memory system when tracing
    # is enabled; the class-level null means standalone devices trace nothing
    tracer = NULL_TRACER
    trace_cat = "dram"

    def __init__(self, organization: DRAMOrganization) -> None:
        self.organization = organization
        t = organization.timings
        self._row_hit_cycles = t.tCAS
        self._row_closed_cycles = t.tRCD + t.tCAS
        # tRAS limits back-to-back activates but is folded into the
        # conservative bank next-free cycle to keep the model O(1)
        self._row_conflict_cycles = t.tRP + t.tRCD + t.tCAS
        self._banks_per_channel = organization.banks_per_channel
        self._blocks_per_row = max(1, organization.row_buffer_bytes // 64)
        # block -> (channel, flat bank index, row); the mapping is pure, and
        # the hot loop hits the same set-index blocks over and over
        self._locate_cache: Dict[int, Tuple[int, int, int]] = {}
        # nbytes -> bus cycles; requests use a handful of distinct sizes
        self._burst_cache: Dict[int, int] = {}
        self.reset()

    def locate(self, block: int) -> Tuple[int, int, int]:
        """Map a 64 B-granularity block number to (channel, bank, row).

        Consecutive blocks stay within one row until it fills, and rows are
        striped across channels then banks, spreading load while preserving
        spatial locality within a row buffer.
        """
        row_seq = block // self._blocks_per_row
        nch = self.organization.channels
        nbk = self._banks_per_channel
        channel = row_seq % nch
        bank = (row_seq // nch) % nbk
        row = row_seq // (nch * nbk)
        return channel, bank, row

    def access(self, block: int, arrival: int, nbytes: int) -> int:
        """One read or write moving ``nbytes`` for the given block; returns
        the cycle the last data byte arrives.

        The bank starts the column access once it is free, paying tCAS on a
        row hit, tRCD+tCAS on a closed row and tRP+tRCD+tCAS on a conflict;
        the burst then waits for the channel's bus, and the bank stays busy
        until its burst drains.
        """
        loc = self._locate_cache.get(block)
        if loc is None:
            channel, bank, row = self.locate(block)
            loc = (channel, channel * self._banks_per_channel + bank, row)
            if len(self._locate_cache) >= 1 << 20:
                self._locate_cache.clear()
            self._locate_cache[block] = loc
        channel, bank, row = loc
        bank_free = self._bank_free[bank]
        start = bank_free if bank_free > arrival else arrival
        open_row = self._open_row[bank]
        if open_row == row:
            ready = start + self._row_hit_cycles
        elif open_row is None:
            ready = start + self._row_closed_cycles
        else:
            ready = start + self._row_conflict_cycles
        self._open_row[bank] = row
        burst = self._burst_cache.get(nbytes)
        if burst is None:
            burst = self.organization.burst_cycles(nbytes)
            self._burst_cache[nbytes] = burst
        bus_free = self._bus_free[channel]
        finish = (bus_free if bus_free > ready else ready) + burst
        self._bus_free[channel] = finish
        self._bank_free[bank] = finish
        self._channel_bytes[channel] += nbytes
        self._channel_accesses[channel] += 1
        if self.tracer.enabled:
            # busy interval of this access on its channel/bank, as a span
            self.tracer.span(
                "dram.access", self.trace_cat, arrival,
                max(1, finish - arrival), sampled=True,
                channel=channel, bank=bank % self._banks_per_channel,
                row_hit=open_row == row, nbytes=nbytes,
            )
        return finish

    @property
    def total_bytes_transferred(self) -> int:
        return sum(self._channel_bytes)

    @property
    def total_accesses(self) -> int:
        return sum(self._channel_accesses)

    def reset(self) -> None:
        """Close every row, free every bank and bus, zero the totals."""
        channels = self.organization.channels
        banks = channels * self._banks_per_channel
        self._open_row: List[Optional[int]] = [None] * banks
        self._bank_free = [0] * banks
        self._bus_free = [0] * channels
        self._channel_bytes = [0] * channels
        self._channel_accesses = [0] * channels
