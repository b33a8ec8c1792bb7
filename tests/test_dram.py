"""Unit tests for the DRAM timing substrate (device banks, buses, memory)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMOrganization, DRAMTimings, SystemConfig
from repro.dram.device import DRAMDevice
from repro.dram.mainmemory import MainMemory
from repro.obs import Tracer


def _block(org: DRAMOrganization, channel: int, bank: int, row: int) -> int:
    """The first block of ``row`` in ``bank`` of ``channel`` (inverts
    :meth:`DRAMDevice.locate`)."""
    row_seq = (row * org.banks_per_channel + bank) * org.channels + channel
    return row_seq * (org.row_buffer_bytes // 64)


class TestBank:
    """Row-buffer state and busy time of one bank, seen through its device."""

    NBYTES = 64

    def setup_method(self):
        self.org = DRAMOrganization(channels=2, banks_per_channel=4, bus_bytes=16)
        self.t = self.org.timings
        self.burst = self.org.burst_cycles(self.NBYTES)
        self.dev = DRAMDevice(self.org)

    def access(self, row, arrival, bank=0):
        return self.dev.access(_block(self.org, 0, bank, row), arrival, self.NBYTES)

    def test_first_access_is_row_miss(self):
        finish = self.access(row=5, arrival=100)
        assert finish == 100 + self.t.tRCD + self.t.tCAS + self.burst

    def test_same_row_is_row_hit(self):
        first = self.access(5, 0)
        finish = self.access(5, first)
        assert finish == first + self.t.tCAS + self.burst

    def test_other_row_is_conflict(self):
        first = self.access(5, 0)
        finish = self.access(6, first)
        assert finish == (
            first + self.t.tRP + self.t.tRCD + self.t.tCAS + self.burst
        )

    def test_busy_bank_queues_request(self):
        first = self.access(5, 0)
        early_arrival = 1
        finish = self.access(5, early_arrival)
        # the bank is busy until the first burst drains, then row-hits
        assert finish == first + self.t.tCAS + self.burst
        assert finish > early_arrival + self.t.tCAS + self.burst

    def test_other_bank_does_not_queue(self):
        first = self.access(5, 0)
        finish = self.access(5, 1, bank=1)
        # the activation overlaps the busy bank's; only the bus is shared
        ready = 1 + self.t.tRCD + self.t.tCAS
        assert finish == max(ready, first) + self.burst

    def test_reset(self):
        first = self.access(5, 0)
        self.dev.reset()
        # the row is closed and the bank free again: a repeat of the first
        # access costs what the first did
        assert self.access(5, 0) == first

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5000)), max_size=30))
    def test_ready_times_monotonic_per_bank(self, ops):
        """A bank's completion times never move backwards."""
        org = DRAMOrganization(channels=2, banks_per_channel=4, bus_bytes=16)
        dev = DRAMDevice(org)
        last = 0
        for row, arrival in ops:
            finish = dev.access(_block(org, 1, 2, row), arrival, 64)
            assert finish >= last
            assert finish > arrival
            last = finish


class TestChannel:
    """The data bus a channel's banks share, seen through its device."""

    def test_bus_serializes_bursts(self, small_org):
        dev = DRAMDevice(small_org)
        f1 = dev.access(_block(small_org, 0, 0, 0), 0, 80)
        f2 = dev.access(_block(small_org, 0, 1, 0), 0, 80)
        burst = small_org.burst_cycles(80)
        assert f2 >= f1 + burst  # second burst waits for the bus

    def test_channels_have_their_own_bus(self, small_org):
        dev = DRAMDevice(small_org)
        f1 = dev.access(_block(small_org, 0, 0, 0), 0, 80)
        f2 = dev.access(_block(small_org, 1, 0, 0), 0, 80)
        assert f1 == f2

    def test_bytes_accounted(self, small_org):
        dev = DRAMDevice(small_org)
        dev.access(_block(small_org, 0, 0, 0), 0, 80)
        dev.access(_block(small_org, 0, 1, 0), 0, 64)
        assert dev.total_bytes_transferred == 144
        assert dev.total_accesses == 2

    def test_reset(self, small_org):
        dev = DRAMDevice(small_org)
        block = _block(small_org, 0, 0, 0)
        first = dev.access(block, 0, 80)
        dev.access(_block(small_org, 0, 1, 0), 0, 80)
        dev.reset()
        assert dev.total_bytes_transferred == 0
        assert dev.total_accesses == 0
        assert dev.access(block, 0, 80) == first  # the bus is free again


class TestDevice:
    def test_mapping_spreads_rows_across_channels(self, small_org):
        dev = DRAMDevice(small_org)
        rows_per = small_org.row_buffer_bytes // 64
        a = dev.locate(0)
        b = dev.locate(rows_per)  # next row group
        assert a[0] != b[0]  # different channel

    def test_blocks_in_same_row_share_location(self, small_org):
        dev = DRAMDevice(small_org)
        assert dev.locate(0) == dev.locate(1)

    def test_access_latency_positive(self, small_org):
        dev = DRAMDevice(small_org)
        assert dev.access(block=3, arrival=50, nbytes=80) > 50

    def test_row_hit_faster_than_miss(self, small_org):
        dev = DRAMDevice(small_org)
        miss = dev.access(0, 0, 64)
        hit = dev.access(1, miss, 64)
        assert hit - miss < miss

    def test_total_counters(self, small_org):
        dev = DRAMDevice(small_org)
        dev.access(0, 0, 64)
        dev.access(100, 0, 80)
        assert dev.total_accesses == 2
        assert dev.total_bytes_transferred == 144

    @settings(max_examples=50)
    @given(st.integers(0, 1 << 30))
    def test_locate_in_bounds(self, block):
        org = DRAMOrganization(channels=4, banks_per_channel=16, bus_bytes=16)
        dev = DRAMDevice(org)
        channel, bank, row = dev.locate(block)
        assert 0 <= channel < 4
        assert 0 <= bank < 16
        assert row >= 0

    def test_traced_access_spans_carry_bank_and_row_state(
        self, small_org, tmp_path
    ):
        dev = DRAMDevice(small_org)
        dev.tracer = Tracer(tmp_path / "t.jsonl")
        block = _block(small_org, 1, 3, 2)
        first = dev.access(block, 0, 64)
        dev.access(block, first, 16)
        spans = [e for e in dev.tracer.events if e["name"] == "dram.access"]
        assert [s["args"] for s in spans] == [
            {"channel": 1, "bank": 3, "row_hit": False, "nbytes": 64},
            {"channel": 1, "bank": 3, "row_hit": True, "nbytes": 16},
        ]
        assert spans[0]["dur"] == first


# Finish cycles of a fixed pseudo-random access sequence, with the device's
# totals before its reset and at the end: any change to the timing
# arithmetic shows up here.
GOLDEN = {
    "small": [
        99, 103, 139, 143, 237, 176, 241, 312, 247, 323, 329, 293, 372, 429,
        565, 459, 595, 601, 739, 741, 743, 615, 789, 658, 684, 706, 873, 756,
        877, 923, (30, 1488), 107, 112, 135, 149, 155, 201, 339, 343, 246,
        347, 326, 330, 336, 384, 351, 468, 495, 508, (18, 960),
    ],
    "l4": [
        99, 103, 139, 143, 237, 176, 241, 224, 242, 279, 288, 311, 372, 376,
        380, 404, 467, 447, 481, 503, 527, 552, 586, 614, 640, 675, 722, 683,
        724, 726, (30, 1488), 107, 112, 135, 149, 155, 171, 197, 214, 246,
        260, 326, 330, 292, 373, 390, 424, 451, 464, (18, 960),
    ],
    "ddr": [
        103, 105, 139, 143, 239, 241, 249, 257, 267, 327, 337, 339, 376, 407,
        479, 487, 495, 505, 647, 649, 651, 661, 701, 703, 713, 755, 781, 791,
        793, 795, (30, 1488), 111, 119, 135, 153, 155, 171, 297, 305, 307,
        315, 330, 338, 348, 400, 408, 428, 495, 512, (18, 960),
    ],
}


def _golden_run(org: DRAMOrganization) -> list:
    """48 accesses of 16, 64 and 80 B over three rows of every bank, with
    a reset after the 30th; an LCG picks block, arrival gap and size."""
    dev = DRAMDevice(org)
    span = (org.row_buffer_bytes // 64) * org.channels * org.banks_per_channel * 3
    x, arrival, out = 11, 0, []
    for i in range(48):
        if i == 30:
            out.append((dev.total_accesses, dev.total_bytes_transferred))
            dev.reset()
            arrival = 0
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        arrival += (x >> 3) % 40
        out.append(dev.access((x >> 7) % span, arrival, (16, 64, 80)[x % 3]))
    out.append((dev.total_accesses, dev.total_bytes_transferred))
    return out


class TestGoldenSequence:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_finish_cycles_match_the_recorded_sequence(self, name, small_org):
        machine = SystemConfig.paper_scale()
        org = {
            "small": small_org,
            "l4": machine.l4.organization,
            "ddr": machine.memory,
        }[name]
        assert _golden_run(org) == GOLDEN[name]


class TestMainMemory:
    def test_lazy_materialization(self):
        calls = []

        def gen(addr):
            calls.append(addr)
            return bytes([addr & 0xFF] * 64)

        mem = MainMemory(
            DRAMOrganization(channels=1, banks_per_channel=2, bus_bytes=8), gen
        )
        assert mem.read_data(7) == bytes([7] * 64)
        assert mem.read_data(7) == bytes([7] * 64)
        assert calls == [7]  # generated once

    def test_write_then_read_roundtrip(self, small_org, random_line):
        mem = MainMemory(small_org)
        mem.write_data(42, random_line)
        assert mem.read_data(42) == random_line

    def test_write_rejects_partial_line(self, small_org):
        mem = MainMemory(small_org)
        with pytest.raises(ValueError):
            mem.write_data(0, b"partial")

    def test_timed_ops_count(self, small_org, random_line):
        mem = MainMemory(small_org)
        data, finish = mem.read(3, arrival=10)
        assert len(data) == 64
        assert finish > 10
        assert mem.write(3, random_line, arrival=finish) > finish
        assert mem.reads == 1
        assert mem.writes == 1

    def test_default_generator_is_zero(self, small_org):
        mem = MainMemory(small_org)
        assert mem.read_data(999) == bytes(64)


class TestTimings:
    def test_scaled_latency_halves(self):
        t = DRAMTimings().scaled_latency(0.5)
        assert t.tCAS == 22
        assert t.tRCD == 22

    def test_scaled_latency_floor(self):
        t = DRAMTimings().scaled_latency(0.001)
        assert t.tCAS >= 1

    def test_burst_cycles_scale_with_bytes(self, small_org):
        assert small_org.burst_cycles(160) > small_org.burst_cycles(16)

    def test_burst_cycles_minimum_one(self, small_org):
        assert small_org.burst_cycles(1) >= 1
