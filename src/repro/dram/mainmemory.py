"""DDR main-memory frontend: timing device plus functional backing store.

Main memory is the lowest level of the hierarchy; functionally it always
hits.  Data is materialized lazily from the workload's data generator the
first time a line is read, and overwritten copies are kept so that writebacks
round-trip correctly.  Timing goes through a :class:`DRAMDevice` with the
DDR organization (1 channel, 64-bit bus in the paper's Table 2).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.config import DRAMOrganization, LINE_SIZE
from repro.dram.device import DRAMDevice

DataGenerator = Callable[[int], bytes]
"""Maps a line address to its initial 64 B contents."""


def _zero_line(_addr: int) -> bytes:
    return bytes(LINE_SIZE)


class MainMemory:
    """Backing store with DDR timing."""

    def __init__(
        self,
        organization: DRAMOrganization,
        data_generator: Optional[DataGenerator] = None,
    ) -> None:
        self.device = DRAMDevice(organization)
        self._generate = data_generator or _zero_line
        # Materialized lines: first touch lazily instantiates the
        # generator's contents; stores overwrite in place.
        self._lines: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    def read_data(self, line_addr: int) -> bytes:
        """Functional read (no timing)."""
        data = self._lines.get(line_addr)
        if data is None:
            data = self._generate(line_addr)
            self._lines[line_addr] = data
        return data

    def write_data(self, line_addr: int, data: bytes) -> None:
        """Functional write (no timing)."""
        if len(data) != LINE_SIZE:
            raise ValueError("main memory stores whole lines")
        self._lines[line_addr] = data

    def read(self, line_addr: int, arrival: int) -> "tuple[bytes, int]":
        """Timed read of one line: its data and the finish cycle."""
        self.reads += 1
        finish = self.device.access(line_addr, arrival, LINE_SIZE)
        return self.read_data(line_addr), finish

    def write(self, line_addr: int, data: bytes, arrival: int) -> int:
        """Timed writeback of one line; returns the finish cycle."""
        self.writes += 1
        self.write_data(line_addr, data)
        return self.device.access(line_addr, arrival, LINE_SIZE)

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.device.reset()
