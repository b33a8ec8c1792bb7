"""DRAM timing substrate: banks, channels, and whole-device models.

Both DRAM pools in the system — the stacked-DRAM cache and the DDR main
memory — are instances of :class:`repro.dram.device.DRAMDevice`, differing
only in channel count, bus width and (for sensitivity studies) timings.
"""

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.device import AccessResult, DRAMDevice
from repro.dram.mainmemory import MainMemory

__all__ = [
    "Bank",
    "Channel",
    "AccessResult",
    "DRAMDevice",
    "MainMemory",
]
