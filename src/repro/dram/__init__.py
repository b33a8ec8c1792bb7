"""DRAM timing substrate: whole-device models and the main-memory frontend.

Both DRAM pools in the system — the stacked-DRAM cache and the DDR main
memory — are instances of :class:`repro.dram.device.DRAMDevice`, differing
only in channel count, bus width and (for sensitivity studies) timings.
"""

from repro.dram.device import DRAMDevice
from repro.dram.mainmemory import MainMemory

__all__ = [
    "DRAMDevice",
    "MainMemory",
]
