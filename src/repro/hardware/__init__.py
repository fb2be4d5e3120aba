"""Hardware substrate: CPU topology, memory, disks and the machine."""

from .disk import DiskDevice, IoRequest, StripedVolume
from .machine import Machine
from .memory import MemorySubsystem
from .topology import CpuTopology, LogicalCoreInfo

__all__ = [
    "DiskDevice",
    "IoRequest",
    "StripedVolume",
    "Machine",
    "MemorySubsystem",
    "CpuTopology",
    "LogicalCoreInfo",
]
