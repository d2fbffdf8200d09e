"""Memory system models: HBM bandwidth, DRAM traffic accounting, row buffer.

SpArch's performance is memory-bandwidth bound (the roofline of Fig. 15), so
the single most important quantity the simulator tracks is the number of
DRAM bytes moved, broken down by purpose (left matrix, right matrix,
partially merged results, final output).  The HBM model converts byte counts
into cycle counts at the aggregate bandwidth of Table I.
"""

from repro.memory.buffer import BufferLine, RowBuffer
from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.traffic import TrafficCategory, TrafficCounter

__all__ = [
    "BufferLine",
    "RowBuffer",
    "HBMConfig",
    "HBMModel",
    "TrafficCategory",
    "TrafficCounter",
]
