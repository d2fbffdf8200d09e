"""Memory system models: HBM bandwidth and DRAM traffic accounting.

SpArch's performance is memory-bandwidth bound (the roofline of Fig. 15), so
the single most important quantity the simulator tracks is the number of
DRAM bytes moved, broken down by purpose (left matrix, right matrix,
partially merged results, final output).  The HBM model converts byte counts
into cycle counts at the aggregate bandwidth of Table I.  The on-chip row
buffer of §II-D has no model of its own: the prefetcher
(:mod:`repro.core.prefetcher`) replays each access sequence through an
empty buffer and keeps only the statistics.
"""

from repro.memory.hbm import HBMConfig, HBMModel
from repro.memory.traffic import TrafficCategory, TrafficCounter

__all__ = [
    "HBMConfig",
    "HBMModel",
    "TrafficCategory",
    "TrafficCounter",
]
