"""One canonical cost-model schema from the datapath to the workloads.

* :mod:`repro.metrics.report` — :class:`CostReport`, the schema every
  engine's result translates into: canonical counters, DRAM traffic by
  category, per-module energy, derived GFLOP/s / intensity / utilisation
  metrics, and a lossless JSON round trip versioned by
  :data:`SCHEMA_VERSION`.
* :mod:`repro.metrics.compare` — field-by-field diff/equality helpers used
  by the differential harnesses.
"""

from repro.metrics.compare import (
    assert_reports_equal,
    format_diff,
    report_diff,
)
from repro.metrics.report import KINDS, SCHEMA_VERSION, CostReport

__all__ = [
    "CostReport",
    "SCHEMA_VERSION",
    "KINDS",
    "report_diff",
    "format_diff",
    "assert_reports_equal",
]
