"""Vanilla inner-product SpGEMM dataflow (Figure 1, top).

The inner-product formulation computes every output entry as the dot
product of one row of A and one column of B.  Output reuse is perfect (each
output is produced exactly once and never revisited), but input reuse is
poor: each row of A is re-fetched once per B column it meets, and most
fetched operand pairs mismatch and produce nothing — the "redundant input
fetches for mismatched nonzero operands" of the paper's abstract.

The functional result is computed with an efficient equivalent (the result
matrix does not depend on the dataflow); the *fetch counters* model the
vanilla dataflow so the input-reuse comparison of Figure 1 can be
quantified.  Because those counters were always closed-form functions of the
operand row/column lengths, the scalar and vectorized backends of this
baseline share one implementation — the engine switch exists for interface
uniformity with the other baselines.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineCounters, BaselineEngine, ELEMENT_BYTES
from repro.baselines.platforms import PlatformModel
from repro.baselines.reference import scipy_spgemm
from repro.formats.convert import csr_to_csc
from repro.formats.csr import CSRMatrix

_ELEMENT_BYTES = ELEMENT_BYTES

#: Generic bandwidth-bound device used when no platform is specified; the
#: inner-product model exists to quantify the dataflow, not a product.
_GENERIC_DEVICE = PlatformModel(
    name="inner-product dataflow",
    memory_bandwidth=128e9,
    sustained_flops=32e9,
    seconds_per_bookkeeping_op=0.0,
    fixed_overhead_seconds=0.0,
    dynamic_power_watts=10.0,
)


class InnerProductSpGEMM(BaselineEngine):
    """Inner-product dataflow model: perfect output reuse, poor input reuse.

    Args:
        platform: device the dataflow is charged on (a generic 128 GB/s
            bandwidth-bound device by default).
        engine: execution backend; both backends share the closed-form
            dataflow model, so the switch only exists for uniformity.
    """

    name = "innerproduct"
    display_name = "InnerProduct"

    def __init__(self, platform: PlatformModel = _GENERIC_DEVICE, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _model(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
               ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` and charge the vanilla inner-product fetches."""
        result = scipy_spgemm(matrix_a, matrix_b)

        a_row_nnz = matrix_a.nnz_per_row()
        b_col_nnz = csr_to_csc(matrix_b).nnz_per_col()
        occupied_rows = int(np.count_nonzero(a_row_nnz))
        occupied_cols = int(np.count_nonzero(b_col_nnz))

        # Every occupied (row of A, column of B) pair is walked once: the row
        # and the column are both streamed through the intersection unit.
        a_fetches = int(a_row_nnz.sum()) * occupied_cols
        b_fetches = int(b_col_nnz.sum()) * occupied_rows

        # Useful work is identical to any other dataflow.
        b_row_nnz = matrix_b.nnz_per_row()
        multiplications = int(b_row_nnz[matrix_a.indices].sum())
        additions = max(0, multiplications - result.nnz)
        comparisons = a_fetches + b_fetches

        counters = BaselineCounters(
            multiplications=multiplications,
            additions=additions,
            bookkeeping_ops=comparisons,
            extras={"a_element_fetches": float(a_fetches),
                    "b_element_fetches": float(b_fetches),
                    "redundant_fetch_ratio": (
                        float(a_fetches + b_fetches)
                        / max(1.0, float(matrix_a.nnz + matrix_b.nnz)))},
        )
        return result, counters

    _multiply_scalar = _model
    _multiply_vectorized = _model

    def _traffic_bytes(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, counters: BaselineCounters) -> int:
        input_fetch_bytes = int(counters.extras["a_element_fetches"]
                                + counters.extras["b_element_fetches"]
                                ) * _ELEMENT_BYTES
        return input_fetch_bytes + result.nnz * _ELEMENT_BYTES
