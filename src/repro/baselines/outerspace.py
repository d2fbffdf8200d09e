"""OuterSPACE baseline accelerator model (Pal et al., HPCA 2018).

OuterSPACE is the prior state-of-the-art SpGEMM ASIC the paper compares
against.  It also uses the outer-product formulation (perfect input reuse),
but it runs the multiply and merge phases separately: the multiply phase
writes *every* partial product to DRAM, and the merge phase reads them all
back and combines them row by row with general-purpose processing elements.
That round trip is exactly the output-reuse problem SpArch's pipelined merge
tree removes, and it limits OuterSPACE to 10.4 % of its theoretical peak
(48.3 % bandwidth utilisation, Table II).

The scalar backend executes both phases functionally, column of A by column
of A; the vectorized backend computes the same product with one batched CSR
kernel and derives the phase traffic in closed form (the partial-product
count is a pure function of the operands' row/column lengths).  Both charge
the DRAM traffic of each phase:

* multiply phase — read A (by column) and B (by row) once each, write all
  ``M`` partial products;
* merge phase — read the ``M`` partial products back, write the final
  result.

The runtime is bandwidth-bound at the paper's measured 48.3 % utilisation of
the same 128 GB/s HBM that SpArch uses.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    ELEMENT_BYTES,
    total_products,
)
from repro.baselines.platforms import OUTERSPACE_ASIC, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr, csr_to_csc
from repro.formats.csr import CSRMatrix
from repro.memory.traffic import TrafficCategory, TrafficCounter

#: Bytes of one COO element in DRAM (32-bit row + 32-bit column + 64-bit value,
#: the same element layout SpArch's Table I uses).
_ELEMENT_BYTES = ELEMENT_BYTES

#: Published OuterSPACE implementation figures (Table II of the paper),
#: reused by the area/energy comparison experiments.
OUTERSPACE_AREA_MM2 = 87.0
OUTERSPACE_POWER_W = 12.39
OUTERSPACE_BANDWIDTH_UTILIZATION = 0.483


class OuterSpaceAccelerator(BaselineEngine):
    """Two-phase outer-product accelerator (the OuterSPACE dataflow).

    Args:
        platform: platform model; defaults to the published OuterSPACE
            configuration (128 GB/s HBM at 48.3 % utilisation, 12.39 W).
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "outerspace"
    display_name = "OuterSPACE"

    def __init__(self, platform: PlatformModel = OUTERSPACE_ASIC, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _phase_traffic(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, multiplications: int
                       ) -> TrafficCounter:
        """DRAM traffic of both phases — identical for the two backends."""
        traffic = TrafficCounter()
        traffic.add(TrafficCategory.MATRIX_A_READ,
                    matrix_a.nnz * _ELEMENT_BYTES)
        b_row_nnz = matrix_b.nnz_per_row()
        touched_rows = np.nonzero(np.bincount(matrix_a.indices,
                                              minlength=matrix_b.num_rows))[0]
        traffic.add(TrafficCategory.MATRIX_B_READ,
                    int(b_row_nnz[touched_rows].sum()) * _ELEMENT_BYTES)
        traffic.add(TrafficCategory.PARTIAL_WRITE,
                    multiplications * _ELEMENT_BYTES)
        traffic.add(TrafficCategory.PARTIAL_READ,
                    multiplications * _ELEMENT_BYTES)
        traffic.add(TrafficCategory.RESULT_WRITE, result.nnz * _ELEMENT_BYTES)
        return traffic

    def _counters(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                  result: CSRMatrix, multiplications: int) -> BaselineCounters:
        """Shared counter/traffic construction for both backends."""
        traffic = self._phase_traffic(matrix_a, matrix_b, result,
                                      multiplications)
        return BaselineCounters(
            multiplications=multiplications,
            additions=max(0, multiplications - result.nnz),
            bookkeeping_ops=multiplications,
            extras={
                "partial_matrix_bytes": float(traffic.partial_matrix_bytes),
                "input_bytes": float(traffic.input_bytes),
                "result_bytes": float(
                    traffic.bytes_by_category[TrafficCategory.RESULT_WRITE]),
            },
            traffic_bytes=traffic.total_bytes,
        )

    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Run the two-phase outer-product SpGEMM column by column."""
        shape = (matrix_a.num_rows, matrix_b.num_cols)

        # --- Multiply phase -----------------------------------------------
        # The left operand is streamed column by column (CSC view) and the
        # right operand row by row; every partial product goes to DRAM.
        csc_a = csr_to_csc(matrix_a)
        product_rows: list[np.ndarray] = []
        product_cols: list[np.ndarray] = []
        product_vals: list[np.ndarray] = []
        multiplications = 0
        for k in range(csc_a.num_cols):
            a_rows, a_vals = csc_a.col(k)
            if len(a_rows) == 0:
                continue
            b_cols, b_vals = matrix_b.row(k)
            if len(b_cols) == 0:
                continue
            # Outer product of column k of A with row k of B.
            rows = np.repeat(a_rows, len(b_cols))
            cols = np.tile(b_cols, len(a_rows))
            vals = np.repeat(a_vals, len(b_cols)) * np.tile(b_vals, len(a_rows))
            multiplications += len(vals)
            product_rows.append(rows)
            product_cols.append(cols)
            product_vals.append(vals)

        # --- Merge phase --------------------------------------------------
        # Every partial product is read back and merged into the final rows.
        if product_rows:
            coo = COOMatrix(np.concatenate(product_rows),
                            np.concatenate(product_cols),
                            np.concatenate(product_vals), shape)
            result = coo_to_csr(coo.canonicalized())
        else:
            result = CSRMatrix.empty(shape)
        return result, self._counters(matrix_a, matrix_b, result,
                                      multiplications)

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; both phases' traffic in closed form."""
        result, _ = fast_structural_spgemm(matrix_a, matrix_b)
        multiplications = total_products(matrix_a, matrix_b)
        return result, self._counters(matrix_a, matrix_b, result,
                                      multiplications)
