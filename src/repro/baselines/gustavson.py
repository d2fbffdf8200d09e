"""Row-wise Gustavson SpGEMM — the algorithm behind Intel MKL's SpGEMM.

Gustavson's algorithm [1978] computes the result row by row: row *i* of C is
the linear combination of the rows of B selected by the nonzeros of row *i*
of A, accumulated in a sparse accumulator (SPA).  Intel MKL's
``mkl_sparse_spmm`` parallelises this across rows with OpenMP.

The scalar backend uses a dictionary as the SPA (one probe and possibly one
insertion per partial product).  The vectorized backend computes the same
product with one batched CSR kernel and derives the counters in closed form:
every partial product is one multiplication and one SPA update, and the
updates that hit an existing entry — the additions — are exactly the
products minus the distinct output coordinates.  The performance model
charges:

* one read of A and one write of C;
* one read of the B rows actually touched, re-reading rows whose reuse
  distance exceeds the last-level cache (a simple working-set cache model);
* one bookkeeping operation per partial product (the SPA update, which is
  the latency-bound part of the algorithm on a CPU).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    ELEMENT_BYTES,
    accumulator_counters,
)
from repro.baselines.platforms import INTEL_CPU, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix

#: Bytes of one stored element on a CPU (8-byte column index + 8-byte value).
_ELEMENT_BYTES = ELEMENT_BYTES


def estimate_b_read_bytes(matrix_a: CSRMatrix, matrix_b: CSRMatrix, *,
                          cache_bytes: float, element_bytes: int = _ELEMENT_BYTES
                          ) -> int:
    """Estimate B-read traffic under a working-set cache model.

    Row-wise Gustavson touches the B rows selected by A's column indices.
    When the *working set* of touched B rows fits in the cache, each row is
    read from DRAM once; when it does not, the fraction that spills is
    re-read on every touch.  This coarse model captures the qualitative
    behaviour that makes large power-law matrices slow on CPUs without
    simulating a full cache hierarchy.
    """
    b_row_nnz = matrix_b.nnz_per_row()
    touched = np.unique(matrix_a.indices)
    unique_bytes = int(b_row_nnz[touched].sum()) * element_bytes
    total_touch_bytes = int(b_row_nnz[matrix_a.indices].sum()) * element_bytes
    if unique_bytes <= cache_bytes or total_touch_bytes == 0:
        return unique_bytes
    # Fraction of the working set that cannot stay resident.
    spill_fraction = 1.0 - cache_bytes / unique_bytes
    return int(unique_bytes + spill_fraction * (total_touch_bytes - unique_bytes))


class GustavsonSpGEMM(BaselineEngine):
    """MKL-style row-wise Gustavson SpGEMM with a sparse accumulator.

    Args:
        platform: platform model used for runtime/energy estimates
            (defaults to the paper's 6-core Intel CPU).
        cache_bytes: last-level cache capacity of the platform, used by the
            B-reuse model (15 MiB on the i7-5930K).
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "mkl"
    display_name = "MKL"

    def __init__(self, platform: PlatformModel = INTEL_CPU,
                 cache_bytes: float = 15 * 2**20, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)
        self._cache_bytes = cache_bytes

    def cache_fields(self) -> dict:
        fields = super().cache_fields()
        fields["cache_bytes"] = self._cache_bytes
        return fields

    # ------------------------------------------------------------------
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` row by row with a dictionary SPA."""
        num_rows = matrix_a.num_rows
        num_cols = matrix_b.num_cols

        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        multiplications = 0
        additions = 0
        spa_updates = 0

        for i in range(num_rows):
            a_cols, a_vals = matrix_a.row(i)
            if len(a_cols) == 0:
                continue
            accumulator: dict[int, float] = {}
            for k, a_value in zip(a_cols, a_vals):
                b_cols, b_vals = matrix_b.row(int(k))
                multiplications += len(b_cols)
                spa_updates += len(b_cols)
                for c, b_value in zip(b_cols, b_vals):
                    c = int(c)
                    if c in accumulator:
                        accumulator[c] += a_value * b_value
                        additions += 1
                    else:
                        accumulator[c] = a_value * b_value
            if not accumulator:
                continue
            cols = np.fromiter(accumulator.keys(), dtype=np.int64,
                               count=len(accumulator))
            vals = np.fromiter(accumulator.values(), dtype=np.float64,
                               count=len(accumulator))
            out_rows.append(np.full(len(cols), i, dtype=np.int64))
            out_cols.append(cols)
            out_vals.append(vals)

        result = self._assemble(out_rows, out_cols, out_vals,
                                (num_rows, num_cols))
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=additions,
            bookkeeping_ops=spa_updates,
            extras={"spa_updates": float(spa_updates)},
        )
        return result, counters

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; SPA counters in closed form.

        Every partial product is one multiplication and one SPA update; the
        updates that hit an existing accumulator entry are additions, so
        ``additions = products - distinct output coordinates``.
        """
        result, structural_nnz = fast_structural_spgemm(matrix_a, matrix_b)
        return result, accumulator_counters(matrix_a, matrix_b, structural_nnz,
                                            extras_key="spa_updates")

    # ------------------------------------------------------------------
    @staticmethod
    def _assemble(rows: list[np.ndarray], cols: list[np.ndarray],
                  vals: list[np.ndarray], shape: tuple[int, int]) -> CSRMatrix:
        if not rows:
            return CSRMatrix.empty(shape)
        coo = COOMatrix(np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals), shape)
        return coo_to_csr(coo.canonicalized())

    def _traffic_bytes(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, counters: BaselineCounters) -> int:
        a_bytes = matrix_a.nnz * _ELEMENT_BYTES
        b_bytes = estimate_b_read_bytes(matrix_a, matrix_b,
                                        cache_bytes=self._cache_bytes)
        c_bytes = result.nnz * _ELEMENT_BYTES
        return a_bytes + b_bytes + c_bytes
