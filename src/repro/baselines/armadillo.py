"""Armadillo-style SpGEMM on a mobile ARM CPU (the paper's weakest baseline).

Armadillo's overloaded ``operator*`` for sparse matrices is effectively a
single-threaded accumulation of every partial product into an ordered
coordinate map.  On an in-order Cortex-A53, every map update is a
dependent, cache-missing memory operation, which is why the paper measures
a three-orders-of-magnitude gap to SpArch.  The scalar backend performs
exactly that product-by-product accumulation; the vectorized backend
computes the same product with one batched CSR kernel — every product is
one multiplication and one map update, and the updates that hit an existing
key (the additions) are the products minus the distinct coordinates, all in
closed form.  The platform model charges one bookkeeping operation per map
update.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    accumulator_counters,
)
from repro.baselines.platforms import ARM_A53, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix


class ArmadilloSpGEMM(BaselineEngine):
    """Single-threaded map-accumulation SpGEMM (Armadillo's ``*`` operator).

    Args:
        platform: platform model (defaults to the quad-core ARM A53 board
            the paper measures, of which Armadillo uses a single core).
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "armadillo"
    display_name = "Armadillo"

    def __init__(self, platform: PlatformModel = ARM_A53, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` by accumulating every product into one map."""
        shape = (matrix_a.num_rows, matrix_b.num_cols)

        accumulator: dict[tuple[int, int], float] = {}
        multiplications = 0
        additions = 0
        map_updates = 0

        for i in range(matrix_a.num_rows):
            a_cols, a_vals = matrix_a.row(i)
            for k, a_value in zip(a_cols, a_vals):
                b_cols, b_vals = matrix_b.row(int(k))
                multiplications += len(b_cols)
                map_updates += len(b_cols)
                for c, b_value in zip(b_cols, b_vals):
                    key = (i, int(c))
                    if key in accumulator:
                        accumulator[key] += a_value * b_value
                        additions += 1
                    else:
                        accumulator[key] = a_value * b_value

        if accumulator:
            rows = np.fromiter((k[0] for k in accumulator), dtype=np.int64,
                               count=len(accumulator))
            cols = np.fromiter((k[1] for k in accumulator), dtype=np.int64,
                               count=len(accumulator))
            vals = np.fromiter(accumulator.values(), dtype=np.float64,
                               count=len(accumulator))
            result = coo_to_csr(COOMatrix(rows, cols, vals, shape).canonicalized())
        else:
            result = CSRMatrix.empty(shape)
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=additions,
            bookkeeping_ops=map_updates,
            extras={"map_updates": float(map_updates)},
        )
        return result, counters

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; map-update counters in closed form."""
        result, structural_nnz = fast_structural_spgemm(matrix_a, matrix_b)
        return result, accumulator_counters(matrix_a, matrix_b, structural_nnz,
                                            extras_key="map_updates")

    # The default streaming traffic model (A once, touched B rows, result
    # once) is exactly Armadillo's: no cache to speak of, no spills.
