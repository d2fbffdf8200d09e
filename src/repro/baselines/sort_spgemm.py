"""Expand-Sort-Compress (ESC) SpGEMM — the algorithm behind CUSP.

CUSP's ``generalized_spgemm`` expands every partial product into a global
(COO) list, sorts the list by output coordinate, and compresses runs of
equal coordinates by summation (§IV: "CUSP uses a sorting algorithm which
suffers from higher complexity and excessive DRAM access if on-chip
resources are limited").  The expanded list is several times larger than the
inputs and makes multiple passes through DRAM during the sort, which is what
the performance model charges.

The scalar backend materialises the expanded list and executes the
sort/compress passes; the vectorized backend computes the same product with
one batched CSR kernel and derives the counters in closed form — the
expansion size is a pure function of the operands' row lengths, the radix
pass count of the key width, and the compression additions are the products
minus the distinct output coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    ELEMENT_BYTES,
    ragged_offsets,
    total_products,
)
from repro.baselines.platforms import NVIDIA_GPU_CUSP, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix

_ELEMENT_BYTES = ELEMENT_BYTES

#: Radix-sort digit width used by Thrust/CUSP-style GPU sorts; each pass
#: streams the whole expanded list through DRAM once in and once out.
_RADIX_BITS = 8


def _sort_passes(shape: tuple[int, int]) -> int:
    """Radix passes needed to sort keys of the given output shape."""
    key_bits = max(1, int(math.ceil(math.log2(max(2, shape[0] * shape[1])))))
    return -(-key_bits // _RADIX_BITS)


class ESCSpGEMM(BaselineEngine):
    """CUSP-style expand-sort-compress SpGEMM.

    Args:
        platform: platform model (defaults to the TITAN Xp used by the paper).
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "cusp"
    display_name = "CUSP"

    def __init__(self, platform: PlatformModel = NVIDIA_GPU_CUSP, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` by expanding, sorting and compressing products."""
        shape = (matrix_a.num_rows, matrix_b.num_cols)

        # --- Expand: materialise every partial product --------------------
        b_row_nnz = matrix_b.nnz_per_row()
        products_per_a_nnz = b_row_nnz[matrix_a.indices]
        total = int(products_per_a_nnz.sum())
        if total == 0:
            return CSRMatrix.empty(shape), BaselineCounters(0, 0, 0)

        a_rows = np.repeat(np.arange(matrix_a.num_rows, dtype=np.int64),
                           matrix_a.nnz_per_row())
        expanded_rows = np.repeat(a_rows, products_per_a_nnz)
        expanded_a_vals = np.repeat(matrix_a.data, products_per_a_nnz)
        # Gather the B columns/values of every product.
        b_starts = matrix_b.indptr[matrix_a.indices]
        offsets = ragged_offsets(products_per_a_nnz)
        gather = np.repeat(b_starts, products_per_a_nnz) + offsets
        expanded_cols = matrix_b.indices[gather]
        expanded_vals = expanded_a_vals * matrix_b.data[gather]

        # --- Sort: order products by output coordinate --------------------
        keys = expanded_rows * shape[1] + expanded_cols
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_vals = expanded_vals[order]
        sort_passes = _sort_passes(shape)

        # --- Compress: sum runs of equal coordinates -----------------------
        unique_keys, inverse, counts = np.unique(sorted_keys, return_inverse=True,
                                                 return_counts=True)
        summed = np.zeros(len(unique_keys))
        np.add.at(summed, inverse, sorted_vals)
        additions = int(np.sum(counts - 1))
        keep = summed != 0.0
        rows = unique_keys[keep] // shape[1]
        cols = unique_keys[keep] % shape[1]
        result = coo_to_csr(COOMatrix(rows, cols, summed[keep], shape))
        counters = BaselineCounters(
            multiplications=total,
            additions=additions,
            bookkeeping_ops=total * sort_passes,
            extras={"expanded_products": float(total),
                    "sort_passes": float(sort_passes)},
        )
        return result, counters

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; expansion/sort/compress counters in closed form."""
        total = total_products(matrix_a, matrix_b)
        shape = (matrix_a.num_rows, matrix_b.num_cols)
        if total == 0:
            return CSRMatrix.empty(shape), BaselineCounters(0, 0, 0)
        result, structural_nnz = fast_structural_spgemm(matrix_a, matrix_b)
        sort_passes = _sort_passes(shape)
        counters = BaselineCounters(
            multiplications=total,
            additions=total - structural_nnz,
            bookkeeping_ops=total * sort_passes,
            extras={"expanded_products": float(total),
                    "sort_passes": float(sort_passes)},
        )
        return result, counters

    def _traffic_bytes(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, counters: BaselineCounters) -> int:
        if counters.multiplications == 0:
            # Nothing is expanded, sorted or written back.
            return 0
        expanded_bytes = counters.multiplications * _ELEMENT_BYTES
        sort_passes = int(counters.extras["sort_passes"])
        b_touch_bytes = int(matrix_b.nnz_per_row()[matrix_a.indices].sum()
                            ) * _ELEMENT_BYTES
        return (matrix_a.nnz * _ELEMENT_BYTES
                + b_touch_bytes
                + expanded_bytes                       # write expanded list
                + 2 * sort_passes * expanded_bytes     # radix sort passes
                + expanded_bytes                       # compression read
                + result.nnz * _ELEMENT_BYTES)         # result write
