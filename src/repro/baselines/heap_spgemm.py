"""Heap-based SpGEMM (HeapSpGEMM, Azad et al. 2016 — §IV related work).

Each result row is formed by a k-way merge of the selected B rows using a
binary heap keyed on column index.  The heap is hard to parallelise, so the
only parallelism comes from processing rows independently — which, as the
paper notes, "would suffer from the load-balance problem" on power-law
matrices.  The model charges one heap operation (log-depth sift) per partial
product.

The scalar backend runs the merge with :mod:`heapq`; the vectorized backend
computes the same product with one batched CSR kernel and replays the heap
cost in closed form.  The key observation is that the heap always holds
exactly one entry per non-exhausted cursor, and the merged pop order is the
partial products sorted by (column, cursor): the heap size trajectory is
therefore the per-row active-cursor count minus a running count of cursor
exhaustions, and every pop/push cost is ``⌊log2(size)⌋ + 1`` of that
trajectory — all computable with one stable argsort and a cumulative sum.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    ELEMENT_BYTES,
    expand_product_structure,
)
from repro.baselines.platforms import INTEL_CPU, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix

_ELEMENT_BYTES = ELEMENT_BYTES


class HeapSpGEMM(BaselineEngine):
    """Row-wise SpGEMM that merges the selected B rows with a binary heap.

    Args:
        platform: platform model used for runtime/energy estimates.
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "heap"
    display_name = "HeapSpGEMM"

    def __init__(self, platform: PlatformModel = INTEL_CPU, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` with one k-way heap merge per result row."""
        shape = (matrix_a.num_rows, matrix_b.num_cols)

        out_rows: list[np.ndarray] = []
        out_cols: list[int] = []
        out_vals: list[float] = []
        multiplications = 0
        additions = 0
        heap_ops = 0

        for i in range(matrix_a.num_rows):
            a_cols, a_vals = matrix_a.row(i)
            if len(a_cols) == 0:
                continue
            # One cursor per selected B row; the heap holds (column, cursor id).
            cursors: list[tuple[np.ndarray, np.ndarray, float, int]] = []
            heap: list[tuple[int, int]] = []
            for cursor_id, (k, a_value) in enumerate(zip(a_cols, a_vals)):
                b_cols, b_vals = matrix_b.row(int(k))
                if len(b_cols) == 0:
                    continue
                cursors.append((b_cols, b_vals, float(a_value), 0))
                heap.append((int(b_cols[0]), len(cursors) - 1))
            heapq.heapify(heap)
            heap_ops += len(heap)

            row_start = len(out_cols)
            last_col = -1
            while heap:
                column, cursor_id = heapq.heappop(heap)
                heap_ops += int(math.log2(len(heap) + 1)) + 1
                b_cols, b_vals, a_value, position = cursors[cursor_id]
                product = a_value * float(b_vals[position])
                multiplications += 1
                if column == last_col:
                    out_vals[-1] += product
                    additions += 1
                else:
                    out_cols.append(column)
                    out_vals.append(product)
                    last_col = column
                position += 1
                if position < len(b_cols):
                    cursors[cursor_id] = (b_cols, b_vals, a_value, position)
                    heapq.heappush(heap, (int(b_cols[position]), cursor_id))
                    heap_ops += int(math.log2(len(heap) + 1)) + 1
            produced = len(out_cols) - row_start
            if produced:
                out_rows.append(np.full(produced, i, dtype=np.int64))

        if out_cols:
            coo = COOMatrix(np.concatenate(out_rows),
                            np.asarray(out_cols, dtype=np.int64),
                            np.asarray(out_vals), shape)
            result = coo_to_csr(coo.canonicalized())
        else:
            result = CSRMatrix.empty(shape)
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=additions,
            bookkeeping_ops=heap_ops,
            extras={"heap_operations": float(heap_ops)},
        )
        return result, counters

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; heap-operation count from the size trajectory."""
        result, structural_nnz = fast_structural_spgemm(matrix_a, matrix_b)
        multiplications, heap_ops = self._heap_cost(matrix_a, matrix_b)
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=multiplications - structural_nnz,
            bookkeeping_ops=heap_ops,
            extras={"heap_operations": float(heap_ops)},
        )
        return result, counters

    @staticmethod
    def _heap_cost(matrix_a: CSRMatrix, matrix_b: CSRMatrix) -> tuple[int, int]:
        """Exact ``(multiplications, heap_ops)`` of the k-way merges.

        Replays every row's merge in aggregate: the pops of row *i* arrive
        sorted by (column, cursor), the heap size before a pop is the row's
        non-exhausted cursor count, and a cursor exhausts exactly when its
        last product is popped.
        """
        exp_rows, exp_cols, per_element = expand_product_structure(
            matrix_a, matrix_b)
        multiplications = len(exp_cols)
        if multiplications == 0:
            return 0, 0
        a_rows = np.repeat(np.arange(matrix_a.num_rows, dtype=np.int64),
                           matrix_a.nnz_per_row())
        nonempty = per_element > 0
        # Initial heapify cost: one push per non-empty cursor of each row.
        active_at_start = np.bincount(a_rows[nonempty],
                                      minlength=matrix_a.num_rows)
        heap_ops = int(active_at_start.sum())

        # Mark the last product of every cursor (its segment in the
        # expansion is contiguous and column-sorted, so the segment end is
        # the cursor's final — highest-column — product).
        cursor_last = np.zeros(multiplications, dtype=bool)
        cursor_last[np.cumsum(per_element[nonempty]) - 1] = True

        # Pop order: stable sort by (row, column) keeps equal columns in
        # cursor order, exactly the heap's (column, cursor-id) tie-break.
        order = np.argsort(exp_rows * np.int64(matrix_b.num_cols) + exp_cols,
                           kind="stable")
        pop_rows = exp_rows[order]
        pop_exhausts = cursor_last[order]

        # Active cursors before each pop: the row's initial count minus the
        # exhaustions already popped within the row.
        exhausted_before = np.cumsum(pop_exhausts) - pop_exhausts
        row_change = np.empty(multiplications, dtype=bool)
        row_change[0] = True
        np.not_equal(pop_rows[1:], pop_rows[:-1], out=row_change[1:])
        row_segment = np.cumsum(row_change) - 1
        segment_starts = np.flatnonzero(row_change)
        active = (active_at_start[pop_rows[segment_starts]][row_segment]
                  - (exhausted_before - exhausted_before[segment_starts][row_segment]))

        # Every pop shrinks the heap to ``active - 1`` and costs
        # ``⌊log2(active)⌋ + 1``; every non-final pop is followed by a push
        # back to ``active`` costing ``⌊log2(active + 1)⌋ + 1``.
        pop_cost = np.floor(np.log2(active)).astype(np.int64) + 1
        push_cost = np.floor(np.log2(active[~pop_exhausts] + 1)
                             ).astype(np.int64) + 1
        heap_ops += int(pop_cost.sum()) + int(push_cost.sum())
        return multiplications, heap_ops
