"""Outer-product multiplier array (Table I: 2 groups × 8 FP64 multipliers).

Given one element ``(row r, original column k, value v)`` of a condensed
column of the left matrix and row ``k`` of the right matrix, the multiplier
array produces the partial products ``(r, c, v · B[k, c])`` for every nonzero
``c`` of that row.  The products of one left element are already sorted by
column (the right matrix rows are CSR-sorted) and the products of successive
left elements have increasing row index, so each condensed column's partial
matrix leaves the multipliers sorted by (row, column) — ready for the merge
tree.

The array's throughput (``SpArchConfig.num_multipliers`` products per
cycle) is charged once per multiply, in
:meth:`repro.core.accelerator.SpArch.price`.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix


def multiply_column(left_rows: np.ndarray, left_cols: np.ndarray,
                    left_vals: np.ndarray, matrix_b: CSRMatrix
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multiply a whole condensed column against the right matrix.

    Args:
        left_rows: row index of each condensed-column element (ascending).
        left_cols: original column index of each element — the right
            matrix row it selects.
        left_vals: element values.
        matrix_b: the right operand in CSR format.

    Returns:
        ``(rows, cols, vals)`` of the column's partial-product matrix in
        (row, column)-sorted COO order.
    """
    left_rows = np.asarray(left_rows, dtype=np.int64)
    left_cols = np.asarray(left_cols, dtype=np.int64)
    left_vals = np.asarray(left_vals, dtype=np.float64)
    if not (len(left_rows) == len(left_cols) == len(left_vals)):
        raise ValueError("left element arrays must have equal length")

    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    for row, col, value in zip(left_rows, left_cols, left_vals):
        b_cols, b_vals = matrix_b.row(int(col))
        if len(b_cols):
            out_rows.append(np.full(len(b_cols), row, dtype=np.int64))
            out_cols.append(np.asarray(b_cols, dtype=np.int64))
            out_vals.append(float(value) * np.asarray(b_vals,
                                                      dtype=np.float64))
    if not out_rows:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0)
    return (np.concatenate(out_rows), np.concatenate(out_cols),
            np.concatenate(out_vals))
