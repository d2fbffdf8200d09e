"""Every engine rejects a right operand whose rows are not column-sorted.

The engines stream each right-operand row as an already key-sorted run of
partial products, so ``SpArch.multiply`` checks the row order once, before
any engine runs, and every engine name fails the same way.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.accelerator import SpArch
from repro.core.config import BACKENDS, SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.matrices.synthetic import random_matrix


def right_operand(rows: list[list[int]], num_cols: int) -> CSRMatrix:
    """A CSR matrix storing each row's columns in the order given."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [col for row in rows for col in row]
    data = np.arange(1.0, len(indices) + 1.0)
    return CSRMatrix(indptr, indices, data, (len(rows), num_cols))


@pytest.mark.parametrize("block", [4, 1 << 16])
@pytest.mark.parametrize("engine", BACKENDS)
def test_every_engine_rejects_unsorted_rows(engine, block):
    matrix_a = CSRMatrix.from_dense(np.ones((3, 2)))
    matrix_b = right_operand([[2, 0], [1]], num_cols=3)
    simulator = SpArch(SpArchConfig(engine=engine))
    with mock.patch.object(vectorized, "BLOCK_ELEMENTS", block):
        with pytest.raises(ValueError, match="right operand row 0"):
            simulator.multiply(matrix_a, matrix_b)


@pytest.mark.parametrize("engine", BACKENDS)
def test_shuffled_row_is_rejected(engine):
    rng = np.random.default_rng(7)
    for seed in range(5):
        matrix = random_matrix(40, 40, 400, seed=seed)
        lengths = matrix.nnz_per_row()
        row = int(rng.choice(np.flatnonzero(lengths > 1)))
        start, stop = matrix.indptr[row], matrix.indptr[row + 1]
        indices = matrix.indices.copy()
        indices[start:stop] = indices[start:stop][::-1]
        shuffled = CSRMatrix(matrix.indptr, indices, matrix.data,
                             matrix.shape)
        with pytest.raises(ValueError, match=f"right operand row {row} "):
            SpArch(SpArchConfig(engine=engine)).multiply(matrix, shuffled)


def test_row_boundaries_and_equal_neighbours_are_allowed():
    # Columns may drop from one row to the next, and a row may repeat a
    # column: the merge tree folds the duplicate products.
    matrix_a = CSRMatrix.from_dense(np.array([[1.0, 2.0, 0.0],
                                              [0.0, 3.0, 4.0]]))
    matrix_b = right_operand([[2], [], [0, 1, 1]], num_cols=3)
    dense_b = np.zeros((3, 3))
    dense_b[0, 2] = 1.0
    dense_b[2, 0] = 2.0
    dense_b[2, 1] = 3.0 + 4.0
    want = matrix_a.to_dense() @ dense_b
    results = [SpArch(SpArchConfig(engine=engine)).multiply(matrix_a,
                                                            matrix_b)
               for engine in BACKENDS]
    for result in results:
        np.testing.assert_array_equal(result.matrix.to_dense(), want)
        assert result.stats == results[0].stats
