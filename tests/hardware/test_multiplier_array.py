"""Unit tests for the outer-product multiplier array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix
from repro.hardware.multiplier_array import multiply_column
from repro.matrices.synthetic import random_matrix


def _matrix_b() -> CSRMatrix:
    dense = np.array([
        [0.0, 2.0, 0.0, 4.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 0.0],
    ])
    return CSRMatrix.from_dense(dense)


def test_one_element_produces_scaled_row():
    rows, cols, vals = multiply_column(np.array([7]), np.array([0]),
                                       np.array([0.5]), _matrix_b())
    np.testing.assert_array_equal(rows, [7, 7])
    np.testing.assert_array_equal(cols, [1, 3])
    np.testing.assert_allclose(vals, [1.0, 2.0])


def test_multiply_column_is_sorted_by_row_then_column():
    b = _matrix_b()
    # Condensed column: rows ascending, each selecting a B row.
    left_rows = np.array([0, 2, 5])
    left_cols = np.array([0, 2, 0])
    left_vals = np.array([1.0, 2.0, -1.0])
    rows, cols, vals = multiply_column(left_rows, left_cols, left_vals, b)
    keys = rows * b.num_cols + cols
    assert np.all(np.diff(keys) > 0)
    assert len(vals) == 5
    # Check one product exactly: row 2 element times B[2, :].
    mask = rows == 2
    np.testing.assert_array_equal(cols[mask], [2])
    np.testing.assert_allclose(vals[mask], [6.0])


def test_multiply_column_against_dense_reference(rng):
    b = CSRMatrix.from_dense((rng.random((6, 5)) > 0.5) * rng.random((6, 5)))
    left_rows = np.array([1, 3, 4])
    left_cols = np.array([2, 0, 5])
    left_vals = np.array([2.0, -1.0, 0.5])
    # Column 5 of B does not exist (only 6 rows) — use a valid index instead.
    left_cols[2] = 5
    rows, cols, vals = multiply_column(left_rows, left_cols, left_vals, b)
    dense = np.zeros((6, 5))
    for r, c, v in zip(left_rows, left_cols, left_vals):
        dense[r, :] += v * b.to_dense()[c, :]
    produced = np.zeros((6, 5))
    np.add.at(produced, (rows, cols), vals)
    np.testing.assert_allclose(produced, dense)


def test_empty_column_and_empty_rows():
    b = _matrix_b()
    rows, cols, vals = multiply_column(np.empty(0, np.int64),
                                       np.empty(0, np.int64),
                                       np.empty(0), b)
    assert len(rows) == len(cols) == len(vals) == 0
    # An element selecting an empty B row produces nothing.
    empty_b = CSRMatrix.empty((3, 4))
    rows, cols, vals = multiply_column(np.array([0]), np.array([1]),
                                       np.array([2.0]), empty_b)
    assert len(vals) == 0


def test_validation():
    with pytest.raises(ValueError):
        multiply_column(np.array([1]), np.array([1, 2]), np.array([1.0]),
                        _matrix_b())


@pytest.mark.parametrize("engine", ["scalar", "vectorized"])
@pytest.mark.parametrize("num_multipliers", [1, 3, 64])
def test_array_retires_num_multipliers_products_per_cycle(engine,
                                                          num_multipliers):
    """The multiply charge is ⌈products / num_multipliers⌉ cycles (Table I:
    16 multipliers); nothing else in the compute cycles depends on it."""
    matrix = random_matrix(40, 40, 160, seed=3)
    table_one = SpArch(SpArchConfig(engine=engine)).multiply(matrix, matrix)
    priced = SpArch(SpArchConfig(engine=engine,
                                 num_multipliers=num_multipliers)
                    ).multiply(matrix, matrix)
    products = table_one.stats.multiplications
    assert products > 0
    assert priced.stats.multiplications == products
    assert (priced.stats.compute_cycles - table_one.stats.compute_cycles
            == -(-products // num_multipliers) - -(-products // 16))
    np.testing.assert_array_equal(priced.matrix.indices,
                                  table_one.matrix.indices)
    np.testing.assert_array_equal(priced.matrix.data, table_one.matrix.data)
