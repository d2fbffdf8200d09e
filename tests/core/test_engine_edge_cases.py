"""Micro-tests for degenerate inputs on both engines.

These pin the edge cases the per-element stream code paths are easiest to
get wrong: empty operands, products that cancel to an all-zero result,
single-nonzero operands (the one-leaf merge plan) and empty right-matrix
rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.formats.csr import CSRMatrix

ENGINES = ("scalar", "vectorized")


def _config(engine: str, **overrides) -> SpArchConfig:
    return SpArchConfig(engine=engine, **overrides)


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_left_operand(engine):
    matrix_a = CSRMatrix.empty((5, 4))
    matrix_b = CSRMatrix.from_dense(np.eye(4))
    result = SpArch(_config(engine)).multiply(matrix_a, matrix_b)
    assert result.nnz == 0
    assert result.matrix.shape == (5, 4)
    assert result.stats.multiplications == 0
    assert result.stats.dram_bytes == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_right_operand(engine):
    matrix_a = CSRMatrix.from_dense(np.eye(4))
    matrix_b = CSRMatrix.empty((4, 3))
    result = SpArch(_config(engine)).multiply(matrix_a, matrix_b)
    assert result.nnz == 0
    assert result.matrix.shape == (4, 3)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("condensing", (True, False))
@pytest.mark.parametrize("pipelined", (True, False))
def test_all_zero_product(engine, condensing, pipelined):
    """Every partial product cancels: the result is an empty matrix."""
    matrix_a = CSRMatrix.from_dense(np.array([[1.0, -1.0], [2.0, -2.0]]))
    matrix_b = CSRMatrix.from_dense(np.array([[3.0, 0.0], [3.0, 0.0]]))
    config = _config(engine, enable_matrix_condensing=condensing,
                     enable_pipelined_merge=pipelined)
    result = SpArch(config).multiply(matrix_a, matrix_b)
    assert result.nnz == 0
    assert result.stats.output_nnz == 0
    assert result.stats.multiplications == 4
    # The additions really happened even though everything cancelled.
    assert result.stats.additions == 2
    np.testing.assert_array_equal(result.matrix.to_dense(), np.zeros((2, 2)))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("pipelined", (True, False))
def test_single_nonzero_operands(engine, pipelined):
    """One nonzero per operand exercises the single-leaf merge plan."""
    dense_a = np.zeros((3, 3))
    dense_a[1, 2] = 2.0
    dense_b = np.zeros((3, 3))
    dense_b[2, 0] = 4.0
    matrix_a = CSRMatrix.from_dense(dense_a)
    matrix_b = CSRMatrix.from_dense(dense_b)
    config = _config(engine, enable_pipelined_merge=pipelined)
    result = SpArch(config).multiply(matrix_a, matrix_b)
    assert result.nnz == 1
    assert result.matrix.to_dense()[1, 0] == 8.0
    assert result.stats.num_partial_matrices == 1
    assert result.stats.num_merge_rounds == 0
    if not pipelined:
        # The two-phase dataflow still round-trips the single leaf via DRAM.
        assert result.stats.traffic.partial_matrix_bytes > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_left_elements_hitting_empty_right_rows(engine):
    """Left nonzeros that select empty B rows produce nothing but still count."""
    dense_a = np.zeros((3, 4))
    dense_a[0, 1] = 1.0   # selects empty B row 1
    dense_a[2, 3] = 5.0   # selects B row 3
    dense_b = np.zeros((4, 2))
    dense_b[3, 1] = 2.0
    matrix_a = CSRMatrix.from_dense(dense_a)
    matrix_b = CSRMatrix.from_dense(dense_b)
    result = SpArch(_config(engine)).multiply(matrix_a, matrix_b)
    assert result.nnz == 1
    assert result.matrix.to_dense()[2, 1] == 10.0
    assert result.stats.multiplications == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_dimension_mismatch_raises(engine):
    matrix_a = CSRMatrix.from_dense(np.eye(3))
    matrix_b = CSRMatrix.from_dense(np.eye(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        SpArch(_config(engine)).multiply(matrix_a, matrix_b)


def test_invalid_engine_name_rejected():
    with pytest.raises(ValueError, match="engine"):
        SpArchConfig(engine="turbo")
