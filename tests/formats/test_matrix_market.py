"""Matrix Market (.mtx) files enter through scipy and ``from_scipy``.

``from_scipy(scipy.io.mmread(path))`` is the loading recipe the README gives
for real SuiteSparse/SNAP files.  These tests pin what ``from_scipy`` makes
of what ``mmread`` returns: the canonical CSR operand the accelerator
expects (sorted, duplicate-free columns, int64 indices, float64 values).
"""

from __future__ import annotations

import io

import numpy as np
import pytest
import scipy.io

from repro.formats.convert import from_scipy, to_scipy
from repro.formats.csr import CSRMatrix
from repro.matrices.synthetic import random_matrix

GENERAL_FILE = """%%MatrixMarket matrix coordinate real general
% a comment line
3 4 5
1 1 1.5
1 3 -2.0
2 2 3.25
3 1 4.0
3 4 0.5
"""

SYMMETRIC_FILE = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 1.0
2 1 2.0
3 1 3.0
3 3 4.0
"""

SKEW_FILE = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 5.0
3 2 -1.0
"""

PATTERN_FILE = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
"""

SYMMETRIC_PATTERN_DIAGONAL_FILE = """%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
1 1
2 2
3 1
"""

#: Each file with the dense matrix it describes.
FILES = {
    "general": (GENERAL_FILE, [[1.5, 0.0, -2.0, 0.0],
                               [0.0, 3.25, 0.0, 0.0],
                               [4.0, 0.0, 0.0, 0.5]]),
    "symmetric": (SYMMETRIC_FILE, [[1.0, 2.0, 3.0],
                                   [2.0, 0.0, 0.0],
                                   [3.0, 0.0, 4.0]]),
    "skew-symmetric": (SKEW_FILE, [[0.0, -5.0, 0.0],
                                   [5.0, 0.0, 1.0],
                                   [0.0, -1.0, 0.0]]),
    "pattern": (PATTERN_FILE, [[0.0, 1.0],
                               [1.0, 0.0]]),
    # Mirroring skips the diagonal: a duplicated pattern diagonal entry
    # would sum to 2.0 in the canonical CSR.
    "symmetric-pattern": (SYMMETRIC_PATTERN_DIAGONAL_FILE, [[1.0, 0.0, 1.0],
                                                            [0.0, 1.0, 0.0],
                                                            [1.0, 0.0, 0.0]]),
}


def _load(text: str) -> CSRMatrix:
    return from_scipy(scipy.io.mmread(io.StringIO(text)))


def _assert_canonical(matrix: CSRMatrix) -> None:
    assert matrix.indptr.dtype == np.int64
    assert matrix.indices.dtype == np.int64
    assert matrix.data.dtype == np.float64
    assert matrix.indptr[0] == 0 and matrix.indptr[-1] == matrix.nnz
    for row in range(matrix.shape[0]):
        cols, _ = matrix.row(row)
        assert np.all(np.diff(cols) > 0)


@pytest.mark.parametrize("name", list(FILES))
def test_file_loads_as_canonical_csr(name):
    text, dense = FILES[name]
    matrix = _load(text)
    dense = np.array(dense)
    assert matrix.shape == dense.shape
    assert matrix.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(matrix.to_dense(), dense)
    _assert_canonical(matrix)


def test_out_of_order_and_repeated_entries_are_summed():
    matrix = _load("""%%MatrixMarket matrix coordinate real general
2 3 4
2 3 1.0
1 2 2.0
2 1 3.0
1 2 0.5
""")
    np.testing.assert_array_equal(matrix.indptr, [0, 1, 3])
    np.testing.assert_array_equal(matrix.indices, [1, 0, 2])
    np.testing.assert_array_equal(matrix.data, [2.5, 3.0, 1.0])


def test_integer_file_gives_float64_values():
    matrix = _load("""%%MatrixMarket matrix coordinate integer general
2 2 2
1 1 3
2 2 -7
""")
    assert matrix.data.dtype == np.float64
    np.testing.assert_array_equal(matrix.to_dense(), [[3.0, 0.0],
                                                      [0.0, -7.0]])


def test_file_without_entries_keeps_its_shape():
    matrix = _load("""%%MatrixMarket matrix coordinate real general
3 4 0
""")
    assert matrix.shape == (3, 4)
    assert matrix.nnz == 0
    np.testing.assert_array_equal(matrix.indptr, [0, 0, 0, 0])


def _assert_same_csr(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def test_roundtrip_through_file(tmp_path):
    original = random_matrix(30, 20, 150, seed=6)
    path = tmp_path / "matrix.mtx"
    scipy.io.mmwrite(path, to_scipy(original), precision=17)
    _assert_same_csr(from_scipy(scipy.io.mmread(path)), original)


def test_roundtrip_through_stream():
    original = random_matrix(10, 10, 40, seed=7)
    buffer = io.BytesIO()
    scipy.io.mmwrite(buffer, to_scipy(original), precision=17)
    buffer.seek(0)
    _assert_same_csr(from_scipy(scipy.io.mmread(buffer)), original)


def test_loaded_matrix_runs_through_the_accelerator():
    from repro.baselines.reference import matrices_allclose, scipy_spgemm
    from repro.core.accelerator import multiply

    matrix = _load(SYMMETRIC_FILE)
    result = multiply(matrix, matrix)
    assert matrices_allclose(result.matrix, scipy_spgemm(matrix, matrix))
