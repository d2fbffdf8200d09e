"""Differential harness: scalar and vectorized baseline backends are identical.

Every baseline runs on two backends (``BaselineEngine``): the scalar
reference loop and the vectorized fast path with closed-form counters.  This
harness proves, over the benchmark matrix suite plus adversarial edge cases,
that the two backends agree *exactly* — bit-identical result matrices and
equal cost reports (runtime, traffic, energy, multiplications, additions,
bookkeeping and all algorithm-specific extras), apart from the labels that
name the backend.

This equivalence is what licenses :class:`ExperimentRunner` to share cached
baseline points between engines (and the comparison sweeps to default to the
fast backend).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    ArmadilloSpGEMM,
    ESCSpGEMM,
    GustavsonSpGEMM,
    HashSpGEMM,
    HeapSpGEMM,
    InnerProductSpGEMM,
    OuterSpaceAccelerator,
)
from repro.formats.csr import CSRMatrix
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.suite import benchmark_names, load_suite
from repro.matrices.synthetic import bipartite_matrix, powerlaw_matrix, random_matrix

ALL_BASELINES = [
    OuterSpaceAccelerator,
    GustavsonSpGEMM,
    HashSpGEMM,
    ESCSpGEMM,
    HeapSpGEMM,
    ArmadilloSpGEMM,
    InnerProductSpGEMM,
]

def _suite_matrices() -> dict[str, CSRMatrix]:
    """The benchmark suite (scaled down) plus synthetic stress matrices."""
    matrices = dict(load_suite(max_rows=200, names=benchmark_names()[:8]))
    matrices["powerlaw"] = powerlaw_matrix(150, 5.0, seed=17)
    matrices["rmat"] = generate_rmat(RMATConfig(num_rows=300, edge_factor=8,
                                                seed=3))
    return matrices


SUITE = _suite_matrices()


def _unlabelled(report) -> dict:
    """A report's dict without the two fields that name its backend."""
    payload = report.to_dict()
    del payload["backend"]
    del payload["detail"]["engine"]
    return payload


def assert_backends_identical(baseline_cls, matrix_a: CSRMatrix,
                              matrix_b: CSRMatrix, **kwargs) -> None:
    """Assert scalar and vectorized runs of one baseline agree exactly."""
    scalar = baseline_cls(engine="scalar", **kwargs).run(matrix_a, matrix_b)
    fast = baseline_cls(engine="vectorized", **kwargs).run(matrix_a, matrix_b)

    # Bit-identical functional result.
    assert scalar.matrix.shape == fast.matrix.shape
    np.testing.assert_array_equal(scalar.matrix.indptr, fast.matrix.indptr)
    np.testing.assert_array_equal(scalar.matrix.indices, fast.matrix.indices)
    assert scalar.matrix.data.tobytes() == fast.matrix.data.tobytes(), (
        f"{baseline_cls.__name__}: result values differ between backends")

    # Identical counters, modelled quantities and extras.
    assert scalar.report.backend == "scalar"
    assert fast.report.backend == "vectorized"
    assert _unlabelled(scalar.report) == _unlabelled(fast.report), (
        f"{baseline_cls.__name__}: cost reports differ between backends")


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
@pytest.mark.parametrize("name", sorted(SUITE))
def test_backends_identical_on_matrix_suite(baseline_cls, name):
    """Squaring every suite matrix gives identical results and counters."""
    matrix = SUITE[name]
    assert_backends_identical(baseline_cls, matrix, matrix)


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
def test_backends_identical_on_rectangular_product(baseline_cls):
    a = bipartite_matrix(40, 60, 4.0, seed=1)
    b = bipartite_matrix(60, 30, 3.0, seed=2)
    assert_backends_identical(baseline_cls, a, b)


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
def test_backends_identical_on_empty_operands(baseline_cls):
    empty = CSRMatrix.empty((8, 8))
    dense = random_matrix(8, 8, 20, seed=1)
    assert_backends_identical(baseline_cls, empty, dense)
    assert_backends_identical(baseline_cls, dense, empty)
    assert_backends_identical(baseline_cls, empty, empty)


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
def test_backends_identical_under_exact_cancellation(baseline_cls):
    """Products that cancel to exactly zero stress the structural-nnz
    closed form: insertions happen, but the entry vanishes from the result."""
    a = CSRMatrix.from_dense(np.array([[1.0, -1.0], [2.0, 0.0]]))
    b = CSRMatrix.from_dense(np.array([[1.0, 3.0], [1.0, 0.0]]))
    assert_backends_identical(baseline_cls, a, b)


@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
def test_backends_identical_with_empty_b_rows(baseline_cls):
    """A selects B rows that are empty — exercises cursor/table skip paths."""
    a = CSRMatrix.from_dense(np.array([[1.0, 2.0, 3.0],
                                       [0.0, 4.0, 0.0],
                                       [5.0, 0.0, 6.0]]))
    b = CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0],
                                       [0.0, 0.0, 0.0],
                                       [0.0, 3.0, 0.0]]))
    assert_backends_identical(baseline_cls, a, b)


def test_gustavson_cache_parameter_respected_by_both_backends():
    """A thrashing cache capacity must change both backends identically."""
    matrix = SUITE["powerlaw"]
    assert_backends_identical(GustavsonSpGEMM, matrix, matrix,
                              cache_bytes=64.0)


def test_vectorized_is_the_default_engine():
    for baseline_cls in ALL_BASELINES:
        assert baseline_cls().backend == "vectorized"
        assert baseline_cls(engine="scalar").backend == "scalar"


def test_using_backend_returns_pinned_copy():
    baseline = GustavsonSpGEMM(cache_bytes=123.0)
    pinned = baseline.using_backend("scalar")
    assert pinned is not baseline
    assert pinned.backend == "scalar"
    assert baseline.backend == "vectorized"
    # Algorithm parameters carry over to the copy.
    assert pinned.cache_fields()["cache_bytes"] == 123.0
    # Same backend: no copy needed.
    assert baseline.using_backend("vectorized") is baseline
    with pytest.raises(ValueError, match="engine must be one of"):
        baseline.using_backend("turbo")
