"""Common engine layer, counter math and kernel counters for all baselines.

Every baseline SpGEMM in this package follows the same two-backend structure
the core accelerator got with ``SpArchConfig.engine``:

* ``"scalar"`` — the reference implementation that executes the baseline's
  actual algorithm element by element (dictionary SPA probes, open-addressing
  hash inserts, binary-heap sifts, ...), accumulating every counter as the
  work happens;
* ``"vectorized"`` — a fast path that computes the functional product with
  batched CSR kernels and derives the same cycle/traffic/energy counters in
  closed form from row-length and partial-product-count arrays.

These are :data:`repro.core.config.BACKENDS`, the backend names every
engine shares.

Both backends are proven to produce *identical* results and identical
counters by the differential harness in
``tests/baselines/test_backend_equivalence.py``; the vectorized path exists
purely so comparison sweeps (Table 2, Figure 11, Figure 14) run at engine
speed instead of Python-loop speed.

:class:`BaselineEngine` is the :class:`~repro.engines.base.Engine` every
baseline is: it owns the backend dispatch, the one pricing of kernel
counters into the cost report of :meth:`BaselineEngine.run`, and the cache
identity used by :class:`repro.experiments.runner.ExperimentRunner`;
subclasses only provide their dataflow-specific kernels and traffic
formulas.
"""

from __future__ import annotations

import abc
import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.platforms import PlatformModel
from repro.core.config import check_backend
from repro.engines.base import Engine, EngineRun
from repro.formats.csr import CSRMatrix
from repro.metrics.report import CostReport

#: Bytes of one stored element in baseline traffic models (8-byte column
#: index + 8-byte value on CPUs/GPUs; 32-bit row + 32-bit column + 64-bit
#: value for the accelerators — both come to 16 bytes).
ELEMENT_BYTES = 16

#: Backend used when a baseline is constructed without an explicit engine.
DEFAULT_ENGINE = "vectorized"


# ----------------------------------------------------------------------
# Shared counter math (row-length / partial-product-count arrays)
# ----------------------------------------------------------------------
def products_per_element(matrix_a: CSRMatrix, matrix_b: CSRMatrix) -> np.ndarray:
    """Partial products generated by each stored element of A, in CSR order."""
    return matrix_b.nnz_per_row()[matrix_a.indices]


def total_products(matrix_a: CSRMatrix, matrix_b: CSRMatrix) -> int:
    """Total partial products of ``A · B`` — the multiplication count of
    every formulation (inner, row-wise and outer product alike)."""
    return int(products_per_element(matrix_a, matrix_b).sum())


def ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """Return ``[0..counts[0]-1, 0..counts[1]-1, ...]`` as one flat array."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - starts


def expand_product_structure(matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates of every partial product, without computing values.

    Returns ``(rows, cols, per_element)`` where ``rows``/``cols`` are the
    output coordinates of each partial product in expansion order (A's CSR
    order, then the selected B row's order — exactly the order every scalar
    baseline generates them in) and ``per_element`` is the product count of
    each stored A element.  The value-free expansion is what the vectorized
    hash and heap counter models consume.
    """
    per_element = products_per_element(matrix_a, matrix_b)
    a_rows = np.repeat(np.arange(matrix_a.num_rows, dtype=np.int64),
                       matrix_a.nnz_per_row())
    rows = np.repeat(a_rows, per_element)
    gather = (np.repeat(matrix_b.indptr[matrix_a.indices], per_element)
              + ragged_offsets(per_element))
    cols = matrix_b.indices[gather]
    return rows, cols, per_element


def accumulator_counters(matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                         structural_nnz: int, *, extras_key: str
                         ) -> "BaselineCounters":
    """Closed-form counters of a one-update-per-product accumulator.

    Shared by the SPA (Gustavson) and coordinate-map (Armadillo) models:
    every partial product is one multiplication and one accumulator update,
    and the updates that hit an existing entry — the additions — are the
    products minus the distinct output coordinates.  ``extras_key`` names
    the update counter in ``extras`` ("spa_updates", "map_updates").
    """
    multiplications = total_products(matrix_a, matrix_b)
    return BaselineCounters(
        multiplications=multiplications,
        additions=multiplications - structural_nnz,
        bookkeeping_ops=multiplications,
        extras={extras_key: float(multiplications)},
    )


# ----------------------------------------------------------------------
# Kernel counters
# ----------------------------------------------------------------------
@dataclass
class BaselineCounters:
    """Work counters of one baseline kernel, before platform modelling.

    Attributes:
        multiplications: scalar multiplications performed.
        additions: scalar additions performed.
        bookkeeping_ops: insert/hash/sort operations the algorithm needed.
        extras: algorithm-specific counters (hash collisions, sort passes,
            heap operations, ...).
        traffic_bytes: optional precomputed traffic; when ``None`` the
            engine calls :meth:`BaselineEngine._traffic_bytes` instead
            (OuterSPACE fills this in because its traffic breakdown also
            feeds its ``extras``).
    """

    multiplications: int
    additions: int
    bookkeeping_ops: int
    extras: dict[str, float] = field(default_factory=dict)
    traffic_bytes: int | None = None


# ----------------------------------------------------------------------
# The engine base
# ----------------------------------------------------------------------
class BaselineEngine(Engine):
    """Two-backend baseline: scalar reference loop + vectorized closed form.

    Subclasses implement :meth:`_multiply_scalar` (the algorithm, element at
    a time) and :meth:`_multiply_vectorized` (batched product + closed-form
    counters), both returning ``(result_matrix, BaselineCounters)``;
    :meth:`run` prices either through one shared platform-model path, so
    runtime/energy can never diverge between the backends for the same
    counters.

    Each subclass declares its registry id as ``name`` ("mkl") and its
    comparison-table label as ``display_name`` ("MKL").

    Args:
        platform: platform model used for runtime/energy estimates.
        engine: execution backend, ``"vectorized"`` (default) or
            ``"scalar"``; both produce identical results and counters.
    """

    kind = "baseline"

    def __init__(self, platform: PlatformModel, *,
                 engine: str | None = None) -> None:
        self._platform = platform
        self._backend = check_backend(engine or DEFAULT_ENGINE)

    # ------------------------------------------------------------------
    @property
    def platform(self) -> PlatformModel:
        return self._platform

    @property
    def backend(self) -> str:
        return self._backend

    def using_backend(self, backend: str) -> "BaselineEngine":
        """Return a copy of this baseline pinned to ``backend``.

        The copy shares the platform model and every algorithm parameter;
        only the backend changes.  Returns ``self`` when the backend
        already matches.
        """
        check_backend(backend)
        if backend == self._backend:
            return self
        clone = copy.copy(self)
        clone._backend = backend
        return clone

    def cache_fields(self) -> dict:
        """Identity of this baseline for experiment-cache fingerprinting.

        Subclasses with extra model parameters (e.g. the Gustavson cache
        capacity) must extend the returned dict.  The backend is *not*
        included here — the runner adds it only for backend-forced runs,
        mirroring how SpArch simulation points are keyed.
        """
        return {
            "baseline": type(self).__name__,
            "platform": dataclasses.asdict(self._platform),
        }

    # ------------------------------------------------------------------
    def run(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix | None = None
            ) -> EngineRun:
        """Compute ``A · B`` (``B = A`` by default) and price it.

        The selected backend's kernel yields the result and its
        :class:`BaselineCounters`; the traffic hook and the platform model
        turn those into the cost report.  The headline ``energy_joules``
        keeps the platform model's number (runtime × dynamic power — the
        Figure 12 methodology); ``energy`` additionally carries the uniform
        per-event accounting so baseline points get the same Table III-style
        view as SpArch (DESIGN.md).  ``detail`` records the run's scalar
        outcome, result matrix aside.
        """
        from repro.analysis.energy import EnergyModel

        if matrix_b is None:
            matrix_b = matrix_a
        if matrix_a.shape[1] != matrix_b.shape[0]:
            raise ValueError(
                f"dimension mismatch: cannot multiply {matrix_a.shape} by "
                f"{matrix_b.shape}"
            )
        if self._backend == "vectorized":
            matrix, counters = self._multiply_vectorized(matrix_a, matrix_b)
        else:
            matrix, counters = self._multiply_scalar(matrix_a, matrix_b)
        traffic = counters.traffic_bytes
        if traffic is None:
            traffic = self._traffic_bytes(matrix_a, matrix_b, matrix, counters)
        runtime = self._platform.runtime_seconds(
            flops=counters.multiplications + counters.additions,
            traffic_bytes=traffic,
            bookkeeping_ops=counters.bookkeeping_ops,
        )
        energy_joules = self._platform.energy_joules(runtime)
        detail = {
            "baseline": self.display_name,
            "platform": self._platform.name,
            "engine": self.backend,
            "runtime_seconds": runtime,
            "traffic_bytes": traffic,
            "multiplications": counters.multiplications,
            "additions": counters.additions,
            "bookkeeping_ops": counters.bookkeeping_ops,
            "energy_joules": energy_joules,
            "result_nnz": matrix.nnz,
            "extras": dict(counters.extras),
        }
        report = CostReport(
            engine=self.name,
            kind=self.kind,
            backend=self.backend,
            runtime_seconds=runtime,
            multiplications=counters.multiplications,
            additions=counters.additions,
            bookkeeping_ops=counters.bookkeeping_ops,
            output_nnz=matrix.nnz,
            traffic={"total": int(traffic)},
            energy=EnergyModel().event_energy(
                multiplications=counters.multiplications,
                additions=counters.additions,
                bookkeeping_ops=counters.bookkeeping_ops,
                dram_bytes=traffic,
            ),
            energy_joules=energy_joules,
            extras=dict(counters.extras),
            detail=detail,
        )
        return EngineRun(matrix=matrix, report=report)

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Reference backend: execute the algorithm element at a time."""

    @abc.abstractmethod
    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Fast backend: batched product, counters in closed form."""

    def _traffic_bytes(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, counters: BaselineCounters) -> int:
        """Default streaming traffic: A once, touched B rows, result once.

        This is the model shared by the heap and Armadillo baselines;
        the others override it (cache model, hash-table spill, radix-sort
        passes, two-phase partial-matrix round trip).
        """
        b_touch = int(matrix_b.nnz_per_row()[matrix_a.indices].sum())
        return (matrix_a.nnz + b_touch + result.nnz) * ELEMENT_BYTES

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
