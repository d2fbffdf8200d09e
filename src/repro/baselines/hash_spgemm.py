"""Hash-table SpGEMM — the algorithm class behind NVIDIA cuSPARSE.

``cusparseDcsrgemm`` parallelises the computation across result rows and
accumulates each row's partial products in a hash table (§IV of the paper).
The scalar backend uses open addressing with linear probing, sized per row,
so the probe/collision counts the performance model charges reflect the
actual irregularity of the workload: power-law rows with many products per
output entry cause long probe chains, which is one reason GPU hash SpGEMM
underperforms on the paper's matrices.

The vectorized backend computes the same product with one batched CSR kernel
and reproduces the probe/collision counts exactly without touching the
per-product loop, via a linear-probing invariant: once a column is inserted
at displacement *d* from its home slot, every later probe for that column
walks the same *d* occupied slots (open addressing never deletes), so the
probe cost of a column is fixed at insertion time.  The backend therefore
only replays the *distinct* columns of each row (in first-product order)
through a table, then charges ``count × (d + 1)`` probes per column in
closed form — O(result nonzeros) work instead of O(partial products).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    BaselineCounters,
    BaselineEngine,
    ELEMENT_BYTES,
    expand_product_structure,
)
from repro.baselines.platforms import NVIDIA_GPU_CUSPARSE, PlatformModel
from repro.baselines.reference import fast_structural_spgemm
from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix

_ELEMENT_BYTES = ELEMENT_BYTES

#: Knuth's multiplicative hashing constant, shared by both backends.
_HASH_MULTIPLIER = 2654435761

#: Hash tables are sized to the next power of two at least this factor times
#: the upper bound of the row's product count, like cuSPARSE's NNZ estimate.
_TABLE_OVERSIZE = 2.0


def _table_size(upper_bound_nnz: int) -> int:
    """Power-of-two hash table size for a row with ``upper_bound_nnz`` products."""
    size = 8
    target = max(8, int(_TABLE_OVERSIZE * max(1, upper_bound_nnz)))
    while size < target:
        size *= 2
    return size


class _RowHashTable:
    """Open-addressing hash accumulator for one result row."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._keys = np.full(size, -1, dtype=np.int64)
        self._vals = np.zeros(size)
        self.probes = 0
        self.collisions = 0
        self.additions = 0
        self.occupied = 0

    def insert(self, column: int, value: float) -> None:
        """Accumulate ``value`` into slot ``column``, probing linearly."""
        slot = (column * _HASH_MULTIPLIER) % self._size
        while True:
            self.probes += 1
            key = self._keys[slot]
            if key == column:
                self._vals[slot] += value
                self.additions += 1
                return
            if key == -1:
                self._keys[slot] = column
                self._vals[slot] = value
                self.occupied += 1
                return
            self.collisions += 1
            slot = (slot + 1) % self._size

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the accumulated (columns, values), sorted by column."""
        mask = self._keys >= 0
        cols = self._keys[mask]
        vals = self._vals[mask]
        order = np.argsort(cols)
        return cols[order], vals[order]


class HashSpGEMM(BaselineEngine):
    """cuSPARSE-style row-parallel hash SpGEMM.

    Args:
        platform: platform model (defaults to the TITAN Xp used by the paper).
        engine: execution backend (``"vectorized"`` default, ``"scalar"``
            reference); both produce identical results and counters.
    """

    name = "cusparse"
    display_name = "cuSPARSE"

    def __init__(self, platform: PlatformModel = NVIDIA_GPU_CUSPARSE, *,
                 engine: str | None = None) -> None:
        super().__init__(platform, engine=engine)

    # ------------------------------------------------------------------
    def _multiply_scalar(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                         ) -> tuple[CSRMatrix, BaselineCounters]:
        """Compute ``A · B`` with one hash table per result row."""
        b_row_nnz = matrix_b.nnz_per_row()

        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        multiplications = 0
        additions = 0
        probes = 0
        collisions = 0

        for i in range(matrix_a.num_rows):
            a_cols, a_vals = matrix_a.row(i)
            if len(a_cols) == 0:
                continue
            upper_bound = int(b_row_nnz[a_cols].sum())
            if upper_bound == 0:
                continue
            table = _RowHashTable(_table_size(upper_bound))
            for k, a_value in zip(a_cols, a_vals):
                b_cols, b_vals = matrix_b.row(int(k))
                multiplications += len(b_cols)
                for c, b_value in zip(b_cols, b_vals):
                    table.insert(int(c), a_value * b_value)
            cols, vals = table.extract()
            additions += table.additions
            probes += table.probes
            collisions += table.collisions
            if len(cols):
                out_rows.append(np.full(len(cols), i, dtype=np.int64))
                out_cols.append(cols)
                out_vals.append(vals)

        shape = (matrix_a.num_rows, matrix_b.num_cols)
        if out_rows:
            coo = COOMatrix(np.concatenate(out_rows), np.concatenate(out_cols),
                            np.concatenate(out_vals), shape)
            result = coo_to_csr(coo.canonicalized())
        else:
            result = CSRMatrix.empty(shape)
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=additions,
            bookkeeping_ops=probes,
            extras={"hash_probes": float(probes),
                    "hash_collisions": float(collisions)},
        )
        return result, counters

    def _multiply_vectorized(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix
                             ) -> tuple[CSRMatrix, BaselineCounters]:
        """Batched product; probe/collision counts via the displacement invariant."""
        result, structural_nnz = fast_structural_spgemm(matrix_a, matrix_b)
        exp_rows, exp_cols, _ = expand_product_structure(matrix_a, matrix_b)
        multiplications = len(exp_cols)
        probes, collisions = self._probe_counts(matrix_a, matrix_b,
                                                exp_rows, exp_cols)
        counters = BaselineCounters(
            multiplications=multiplications,
            additions=multiplications - structural_nnz,
            bookkeeping_ops=probes,
            extras={"hash_probes": float(probes),
                    "hash_collisions": float(collisions)},
        )
        return result, counters

    @staticmethod
    def _probe_counts(matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                      exp_rows: np.ndarray, exp_cols: np.ndarray
                      ) -> tuple[int, int]:
        """Exact probe/collision totals from the distinct-column replay.

        Each row's distinct columns are inserted (in the order their first
        product appears, which is the scalar backend's insertion order) into
        a table of the same size; a column landing at displacement ``d``
        costs ``d + 1`` probes and ``d`` collisions for *every* product that
        maps to it.
        """
        if len(exp_cols) == 0:
            return 0, 0
        # Per-row product upper bounds size the tables, exactly as the
        # scalar backend sizes them (2.0 × the bound is exact in float for
        # any realistic count, so the integer doubling below matches).
        a_rows = np.repeat(np.arange(matrix_a.num_rows, dtype=np.int64),
                           matrix_a.nnz_per_row())
        upper_bounds = np.zeros(matrix_a.num_rows, dtype=np.int64)
        np.add.at(upper_bounds, a_rows, matrix_b.nnz_per_row()[matrix_a.indices])
        targets = np.maximum(8, 2 * np.maximum(1, upper_bounds))
        table_sizes = np.int64(1) << np.ceil(np.log2(targets)).astype(np.int64)
        # Distinct (row, column) pairs in first-product order, with their
        # product multiplicities.
        keys = exp_rows * np.int64(matrix_b.num_cols) + exp_cols
        unique_keys, first_index, counts = np.unique(
            keys, return_index=True, return_counts=True)
        order = np.argsort(first_index, kind="stable")
        unique_keys = unique_keys[order]
        distinct_rows = unique_keys // matrix_b.num_cols
        distinct_cols = unique_keys % matrix_b.num_cols
        sizes_per_key = table_sizes[distinct_rows]
        homes = ((distinct_cols * _HASH_MULTIPLIER) % sizes_per_key).tolist()

        # Replay only the distinct insertions; the probe walk itself is the
        # one inherently sequential piece (each slot depends on the ones
        # claimed before it), kept to plain-int operations on a bytearray.
        displacements = [0] * len(homes)
        row_list = distinct_rows.tolist()
        size_list = sizes_per_key.tolist()
        index = 0
        num_distinct = len(homes)
        while index < num_distinct:
            row = row_list[index]
            size = size_list[index]
            table = bytearray(size)
            while index < num_distinct and row_list[index] == row:
                slot = homes[index]
                displacement = 0
                while table[slot]:
                    slot += 1
                    if slot == size:
                        slot = 0
                    displacement += 1
                table[slot] = 1
                displacements[index] = displacement
                index += 1
        displacement_arr = np.asarray(displacements, dtype=np.int64)
        counts = counts[order]
        probes = int((counts * (displacement_arr + 1)).sum())
        collisions = int((counts * displacement_arr).sum())
        return probes, collisions

    def _traffic_bytes(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                       result: CSRMatrix, counters: BaselineCounters) -> int:
        # GPU memory traffic: A once, every touched B row per touch (the GPU
        # has no cross-row reuse guarantee; the L2 is small relative to the
        # matrices), the hash tables spill to global memory when long, and
        # the result is written once.
        b_touch_bytes = int(matrix_b.nnz_per_row()[matrix_a.indices].sum()
                            ) * _ELEMENT_BYTES
        return (matrix_a.nnz * _ELEMENT_BYTES + b_touch_bytes
                + result.nnz * 2 * _ELEMENT_BYTES)
