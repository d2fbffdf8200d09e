"""Partial matrix fetcher and writer (§II-E, Figure 10).

When the number of partial matrices exceeds the merge tree's 64 ways, the
partially merged result of a round is written back to DRAM and re-read in a
later round.  :class:`PartialMatrixStore` models that DRAM-resident pool:
it keeps the *functional* content of every spilled result (so correctness
can be verified end to end) and charges every spill and reload to the DRAM
traffic counter.

:class:`PartialMatrixWriter` models the output stage: it buffers the final
merged stream and converts it from the internal COO representation to the
CSR result written to DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.csr import CSRMatrix
from repro.memory.traffic import TrafficCategory, TrafficCounter


@dataclass
class StoredPartialMatrix:
    """One partially merged result spilled to DRAM.

    Attributes:
        node_id: id of the merge-plan node this result corresponds to.
        keys: linearised (row · num_cols + col) coordinates, sorted.
        values: values aligned with ``keys``.
    """

    node_id: int
    keys: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(len(self.keys))


class PartialMatrixStore:
    """DRAM pool of partially merged results with traffic accounting.

    Args:
        traffic: counter to charge spills and reloads to.
        element_bytes: bytes per COO element in DRAM.
    """

    def __init__(self, traffic: TrafficCounter, *, element_bytes: int = 16) -> None:
        self._traffic = traffic
        self._element_bytes = element_bytes
        self._stored: dict[int, StoredPartialMatrix] = {}

    def write(self, node_id: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Spill a partially merged result to DRAM."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        if node_id in self._stored:
            raise ValueError(f"partial result {node_id} already stored")
        self._stored[node_id] = StoredPartialMatrix(node_id, keys, values)
        self._traffic.add(TrafficCategory.PARTIAL_WRITE,
                          len(keys) * self._element_bytes)

    def read(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Reload a partially merged result; the entry is consumed."""
        try:
            stored = self._stored.pop(node_id)
        except KeyError:
            raise KeyError(f"partial result {node_id} is not stored") from None
        self._traffic.add(TrafficCategory.PARTIAL_READ,
                          stored.nnz * self._element_bytes)
        return stored.keys, stored.values


class PartialMatrixWriter:
    """Converts the final merged stream to CSR and charges the write traffic.

    Args:
        traffic: counter to charge the final result write to.
        element_bytes: bytes per output element (index + value).
    """

    def __init__(self, traffic: TrafficCounter, *,
                 element_bytes: int = 16) -> None:
        self._traffic = traffic
        self._element_bytes = element_bytes

    def write_result(self, keys: np.ndarray, values: np.ndarray,
                     shape: tuple[int, int]) -> CSRMatrix:
        """Materialise the final CSR result and charge its DRAM write."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")
        num_rows, num_cols = shape
        if num_cols and (len(keys) < 2 or bool(np.all(keys[1:] > keys[:-1]))):
            # The merge tree emits strictly increasing keys (folded and
            # zero-eliminated), so the stream already *is* canonical CSR
            # content: build it directly instead of re-sorting through the
            # generic COO canonicalisation.  Row boundaries are a binary
            # search for each row's base key ``row * num_cols``, and columns
            # are the keys minus their row's base, so no key is divided.
            if len(keys) and (keys[0] < 0
                              or keys[-1] >= num_rows * num_cols):
                raise ValueError(f"result keys fall outside shape {shape}")
            row_base = np.arange(num_rows + 1, dtype=np.int64) * num_cols
            indptr = np.searchsorted(keys, row_base)
            cols = keys - np.repeat(row_base[:-1], np.diff(indptr))
            result = CSRMatrix(indptr, cols, values.copy(), shape)
        else:
            rows = keys // num_cols if num_cols else keys
            cols = keys % num_cols if num_cols else keys
            result = coo_to_csr(COOMatrix(rows, cols, values, shape))
        self._traffic.add(TrafficCategory.RESULT_WRITE,
                          result.nnz * self._element_bytes)
        return result
