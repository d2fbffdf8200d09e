"""Partial matrix fetcher and writer (§II-E, Figure 10).

When the number of partial matrices exceeds the merge tree's 64 ways, the
partially merged result of a round is written back to DRAM and re-read in a
later round.  :class:`PartialMatrixStore` models that DRAM-resident pool:
it keeps the *functional* content of every spilled result (so correctness
can be verified end to end) and charges every spill and reload to the DRAM
traffic counter.

:class:`PartialMatrixWriter` models the output stage: it converts the final
merged stream from the internal COO representation to the CSR result
written to DRAM, band by band as the merge tree emits it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

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
        """Spill a partially merged result to DRAM.

        Integer keys keep their dtype: a stream on an int32 keyspace
        (:func:`repro.formats.keys.linear_key_dtype`) spills and reloads
        as int32.
        """
        if not (isinstance(keys, np.ndarray) and keys.dtype.kind == "i"):
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

    def round_trip(self, num_elements: int) -> None:
        """Charge a stream's spill and reload without keeping it.

        The two-phase dataflow sends every multiplied leaf through DRAM
        before merging it; the stream itself comes back unchanged.
        """
        num_bytes = num_elements * self._element_bytes
        self._traffic.add(TrafficCategory.PARTIAL_WRITE, num_bytes)
        self._traffic.add(TrafficCategory.PARTIAL_READ, num_bytes)


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
        return self.write_bands([(keys, values)], shape, capacity=len(keys))

    def write_bands(self, bands: Iterable[tuple[np.ndarray, np.ndarray]],
                    shape: tuple[int, int], *, capacity: int) -> CSRMatrix:
        """Materialise the final CSR result from consecutive pieces of it.

        ``bands`` are ``(keys, values)`` pieces of the merged stream, in
        stream order, holding at most ``capacity`` elements in all.  The
        merge tree emits strictly increasing keys (folded and
        zero-eliminated), so each band already *is* canonical CSR content:
        its columns and row counts go straight into arrays of ``capacity``
        elements, which are trimmed at the end.  A band's row boundaries
        are a binary search for each row's base key ``row * num_cols``, and
        its columns are the keys minus their row's base, so only a band's
        first and last keys are divided.  Keys that do not increase
        strictly, within a band or from one band to the next, are a
        ``ValueError``.  A band is used up before the next one is drawn, so
        it may be a view that the next one overwrites (the merge tree's
        band workspace).
        """
        num_rows, num_cols = shape
        indices = np.empty(capacity, dtype=np.int64)
        data = np.empty(capacity, dtype=np.float64)
        row_nnz = np.zeros(num_rows, dtype=np.int64)
        filled = 0
        for keys, values in bands:
            keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if len(keys) != len(values):
                raise ValueError("keys and values must have equal length")
            if not len(keys):
                continue
            if ((filled and keys[0] <= last_key)
                    or np.any(keys[1:] <= keys[:-1])):
                raise ValueError("result keys must increase strictly")
            if keys[0] < 0 or keys[-1] >= num_rows * num_cols:
                raise ValueError(f"result keys fall outside shape {shape}")
            end = filled + len(keys)
            if end > capacity:
                raise ValueError(f"result bands hold more than {capacity} "
                                 f"elements")
            first_row = int(keys[0]) // num_cols
            last_row = int(keys[-1]) // num_cols
            row_base = (np.arange(first_row, last_row + 2, dtype=np.int64)
                        * num_cols)
            counts = np.diff(np.searchsorted(keys, row_base))
            row_nnz[first_row:last_row + 1] += counts
            np.subtract(keys, np.repeat(row_base[:-1], counts),
                        out=indices[filled:end])
            data[filled:end] = values
            filled, last_key = end, keys[-1]
            del keys, values  # before the next band is generated
        # Shrink in place; no view of the buffers exists.
        indices.resize(filled, refcheck=False)
        data.resize(filled, refcheck=False)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        result = CSRMatrix(indptr, indices, data, shape)
        self._traffic.add(TrafficCategory.RESULT_WRITE,
                          result.nnz * self._element_bytes)
        return result

