"""Linearised ``(row, column)`` key helpers shared across the simulator.

Partial products travel through the datapath as linearised coordinates,
``key = row * num_cols + col``.  At paper scale (10⁵–10⁶ rows) the
``row·col`` product exceeds 2³¹, so any 32-bit intermediate silently wraps;
this module is the one place that owns the promotion rule:

* :func:`linear_key_dtype` picks ``int32`` only when *every* possible key
  of the result shape fits 32 bits (the per-round stable sorts run
  noticeably faster on int32), and ``int64`` otherwise;
* :func:`linear_keys` builds keys with an explicitly 64-bit product, so the
  multiplication itself can never wrap even if a caller hands in narrower
  index arrays (e.g. a scipy round trip that downcast to int32).

Both backends (scalar and vectorized) and the COO canonicalisation
path derive their key dtype from here, which keeps the 2³¹ boundary in one
audited spot instead of scattered inline guards.
"""

from __future__ import annotations

import numpy as np

#: Exclusive upper bound of the int32 keyspace.
INT32_KEYSPACE = 2 ** 31


def linear_key_dtype(num_rows: int, num_cols: int) -> np.dtype:
    """Smallest safe dtype for keys of a ``(num_rows, num_cols)`` result.

    The largest possible key is ``num_rows * num_cols - 1`` (Python ints,
    so the check itself cannot overflow); int32 is only chosen when that
    bound fits 32 bits.
    """
    span = int(num_rows) * int(num_cols)
    return np.dtype(np.int32 if span < INT32_KEYSPACE else np.int64)


def linear_keys(rows: np.ndarray, cols: np.ndarray, num_cols: int,
                dtype: np.dtype | None = None) -> np.ndarray:
    """Linearise ``(row, col)`` pairs to ``row * num_cols + col`` keys.

    The product is computed in int64 regardless of the input dtypes, then
    cast to ``dtype`` (which, by :func:`linear_key_dtype` contract, is only
    narrower when every key provably fits).
    """
    keys = (np.asarray(rows, dtype=np.int64) * np.int64(num_cols)
            + np.asarray(cols, dtype=np.int64))
    if dtype is not None:
        keys = keys.astype(dtype, copy=False)
    return keys
