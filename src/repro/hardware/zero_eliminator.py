"""Zero eliminator (§II-A.4, Figure 6).

After the adder slice has folded same-coordinate elements, the folded
positions hold zeros that must be squeezed out before the stream re-enters a
FIFO.  The zero eliminator has two parts:

1. a prefix-sum module that computes ``zero_count`` — the number of zeros
   *before* (and including preceding) each element, and
2. a ``log2(N)``-layer shifter whose layer *k* shifts an element left by
   ``2**k`` positions iff bit *k* of its ``zero_count`` is set.

Unlike a conventional barrel shifter, every MUX is controlled by its own
element's ``zero_count``, so different elements shift by different amounts in
the same cycle.  The latency is ``log2(N)`` cycles for an input of width
``N``.

The simulator needs only the shifter's functional contract, which
:func:`eliminate_zeros` implements with a boolean mask.
"""

from __future__ import annotations

import numpy as np


def eliminate_zeros(keys: np.ndarray, values: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Drop entries whose value is exactly zero, preserving order.

    This is the functional contract of the zero eliminator: the survivors
    come out packed in their input order, as the staged shifter of Figure 6
    leaves them.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if len(keys) != len(values):
        raise ValueError("keys and values must have equal length")
    keep = values != 0.0
    return keys[keep], values[keep]
