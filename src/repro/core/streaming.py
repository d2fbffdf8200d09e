"""Streaming simulation backend (``SpArchConfig(engine="streaming")``).

The vectorized backend materialises *every* partial product of the multiply
up front — an ``O(multiplications)`` allocation that is fine for the scaled
proxies of DESIGN.md §2 but dwarfs the matrices themselves at paper scale
(10⁵–10⁶ rows, tens of millions of products).  This module bounds the
multiplier-side working set without changing a single bit of output:
:class:`StreamingLeafStreamer` defers partial-product generation until the
merge plan consumes each leaf, generating ``streaming_chunk_leaves``
upcoming leaves per batched numpy pass (the accelerator binds the plan's
consumption order via :meth:`StreamingLeafStreamer.bind_plan`).  Product
generation is elementwise-independent — each element's products are
``value * B[col, :]`` regardless of batching — so chunked generation is
bit-identical to the all-at-once pass.

The merge side needs nothing engine-specific: both batched engines run
:class:`~repro.core.vectorized.VectorizedMergeTree`, which already merges
each round in blocks of ``streaming_block_elements`` elements per stream.

The differential harness (``tests/integration/test_engine_equivalence.py``)
pins streaming == vectorized == scalar over all 16 ablation combinations,
and a hypothesis property test pins invariance under every chunk/block size
including the extremes (1 and ≥ everything).
"""

from __future__ import annotations

import numpy as np

from repro.core.huffman import MergePlan
from repro.core.vectorized import VectorizedLeafStreamer
from repro.formats.csr import CSRMatrix
from repro.hardware.multiplier_array import MultiplierArray


class StreamingLeafStreamer(VectorizedLeafStreamer):
    """Leaf streamer that generates partial products chunk by chunk.

    Reuses the vectorized streamer's metadata pass (element grouping,
    product counts, cycle prefix sums — all O(nnz(A))) but skips the bulk
    product materialisation: products are generated lazily for chunks of
    ``chunk_leaves`` leaves in merge-plan consumption order, so at most one
    chunk's products (plus any generated-but-unconsumed leaves of the
    current chunk) are live at a time.

    Args:
        matrix_a: left operand in CSR format.
        matrix_b: right operand in CSR format.
        multipliers: multiplier array whose counters mirror the scalar model.
        condensing: whether leaves are condensed or original columns.
        chunk_leaves: leaves generated per batched numpy pass (≥ 1).
    """

    def __init__(self, matrix_a: CSRMatrix, matrix_b: CSRMatrix,
                 multipliers: MultiplierArray, *, condensing: bool,
                 chunk_leaves: int = 64) -> None:
        self._chunk_leaves = max(1, int(chunk_leaves))
        super().__init__(matrix_a, matrix_b, multipliers,
                         condensing=condensing)

    def _materialise(self) -> None:
        """Defer product generation: nothing is built until leaves stream."""
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._consume_order: list[int] | None = None
        self._order_pos: dict[int, int] = {}

    # ------------------------------------------------------------------
    def bind_plan(self, plan: MergePlan) -> None:
        """Learn the order the merge plan will consume leaves in.

        Chunks are formed over this order so each batched generation pass
        produces exactly the next ``chunk_leaves`` leaves the plan will ask
        for.  Unbound (or for leaves outside the plan) the streamer falls
        back to single-leaf generation — still correct, just less batched.
        """
        order = [node_id for merge_round in plan.rounds
                 for node_id in merge_round.input_ids
                 if node_id < plan.num_leaves]
        if not plan.rounds and plan.num_leaves == 1:
            order = [0]
        self._consume_order = order
        self._order_pos = {leaf: pos for pos, leaf in enumerate(order)}

    def _generate_chunk(self, leaves: list[int]) -> None:
        """Generate the partial products of the given leaves in one pass."""
        starts = self._elem_starts
        elem_idx = (np.concatenate(
            [np.arange(starts[leaf], starts[leaf + 1], dtype=np.int64)
             for leaf in leaves])
            if leaves else np.empty(0, dtype=np.int64))
        keys, vals = self._generate_products(elem_idx)
        counts = [int(self._prod_starts[leaf + 1] - self._prod_starts[leaf])
                  for leaf in leaves]
        boundaries = np.cumsum(counts)[:-1] if len(counts) > 1 else []
        for leaf, key_part, val_part in zip(leaves,
                                            np.split(keys, boundaries),
                                            np.split(vals, boundaries)):
            self._pending[leaf] = (key_part, val_part)

    def leaf_stream(self, leaf: int) -> tuple[np.ndarray, np.ndarray]:
        """Return one leaf's sorted (key, value) partial-product stream.

        Generates the chunk of upcoming leaves containing this one if it is
        not pending yet; the returned arrays are popped, so a consumed
        leaf's products are immediately collectable.
        """
        self._record_leaf_counters(leaf)
        if leaf not in self._pending:
            if self._consume_order is not None and leaf in self._order_pos:
                position = self._order_pos[leaf]
                window = self._consume_order[
                    position:position + self._chunk_leaves]
                chunk = [l for l in window if l not in self._pending]
            else:
                chunk = [leaf]
            self._generate_chunk(chunk)
        return self._pending.pop(leaf)
