"""Huffman tree merge scheduler (§II-C, Figure 8).

After matrix condensing the number of partial matrices can still exceed the
64-way merge tree, so partially merged results must round-trip through DRAM.
The earlier a partial matrix is merged, the more future rounds its data is
re-read and re-written in, so the scheduler should merge *small* partial
matrices first and leave the large ones for the final rounds.

The paper models the whole merge process as a k-ary tree whose leaf weights
are the partial-matrix sizes; internal node weights are the sums of their
children (additions during merging are rare for very sparse matrices), and
the total DRAM traffic of partially merged results is proportional to the sum
of all internal node weights.  A k-ary Huffman tree minimises that sum.

Formula 1 of the paper determines how many nodes the *first* round merges so
that every subsequent round (including the last) is exactly k-way:

    k_init = (num_leaves - 2) mod (k - 1) + 2
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.utils.validation import check_positive_int


@dataclass
class MergeTreeNode:
    """One node of the merge schedule tree.

    Attributes:
        node_id: unique id; leaves use ids ``0 .. num_leaves-1`` in input
            order, internal nodes continue from there in creation order.
        weight: estimated number of nonzeros of the (partially merged)
            matrix this node represents.
        children: ids of the merged nodes (empty for leaves).
    """

    node_id: int
    weight: float
    children: tuple[int, ...] = ()


@dataclass
class MergeRound:
    """One multiply-and-merge round executed on the merge tree.

    Attributes:
        round_index: 0-based execution order.
        input_ids: node ids merged in this round (leaves and/or earlier
            internal results).
        output_id: id of the internal node produced.
        output_weight: estimated nonzeros of the produced partial result.
    """

    round_index: int
    input_ids: tuple[int, ...]
    output_id: int
    output_weight: float


@dataclass
class MergePlan:
    """A complete merge schedule.

    Attributes:
        nodes: every node of the tree, indexed by ``node_id``.
        rounds: the merge rounds in execution order.
        num_leaves: number of initial partial matrices.
        ways: merger parallelism the plan was built for.
    """

    nodes: list[MergeTreeNode]
    rounds: list[MergeRound]
    num_leaves: int
    ways: int
    scheduler: str = "huffman"
    _depths: list[int] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    @property
    def root_id(self) -> int:
        """Id of the final result node."""
        if not self.rounds:
            return 0
        return self.rounds[-1].output_id

    @property
    def leaf_weight(self) -> float:
        """Sum of all leaf weights."""
        return sum(n.weight for n in self.nodes[: self.num_leaves])

    @property
    def internal_weight(self) -> float:
        """Sum of internal node weights ∝ DRAM traffic of partial results."""
        return sum(n.weight for n in self.nodes[self.num_leaves:])

    @property
    def total_weight(self) -> float:
        """Sum of *all* node weights — the quantity Figure 8 reports."""
        return self.leaf_weight + self.internal_weight

    def leaf_rounds(self) -> list[tuple[int, ...]]:
        """The leaves each merge round consumes, in execution order.

        A plan with a single leaf has no rounds; its leaf still passes
        through the merge tree once, so it is listed as one round of its
        own.
        """
        if not self.rounds:
            return [(0,)] if self.num_leaves == 1 else []
        return [tuple(node_id for node_id in merge_round.input_ids
                      if node_id < self.num_leaves)
                for merge_round in self.rounds]

    def leaf_depths(self) -> list[int]:
        """Depth of every leaf in the scheduled tree (root depth = 0)."""
        if self._depths:
            return list(self._depths)
        depth = [0] * len(self.nodes)
        for merge_round in reversed(self.rounds):
            parent_depth = depth[merge_round.output_id]
            for child in merge_round.input_ids:
                depth[child] = parent_depth + 1
        leaf_depths = depth[: self.num_leaves]
        self._depths.extend(leaf_depths)
        return list(leaf_depths)

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        consumed: set[int] = set()
        produced: set[int] = set(range(self.num_leaves))
        for merge_round in self.rounds:
            if len(merge_round.input_ids) > self.ways:
                raise ValueError(
                    f"round {merge_round.round_index} merges "
                    f"{len(merge_round.input_ids)} nodes on a {self.ways}-way merger"
                )
            for node_id in merge_round.input_ids:
                if node_id not in produced:
                    raise ValueError(f"node {node_id} merged before being produced")
                if node_id in consumed:
                    raise ValueError(f"node {node_id} merged twice")
                consumed.add(node_id)
            produced.add(merge_round.output_id)
        if self.num_leaves > 1:
            unconsumed = produced - consumed - {self.root_id}
            if unconsumed:
                raise ValueError(f"nodes never merged into the root: {unconsumed}")


def initial_merge_way(num_leaves: int, ways: int) -> int:
    """Formula 1: how many nodes the first round merges.

    Guarantees every later round (including the last) merges exactly
    ``ways`` nodes, so the root of the tree is always full.
    """
    check_positive_int(num_leaves, "num_leaves")
    check_positive_int(ways, "ways")
    if ways < 2:
        raise ValueError("ways must be at least 2")
    if num_leaves <= ways:
        return num_leaves
    return (num_leaves - 2) % (ways - 1) + 2


def huffman_schedule(weights: list[float], ways: int) -> MergePlan:
    """Build the k-ary Huffman merge schedule over ``weights``.

    In each round the ``k`` lightest un-merged nodes are merged into an
    internal node whose weight is the sum of its children — except the first
    round, which merges :func:`initial_merge_way` nodes so the tree is full.

    Args:
        weights: nonzero-count estimate of every initial partial matrix, in
            condensed-column order.
        ways: merger parallelism (64 for SpArch's merge tree).

    Returns:
        A validated :class:`MergePlan`.
    """
    check_positive_int(ways, "ways")
    if ways < 2:
        raise ValueError("ways must be at least 2")
    for weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")

    nodes = [MergeTreeNode(node_id=i, weight=float(w))
             for i, w in enumerate(weights)]
    plan = MergePlan(nodes=nodes, rounds=[], num_leaves=len(weights), ways=ways,
                     scheduler="huffman")
    if len(weights) <= 1:
        return plan

    # Priority queue of (weight, node_id); ties broken by id for determinism.
    heap: list[tuple[float, int]] = [(node.weight, node.node_id) for node in nodes]
    heapq.heapify(heap)

    first_round_way = initial_merge_way(len(weights), ways)
    round_index = 0
    while len(heap) > 1:
        take = first_round_way if round_index == 0 else min(ways, len(heap))
        children = [heapq.heappop(heap) for _ in range(min(take, len(heap)))]
        child_ids = tuple(node_id for _, node_id in children)
        new_weight = float(sum(weight for weight, _ in children))
        new_id = len(plan.nodes)
        plan.nodes.append(MergeTreeNode(node_id=new_id, weight=new_weight,
                                        children=child_ids))
        plan.rounds.append(MergeRound(round_index=round_index,
                                      input_ids=child_ids, output_id=new_id,
                                      output_weight=new_weight))
        heapq.heappush(heap, (new_weight, new_id))
        round_index += 1

    plan.validate()
    return plan


def sequential_schedule(weights: list[float], ways: int) -> MergePlan:
    """Build the baseline schedule used for comparison in Figure 8(a).

    The sequential scheduler has no notion of weight: it merges adjacent
    groups of ``ways`` partial matrices level by level in the order they
    appear until one result remains.  When a level does not divide evenly,
    the unpaired nodes are the *earliest* ones — they are carried forward
    and join a merge at a higher level, which is what Figure 8(a)'s example
    tree does (its total node weight of 365 is reproduced by the tests).

    Args:
        weights: nonzero-count estimate per partial matrix, in the order the
            scheduler would encounter them.
        ways: merger parallelism.

    Returns:
        A validated :class:`MergePlan` with ``scheduler == "sequential"``.
    """
    check_positive_int(ways, "ways")
    if ways < 2:
        raise ValueError("ways must be at least 2")
    for weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")

    nodes = [MergeTreeNode(node_id=i, weight=float(w))
             for i, w in enumerate(weights)]
    plan = MergePlan(nodes=nodes, rounds=[], num_leaves=len(weights), ways=ways,
                     scheduler="sequential")
    if len(weights) <= 1:
        return plan

    current: list[int] = list(range(len(weights)))
    round_index = 0
    while len(current) > 1:
        next_level: list[int] = []
        remainder = len(current) % ways
        # Carry the earliest nodes when the level does not divide evenly,
        # unless the whole level is smaller than one merge group.
        carry = remainder if len(current) > ways and remainder != 0 else 0
        next_level.extend(current[:carry])
        for start in range(carry, len(current), ways):
            group = current[start:start + ways]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            new_weight = float(sum(plan.nodes[node_id].weight for node_id in group))
            new_id = len(plan.nodes)
            plan.nodes.append(MergeTreeNode(node_id=new_id, weight=new_weight,
                                            children=tuple(group)))
            plan.rounds.append(MergeRound(round_index=round_index,
                                          input_ids=tuple(group),
                                          output_id=new_id,
                                          output_weight=new_weight))
            round_index += 1
            next_level.append(new_id)
        current = next_level

    plan.validate()
    return plan
