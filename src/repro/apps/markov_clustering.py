"""Markov clustering (MCL) with the expansion step on the accelerator.

Markov clustering (van Dongen, 2000 — cited in the paper's introduction)
finds clusters in a graph by alternating two operations on a column-
stochastic transition matrix:

* **expansion** — squaring the matrix (a sparse matrix self-product, the
  SpGEMM kernel SpArch accelerates);
* **inflation** — raising every entry to a power ``r`` and re-normalising
  columns, which sharpens the distribution and, together with pruning of
  tiny entries, keeps the matrix sparse.

Iterating expansion/inflation converges to a doubly-idempotent matrix whose
attractor structure defines the clusters.  The iteration itself is the
registered ``mcl`` workload (:mod:`repro.workloads.graphs`) — expansion
SpGEMM stages alternating with inflate/prune/normalise host stages; this
module runs it with :func:`~repro.workloads.registry.run_workload` on a
SpGEMM engine (the SpArch simulator by default) and interprets the
converged matrix into clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.stats import SimulationStats
from repro.engines.base import Engine
from repro.experiments.runner import ExperimentRunner
from repro.formats.convert import to_scipy
from repro.formats.csr import CSRMatrix
from repro.workloads.pipeline import WorkloadResult
from repro.workloads.registry import run_workload


@dataclass
class MarkovClusteringResult:
    """Outcome of one MCL run.

    Attributes:
        clusters: list of clusters, each a sorted list of node indices;
            clusters are disjoint and cover every node.
        labels: cluster index of every node.
        iterations: expansion/inflation iterations executed.
        converged: whether the chaos measure dropped below the tolerance
            before the iteration limit.
        total_spgemm_stats: per-iteration simulator statistics of the
            expansion products (empty on a baseline engine; ``workload``
            carries its cost reports).
        workload: per-stage record of the underlying pipeline execution.
    """

    clusters: list[list[int]]
    labels: np.ndarray
    iterations: int
    converged: bool
    total_spgemm_stats: list[SimulationStats] = field(default_factory=list)
    workload: WorkloadResult | None = field(default=None, compare=False,
                                            repr=False)

    @property
    def num_clusters(self) -> int:
        """Number of clusters found."""
        return len(self.clusters)

    @property
    def total_dram_bytes(self) -> int:
        """DRAM traffic of all expansion SpGEMMs combined."""
        return sum(stats.dram_bytes for stats in self.total_spgemm_stats)

    @property
    def total_cycles(self) -> int:
        """Simulated cycles of all expansion SpGEMMs combined."""
        return sum(stats.cycles for stats in self.total_spgemm_stats)


def _extract_clusters(matrix: sp.csr_matrix) -> list[list[int]]:
    """Interpret the converged matrix: attractor rows define the clusters.

    Attractors whose member sets overlap belong to one cluster, and the
    overlap relation is transitive: with attractor rows a∩b and b∩c
    non-empty, a, b and c all merge.  A union-find over the touched nodes
    implements the transitive merge, so the returned clusters are disjoint
    and cover every node (merging only into the *first* overlapping cluster
    would leave overlap chains non-disjoint).
    """
    num_nodes = matrix.shape[0]
    attractors = np.nonzero(matrix.diagonal() > 1e-9)[0].tolist()

    parent: dict[int, int] = {}

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)

    for attractor in attractors:
        row = matrix.getrow(attractor)
        members = set(row.indices.tolist()) | {attractor}
        parent.setdefault(attractor, attractor)
        for member in members:
            parent.setdefault(member, member)
            union(attractor, member)

    grouped: dict[int, list[int]] = {}
    for node in sorted(parent):
        grouped.setdefault(find(node), []).append(node)
    clusters = [members for _, members in sorted(grouped.items())]
    assigned = set(parent)
    for node in range(num_nodes):
        if node not in assigned:
            clusters.append([node])
    return clusters


def markov_clustering(graph: CSRMatrix, *, expansion: int = 2,
                      inflation: float = 2.0, prune_threshold: float = 1e-4,
                      max_iterations: int = 30, tolerance: float = 1e-6,
                      add_self_loops: bool = True,
                      engine: Engine | str = "sparch",
                      runner: ExperimentRunner | None = None
                      ) -> MarkovClusteringResult:
    """Cluster ``graph`` with MCL, running every expansion on the accelerator.

    Args:
        graph: graph adjacency matrix (square; weights are used as edge
            affinities).
        expansion: expansion power per iteration; 2 (one squaring) is the
            standard setting and each extra power is one more SpGEMM.
        inflation: inflation exponent ``r`` (larger → more, smaller clusters).
        prune_threshold: entries below this are dropped after inflation.
        max_iterations: iteration limit.
        tolerance: convergence threshold on the chaos measure.
        add_self_loops: add the identity before normalising (the standard
            MCL trick that guarantees aperiodicity).
        engine: SpGEMM engine, a registry name or an instance; the SpArch
            simulator under Table I by default.
        runner: when given, expansion statistics are memoised through the
            experiment runner's fingerprint cache instead of running the
            engine directly.

    Returns:
        :class:`MarkovClusteringResult` with the clusters and the simulator
        statistics of every expansion SpGEMM.
    """
    workload = run_workload(
        "mcl", graph, engine=engine, runner=runner,
        expansion=expansion,
        inflation=inflation,
        prune_threshold=prune_threshold,
        max_iterations=max_iterations,
        tolerance=tolerance,
        add_self_loops=add_self_loops,
    )
    clusters = _extract_clusters(to_scipy(workload.output))
    labels = np.empty(graph.shape[0], dtype=np.int64)
    for cluster_id, members in enumerate(clusters):
        labels[members] = cluster_id
    return MarkovClusteringResult(
        clusters=clusters,
        labels=labels,
        iterations=int(workload.annotations["iterations"]),
        converged=bool(workload.annotations["converged"]),
        total_spgemm_stats=workload.spgemm_stats,
        workload=workload,
    )
