"""Micro-benchmarks of the simulator's core components.

These measure the Python simulator itself (not the modelled hardware): how
fast the merge tree, prefetcher, Huffman scheduler and full accelerator
simulation run, so regressions in the simulator's own complexity are caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accelerator import SpArch
from repro.core.huffman import huffman_schedule
from repro.core.prefetcher import RowPrefetcher
from repro.formats.condensed import CondensedMatrix
from repro.hardware.merge_tree import MergeTree
from repro.matrices.rmat import RMATConfig, generate_rmat
from repro.matrices.synthetic import powerlaw_matrix


@pytest.fixture(scope="module")
def matrix():
    return powerlaw_matrix(1024, 8.0, seed=77)


def test_merge_tree_throughput(benchmark, rng=np.random.default_rng(1)):
    streams = []
    for _ in range(64):
        keys = np.sort(rng.integers(0, 100_000, size=500))
        streams.append((keys, rng.random(500)))
    tree = MergeTree(num_layers=6, merger_width=16, chunk_size=4)
    keys, _ = benchmark(tree.merge, streams)
    assert np.all(np.diff(keys) > 0)


def test_huffman_scheduler_scaling(benchmark, rng=np.random.default_rng(2)):
    weights = [float(w) for w in rng.integers(1, 10_000, size=5000)]
    plan = benchmark(huffman_schedule, weights, 64)
    assert plan.num_leaves == 5000


def test_row_prefetcher_simulation(benchmark, matrix):
    access = CondensedMatrix(matrix).access_order()
    kwargs = dict(num_lines=64, line_elements=16, lookahead_window=1024)
    prefetcher = RowPrefetcher(matrix, **kwargs)
    stats = benchmark(prefetcher.simulate, access)
    # Every timed call runs the production path from an empty buffer.
    assert stats == RowPrefetcher(matrix, **kwargs).simulate(access)


def test_full_accelerator_simulation(benchmark, matrix):
    accelerator = SpArch()
    result = benchmark(accelerator.multiply, matrix, matrix)
    assert result.matrix.nnz > 0


def test_rmat_generation(benchmark):
    config = RMATConfig(num_rows=10_000, edge_factor=16, seed=3)
    matrix = benchmark(generate_rmat, config)
    assert matrix.shape == (10_000, 10_000)
