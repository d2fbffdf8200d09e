"""Open-addressing coverage for the cuSPARSE-style hash accumulator.

The differential harness checks whole-matrix equivalence; these tests force
the degenerate table geometries the suite rarely hits — a tiny table whose
linear probing actually wraps past the end, near-full occupancy, and the
power-of-two growth of the sizing function — and pin down the probe and
collision accounting slot by slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.hash_spgemm import (
    HashSpGEMM,
    _HASH_MULTIPLIER,
    _RowHashTable,
    _table_size,
)
from repro.formats.csr import CSRMatrix


def _home_slot(column: int, size: int) -> int:
    return (column * _HASH_MULTIPLIER) % size


def _columns_with_home(size: int, home: int, count: int) -> list[int]:
    """First ``count`` column indices whose home slot is ``home``."""
    found = []
    column = 0
    while len(found) < count:
        if _home_slot(column, size) == home:
            found.append(column)
        column += 1
    return found


class TestTableSizing:
    def test_minimum_size_is_eight(self):
        assert _table_size(0) == 8
        assert _table_size(1) == 8
        assert _table_size(4) == 8

    def test_growth_is_power_of_two_above_oversize_target(self):
        # Target is 2 × the product upper bound, rounded up to a power of 2.
        assert _table_size(5) == 16
        assert _table_size(8) == 16
        assert _table_size(9) == 32
        assert _table_size(100) == 256

    def test_sizes_are_powers_of_two(self):
        for upper_bound in range(0, 300, 7):
            size = _table_size(upper_bound)
            assert size & (size - 1) == 0
            assert size >= 2 * max(1, upper_bound) or size == 8


class TestCollisionChains:
    def test_colliding_inserts_probe_linearly(self):
        size = 8
        first, second, third = _columns_with_home(size, 3, 3)
        table = _RowHashTable(size)
        table.insert(first, 1.0)
        assert (table.probes, table.collisions) == (1, 0)
        # Same home slot: one collision, lands in the next slot.
        table.insert(second, 2.0)
        assert (table.probes, table.collisions) == (3, 1)
        # Third key walks the full chain of two occupied slots.
        table.insert(third, 3.0)
        assert (table.probes, table.collisions) == (6, 3)
        # Re-inserting an existing key re-walks its fixed displacement: the
        # probe cost of a column never changes after insertion.
        table.insert(third, 4.0)
        assert (table.probes, table.collisions) == (9, 5)
        assert table.additions == 1
        cols, vals = table.extract()
        np.testing.assert_array_equal(cols, sorted([first, second, third]))
        assert vals[list(cols).index(third)] == 7.0

    def test_probe_wraps_past_table_end(self):
        size = 8
        # Fill the tail of the table so a home slot near the end must wrap
        # around to slot 0.
        tail_home = size - 1
        first, second = _columns_with_home(size, tail_home, 2)
        table = _RowHashTable(size)
        table.insert(first, 1.0)
        table.insert(second, 1.0)  # wraps: lands in slot 0
        assert bool(table._keys[tail_home] == first)
        assert bool(table._keys[0] == second)
        assert table.collisions == 1
        # A later hit on the wrapped key walks the same wrapped chain.
        probes_before = table.probes
        table.insert(second, 1.0)
        assert table.probes - probes_before == 2
        assert table.additions == 1

    def test_nearly_full_table_resolves_all_keys(self):
        size = 8
        table = _RowHashTable(size)
        # Seven keys in an 8-slot table: long chains, multiple wraps.
        keys = list(range(7))
        for key in keys:
            table.insert(key, float(key))
        assert table.occupied == 7
        cols, vals = table.extract()
        np.testing.assert_array_equal(cols, keys)
        np.testing.assert_array_equal(vals, [float(k) for k in keys])
        # Every key is retrievable at its fixed displacement.
        for key in keys:
            before = table.probes
            table.insert(key, 0.0)
            assert table.probes - before >= 1


class TestEndToEndCollisions:
    def _collision_heavy_pair(self) -> tuple[CSRMatrix, CSRMatrix]:
        """A one-row product whose table is minimal (8 slots) and clustered.

        The single A row selects one B row with four entries, so the upper
        bound (4) keeps the table at the 8-slot minimum; the B columns are
        chosen to share home slots, forcing probing to wrap.
        """
        size = 8
        cluster = _columns_with_home(size, 6, 3) + _columns_with_home(size, 7, 1)
        num_cols = max(cluster) + 1
        a = CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (1, 1))
        b_cols = np.sort(np.array(cluster, dtype=np.int64))
        b = CSRMatrix(np.array([0, len(b_cols)]), b_cols,
                      np.ones(len(b_cols)), (1, num_cols))
        return a, b

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_forced_collisions_are_counted(self, engine):
        a, b = self._collision_heavy_pair()
        report = HashSpGEMM(engine=engine).run(a, b).report
        assert report.extras["hash_collisions"] > 0
        assert report.extras["hash_probes"] == (report.multiplications
                                                + report.extras["hash_collisions"])

    def test_collision_counts_identical_across_backends(self):
        a, b = self._collision_heavy_pair()
        scalar = HashSpGEMM(engine="scalar").run(a, b).report
        fast = HashSpGEMM(engine="vectorized").run(a, b).report
        assert scalar.extras == fast.extras
        assert scalar.bookkeeping_ops == fast.bookkeeping_ops
