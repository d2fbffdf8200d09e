"""Unit tests for the prefetch row buffer (§II-D)."""

from __future__ import annotations

import pytest

from repro.memory.buffer import BufferLine, RowBuffer


def test_capacity_and_geometry():
    buffer = RowBuffer(num_lines=4, line_elements=48, element_bytes=12)
    assert buffer.line_bytes == 576
    assert buffer.capacity_bytes == 4 * 576
    assert buffer.lines_free == 4
    assert buffer.segments_for_row(0) == 0
    assert buffer.segments_for_row(48) == 1
    assert buffer.segments_for_row(49) == 2
    with pytest.raises(ValueError):
        buffer.segments_for_row(-1)


def test_insert_evict_lifecycle():
    buffer = RowBuffer(num_lines=2, line_elements=4)
    buffer.insert(7, 0)
    buffer.insert(7, 1)
    assert buffer.lines_used == 2
    assert buffer.is_resident(7, 0)
    assert buffer.resident_segments(7) == {0, 1}
    assert buffer.resident_rows == {7}
    with pytest.raises(OverflowError):
        buffer.insert(8, 0)
    buffer.evict(7, 1)
    assert buffer.lines_free == 1
    buffer.insert(8, 0)
    assert buffer.resident_rows == {7, 8}
    assert buffer.evictions == 1


def test_duplicate_insert_is_idempotent():
    buffer = RowBuffer(num_lines=2, line_elements=4)
    buffer.insert(1, 0)
    buffer.insert(1, 0)
    assert buffer.lines_used == 1


def test_evict_missing_segment_raises():
    buffer = RowBuffer(num_lines=2, line_elements=4)
    with pytest.raises(KeyError):
        buffer.evict(3, 0)


def test_evict_row_frees_all_segments():
    buffer = RowBuffer(num_lines=4, line_elements=4)
    for segment in range(3):
        buffer.insert(5, segment)
    assert buffer.evict_row(5) == 3
    assert buffer.lines_used == 0
    assert buffer.evict_row(5) == 0


def test_hit_statistics_and_clear():
    buffer = RowBuffer(num_lines=2, line_elements=4)
    buffer.record_hit(3)
    buffer.record_miss(1)
    assert buffer.hit_rate == pytest.approx(0.75)
    buffer.insert(1, 0)
    buffer.clear()
    assert buffer.lines_used == 0
    assert buffer.hit_rate == pytest.approx(0.75)  # statistics preserved


def test_invalid_construction():
    with pytest.raises(ValueError):
        RowBuffer(0, 4)
    with pytest.raises(ValueError):
        RowBuffer(4, 0)


def test_buffer_line_identity():
    assert BufferLine(3, 1) == BufferLine(3, 1)
    assert BufferLine(3, 1) != BufferLine(3, 2)


def test_policy_effects_must_match_the_resident_segments():
    """A policy that counts lines the residency map does not hold fails
    loudly and leaves the counters as they were."""
    buffer = RowBuffer(num_lines=4, line_elements=4)
    buffer.resident_map.update({2: {0, 1}, 5: {0}})
    with pytest.raises(ValueError, match="2 lines in use, but 3 segments"):
        buffer.apply_policy_effects(inserted_lines=2, evicted_lines=0)
    assert (buffer.lines_used, buffer.evictions) == (0, 0)
    buffer.apply_policy_effects(inserted_lines=4, evicted_lines=1)
    assert (buffer.lines_used, buffer.evictions) == (3, 1)
    with pytest.raises(ValueError, match="inconsistent"):
        buffer.apply_policy_effects(inserted_lines=0, evicted_lines=4)
