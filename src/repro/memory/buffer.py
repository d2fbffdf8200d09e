"""Prefetch row buffer (the on-chip buffer of §II-D, Figure 9).

The buffer caches rows of the right matrix in fixed-size *lines* (Table I:
1024 lines × 48 elements × 12 bytes).  A row longer than one line occupies
several lines; lines are spilled individually ("Spilling a row line by line
instead of as a whole can bring benefits"), so partially resident rows are
normal.  The replacement *policy* lives in
:class:`repro.core.prefetcher.RowPrefetcher`; this class only tracks
residency, capacity and hit/miss statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class BufferLine:
    """Identity of one buffer line: a segment of one right-matrix row.

    Attributes:
        row: right-matrix row index.
        segment: which line-sized chunk of the row this is (0-based).
    """

    row: int
    segment: int


class RowBuffer:
    """Tracks which right-matrix row segments are resident on chip.

    Args:
        num_lines: number of buffer lines (1024 in Table I).
        line_elements: elements per line (48 in Table I).
        element_bytes: bytes per element (12 in Table I: 4-byte index +
            8-byte value).
    """

    def __init__(self, num_lines: int, line_elements: int,
                 element_bytes: int = 12) -> None:
        check_positive_int(num_lines, "num_lines")
        check_positive_int(line_elements, "line_elements")
        check_positive_int(element_bytes, "element_bytes")
        self._num_lines = num_lines
        self._line_elements = line_elements
        self._element_bytes = element_bytes
        # Maps row -> set of resident segment indices.
        self._resident: dict[int, set[int]] = {}
        self._lines_used = 0
        self.segment_hits = 0
        self.segment_misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return self._num_lines

    @property
    def line_elements(self) -> int:
        return self._line_elements

    @property
    def element_bytes(self) -> int:
        return self._element_bytes

    @property
    def line_bytes(self) -> int:
        """Capacity of one line in bytes."""
        return self._line_elements * self._element_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total buffer capacity in bytes (feeds the SRAM area model)."""
        return self._num_lines * self.line_bytes

    @property
    def lines_used(self) -> int:
        """Number of currently occupied lines."""
        return self._lines_used

    @property
    def lines_free(self) -> int:
        return self._num_lines - self._lines_used

    @property
    def resident_rows(self) -> set[int]:
        """Rows with at least one resident segment."""
        return set(self._resident)

    @property
    def resident_map(self) -> dict[int, set[int]]:
        """Internal ``row -> resident segments`` mapping (treat as read-only).

        Exposed for the replacement-policy hot loop, which queries residency
        once per access and cannot afford a set copy per query.
        """
        return self._resident

    @property
    def hit_rate(self) -> float:
        """Segment-granularity hit rate observed so far."""
        total = self.segment_hits + self.segment_misses
        return self.segment_hits / total if total else 0.0

    # ------------------------------------------------------------------
    def segments_for_row(self, row_nnz: int) -> int:
        """Number of lines a row with ``row_nnz`` elements occupies."""
        if row_nnz < 0:
            raise ValueError("row_nnz must be non-negative")
        if row_nnz == 0:
            return 0
        return -(-row_nnz // self._line_elements)

    def is_resident(self, row: int, segment: int) -> bool:
        """True when the given row segment is currently buffered."""
        return segment in self._resident.get(row, set())

    def resident_segments(self, row: int) -> set[int]:
        """Segments of ``row`` currently buffered (possibly empty)."""
        return set(self._resident.get(row, set()))

    def resident_segments_view(self, row: int) -> frozenset[int] | set[int]:
        """Resident segments of ``row`` without copying.

        The returned set is the buffer's internal state — callers must treat
        it as read-only.  The replacement-policy simulation queries residency
        once per access, where the defensive copy of
        :meth:`resident_segments` dominated the runtime.
        """
        segments = self._resident.get(row)
        return segments if segments is not None else frozenset()

    # ------------------------------------------------------------------
    def insert(self, row: int, segment: int) -> None:
        """Insert a segment; raises when the buffer is full.

        Callers must evict first when :attr:`lines_free` is zero — choosing
        the victim is the replacement policy's job, not the buffer's.
        """
        if self.is_resident(row, segment):
            return
        if self._lines_used >= self._num_lines:
            raise OverflowError("row buffer is full; evict a line first")
        self._resident.setdefault(row, set()).add(segment)
        self._lines_used += 1

    def evict(self, row: int, segment: int) -> None:
        """Remove one resident segment (no-op guard: must be resident)."""
        segments = self._resident.get(row)
        if not segments or segment not in segments:
            raise KeyError(f"segment {segment} of row {row} is not resident")
        segments.remove(segment)
        if not segments:
            del self._resident[row]
        self._lines_used -= 1
        self.evictions += 1

    def evict_row(self, row: int) -> int:
        """Evict every resident segment of ``row``; returns lines freed."""
        segments = sorted(self._resident.get(row, set()), reverse=True)
        for segment in segments:
            self.evict(row, segment)
        return len(segments)

    def apply_policy_effects(self, *, inserted_lines: int,
                             evicted_lines: int) -> None:
        """Reconcile counters after a policy loop mutated ``resident_map``.

        The replacement-policy simulation inlines insert/evict on the
        residency mapping for speed; this applies the net line-count and
        eviction effects in one call.  Counts must describe exactly what was
        done to :attr:`resident_map`: the resulting line count must fit the
        buffer and equal the number of resident segments, or a
        ``ValueError`` is raised and the counters are left unchanged.
        """
        if inserted_lines < 0 or evicted_lines < 0:
            raise ValueError("line counts must be non-negative")
        lines_used = self._lines_used + inserted_lines - evicted_lines
        if not 0 <= lines_used <= self._num_lines:
            raise ValueError("policy effects left the buffer inconsistent")
        resident_lines = sum(map(len, self._resident.values()))
        if resident_lines != lines_used:
            raise ValueError(
                f"policy effects leave {lines_used} lines in use, but "
                f"{resident_lines} segments are resident")
        self._lines_used = lines_used
        self.evictions += evicted_lines

    def record_hit(self, count: int = 1) -> None:
        """Account ``count`` segment hits."""
        self.segment_hits += count

    def record_miss(self, count: int = 1) -> None:
        """Account ``count`` segment misses."""
        self.segment_misses += count

    def clear(self) -> None:
        """Empty the buffer (statistics are preserved)."""
        self._resident.clear()
        self._lines_used = 0

    def __repr__(self) -> str:
        return (f"RowBuffer(lines={self._lines_used}/{self._num_lines}, "
                f"line_elements={self._line_elements})")
