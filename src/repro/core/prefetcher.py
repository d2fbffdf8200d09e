"""MatB row prefetcher with near-optimal buffer replacement (§II-D, Fig. 9).

Matrix condensing destroys the right operand's reuse: one condensed column
touches many different rows of B.  The prefetcher restores the reuse with an
on-chip row buffer whose replacement policy approximates Bélády's optimal
policy — it can, because the future access order is *known*: it is exactly
the original-column sequence of the left-matrix elements streaming through
the look-ahead FIFO.

The MatA column fetcher pushes the left-matrix elements it is about to
consume into that FIFO (8192 elements in Table I), and the distance list
builder walks it to find when every right-matrix row is next needed (§II-E,
Figure 10).  The window is finite, which is why Figure 17(d) sweeps its
size: a row whose next use lies beyond the window looks identical to a row
that is never used again.

Replacement policy, as in the paper:

* the victim is the buffered row whose next use is furthest in the future;
* rows whose next use lies beyond the look-ahead window are indistinguishable
  from rows that are never used again, and are preferred as victims (oldest
  first among them);
* rows are spilled line by line, so a long row can be partially evicted and
  the resident remainder still produces hits later (Figure 9, step 7→8).

The simulation runs at *segment* (buffer line) granularity and reports the
DRAM bytes read for matrix B, the hit rate, and the eviction count.  Three
paths give identical statistics and final buffer state:

* the per-access reference loop, which every input can take and the scalar
  engine always takes;
* an event-driven replay (:meth:`RowPrefetcher._simulate_events`) for a
  cold buffer whose accessed rows each fit in it;
* inside that replay, a closed form
  (:meth:`RowPrefetcher._settle_one_line_rows`) for when every accessed row
  needs at most one line: it guesses which accesses hit, checks the guess
  against the policy in a few numpy passes, and on success derives every
  counter without a per-access loop.  When the check fails, the replay's
  loop runs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.memory.buffer import RowBuffer

#: Next-use value meaning "not referenced within the look-ahead window".
UNKNOWN_NEXT_USE = float("inf")


@dataclass
class PrefetchStats:
    """Outcome of simulating the prefetcher over one access sequence."""

    accesses: int = 0
    element_hits: int = 0
    element_misses: int = 0
    segment_hits: int = 0
    segment_misses: int = 0
    evicted_lines: int = 0
    dram_bytes_read: int = 0
    bytes_without_buffer: int = 0

    @property
    def hit_rate(self) -> float:
        """Element-granularity buffer hit rate (the paper reports 62%)."""
        total = self.element_hits + self.element_misses
        return self.element_hits / total if total else 0.0

    @property
    def traffic_reduction(self) -> float:
        """How much DRAM read traffic of matrix B the buffer removed."""
        if self.dram_bytes_read == 0:
            return float("inf") if self.bytes_without_buffer else 1.0
        return self.bytes_without_buffer / self.dram_bytes_read


class RowPrefetcher:
    """Simulates the MatB row prefetcher over a known access sequence.

    Args:
        matrix_b: right operand in CSR format.
        num_lines: prefetch buffer lines (1024 in Table I).
        line_elements: elements per buffer line (48 in Table I).
        element_bytes: bytes per buffered element (12 in Table I).
        lookahead_window: look-ahead FIFO depth in elements (8192 in Table I).
        reference: run the per-access reference loop on every input, as the
            scalar engine does, instead of the event-driven replay; both
            produce identical statistics and buffer state.
    """

    def __init__(self, matrix_b: CSRMatrix, *, num_lines: int = 1024,
                 line_elements: int = 48, element_bytes: int = 12,
                 lookahead_window: int = 8192, reference: bool = False) -> None:
        self._matrix_b = matrix_b
        self._buffer = RowBuffer(num_lines, line_elements, element_bytes)
        self._lookahead_window = lookahead_window
        self._reference = reference
        self._row_nnz = matrix_b.nnz_per_row()

    @property
    def buffer(self) -> RowBuffer:
        """The underlying row buffer (for occupancy/area accounting)."""
        return self._buffer

    # ------------------------------------------------------------------
    def simulate(self, access_sequence: np.ndarray) -> PrefetchStats:
        """Run the access sequence through the buffer and collect statistics.

        Args:
            access_sequence: right-matrix row index required by each
                successive left-matrix element (multiplier consumption order).

        Returns:
            :class:`PrefetchStats` with hit rates and DRAM byte counts.

        Raises:
            ValueError: an access names a row outside the right operand.
        """
        access_sequence = np.asarray(access_sequence, dtype=np.int64)
        stats = PrefetchStats()
        if len(access_sequence) == 0:
            return stats
        num_rows = len(self._row_nnz)
        if access_sequence.min() < 0 or access_sequence.max() >= num_rows:
            bad = int(np.flatnonzero((access_sequence < 0)
                                     | (access_sequence >= num_rows))[0])
            raise ValueError(
                f"access {bad} names row {int(access_sequence[bad])}, "
                f"outside the right operand's {num_rows} rows")

        # Per-row geometry, precomputed once: segment count, size of the
        # (possibly short) last segment, and total bytes.  The per-access
        # loop then runs in O(resident + missing) instead of re-deriving
        # them per segment.
        full = self._buffer.line_elements
        element_bytes = self._buffer.element_bytes
        row_nnz = self._row_nnz
        num_segments_arr = (-(-row_nnz // full)).astype(np.int64)
        last_elements_arr = row_nnz - (np.maximum(num_segments_arr, 1) - 1) * full

        # Fast path: when the buffer starts empty and every accessed row fits
        # simultaneously, the near-Bélády policy never evicts, so the whole
        # simulation collapses to "first touch misses, repeats hit" — exactly
        # computable with one first-occurrence mask and no replacement heap.
        # When only each row fits on its own, the event-driven replay runs
        # instead of the loop below (unless the reference is requested).
        if self._buffer.lines_used == 0:
            distinct_rows = np.flatnonzero(np.bincount(access_sequence))
            distinct_segments = num_segments_arr[distinct_rows]
            if int(distinct_segments.sum()) <= self._buffer.num_lines:
                return self._simulate_unbounded(access_sequence, distinct_rows,
                                                num_segments_arr, stats)
            if (not self._reference
                    and int(distinct_segments.max()) <= self._buffer.num_lines):
                return self._simulate_events(access_sequence, num_segments_arr,
                                             stats)

        initially_resident = sorted(self._buffer.resident_rows)

        # Next occurrence of the same row after each position, vectorized: a
        # stable argsort groups positions by row in ascending order, so a
        # position's successor within its group is its next use.  This
        # covers the per-access priority refresh; the irregular queries
        # (victim refresh, warm start) binary-search the same grouping via
        # ``next_use`` below instead of building eager per-row distance
        # lists, whose O(n) construction dominated short simulations.
        n = len(access_sequence)
        grouped = np.argsort(access_sequence, kind="stable")
        next_occurrence = np.full(n, -1, dtype=np.int64)
        same_row = access_sequence[grouped[1:]] == access_sequence[grouped[:-1]]
        next_occurrence[grouped[:-1][same_row]] = grouped[1:][same_row]
        window = self._lookahead_window

        row_ranges: dict[int, tuple[int, int]] = {}

        def build_row_ranges() -> None:
            rows_in_order = access_sequence[grouped]
            starts = np.flatnonzero(np.concatenate(
                [np.ones(1, dtype=bool),
                 rows_in_order[1:] != rows_in_order[:-1]]))
            ends = np.append(starts[1:], n)
            row_ranges.update(zip(rows_in_order[starts].tolist(),
                                  zip(starts.tolist(), ends.tolist())))
            row_ranges[-1] = (0, 0)  # sentinel: mapping is built

        def next_use(row: int, now: int) -> float:
            """Next access of ``row`` strictly after ``now``, window-limited.

            Returns :data:`UNKNOWN_NEXT_USE` when the next use lies beyond the
            look-ahead window or never comes; the per-row position lists are
            slices of ``grouped`` found by binary search.
            """
            if not row_ranges:
                build_row_ranges()
            lo_hi = row_ranges.get(row)
            if lo_hi is None:
                return UNKNOWN_NEXT_USE
            lo, hi = lo_hi
            index = lo + int(np.searchsorted(grouped[lo:hi], now, side="right"))
            if index == hi:
                return UNKNOWN_NEXT_USE
            position = int(grouped[index])
            if position - now > window:
                return UNKNOWN_NEXT_USE
            return float(position)

        # Lazy max-heap of eviction candidates.  Priority is the next-use
        # position (smaller = needed sooner = keep); rows with unknown next
        # use get a large priority offset plus their insertion age so the
        # oldest unknown row is evicted first.  heapq is a min-heap, so
        # priorities are inverted.  All priorities are integers (positions or
        # ``unknown_base``-offset ages), so each entry packs
        # ``(max_priority - priority, stamp)`` into one machine int — integer
        # comparisons during sifting are several times cheaper than the
        # tuple comparisons they replace, at identical ordering: lower key ⇔
        # higher priority, ties broken by older stamp, exactly as before.
        unknown_base = len(access_sequence) + 1
        max_priority = 3 * unknown_base  # > unknown_base + (unknown_base + 1)
        stamp_shift = 40                 # stamps stay far below 2**40
        stamp_mask = (1 << stamp_shift) - 1
        counter = itertools.count()
        advance = counter.__next__
        heap: list[int] = []
        # Unknown-next-use candidates never outrank each other out of push
        # order: their priority ``unknown_base + (unknown_base - now)``
        # strictly decreases as time advances, and every unknown priority
        # exceeds every known one (positions are < unknown_base).  The
        # unknown class is therefore an exact FIFO and lives in a deque —
        # O(1) instead of a heap sift per push, which matters because most
        # refreshes fall outside the look-ahead window under pressure.
        unknown_fifo: deque[tuple[int, int]] = deque()
        stamp_rows: list[int] = []
        latest_stamp: dict[int, int] = {}
        heappush = heapq.heappush
        heappop = heapq.heappop

        def push_candidate(row: int, now: int) -> None:
            use = next_use(row, now)
            stamp = advance()
            latest_stamp[row] = stamp
            stamp_rows.append(row)
            if use == UNKNOWN_NEXT_USE:
                unknown_fifo.append((stamp, row))
            else:
                heappush(heap,
                         ((max_priority - int(use)) << stamp_shift) | stamp)

        resident_get_view = self._buffer.resident_segments_view

        def pop_victim(exclude_row: int) -> int:
            # Unknown-class candidates (oldest first) always outrank the
            # known-next-use heap, exactly as in the single-heap ordering.
            while unknown_fifo:
                stamp, row = unknown_fifo[0]
                if (latest_stamp.get(row) != stamp
                        or not resident_get_view(row)):
                    unknown_fifo.popleft()
                    continue
                if row == exclude_row:
                    unknown_fifo.popleft()
                    push_later.append(row)
                    continue
                return row
            while heap:
                stamp = heap[0] & stamp_mask
                row = stamp_rows[stamp]
                if (latest_stamp.get(row) != stamp
                        or not resident_get_view(row)):
                    heappop(heap)
                    continue
                if row == exclude_row:
                    # Never spill the row we are currently fetching; fall back
                    # to the next candidate.
                    heappop(heap)
                    push_later.append(row)
                    continue
                return row
            # Degenerate case: the row being fetched is longer than the whole
            # buffer, so its own earlier segments are the only candidates.
            if resident_get_view(exclude_row):
                return exclude_row
            raise RuntimeError("no eviction candidate available")

        # Rows left resident by an earlier simulate() call (warm start) must
        # be eviction candidates too, or they could never be replaced.
        for row in initially_resident:
            push_candidate(row, -1)

        # Local bindings and plain-int lists: the loop below runs once per
        # access, so attribute lookups and numpy scalar boxing dominate it
        # unless hoisted out.
        buffer = self._buffer
        resident_map = buffer.resident_map
        resident_get = resident_map.get
        nseg_list = num_segments_arr.tolist()
        nnz_list = row_nnz.tolist()
        last_elements_list = last_elements_arr.tolist()
        next_occ_list = next_occurrence.tolist()
        lines_free = buffer.lines_free
        stamp_rows_append = stamp_rows.append
        unknown_append = unknown_fifo.append
        element_hits = element_misses = segment_hits = segment_misses = 0
        dram_bytes_read = bytes_without_buffer = inserted_lines = 0

        for now, row in enumerate(access_sequence.tolist()):
            num_segments = nseg_list[row]
            row_elements = nnz_list[row]
            bytes_without_buffer += row_elements * element_bytes

            if num_segments == 0:
                continue

            resident = resident_get(row)
            num_resident = len(resident) if resident is not None else 0
            if num_resident == num_segments:
                num_missing = 0
                hit_elements = row_elements
                miss_bytes = 0
            else:
                if num_resident:
                    missing = [s for s in range(num_segments) if s not in resident]
                    # All resident segments are full lines except possibly
                    # the row's last one, so the hit count is a closed form.
                    hit_elements = full * num_resident
                    if num_segments - 1 in resident:
                        hit_elements -= full - last_elements_list[row]
                else:
                    missing = list(range(num_segments))
                    hit_elements = 0
                num_missing = len(missing)
                miss_bytes = (row_elements - hit_elements) * element_bytes

                # Insert/evict straight on the residency mapping; the
                # buffer's counters are reconciled once after the loop via
                # apply_policy_effects().
                push_later: list[int] = []
                for segment in missing:
                    # Make room line by line, spilling the furthest-next-use
                    # row (its highest-numbered resident segment first).
                    while lines_free == 0:
                        victim = pop_victim(exclude_row=row)
                        victim_segments = resident_map[victim]
                        victim_segments.remove(max(victim_segments))
                        if victim_segments:
                            push_candidate(victim, now)
                        else:
                            del resident_map[victim]
                        lines_free += 1
                        stats.evicted_lines += 1
                    segments = resident_get(row)
                    if segments is None:
                        resident_map[row] = {segment}
                    else:
                        segments.add(segment)
                    lines_free -= 1
                    inserted_lines += 1
                for deferred_row in push_later:
                    push_candidate(deferred_row, now)

            element_hits += hit_elements
            element_misses += row_elements - hit_elements
            segment_hits += num_segments - num_missing
            segment_misses += num_missing
            dram_bytes_read += miss_bytes
            # The row was just touched: refresh its eviction priority using
            # the precomputed next-occurrence table (inlined push_candidate).
            stamp = advance()
            latest_stamp[row] = stamp
            stamp_rows_append(row)
            next_position = next_occ_list[now]
            if next_position < 0 or next_position - now > window:
                unknown_append((stamp, row))
            else:
                heappush(heap,
                         ((max_priority - next_position) << stamp_shift) | stamp)

        stats.accesses = len(access_sequence)
        stats.element_hits = element_hits
        stats.element_misses = element_misses
        stats.segment_hits = segment_hits
        stats.segment_misses = segment_misses
        stats.dram_bytes_read = dram_bytes_read
        stats.bytes_without_buffer = bytes_without_buffer
        buffer.record_hit(segment_hits)
        buffer.record_miss(segment_misses)
        buffer.apply_policy_effects(inserted_lines=inserted_lines,
                                    evicted_lines=stats.evicted_lines)
        return stats

    def _simulate_events(self, access_sequence: np.ndarray,
                         num_segments_arr: np.ndarray,
                         stats: PrefetchStats) -> PrefetchStats:
        """Event-driven replay of the replacement loop in :meth:`simulate`.

        Produces exactly the loop's :class:`PrefetchStats` and final buffer
        state, provided the buffer starts empty and every accessed row fits
        in it.  Then three properties of the policy let the per-access
        bookkeeping shrink to a few list lookups:

        * A row's resident segments are always a prefix: they are fetched in
          ascending order and spilled highest first, and a row never spills
          itself.  Residency is one line count per row.
        * An unknown-next-use candidate ranks in the FIFO by when it was
          pushed.  A touch pushes it at its own position, so the touches
          whose next use lies beyond the window form a precomputed sorted
          list that a head pointer walks.  A partial spill re-keys the row
          at the current access, to the back of the FIFO (a small deque) or
          into the known class once its next use is within the window.
        * A known-next-use candidate is identified by its next-use position
          ``p`` alone: the row is ``access_sequence[p]``, and the candidate
          is live while ``p`` lies ahead.  The heap holds plain ints, and
          the touches that feed it are pushed only when it is consulted.

        Each row thus has at most one live candidate, which is consumed when
        the row spills, so no stamps or deferred pushes are needed.  The loop
        records which accesses miss and how many of their lines were still
        resident; the hit, miss and byte counters follow with numpy.

        When every accessed row needs at most one line, the closed form
        :meth:`_settle_one_line_rows` is tried first, and the loop runs only
        when it declines.
        """
        buffer = self._buffer
        window = self._lookahead_window
        n = len(access_sequence)
        positions = np.arange(n)

        # Next access of the same row after each position (``n``: never),
        # from grouping positions by row.  The (row, position) keys are
        # distinct, so the faster unstable sort keeps positions ascending.
        grouped = np.argsort(access_sequence * n + positions)
        next_occurrence = np.full(n, n, dtype=np.int64)
        same_row = access_sequence[grouped[1:]] == access_sequence[grouped[:-1]]
        next_occurrence[grouped[:-1][same_row]] = grouped[1:][same_row]
        # Which class each touch pushes its row into; empty rows are never
        # buffered, so they push nothing.
        access_segments = num_segments_arr[access_sequence]
        buffered = access_segments > 0
        known = ((next_occurrence < n)
                 & (next_occurrence - positions <= window))
        unknown_pushes = np.flatnonzero(buffered & ~known)
        known_pushes = np.flatnonzero(buffered & known)
        if int(access_segments.max()) == 1:
            settled = self._settle_one_line_rows(
                access_sequence, access_segments, next_occurrence,
                known_pushes, unknown_pushes, stats)
            if settled is not None:
                return settled
        # A sentinel ``n`` ends each list.
        unknown_list = unknown_pushes.tolist() + [n]
        unknown_next = next_occurrence[unknown_pushes].tolist() + [n]
        known_list = known_pushes.tolist() + [n]
        known_next = next_occurrence[known_pushes].tolist()

        rows = access_sequence.tolist()
        num_segments = num_segments_arr.tolist()
        resident = [0] * len(num_segments)
        missed = bytearray(n)
        heap: list[int] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        respilled: deque[tuple[int, int, int]] = deque()
        unknown_head = known_head = 0
        lines_free = buffer.num_lines
        partial_hit_lines = 0

        for now, row in enumerate(rows):
            lines = resident[row]
            wanted = num_segments[row]
            if lines == wanted:
                continue
            missed[now] = 1
            partial_hit_lines += lines
            resident[row] = wanted
            lines_free -= wanted - lines
            if lines_free >= 0:
                continue
            deficit = -lines_free
            lines_free = 0

            # Unknown class first, oldest first: the touch list's head
            # (skipping rows touched again since) or the oldest re-keyed spill.
            while deficit:
                position = unknown_list[unknown_head]
                while position < now and unknown_next[unknown_head] <= now:
                    unknown_head += 1
                    position = unknown_list[unknown_head]
                if respilled:
                    while respilled and respilled[0][2] <= now:
                        respilled.popleft()
                    if respilled and (position >= now
                                      or respilled[0][0] <= position):
                        _, position, next_use = respilled.popleft()
                    elif position < now:
                        next_use = unknown_next[unknown_head]
                        unknown_head += 1
                    else:
                        break
                elif position < now:
                    next_use = unknown_next[unknown_head]
                    unknown_head += 1
                else:
                    break
                victim = rows[position]
                lines = resident[victim] - 1
                resident[victim] = lines
                deficit -= 1
                if lines:
                    if next_use < n and next_use - now <= window:
                        heappush(heap, -next_use)
                    else:
                        respilled.append((now, position, next_use))

            if deficit:
                # Known class: push the touches made since the last visit,
                # then spill the furthest next use until the row is gone.
                while known_list[known_head] < now:
                    next_use = known_next[known_head]
                    if next_use > now:
                        heappush(heap, -next_use)
                    known_head += 1
                while deficit:
                    # Live entries (next use still ahead) outrank every stale
                    # one, and their rows hold enough lines: the top is live.
                    victim = rows[-heap[0]]
                    lines = resident[victim]
                    if lines > deficit:
                        resident[victim] = lines - deficit
                        break
                    resident[victim] = 0
                    deficit -= lines
                    heappop(heap)

        return self._record_replay(
            access_sequence, access_segments,
            np.frombuffer(missed, dtype=bool), partial_hit_lines,
            {row: resident[row] for row in np.flatnonzero(resident).tolist()},
            stats)

    def _settle_one_line_rows(self, access_sequence: np.ndarray,
                              access_segments: np.ndarray,
                              next_occurrence: np.ndarray,
                              known_pushes: np.ndarray,
                              unknown_pushes: np.ndarray,
                              stats: PrefetchStats) -> PrefetchStats | None:
        """Closed form of :meth:`_simulate_events` for one-line rows.

        Applies when the buffer starts empty and every accessed row needs at
        most one line.  It guesses that an access hits exactly when its
        row's previous touch saw it inside the window, i.e. the hits are
        ``next_occurrence[known_pushes]``.  The other buffered accesses
        ``m_1 < m_2 < ...`` miss; with ``C`` lines and ``M`` misses, spill
        ``k`` of ``E = max(0, M - C)`` falls at ``m_{C+k}``.  The guess
        holds when, with ``u_1 < u_2 < ...`` the unknown-class pushes (there
        are ``M`` of them):

        1. every ``u_k`` with ``k <= E`` precedes spill ``k``, and its row
           is not touched again until after it, so ``u_k`` heads the
           unknown-class FIFO there and spill ``k`` evicts its row;
        2. no ``u_i`` with ``i > E`` is touched again, so no row whose
           reuse the window missed survives to that reuse.

        Then every statistic and the final buffer follow from counts: the
        rows of ``u_i`` with ``i > E`` stay resident.  Otherwise it returns
        ``None`` and leaves the buffer untouched, and the replay runs.
        DESIGN.md §6 gives the proof.
        """
        n = len(access_sequence)
        spills = max(0, len(unknown_pushes) - self._buffer.num_lines)
        victims = unknown_pushes[:spills]
        survivors = unknown_pushes[spills:]
        if (next_occurrence[survivors] < n).any():
            return None
        guessed_hit = np.zeros(n, dtype=bool)
        guessed_hit[next_occurrence[known_pushes]] = True
        missed = (access_segments > 0) & ~guessed_hit
        spill_at = np.flatnonzero(missed)[self._buffer.num_lines:]
        if not ((victims < spill_at).all()
                and (next_occurrence[victims] > spill_at).all()):
            return None
        return self._record_replay(
            access_sequence, access_segments, missed, 0,
            dict.fromkeys(access_sequence[survivors].tolist(), 1), stats)

    def _record_replay(self, access_sequence: np.ndarray,
                       access_segments: np.ndarray, missed: np.ndarray,
                       partial_hit_lines: int, resident: dict[int, int],
                       stats: PrefetchStats) -> PrefetchStats:
        """Fill ``stats`` and the empty buffer from a replay's outcome.

        ``missed`` flags the accesses that fetched lines,
        ``partial_hit_lines`` counts the lines those accesses found still
        resident, and ``resident`` maps each row left in the buffer to its
        line count (a prefix of its segments).
        """
        buffer = self._buffer
        row_nnz = self._row_nnz
        missed_rows = access_sequence[missed]
        total_elements = int(row_nnz[access_sequence].sum())
        stats.accesses = len(access_sequence)
        stats.segment_misses = (int(access_segments[missed].sum())
                                - partial_hit_lines)
        stats.segment_hits = int(access_segments.sum()) - stats.segment_misses
        stats.element_misses = (int(row_nnz[missed_rows].sum())
                                - buffer.line_elements * partial_hit_lines)
        stats.element_hits = total_elements - stats.element_misses
        # The buffer started empty: whatever was fetched and is gone spilled.
        stats.evicted_lines = stats.segment_misses - sum(resident.values())
        stats.dram_bytes_read = stats.element_misses * buffer.element_bytes
        stats.bytes_without_buffer = total_elements * buffer.element_bytes

        resident_map = buffer.resident_map
        for row, lines in resident.items():
            resident_map[row] = set(range(lines))
        buffer.record_hit(stats.segment_hits)
        buffer.record_miss(stats.segment_misses)
        buffer.apply_policy_effects(inserted_lines=stats.segment_misses,
                                    evicted_lines=stats.evicted_lines)
        return stats

    def _simulate_unbounded(self, access_sequence: np.ndarray,
                            distinct_rows: np.ndarray,
                            num_segments_arr: np.ndarray,
                            stats: PrefetchStats) -> PrefetchStats:
        """Eviction-free simulation (everything fits), fully vectorized.

        Produces byte-for-byte the same :class:`PrefetchStats` and final
        buffer state as the general replacement loop would when no eviction
        ever fires.
        """
        element_bytes = self._buffer.element_bytes
        access_nnz = self._row_nnz[access_sequence]
        access_segments = num_segments_arr[access_sequence]
        first_touch = np.zeros(len(access_sequence), dtype=bool)
        _, first_positions = np.unique(access_sequence, return_index=True)
        first_touch[first_positions] = True

        total_elements = int(access_nnz.sum())
        miss_elements = int(access_nnz[first_touch].sum())
        stats.accesses = len(access_sequence)
        stats.bytes_without_buffer = total_elements * element_bytes
        stats.element_misses = miss_elements
        stats.element_hits = total_elements - miss_elements
        stats.segment_misses = int(access_segments[first_touch].sum())
        stats.segment_hits = int(access_segments.sum()) - stats.segment_misses
        stats.dram_bytes_read = miss_elements * element_bytes

        self._buffer.record_hit(stats.segment_hits)
        self._buffer.record_miss(stats.segment_misses)
        for row in distinct_rows.tolist():
            for segment in range(int(num_segments_arr[row])):
                self._buffer.insert(row, segment)
        return stats
