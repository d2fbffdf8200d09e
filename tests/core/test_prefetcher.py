"""Unit and property tests for the MatB row prefetcher (§II-D, Figure 9).

Every simulation starts from an empty buffer and leaves nothing behind.
The event-driven replay, and the closed form it tries first for one-line
rows, must reproduce the per-access reference loop exactly: every
:class:`PrefetchStats` field.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import SpArch
from repro.core.config import SpArchConfig
from repro.core.prefetcher import RowPrefetcher
from repro.formats.csr import CSRMatrix
from repro.matrices.suite import load_benchmark
from repro.matrices.synthetic import powerlaw_matrix, random_matrix


def _matrix_with_row_nnz(row_nnz) -> CSRMatrix:
    """Matrix whose row ``i`` has exactly ``row_nnz[i]`` nonzeros."""
    row_nnz = np.asarray(row_nnz, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    indices = np.concatenate([np.arange(k, dtype=np.int64) for k in row_nnz])
    width = max(int(row_nnz.max()), 1)
    return CSRMatrix(indptr, indices, np.ones(len(indices)),
                     (len(row_nnz), width))


def _uniform_matrix(num_rows: int, row_nnz: int) -> CSRMatrix:
    """Matrix whose every row has exactly ``row_nnz`` nonzeros."""
    return _matrix_with_row_nnz([row_nnz] * num_rows)


def _simulate_both(matrix: CSRMatrix, sequence, **kwargs):
    """Run the reference loop and the default path; both must agree."""
    access = np.asarray(sequence, dtype=np.int64)
    reference = RowPrefetcher(matrix, reference=True, **kwargs)
    fast = RowPrefetcher(matrix, **kwargs)
    expected = reference.simulate(access)
    observed = fast.simulate(access)
    assert dataclasses.asdict(observed) == dataclasses.asdict(expected)
    return observed


@pytest.fixture
def count_event_runs(monkeypatch):
    """Count calls of the event-driven replay (it still runs)."""
    calls = []
    original = RowPrefetcher._simulate_events

    def spy(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(RowPrefetcher, "_simulate_events", spy)
    return calls


@pytest.fixture
def settle_outcomes(monkeypatch):
    """Record each closed-form attempt: True settled, False declined."""
    outcomes = []
    original = RowPrefetcher._settle_one_line_rows

    def spy(self, *args):
        settled = original(self, *args)
        outcomes.append(settled is not None)
        return settled

    monkeypatch.setattr(RowPrefetcher, "_settle_one_line_rows", spy)
    return outcomes


def test_every_access_hits_when_buffer_is_large_enough():
    matrix = _uniform_matrix(8, 4)
    prefetcher = RowPrefetcher(matrix, num_lines=64, line_elements=8,
                               lookahead_window=64)
    sequence = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
    stats = prefetcher.simulate(sequence)
    # First touch of each row misses; every later touch hits.
    assert stats.element_misses == 3 * 4
    assert stats.element_hits == 6 * 4
    assert stats.dram_bytes_read == 3 * 4 * 12
    assert stats.hit_rate == pytest.approx(2 / 3)


def test_zero_reuse_sequence_never_hits():
    matrix = _uniform_matrix(16, 3)
    prefetcher = RowPrefetcher(matrix, num_lines=4, line_elements=4,
                               lookahead_window=8)
    stats = prefetcher.simulate(np.arange(16))
    assert stats.element_hits == 0
    assert stats.dram_bytes_read == stats.bytes_without_buffer


def test_belady_keeps_the_sooner_needed_row():
    """With capacity for one row, the policy must keep the row needed sooner."""
    matrix = _uniform_matrix(4, 4)
    # One line holds a full row; the buffer holds exactly two rows.
    prefetcher = RowPrefetcher(matrix, num_lines=2, line_elements=4,
                               lookahead_window=16)
    # Rows 0 and 1 are buffered; fetching row 2 must evict row 1 (next used
    # later) and keep row 0 (needed immediately after).
    sequence = np.array([0, 1, 2, 0, 1])
    stats = prefetcher.simulate(sequence)
    # Misses: rows 0, 1, 2 (cold) and row 1 again after its eviction = 4.
    assert stats.segment_misses == 4
    assert stats.segment_hits == 1  # the second access to row 0


def test_line_granular_eviction_partial_rows():
    """Long rows are spilled line by line, so partial hits are possible."""
    matrix = _uniform_matrix(3, 8)  # each row = 2 lines of 4 elements
    prefetcher = RowPrefetcher(matrix, num_lines=3, line_elements=4,
                               lookahead_window=16)
    stats = prefetcher.simulate(np.array([0, 1, 0]))
    # Row 0 occupies 2 lines, row 1 evicts one of them; the second access to
    # row 0 hits on the surviving line and re-reads only the evicted one.
    assert stats.segment_hits >= 1
    assert stats.dram_bytes_read < stats.bytes_without_buffer


def test_a_row_takes_one_line_per_started_line_of_elements():
    """Rows of 0, 48 and 49 elements take 0, 1 and 2 Table I lines, so
    three lines hold them all and two do not."""
    matrix = _matrix_with_row_nnz([0, 48, 49])
    sequence = np.array([0, 1, 2, 1, 2])
    stats = RowPrefetcher(matrix, num_lines=3).simulate(sequence)
    assert (stats.segment_misses, stats.segment_hits) == (3, 3)
    assert (stats.element_misses, stats.element_hits) == (97, 97)
    assert stats.evicted_lines == 0
    assert RowPrefetcher(matrix, num_lines=2).simulate(
        sequence).evicted_lines > 0


def test_empty_rows_and_empty_sequence():
    matrix = CSRMatrix.empty((4, 4))
    prefetcher = RowPrefetcher(matrix, num_lines=2, line_elements=4)
    stats = prefetcher.simulate(np.array([0, 1, 2]))
    assert stats.dram_bytes_read == 0
    assert stats.hit_rate == 0.0
    assert prefetcher.simulate(np.array([], dtype=np.int64)).accesses == 0


def test_traffic_reduction_property():
    matrix = powerlaw_matrix(128, 4.0, seed=3)
    access = np.asarray(matrix.indices, dtype=np.int64)
    prefetcher = RowPrefetcher(matrix, num_lines=32, line_elements=8,
                               lookahead_window=256)
    with_buffer = prefetcher.simulate(access)
    assert with_buffer.dram_bytes_read <= with_buffer.bytes_without_buffer
    assert 0.0 <= with_buffer.hit_rate <= 1.0
    assert with_buffer.traffic_reduction >= 1.0


@pytest.mark.parametrize("reference", [False, True])
def test_simulate_starts_from_an_empty_buffer_every_call(reference):
    """A simulation leaves nothing behind: a second call on the same
    prefetcher returns the first call's statistics, on either path."""
    matrix = powerlaw_matrix(256, 6.0, seed=19)
    access = np.asarray(matrix.indices, dtype=np.int64)
    prefetcher = RowPrefetcher(matrix, num_lines=16, line_elements=8,
                               lookahead_window=128, reference=reference)
    first = prefetcher.simulate(access)
    assert first.evicted_lines > 0
    assert prefetcher.simulate(access) == first


@pytest.mark.parametrize("field", ["num_lines", "line_elements",
                                   "element_bytes"])
def test_buffer_geometry_must_be_positive(field):
    matrix = _uniform_matrix(4, 4)
    with pytest.raises(ValueError, match=field):
        RowPrefetcher(matrix, **{field: 0})
    with pytest.raises(TypeError, match=field):
        RowPrefetcher(matrix, **{field: 2.0})


#: One input per path through ``simulate``: row lengths, buffer lines,
#: elements per line, window, access sequence, and the event replays and
#: closed-form outcomes the default path records.
PATH_CASES = {
    # Every accessed row fits at once: nothing is evicted.
    "eviction-free": ([3, 5, 2], 4, 4, 8, [0, 1, 2, 0, 1, 2], 0, []),
    # Two-line rows under pressure: the event replay runs its loop.
    "event loop": ([8, 8, 8], 4, 4, 16, [0, 1, 2, 0, 1], 1, []),
    # One-line rows whose spills all take unknown-class rows.
    "closed form": ([1, 1, 1, 1], 2, 1, 1,
                    [0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1], 1, [True]),
    # A row longer than the buffer spills itself: the reference loop.
    "longer than the buffer": ([3, 9, 2], 2, 4, 8, [0, 1, 2, 1, 0], 0, []),
}


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("case", list(PATH_CASES))
def test_every_path_ends_with_the_resident_line_check(
        monkeypatch, count_event_runs, settle_outcomes, case, reference):
    """Each path checks its lines once, with the counts its statistics
    report, and leaves nothing for the next call."""
    (row_nnz, num_lines, line_elements, window, sequence, event_runs,
     settles) = PATH_CASES[case]
    checks = []
    original = RowPrefetcher._check_resident_lines

    def spy(self, resident, *, fetched, spilled):
        checks.append((resident, fetched, spilled))
        return original(self, resident, fetched=fetched, spilled=spilled)

    monkeypatch.setattr(RowPrefetcher, "_check_resident_lines", spy)
    prefetcher = RowPrefetcher(_matrix_with_row_nnz(row_nnz),
                               num_lines=num_lines,
                               line_elements=line_elements,
                               lookahead_window=window, reference=reference)
    stats = prefetcher.simulate(np.array(sequence))
    assert len(count_event_runs) == (0 if reference else event_runs)
    assert settle_outcomes == ([] if reference else settles)
    assert checks == [(stats.segment_misses - stats.evicted_lines,
                       stats.segment_misses, stats.evicted_lines)]
    assert prefetcher.simulate(np.array(sequence)) == stats


def test_resident_lines_must_match_fetches_and_spills():
    """The line accounting every path ends with: the lines left resident
    equal the lines fetched minus the lines spilled, and fit the buffer."""
    prefetcher = RowPrefetcher(_uniform_matrix(4, 4), num_lines=4)
    prefetcher._check_resident_lines(3, fetched=4, spilled=1)
    prefetcher._check_resident_lines(4, fetched=4, spilled=0)
    with pytest.raises(ValueError, match="2 lines fetched and 0 spilled, "
                                         "but 3 are resident"):
        prefetcher._check_resident_lines(3, fetched=2, spilled=0)
    with pytest.raises(ValueError, match="but 3 are resident"):
        prefetcher._check_resident_lines(3, fetched=0, spilled=4)
    with pytest.raises(ValueError, match="but 3 are resident"):
        prefetcher._check_resident_lines(3, fetched=2, spilled=-1)
    with pytest.raises(ValueError, match="5 resident lines do not fit"):
        prefetcher._check_resident_lines(5, fetched=7, spilled=2)
    with pytest.raises(ValueError, match="-1 resident lines do not fit"):
        prefetcher._check_resident_lines(-1, fetched=1, spilled=2)


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_prefetcher_invariants_hold_for_random_sequences(sequence, lines,
                                                         line_elements):
    """Conservation: hits + misses == touched elements; traffic == misses."""
    matrix = random_matrix(16, 16, 80, seed=7)
    prefetcher = RowPrefetcher(matrix, num_lines=lines,
                               line_elements=line_elements,
                               lookahead_window=16)
    access = np.asarray(sequence, dtype=np.int64)
    stats = prefetcher.simulate(access)
    row_nnz = matrix.nnz_per_row()
    touched = int(sum(row_nnz[r] for r in sequence))
    assert stats.element_hits + stats.element_misses == touched
    assert stats.dram_bytes_read == stats.element_misses * 12
    assert stats.dram_bytes_read <= stats.bytes_without_buffer
    assert stats.accesses == len(sequence)


@st.composite
def _prefetch_cases(draw):
    """Buffer geometry, per-row sizes and an access sequence with runs."""
    line_elements = draw(st.integers(min_value=1, max_value=8))
    num_lines = draw(st.integers(min_value=1, max_value=16))
    # Rows may span several lines, but none needs more than the buffer, so
    # the event path applies whenever the accessed rows do not all fit.
    row_nnz = draw(st.lists(
        st.integers(min_value=0, max_value=num_lines * line_elements),
        min_size=1, max_size=12))
    runs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(row_nnz) - 1),
                  st.integers(min_value=1, max_value=4)),
        min_size=1, max_size=60))
    sequence = [row for row, length in runs for _ in range(length)]
    # Short windows make next uses cross the window edge most often.
    window = draw(st.one_of(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=len(sequence) + 3)))
    return row_nnz, sequence, num_lines, line_elements, window


@given(_prefetch_cases())
@settings(max_examples=300, deadline=None)
def test_event_path_matches_reference_loop(case):
    """Differential property: every statistic is identical."""
    row_nnz, sequence, num_lines, line_elements, window = case
    _simulate_both(_matrix_with_row_nnz(row_nnz), sequence,
                   num_lines=num_lines, line_elements=line_elements,
                   lookahead_window=window)


def test_unknown_class_spills_round_robin_and_rekeys():
    """Partial spills move a row to the back of the FIFO, or into the
    known class once its next use enters the window (Figure 9, step 7→8).

    Every row is two one-element lines; the buffer holds four lines and the
    window is one access deep.
    """
    matrix = _uniform_matrix(3, 2)
    stats = _simulate_both(matrix, [0, 1, 2, 0, 1], num_lines=4,
                           line_elements=1, lookahead_window=1)
    # Access 2 spills one line each of rows 0 and 1, not all of row 0.  Row
    # 0 (next use 3) turns known and survives; row 1 (next use 4) goes back
    # into the FIFO ahead of row 2, so access 3 spills row 1's last line.
    # Access 4 spills one line each of rows 2 and 0, leaving row 0's first
    # line, both of row 1's and row 2's first.
    assert stats.segment_hits == 1
    assert stats.segment_misses == 9
    assert stats.evicted_lines == 5
    assert stats.segment_misses - stats.evicted_lines == 4


def test_known_class_spills_the_furthest_row_whole():
    """Among rows with a visible next use, the furthest one spills line by
    line until it is gone before any other row loses a line."""
    matrix = _uniform_matrix(3, 2)
    stats = _simulate_both(matrix, [0, 1, 2, 1, 0], num_lines=4,
                           line_elements=1, lookahead_window=16)
    # Access 2 spills both lines of row 0 (next use 4), keeping row 1 (next
    # use 3) whole; access 4 then round-robins over rows 2 and 1, leaving
    # both of row 0's lines and the first of rows 1 and 2.
    assert stats.segment_hits == 2
    assert stats.segment_misses == 8
    assert stats.evicted_lines == 4
    assert stats.segment_misses - stats.evicted_lines == 4


@pytest.mark.parametrize("window,hits", [(3, 1), (2, 0)])
def test_next_use_exactly_one_window_ahead_is_visible_at_a_touch(window,
                                                                hits):
    """Row 0 is next used 3 accesses after its touch.  With a 3-deep window
    that use is visible, so never-reused row 1 spills instead of it."""
    stats = _simulate_both(_uniform_matrix(3, 1), [0, 1, 2, 0],
                           num_lines=2, line_elements=1,
                           lookahead_window=window)
    assert stats.segment_hits == hits


@pytest.mark.parametrize("window,hits", [(2, 1), (1, 0)])
def test_next_use_exactly_one_window_ahead_is_visible_at_a_respill(window,
                                                                  hits):
    """Access 2 spills one line each of two-line rows 0 and 1.  Row 0's
    next use (access 4) is then 2 ahead: a 2-deep window re-keys it into
    the known class, so access 3 takes row 1's last line and row 0 keeps
    a line for access 4."""
    stats = _simulate_both(_matrix_with_row_nnz([2, 2, 2, 1]),
                           [0, 1, 2, 3, 0], num_lines=4, line_elements=1,
                           lookahead_window=window)
    assert stats.segment_hits == hits


@pytest.mark.parametrize("row_nnz,sequence,num_lines,window", [
    # Accesses to an empty row still count toward the look-ahead distance.
    ([1, 0, 1, 1], [0, 1, 1, 2, 3, 1, 0, 2, 1, 3, 0], 2, 2),
    # A one-access window: every reuse but back-to-back repeats is unknown.
    ([2, 3, 1, 2, 4], [0, 1, 2, 0, 3, 4, 4, 1, 2, 3, 0, 4, 1], 5, 1),
    # A window past the sequence end: every reuse is visible.
    ([3, 1, 4, 1, 5, 9, 2], [6, 5, 4, 3, 2, 1, 0, 5, 6, 1, 2, 5, 3], 6, 64),
])
def test_event_path_edge_cases(count_event_runs, row_nnz, sequence,
                               num_lines, window):
    """The event path runs, and matches the loop, at the window's extremes."""
    _simulate_both(_matrix_with_row_nnz(row_nnz), sequence,
                   num_lines=num_lines, line_elements=2,
                   lookahead_window=window)
    assert len(count_event_runs) == 1


def test_event_path_matches_reference_on_a_powerlaw_operand(count_event_runs):
    """A longer sequence with hub rows, multi-line rows and both classes."""
    matrix = powerlaw_matrix(512, 6.0, seed=23)
    access = np.asarray(matrix.indices, dtype=np.int64)
    stats = _simulate_both(matrix, access, num_lines=48, line_elements=4,
                           lookahead_window=300)
    assert len(count_event_runs) == 1
    assert stats.evicted_lines > 0


def test_row_longer_than_buffer_takes_the_reference_loop(count_event_runs):
    """A row needing more lines than the buffer holds spills itself, which
    only the reference loop models."""
    matrix = _matrix_with_row_nnz([3, 9, 2])  # row 1 spans three lines
    stats = _simulate_both(matrix, [0, 1, 2, 1, 0], num_lines=2,
                           line_elements=4, lookahead_window=8)
    assert count_event_runs == []
    assert stats.evicted_lines > 0


def test_scalar_engine_runs_the_reference_loop(count_event_runs):
    """The scalar engine is the oracle: it never takes the event path."""
    matrix = random_matrix(120, 120, 900, seed=4)
    config = SpArchConfig(prefetch_buffer_lines=8, prefetch_line_elements=4,
                          lookahead_fifo_elements=64)
    scalar = SpArch(config.replace(engine="scalar")).multiply(matrix, matrix)
    assert count_event_runs == []
    vectorized = SpArch(config).multiply(matrix, matrix)
    assert len(count_event_runs) == 1
    assert scalar.stats.prefetch_hit_rate == vectorized.stats.prefetch_hit_rate


@pytest.mark.parametrize("reference", [False, True])
@pytest.mark.parametrize("bad_row", [-1, 8])
def test_out_of_range_rows_are_rejected(reference, bad_row):
    """A row outside the operand raises a ValueError naming the access."""
    prefetcher = RowPrefetcher(_uniform_matrix(8, 1), num_lines=2,
                               line_elements=1, reference=reference)
    with pytest.raises(ValueError, match=f"access 1 names row {bad_row},"):
        prefetcher.simulate(np.array([0, bad_row, 2]))


@st.composite
def _one_line_cases(draw):
    """One-line rows under pressure: more distinct rows than lines."""
    line_elements = draw(st.integers(min_value=1, max_value=4))
    num_lines = draw(st.integers(min_value=1, max_value=8))
    # The first num_lines + 1 rows are non-empty and each is accessed, so
    # the accessed rows never all fit; the rest may be empty.
    row_nnz = (draw(st.lists(st.integers(min_value=1, max_value=line_elements),
                             min_size=num_lines + 1, max_size=num_lines + 1))
               + draw(st.lists(st.integers(min_value=0,
                                           max_value=line_elements),
                               max_size=4)))
    runs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(row_nnz) - 1),
                  st.integers(min_value=1, max_value=3)),
        max_size=40))
    sequence = [row for row, length in runs for _ in range(length)]
    for row in range(len(row_nnz)):
        sequence.insert(draw(st.integers(min_value=0,
                                         max_value=len(sequence))), row)
    window = draw(st.one_of(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=len(sequence) + 3)))
    return row_nnz, sequence, num_lines, line_elements, window


@given(_one_line_cases())
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_reference_loop(case):
    """Differential property for one-line rows, where the closed form is
    tried: every statistic matches the loop either way."""
    row_nnz, sequence, num_lines, line_elements, window = case
    _simulate_both(_matrix_with_row_nnz(row_nnz), sequence,
                   num_lines=num_lines, line_elements=line_elements,
                   lookahead_window=window)


def test_closed_form_settles_and_declines_on_seeded_cases(settle_outcomes):
    """400 seeded one-line-row cases: the closed form settles many and
    declines many, and every case matches the loop."""
    rng = np.random.default_rng(16)
    for _ in range(400):
        line_elements = int(rng.integers(1, 5))
        num_lines = int(rng.integers(1, 9))
        num_rows = num_lines + int(rng.integers(1, 9))
        row_nnz = rng.integers(0, line_elements + 1, size=num_rows)
        row_nnz[0] = 1  # keep the matrix non-empty
        length = int(rng.integers(num_rows, 6 * num_rows))
        # A working set drifting once across the rows: the narrower its
        # spread, the more local the reuse.
        spread = int(rng.integers(0, num_rows))
        sequence = ((np.arange(length) * num_rows // length
                     + rng.integers(0, spread + 1, size=length)) % num_rows)
        _simulate_both(_matrix_with_row_nnz(row_nnz), sequence,
                       num_lines=num_lines, line_elements=line_elements,
                       lookahead_window=int(rng.integers(1, length + 4)))
    settled = sum(settle_outcomes)
    assert settled >= 50
    assert len(settle_outcomes) - settled >= 50


@pytest.mark.parametrize(
    "sequence,num_lines,window,settles,hits,evicted,resident", [
        # Every reuse is back to back, so the window sees it; each pair's
        # first access spills the row touched longest ago.  Rows 0 and 1
        # stay.
        ([0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1], 2, 1, True, 6, 4, 2),
        # Every reuse is visible, so spill 1 finds no unknown-class row:
        # the FIFO runs dry and the known class spills.  Rows 1 and 2 stay.
        ([0, 1, 2, 0, 1, 2], 2, 8, False, 2, 2, 2),
        # Row 0's reuse lies beyond the window, yet it hits: no spill came
        # before it.  The spill at access 3 skips that stale head and
        # takes row 1.  Rows 0 and 2 stay.
        ([0, 1, 0, 2], 2, 1, False, 1, 1, 2),
        # Only row 0 spills, so row 2 survives to a reuse the window missed.
        # Rows 1, 2 and 3 stay.
        ([0, 1, 2, 3, 2], 3, 1, False, 1, 1, 3),
    ])
def test_closed_form_hand_checked_cases(settle_outcomes, sequence, num_lines,
                                        window, settles, hits, evicted,
                                        resident):
    """One-element rows and lines, checked by hand against the policy."""
    matrix = _uniform_matrix(max(sequence) + 1, 1)
    stats = _simulate_both(matrix, sequence, num_lines=num_lines,
                           line_elements=1, lookahead_window=window)
    assert settle_outcomes == [settles]
    assert stats.segment_hits == hits
    assert stats.segment_misses == len(sequence) - hits
    assert stats.evicted_lines == evicted
    assert stats.segment_misses - stats.evicted_lines == resident


def test_rows_longer_than_one_line_skip_the_closed_form(count_event_runs,
                                                        settle_outcomes):
    """A two-line row among one-line rows sends the replay straight to its
    loop."""
    matrix = _matrix_with_row_nnz([1, 1, 2, 1])
    _simulate_both(matrix, [0, 1, 2, 3, 0, 1, 3, 2, 0], num_lines=3,
                   line_elements=1, lookahead_window=2)
    assert len(count_event_runs) == 1
    assert settle_outcomes == []


def test_engines_agree_where_the_closed_form_settles(settle_outcomes):
    """m133-b3's rows fit one Table I line; with a 16-line buffer and a
    128-element window the batched engine settles in closed form."""
    matrix = load_benchmark("m133-b3", max_rows=2000)
    config = SpArchConfig(prefetch_buffer_lines=16,
                          lookahead_fifo_elements=128)
    batched = SpArch(config).multiply(matrix, matrix)
    assert settle_outcomes == [True]
    scalar = SpArch(config.replace(engine="scalar")).multiply(matrix, matrix)
    assert settle_outcomes == [True]
    assert dataclasses.asdict(batched.stats) == dataclasses.asdict(
        scalar.stats)


@pytest.mark.parametrize("max_rows", [2000, 20000])
def test_table1_buffers_decline_on_m133_proxies(settle_outcomes, max_rows):
    """Under Table I buffers the proxies' spills find no eligible
    unknown-class row often enough that the closed form declines."""
    matrix = load_benchmark("m133-b3", max_rows=max_rows)
    SpArch(SpArchConfig()).multiply(matrix, matrix)
    assert settle_outcomes == [False]
