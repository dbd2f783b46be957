"""Instrumented sorts: correctness, exact counter semantics, batch-kernel parity."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    brute_force_inversions,
    exchange_sort_list,
    merge_inversions_batch,
    textbook_sort_list,
    textbook_sort_passes,
)
from sortlab import algorithms
from sortlab.algorithms import (
    OpCounters,
    _ranks,
    count_inversions,
    count_inversions_batch,
    exchange_selection_sort,
    exchange_sort_batch,
    textbook_selection_sort,
    textbook_sort_batch,
)
from sortlab.distributions import geometric, mix64, sample_block

# Small nonnegative ints force ties, the regime that separates the two sorts.
tied_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40)

# (trials, n) batches of tied values, one trial per row.  n up to 70 keeps the
# literal loops quick.  Mostly 0..6, so most rows are coded by their offsets
# from the min; a value from the wider range can span more than 64 or more
# than n, so that rows are ranked by the value table or by a sort too.
tied_batches = arrays(
    np.int64,
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=70)),
    elements=st.integers(min_value=0, max_value=6) | st.integers(min_value=-40, max_value=120),
)


def one_row(items) -> np.ndarray:
    return np.array(items, dtype=np.int64).reshape(1, -1)


class TestOpCounters:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpCounters(comparisons=-1, interchanges=0)
        with pytest.raises(ValueError):
            OpCounters(comparisons=3, interchanges=4)
        c = OpCounters(comparisons=3, interchanges=2)
        assert (c.comparisons, c.interchanges) == (3, 2)


class TestExchangeSelectionSort:
    def test_known_small_cases(self):
        assert exchange_selection_sort([])[1] == OpCounters(0, 0)
        assert exchange_selection_sort([5])[1] == OpCounters(0, 0)
        assert exchange_selection_sort([1, 2])[1] == OpCounters(1, 0)
        assert exchange_selection_sort([2, 1])[1] == OpCounters(1, 1)
        # [3,2,1]: (0,1) swaps, (0,2) swaps, (1,2) swaps.
        assert exchange_selection_sort([3, 2, 1])[1] == OpCounters(3, 3)
        # Ties never swap under strict >.
        assert exchange_selection_sort([4, 4, 4])[1] == OpCounters(3, 0)

    @given(tied_lists)
    def test_sorts_and_counts(self, items):
        result, counters = exchange_selection_sort(items)
        n = len(items)
        assert result == sorted(items)
        assert Counter(result) == Counter(items)
        assert counters.comparisons == n * (n - 1) // 2
        assert 0 <= counters.interchanges <= counters.comparisons

    @given(tied_lists)
    def test_input_untouched_and_type_preserved(self, items):
        original = list(items)
        result, _ = exchange_selection_sort(items)
        assert items == original
        assert isinstance(result, list)

        arr = np.array(original, dtype=np.int64)
        result_arr, _ = exchange_selection_sort(arr)
        assert isinstance(result_arr, np.ndarray)
        assert result_arr.tolist() == sorted(original)
        assert arr.tolist() == original

    @given(tied_lists)
    def test_ndarray_fast_path_matches_literal_loop(self, items):
        want, swaps_list = exchange_sort_list(items)
        (swaps_arr,) = exchange_sort_batch(one_row(items))
        assert swaps_arr == swaps_list
        # List input runs through the same kernel and comes back as a list.
        result, counters = exchange_selection_sort(items)
        assert result == want and counters.interchanges == swaps_list

    def test_fast_path_parity_on_seeded_batch(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            n = int(rng.integers(0, 80))
            arr = rng.integers(0, 8, size=n)
            _, swaps_list = exchange_sort_list(arr.tolist())
            (swaps_arr,) = exchange_sort_batch(one_row(arr))
            assert swaps_arr == swaps_list

    def test_floats_supported(self):
        data = [0.3, 0.1, 0.2, 0.1]
        result, counters = exchange_selection_sort(data)
        assert result == sorted(data)
        assert counters.comparisons == 6


class TestTextbookSelectionSort:
    def test_known_small_cases(self):
        assert textbook_selection_sort([3, 2, 1])[1] == OpCounters(3, 1)
        assert textbook_selection_sort([1, 2, 3])[1] == OpCounters(3, 0)
        assert textbook_selection_sort([2, 1])[1] == OpCounters(1, 1)

    @given(tied_lists)
    def test_sorts_with_few_swaps(self, items):
        result, counters = textbook_selection_sort(items)
        n = len(items)
        assert result == sorted(items)
        assert Counter(result) == Counter(items)
        assert counters.comparisons == n * (n - 1) // 2
        assert counters.interchanges <= max(n - 1, 0)

    @given(tied_lists)
    def test_ndarray_fast_path_matches_literal_loop(self, items):
        want, swaps_list = textbook_sort_list(items)
        (swaps_arr,) = textbook_sort_batch(one_row(items))
        assert swaps_arr == swaps_list
        result, counters = textbook_selection_sort(items)
        assert result == want and counters.interchanges == swaps_list

    @given(tied_lists)
    def test_never_swaps_more_than_exchange_on_reversed_runs(self, items):
        # Both sort; the textbook variant is the low-swap one by design.
        _, ex = exchange_selection_sort(items)
        _, tb = textbook_selection_sort(items)
        assert tb.interchanges <= max(len(items) - 1, 0)
        assert ex.comparisons == tb.comparisons


LIST_INPUTS = [
    [],
    # numpy would round these to float64, where 2**63 + 1 equals 2**63.
    [2**63 + 1, 5, 2**63, 0, 2**63 + 1],
    [2**64 + 7, -1, 2**63, 2**64 + 7, 3],
    [2**53 + 1, 0.5, 2**53, 2],
    [1, 0.5, 2, 0.5, -3],
    ["pear", "apple", "fig", "apple"],
    ["b", "a", "c", "a"],
]


@pytest.mark.parametrize(
    "sort,oracle",
    [(exchange_selection_sort, exchange_sort_list), (textbook_selection_sort, textbook_sort_list)],
)
@pytest.mark.parametrize("items", LIST_INPUTS)
def test_list_input_matches_literal_loop(sort, oracle, items):
    want, swaps = oracle(items)
    result, counters = sort(items)
    assert isinstance(result, list)
    assert result == want
    assert counters == OpCounters(len(items) * (len(items) - 1) // 2, swaps)


@pytest.mark.parametrize("items", LIST_INPUTS)
def test_list_input_inversions_match_brute_force(items):
    # Strings, and ints numpy would round (kept as objects), are ranked like numbers.
    assert count_inversions(items) == brute_force_inversions(items)


class TestCountInversions:
    def test_known_values(self):
        assert count_inversions([]) == 0
        assert count_inversions([1]) == 0
        assert count_inversions([1, 2, 3]) == 0
        assert count_inversions([3, 2, 1]) == 3
        assert count_inversions([5, 4, 3, 2, 1]) == 10
        assert count_inversions([1, 1, 1]) == 0
        assert count_inversions([2, 1, 2, 1]) == 3

    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=60))
    def test_matches_brute_force(self, items):
        assert count_inversions(items) == brute_force_inversions(items)

    def test_matches_brute_force_on_seeded_batch(self):
        rng = np.random.default_rng(654)
        for _ in range(1000):
            n = int(rng.integers(0, 50))
            arr = rng.integers(0, 10, size=n)
            assert count_inversions(arr) == brute_force_inversions(arr.tolist())

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
    @settings(max_examples=60)
    def test_input_untouched(self, items):
        original = list(items)
        count_inversions(items)
        assert items == original

    def test_reversed_is_maximal(self):
        n = 30
        assert count_inversions(list(range(n, 0, -1))) == n * (n - 1) // 2


def literal_counts(batch: np.ndarray) -> dict:
    """Per-row counts of each kernel's mode from the literal list loops."""
    rows = batch.tolist()
    return {
        exchange_sort_batch: [exchange_sort_list(row)[1] for row in rows],
        textbook_sort_batch: [textbook_sort_list(row)[1] for row in rows],
        count_inversions_batch: [brute_force_inversions(row) for row in rows],
    }


KERNELS = (exchange_sort_batch, textbook_sort_batch, count_inversions_batch)


class TestBatchKernels:
    @given(tied_batches)
    @settings(max_examples=150)
    def test_each_row_matches_literal_loop(self, batch):
        original = batch.copy()
        for kernel, want in literal_counts(batch).items():
            counts = kernel(batch)
            assert counts.dtype == np.int64
            assert counts.tolist() == want, kernel.__name__
        assert np.array_equal(batch, original)

    def test_float_batch(self):
        rng = np.random.default_rng(17)
        batch = rng.choice([-1.5, 0.25, 0.25, 2.0, 3.75], size=(5, 33))
        for kernel, want in literal_counts(batch).items():
            assert kernel(batch).tolist() == want, kernel.__name__

    def test_single_element_and_all_equal_rows(self):
        for kernel in KERNELS:
            assert kernel(np.array([[7], [3]])).tolist() == [0, 0]
            assert kernel(np.full((3, 25), 4)).tolist() == [0, 0, 0]

    def test_values_beyond_int32_are_not_narrowed(self):
        # Wrapped to int32, 2**32 + 1 would read 1 and 2**31 a negative value.
        big = 2**31
        batch = np.array([[2**32 + 1, 2, big, big - 1, 5, 2**40], [big, 0, big + 3, 1, big, 9]])
        for kernel, want in literal_counts(batch).items():
            assert kernel(batch).tolist() == want, kernel.__name__
        # The one-row sorts return these rows sorted, still as int64.
        for kernel in LITERAL_LOOPS:
            assert_matches_literal_loop(kernel, batch)

    def test_negative_values(self):
        batch = np.array([[3, -2, 0, -2, 5, -7], [-1, -1, -3, 4, 2, -3]])
        for kernel, want in literal_counts(batch).items():
            assert kernel(batch).tolist() == want, kernel.__name__

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejects_non_batch(self, kernel):
        with pytest.raises(ValueError):
            kernel(np.arange(5))
        with pytest.raises(ValueError):
            kernel(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize(
        "counter", [exchange_selection_sort, textbook_selection_sort, count_inversions]
    )
    def test_per_array_functions_reject_2d(self, counter):
        with pytest.raises(ValueError):
            counter(np.zeros((2, 3)))


LITERAL_LOOPS = {exchange_sort_batch: exchange_sort_list, textbook_sort_batch: textbook_sort_list}
ONE_ROW_SORTS = {
    exchange_sort_batch: exchange_selection_sort,
    textbook_sort_batch: textbook_selection_sort,
}


def assert_matches_literal_loop(kernel, batch: np.ndarray) -> None:
    """The kernel's counts, and the one-row sort of each row, against the
    literal loop: the same counts, and the loop's sorted row as an ndarray
    of the batch's dtype."""
    counts = kernel(batch)
    literal = [LITERAL_LOOPS[kernel](row) for row in batch.tolist()]
    assert counts.dtype == np.int64 and counts.shape == (batch.shape[0],)
    assert counts.tolist() == [swaps for _, swaps in literal]
    for row, (want, swaps) in zip(batch, literal):
        out, counters = ONE_ROW_SORTS[kernel](row)
        assert isinstance(out, np.ndarray) and out.dtype == batch.dtype
        assert out.tolist() == want and counters.interchanges == swaps


def row_with_distinct_values(rng, n: int, distinct: int) -> np.ndarray:
    """n values holding exactly `distinct` different ones, in random order."""
    values = rng.permutation(distinct) * 3 - 50
    return rng.permutation(np.concatenate([values, rng.choice(values, n - distinct)]))


class TestExchangeKernelScanAndNarrowing:
    """Row lengths, rank-word boundaries and the dtype the exchange kernel sorts on."""

    @pytest.mark.parametrize(
        "n", sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)})
    )
    def test_scan_boundaries_match_literal_loop(self, n):
        # Row lengths around each power of two up to 129, with 1-5 tied rows.
        rng = np.random.default_rng(n)
        for trials in range(1, 6):
            assert_matches_literal_loop(exchange_sort_batch, rng.integers(0, 7, size=(trials, n)))

    @pytest.mark.parametrize(
        "rows,dtype,keys",
        [
            # Values at most n apart are ranked by the value table: no sort.
            ([list(range(255, -1, -1)), list(range(0, 256, 2)) * 2], np.int64, None),
            ([list(range(256, -1, -1)), list(range(0, 257))], np.int64, None),
            ([list(range(255, -1, -1))], np.uint8, None),
            ([[-3, -1, -128, -1, -7], [-1, -2, -3, -128, -128]], np.int64, np.uint8),
            # Offsets from the min are unsigned, so a sign costs no wider key.
            ([[3, -1, 0, 127, -1, 5], [7, 6, 5, -1, -1, 0]], np.int64, np.uint8),
            # Offsets up to 128 wrap in int8 but not in the uint8 keys.
            ([[127, -1, 0, 127, -1, 5]], np.int8, np.uint8),
            ([[3, -128, 0, 255, -1, 5], [-128, 6, -128, 1, 0, 0]], np.int32, np.uint16),
            ([[3, -129, 0, 127, -1, 5], [-129, 6, -128, 255, 0, 0]], np.int64, np.uint16),
            # As float64, 2**63 - 1 and 2**63 - 2 would merge and the row give
            # 3 swaps instead of 5.
            ([[-1, 2**63 - 1, 5, 2**63 - 2, 0]], np.int64, np.uint64),
            ([[-1, 2**31 - 1, 5, 2**31 - 2, 0]], np.int32, np.uint32),
            ([[2**64 - 1, 2**63, 3, 2**63 + 1, 0], [2**63, 1, 2**63, 0, 7]], np.uint64, np.uint64),
            ([[2**63 - 1, 4, 2**62, 0, 9]], np.int64, np.uint64),
            # The full int64 and uint64 spans: offsets up to 2**64 - 1.
            ([[-(2**63), 2**63 - 1, 0, -1, 2**63 - 1, -(2**63)]], np.int64, np.uint64),
            ([[0, 2**64 - 1, 1, 2**64 - 2, 2**63, 0]], np.uint64, np.uint64),
            ([[0.5, -1.25, 3.0, -1.25, 0.0]], np.float64, np.float64),
        ],
    )
    def test_narrowing_is_exact(self, rows, dtype, keys, monkeypatch):
        # The keys the ranking step sorts on: an integer batch sorts as the
        # offsets from its min, in the narrowest unsigned type that holds
        # them; a float batch on its own values.
        batch = np.array(rows, dtype=dtype)
        sorted_keys = []
        sort_order = algorithms._sort_order

        def spy(keys):
            sorted_keys.append(keys.dtype)
            return sort_order(keys)

        monkeypatch.setattr(algorithms, "_sort_order", spy)
        exchange_sort_batch(batch)
        monkeypatch.undo()
        assert sorted_keys == ([] if keys is None else [keys])
        if keys is not None and batch.dtype.kind in "iu":
            assert keys == np.min_scalar_type(int(batch.max()) - int(batch.min()))
        assert_kernels_match_literal_loops(batch, int(keys is not None), monkeypatch)

    @pytest.mark.parametrize("length", range(8))
    def test_every_row_over_three_values(self, length):
        batch = np.array(list(itertools.product(range(3), repeat=length)), dtype=np.int64)
        assert_matches_literal_loop(exchange_sort_batch, batch)

    def test_rank_word_boundaries(self):
        # Ranks are packed 64 to a word: these rows need 1, 2 or 3 words, and
        # the single-valued row none beyond the first, in one batch.
        rng = np.random.default_rng(64)
        counts = (63, 64, 65, 127, 128, 129)
        batch = np.array([row_with_distinct_values(rng, 200, d) for d in counts] + [[7] * 200])
        assert [len(set(row)) for row in batch.tolist()] == [*counts, 1]
        assert_matches_literal_loop(exchange_sort_batch, batch)
        assert_matches_literal_loop(exchange_sort_batch, batch[::-1].copy())

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (3, 1), (1, 1)])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
    def test_degenerate_shapes(self, shape, dtype):
        # All three kernels, not only the exchange one, take empty batches.
        batch = np.arange(np.prod(shape), dtype=dtype).reshape(shape)
        for kernel in LITERAL_LOOPS:
            assert_matches_literal_loop(kernel, batch)
        for kernel, want in literal_counts(batch).items():
            counts = kernel(batch)
            assert counts.dtype == np.int64 and counts.tolist() == want, kernel.__name__


def argsort_dtypes(monkeypatch) -> list:
    """Spy on np.argsort, as the kernels call it: the dtype of each call's keys."""
    calls = []
    argsort = np.argsort

    def spy(keys, *args, **kwargs):
        calls.append(np.asarray(keys).dtype)
        return argsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


def argsorts_after_ranking(kernel, top: int) -> int:
    """The argsorts a kernel makes once the shared step has coded its batch,
    whose largest code is top: none for the exchange kernel, one on the code
    keys for the textbook kernel, one per code bit below the top one for the
    inversion kernel."""
    if kernel is count_inversions_batch:
        return max((top - 1).bit_length() - 1, 0)
    return int(kernel is textbook_sort_batch)


def assert_kernels_match_literal_loops(batch: np.ndarray, ranking_sorts: int, monkeypatch) -> None:
    """Every kernel's counts against the literal loops, and its argsorts:
    ranking_sorts to rank the batch, plus those it makes after ranking."""
    top = _ranks(batch)[1]
    for kernel, want in literal_counts(batch).items():
        calls = argsort_dtypes(monkeypatch)
        counts = kernel(batch)
        monkeypatch.undo()
        assert counts.tolist() == want, kernel.__name__
        assert len(calls) == ranking_sorts + argsorts_after_ranking(kernel, top), kernel.__name__
    for kernel in LITERAL_LOOPS:
        assert_matches_literal_loop(kernel, batch)


def row_over_range(rng, n: int, distinct: int, lo: int) -> list:
    """n ints holding each of lo, ..., lo + distinct - 1, in random order."""
    values = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    return [lo + v for v in rng.permutation(values).tolist()]


def assert_ranked_by(batch: np.ndarray, branch: str) -> None:
    """The shared step's codes for an integer batch, by the branch it takes:
    "offsets" (value - min + 1 as uint8, top = width), "table" or "sort"
    (dense ranks in each row, top = the most distinct values in a row)."""
    lo, hi = int(batch.min()), int(batch.max())
    width = hi - lo + 1
    n = batch.shape[1]
    assert branch == ("offsets" if width <= min(n, 64) else "table" if width <= n else "sort")
    codes, top = _ranks(batch)
    if branch == "offsets":
        assert codes.dtype == np.uint8 and top == width
        want = [[v - lo + 1 for v in row] for row in batch.tolist()]
    else:
        rows = batch.tolist()
        want = [[sorted(set(row)).index(v) + 1 for v in row] for row in rows]
        assert top == max(len(set(row)) for row in rows)
    assert codes.tolist() == want


class TestExchangeKernelValueTable:
    """The shared ranking step codes an integer batch whose value range is at
    most min(n, 64) wide by each value's offset from the min, with no table
    and no sort; a wider one whose values lie at most n apart by dense ranks
    from a table of each row's value counts, with no sort; any other batch
    by dense ranks from a sort.  All three kernels rank through this one step.

    Rows are chosen at the value ranges where the ranking switches between
    branches (every kernel), at the numbers D of distinct values where the
    exchange kernel's word type changes or a row's ranks need a second
    64-rank word, at the ends of the integer types and with values missing
    inside the range (every kernel).
    """

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_value_range_switch_matches_literal_loop(self, extra, monkeypatch):
        # Widths 39 and 40 are coded by their offsets, 41 ranked by a sort.
        n = 40
        width = n + extra
        rng = np.random.default_rng(width)
        batch = rng.integers(3, 9, size=(5, n))
        batch[0, 7], batch[3, 0] = 0, width - 1
        assert_ranked_by(batch, "sort" if width > n else "offsets")
        assert_kernels_match_literal_loops(batch, int(width > n), monkeypatch)

    @pytest.mark.parametrize("width", [63, 64, 65])
    def test_offset_width_switch_matches_literal_loop(self, width, monkeypatch):
        # At n = 100, widths up to 64 are coded by their offsets, 65 ranked
        # by the value table; none takes a sort.
        n = 100
        rng = np.random.default_rng(width)
        batch = rng.integers(3, 9, size=(5, n))
        batch[0, 7], batch[3, 0] = 0, width - 1
        assert_ranked_by(batch, "table" if width > 64 else "offsets")
        assert_kernels_match_literal_loops(batch, 0, monkeypatch)

    def test_values_missing_inside_the_range_match_literal_loop(self, monkeypatch):
        # Offset codes with gaps: each row holds a few scattered values of
        # 0..63, no row holds 1 or 62, and one row a single value, so the
        # textbook kernel meets codes missing from some rows and from all.
        rng = np.random.default_rng(62)
        n = 80
        subsets = ([0, 63], [5, 40, 41], [63], [2, 9, 30, 31, 32, 50, 61], list(range(20, 28)))
        rows = [rng.choice(values, size=n) for values in subsets]
        batch = np.array(rows + [rng.permutation(row) for row in rows])
        assert_ranked_by(batch, "offsets")
        assert_kernels_match_literal_loops(batch, 0, monkeypatch)
        assert_kernels_match_literal_loops(batch[::-1].copy(), 0, monkeypatch)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    def test_exchange_peak_memory_per_value(self, p):
        # Offset codes (1 B/value), their shifts less one (1 B) and a word of
        # up to 32 bits per value (4 B) at these p; no value table or index.
        batch = np.random.default_rng(7).geometric(p, size=(262, 1000)) - 1
        assert_ranked_by(batch, "offsets")
        tracemalloc.start()
        try:
            exchange_sort_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * batch.size

    @pytest.mark.parametrize("distinct", [8, 9, 16, 17, 32, 33, 64, 65, 128, 129])
    def test_word_boundaries_match_literal_loop(self, distinct, monkeypatch):
        # Rows with D, D // 2 and 1 distinct values in one batch.
        rng = np.random.default_rng(distinct)
        n = 2 * distinct
        rows = [row_over_range(rng, n, d, -50) for d in (distinct, distinct, distinct // 2)]
        batch = np.array(rows + [[-50] * n])
        calls = argsort_dtypes(monkeypatch)
        assert_matches_literal_loop(exchange_sort_batch, batch)
        assert_matches_literal_loop(exchange_sort_batch, batch[::-1].copy())
        assert calls == []
        assert _ranks(batch)[1] == distinct

    @pytest.mark.parametrize(
        "dtype,lo,distinct",
        [
            (np.int8, -128, 256),
            (np.uint8, 0, 256),
            (np.int16, -40, 9),
            (np.int64, -2**63, 70),
            (np.int64, 2**63 - 70, 70),
            (np.uint64, 2**64 - 70, 70),
            (np.uint64, 2**63 - 5, 10),
            # Ranges of at most 64 values, coded by their offsets.
            (np.int8, -128, 64),
            (np.int8, -128, 3),
            (np.int8, 127 - 63, 64),
            (np.uint8, 255 - 63, 64),
            (np.uint8, 255 - 1, 2),
            (np.int64, -2**63, 64),
            (np.int64, 2**63 - 64, 64),
            (np.uint64, 2**64 - 64, 64),
            (np.uint64, 2**64 - 1, 1),
        ],
    )
    def test_integer_type_ends_match_literal_loop(self, dtype, lo, distinct, monkeypatch):
        # The min is taken off after the cast to uint8 or intp: int8 - (-128)
        # would overflow, and uint64 with int64 offsets would promote to
        # float64.
        # A last row over the top half of the range has offsets that are not
        # its dense ranks.
        rng = np.random.default_rng(distinct)
        n = distinct + 4
        rows = [row_over_range(rng, n, distinct, lo) for _ in range(3)]
        rows.append(row_over_range(rng, n, distinct - distinct // 2, lo + distinct // 2))
        batch = np.array(rows, dtype=dtype)
        assert_ranked_by(batch, "offsets" if distinct <= 64 else "table")
        assert_kernels_match_literal_loops(batch, 0, monkeypatch)

    @pytest.mark.parametrize("p", [k / 10 for k in range(1, 10)])
    def test_default_grid_is_ranked_without_a_sort(self, p, monkeypatch):
        # A default-grid block (n = 1000, 100 trials); as floats the same
        # values are ranked by a sort.  At this seed the block spans 107
        # values at p = 0.1, so it is ranked by the value table, and 5 to 51
        # values at p = 0.2 to 0.9, so it is coded by its offsets.  The
        # exchange kernel sorts nothing, the inversion kernel only by its code
        # bits, and the textbook kernel once, on its code keys.
        batch = sample_block(geometric(p), 1000, mix64(3, 0), 0, 100)
        assert_ranked_by(batch, "table" if p == 0.1 else "offsets")
        ranks, top = _ranks(batch)
        for kernel in KERNELS:
            calls = argsort_dtypes(monkeypatch)
            counts = kernel(batch)
            monkeypatch.undo()
            assert len(calls) == argsorts_after_ranking(kernel, top), kernel.__name__
            assert all(dtype in (np.uint8, np.uint16) for dtype in calls), kernel.__name__
            if kernel is textbook_sort_batch:
                assert calls == [ranks.dtype]
            assert counts.tolist() == kernel(batch.astype(np.float64)).tolist(), kernel.__name__


class TestTextbookKernelValueBlocks:
    """The textbook kernel runs each row's passes one value block at a time.

    Rows are grouped by the rank of a value among their own distinct
    values, and a non-minimal element can be carried through a chain of
    block slots before it lands; these cases aim at both.
    """

    @pytest.mark.parametrize("length", range(8))
    def test_every_row_over_three_values(self, length):
        batch = np.array(list(itertools.product(range(3), repeat=length)), dtype=np.int64)
        assert_matches_literal_loop(textbook_sort_batch, batch)
        out, counts = textbook_sort_passes(batch)
        assert counts.tolist() == textbook_sort_batch(batch).tolist()
        assert np.array_equal(out, np.sort(batch, axis=1))

    def test_permutation_rows(self):
        # As many distinct values as slots: n steps of one element per row.
        perms = np.array(list(itertools.permutations(range(6))), dtype=np.int64)
        assert_matches_literal_loop(textbook_sort_batch, perms)
        rng = np.random.default_rng(6)
        perms = np.array([rng.permutation(300) for _ in range(8)])
        assert_matches_literal_loop(textbook_sort_batch, perms)

    def test_values_missing_from_some_rows(self):
        # The d-th smallest value differs from row to row, and some rows run
        # out of values long before others.
        rng = np.random.default_rng(11)
        rows = [
            rng.choice(values, size=60)
            for values in ([0, 5], [3], [9, 0, 4, 7], list(range(40)), [5, 7], [2, 40, 41])
        ]
        batch = np.array(rows + [rng.integers(0, 60, size=60) for _ in range(6)])
        assert_matches_literal_loop(textbook_sort_batch, batch)
        assert_matches_literal_loop(textbook_sort_batch, batch[::-1].copy())
        # A row's largest value is the next row's smallest, so their blocks
        # are adjacent in the flattened sorted rows.
        touching = np.array([[1, 0, 1], [2, 1, 1], [1, 1, 1], [3, 1, 2]])
        assert_matches_literal_loop(textbook_sort_batch, touching)

    @pytest.mark.parametrize("c", [1, 2, 3, 63, 64, 65, 255, 256, 257])
    def test_long_displacement_chains(self, c):
        # A large value ahead of c copies of the minimum is carried through
        # every slot of the block, a chain of length c (about log2(c)
        # doubling rounds); the other rows interleave chains of other lengths.
        rng = np.random.default_rng(c)
        batch = np.array(
            [
                [9] + [0] * c + [5, 1, 1],
                [9, 8] + [0] * c + [1, 3],
                ([3, 0] * c + [0] * 4)[: c + 4],
                list(rng.permutation([0] * c + [1, 2, 2, 7])),
            ]
        )
        assert_matches_literal_loop(textbook_sort_batch, batch)

    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_no_row_moves(self, trials):
        # Sorted rows: no element leaves its slot, and every row still gets
        # its own 0.
        rng = np.random.default_rng(trials)
        batch = np.sort(rng.integers(0, 4, size=(trials, 9)), axis=1)
        assert_matches_literal_loop(textbook_sort_batch, batch)
        assert textbook_sort_batch(batch).tolist() == [0] * trials

    def test_every_row_moves(self):
        # Each row's minimum comes last, so every row swaps at least once.
        rng = np.random.default_rng(5)
        batch = rng.integers(1, 5, size=(6, 11))
        batch[:, -1] = 0
        batch[0] = np.arange(11)[::-1]
        assert_matches_literal_loop(textbook_sort_batch, batch)
        assert (textbook_sort_batch(batch) > 0).all()

    def test_only_some_rows_move(self):
        # Rows that do not move, first, between and last, still count 0.
        rows = [[0, 1, 1, 2], [2, 0, 1, 1], [1, 1, 1, 1], [3, 2, 1, 0], [0, 0, 5, 5]]
        batch = np.array(rows)
        assert_matches_literal_loop(textbook_sort_batch, batch)
        assert textbook_sort_batch(batch).tolist() == [0, 3, 0, 2, 0]

    @pytest.mark.parametrize(
        "n", sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)})
    )
    def test_lengths_around_powers_of_two(self, n):
        rng = np.random.default_rng(n)
        for trials in range(1, 6):
            assert_matches_literal_loop(textbook_sort_batch, rng.integers(0, 7, size=(trials, n)))

    @pytest.mark.parametrize(
        "rows,dtype",
        [
            ([list(range(255, -1, -1)), list(range(0, 256, 2)) * 2], np.uint8),
            ([[2**64 - 1, 2**63, 3, 2**63 + 1, 0], [2**63, 1, 2**63, 0, 7]], np.uint64),
            ([[3, -2, 0, -2, 5, -7], [-1, -1, -3, 4, 2, -3]], np.int64),
            ([[-1, 2**63 - 1, 5, 2**63 - 2, 0, -1]], np.int64),
            ([[0.5, -1.25, 3.0, -1.25, 0.0, 0.5]], np.float64),
            ([[2**64 + 7, -1, 2**63, 2**64 + 7, 3], [2**65, 2**64 + 1, 2**64, 0, 2**64]], object),
        ],
    )
    def test_dtypes(self, rows, dtype):
        assert_matches_literal_loop(textbook_sort_batch, np.array(rows, dtype=dtype))

    @pytest.mark.parametrize("p", [round(0.1 * i, 1) for i in range(1, 10)] + [0.02, 0.001])
    def test_geometric_batches_match_pass_by_pass_oracle(self, p):
        # The default grid's shape: 100 trials of n = 1000.  Off the grid the
        # kernel runs hundreds of small steps: at p = 0.02 the batch spans
        # 580 values and is ranked by the value table (top 190), at p = 0.001
        # it spans 11707 and is ranked by a sort (top 823).
        batch = np.random.default_rng(int(p * 10)).geometric(p, size=(100, 1000)) - 1
        assert (int(batch.max() - batch.min()) >= 1000) == (p == 0.001)
        assert textbook_sort_batch(batch).tolist() == textbook_sort_passes(batch)[1].tolist()

    @pytest.mark.parametrize("p", [k / 10 for k in range(1, 10)])
    def test_one_step_per_code(self, p, monkeypatch):
        # The suite times nothing, so the step loop's cost is pinned by its
        # count: on a default-grid block it runs one step per code, top in
        # all, each finding the elements it displaces by one np.flatnonzero
        # over its own elements.
        batch = sample_block(geometric(p), 1000, mix64(3, 0), 0, 100)
        top = _ranks(batch)[1]
        steps = []
        flatnonzero = np.flatnonzero

        def spy(mask):
            steps.append(mask.size)
            return flatnonzero(mask)

        monkeypatch.setattr(np, "flatnonzero", spy)
        textbook_sort_batch(batch)
        assert len(steps) == top
        assert sum(steps) == batch.size

    @pytest.mark.parametrize("p", [0.001, 0.1, 0.5, 0.9])
    def test_peak_memory_per_value(self, p):
        # Measured 35, 26, 31 and 38 B/value at p = 0.001, 0.1, 0.5 and 0.9.
        batch = np.random.default_rng(7).geometric(p, size=(262, 1000)) - 1
        tracemalloc.start()
        try:
            textbook_sort_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * batch.size


class TestInversionKernelRankBits:
    """The inversion kernel counts by the bits of each value's code: its
    offset from the min when the batch spans at most min(n, 64) integers,
    else its dense rank.

    The largest code, the number D of distinct values in a row for dense
    ranks, sets how many bits the codes have and which integer type each
    level's sort keys take, so rows are chosen at the D where either changes.
    """

    @pytest.mark.parametrize(
        "distinct", sorted({1, 2} | {2**k + d for k in range(1, 9) for d in (0, 1)})
    )
    def test_rank_boundaries_match_brute_force(self, distinct):
        rng = np.random.default_rng(distinct)
        n = max(2 * distinct, 40)
        rows = [row_with_distinct_values(rng, n, distinct) for _ in range(3)]
        # One row holding fewer distinct values rides in the same batch.
        batch = np.array(rows + [row_with_distinct_values(rng, n, max(distinct // 2, 1))])
        want = [brute_force_inversions(row) for row in batch.tolist()]
        # Shifted past 2**31, the values still sort as the same narrow
        # offsets from their min.
        for shifted in (batch, batch + 50 + 2**31):
            assert count_inversions_batch(shifted).tolist() == want

    @pytest.mark.parametrize("distinct", [65535, 65536, 65537, 2**17, 2**18 + 1])
    @pytest.mark.parametrize("offset", [-50, 2**31])
    def test_wide_rank_boundaries_match_merge_oracle(self, distinct, offset):
        # Values three apart span more than 2**16, so their offsets from the
        # min, shifted or not, are uint32 keys, which numpy sorts by timsort
        # rather than by radix sort; above 2**17 distinct values, so are the
        # keys of some levels.
        rng = np.random.default_rng(distinct)
        row = row_with_distinct_values(rng, distinct + 3000, distinct) + 50 + offset
        batch = np.array([row, rng.permutation(row)])
        counts = count_inversions_batch(batch)
        assert counts.tolist() == merge_inversions_batch(batch)[1].tolist()

    @pytest.mark.parametrize(
        "name", ["permutation", "reversed", "geometric-0.001", "geometric-0.1", "geometric-0.9"]
    )
    def test_long_rows_match_merge_oracle(self, name):
        n = 10**5
        rng = np.random.default_rng(5)
        if name == "permutation":
            batch = rng.permutation(n)[np.newaxis]
        elif name == "reversed":
            batch = np.arange(n)[::-1][np.newaxis]
        else:
            batch = rng.geometric(float(name.split("-")[1]), size=(3, n)) - 1
        counts = count_inversions_batch(batch)
        assert counts.tolist() == merge_inversions_batch(batch)[1].tolist()
        if name == "reversed":
            assert counts.tolist() == [4_999_950_000]  # C(n, 2), past 2**32

    @pytest.mark.parametrize("distinct", [1, 2, 3, 256, 257, 65536, 65537, 2**17])
    def test_sorts_once_per_rank_bit_on_narrow_keys(self, distinct, monkeypatch):
        # numpy's stable argsort is a radix sort on 8- and 16-bit keys only;
        # wider keys would fall back to a timsort at every level.
        # Values are 3 apart.  Rows of up to 3 distinct values span at most 7,
        # so they are coded by their offsets from the min with no sort; wider
        # ones, spanning more than n, are ranked densely by one sort.  Then
        # one sort per code bit below the top one: B - 1 of B =
        # bit_length(top - 1), top being the width 3 * (D - 1) + 1 of the
        # offsets, else D.
        rng = np.random.default_rng(distinct)
        batch = row_with_distinct_values(rng, distinct + 100, distinct)[np.newaxis]
        sort_ranked = int(np.ptp(batch)) + 1 > batch.shape[1]
        assert sort_ranked == (distinct > 3)
        top = 3 * (distinct - 1) + 1 if distinct <= 3 else distinct
        assert _ranks(batch)[1] == top
        per_bit = {1: 0, 2: 1, 3: 2, 256: 7, 257: 8, 65536: 15, 65537: 16, 2**17: 16}[distinct]
        calls = argsort_dtypes(monkeypatch)
        counts = count_inversions_batch(batch)
        monkeypatch.undo()
        assert counts.tolist() == merge_inversions_batch(batch)[1].tolist()
        assert len(calls) == per_bit + sort_ranked
        assert all(dtype in (np.uint8, np.uint16) for dtype in calls[sort_ranked:])


    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_peak_memory_per_value(self, p):
        # Measured 13 B/value at both p: one sort order is held at a time.
        batch = np.random.default_rng(7).geometric(p, size=(262, 1000)) - 1
        tracemalloc.start()
        try:
            count_inversions_batch(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * batch.size


class TestSwapInversionIdentity:
    """Exchange swaps never exceed inversions; they are equal on distinct inputs.

    A swap at (i, j) happens when a[i], the running minimum of a[i..j-1],
    exceeds a[j].  It repairs the pair (i, j) and the pairs (k, j) for every
    k in (i, j) with a[k] equal to a[i], so it removes 1 + #{k in (i, j) :
    a[k] = a[i]} inversions.
    """

    @pytest.mark.parametrize("n", range(8))
    def test_equal_on_every_permutation(self, n):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        swaps = exchange_sort_batch(perms)
        assert swaps.tolist() == [brute_force_inversions(p) for p in perms.tolist()]

    def test_equal_on_long_reversed_rows(self):
        # 300 distinct values take five 64-rank words per row.
        n = 300
        batch = np.array([np.arange(n)[::-1], np.arange(n)[::-1] * 7 - 1000])
        for kernel in (exchange_sort_batch, count_inversions_batch):
            assert kernel(batch).tolist() == [n * (n - 1) // 2] * 2, kernel.__name__

    @given(tied_lists)
    def test_swaps_plus_tie_repairs_equal_inversions(self, items):
        a = list(items)
        swaps = repaired = 0
        for i in range(len(a) - 1):
            for j in range(i + 1, len(a)):
                if a[i] > a[j]:
                    repaired += 1 + sum(1 for k in range(i + 1, j) if a[k] == a[i])
                    a[i], a[j] = a[j], a[i]
                    swaps += 1
        inversions = brute_force_inversions(items)
        assert repaired == inversions
        assert swaps == exchange_selection_sort(items)[1].interchanges <= inversions

    @given(st.lists(st.integers(min_value=-3, max_value=4) | st.sampled_from([0.5, -2.5]), max_size=40))
    def test_swaps_are_first_occurrence_inversions(self, items):
        # swaps = sum over k of #{distinct values in a[:k] greater than a[k]}:
        # each distinct value in a[:k] has one first occurrence before k.
        distinct_greater = sum(len({v for v in items[:k] if v > x}) for k, x in enumerate(items))
        first_occurrence_pairs = sum(
            1
            for i, x in enumerate(items)
            if x not in items[:i]
            for y in items[i + 1 :]
            if x > y
        )
        assert distinct_greater == first_occurrence_pairs == exchange_sort_list(items)[1]
        assert exchange_sort_batch(np.array([items], dtype=float)).tolist() == [distinct_greater]

    def test_fewer_swaps_than_inversions_on_tied_arrays(self):
        rng = np.random.default_rng(99)
        batch = rng.geometric(0.3, size=(50, 200)) - 1
        swaps = exchange_sort_batch(batch)
        inversions = count_inversions_batch(batch)
        assert np.all(swaps <= inversions)
        assert swaps.sum() < inversions.sum()


NAN = float("nan")
ONE_ROW_COUNTERS = {
    exchange_selection_sort: lambda seq: exchange_selection_sort(seq)[1].interchanges,
    textbook_selection_sort: lambda seq: textbook_selection_sort(seq)[1].interchanges,
    count_inversions: count_inversions,
}


class TestUnorderedValues:
    """A value not equal to itself (NaN) or a complex value has no place in
    an order: the literal loops give counts no ranking reproduces (1 swap
    and 1 inversion on [nan, 1.0, 0.0]) or raise at their first >.  Every
    kernel refuses such input before any comparison; rows shorter than 2
    compare nothing and still count 0.
    """

    @pytest.mark.parametrize("counter", ONE_ROW_COUNTERS)
    @pytest.mark.parametrize(
        "seq",
        [
            [NAN, 1.0, 0.0],
            [2, 0, NAN, 1],
            np.array([NAN, 1.0, 0.0]),
            np.array([1.0, 0.5, NAN], dtype=np.float32),
            np.array([2, NAN, 0], dtype=object),
        ],
        ids=["list", "int-list", "ndarray", "float32", "object-array"],
    )
    def test_nan_is_refused(self, counter, seq):
        with pytest.raises(ValueError, match="nan is not equal to itself"):
            counter(seq)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_nan_in_a_batch_is_refused(self, kernel):
        batch = np.zeros((3, 4))
        batch[2, 1] = NAN
        for rows in (batch, batch.astype(object)):
            with pytest.raises(ValueError, match="nan is not equal to itself"):
                kernel(rows)

    @pytest.mark.parametrize("counter", ONE_ROW_COUNTERS)
    def test_complex_is_refused(self, counter):
        for seq in ([1j, 2, 0], np.array([2, 1j, 0]), np.array([3, 1], dtype=np.complex64)):
            with pytest.raises(TypeError, match="complex"):
                counter(seq)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("dtype", ["datetime64[D]", "timedelta64[s]"])
    def test_nat_is_refused_by_name(self, kernel, dtype):
        batch = np.array([[1, 0, 2], [2, 0, 1]]).astype(dtype)
        assert kernel(batch).tolist() == literal_counts(batch.astype(np.int64))[kernel]
        batch[1, 2] = np.datetime64("NaT") if dtype.startswith("datetime") else np.timedelta64("NaT")
        with pytest.raises(ValueError, match="^NaT is not equal to itself"):
            kernel(batch)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_complex_batch_is_refused(self, kernel):
        with pytest.raises(TypeError, match="complex"):
            kernel(np.array([[1, 2, 0], [2, 1j, 0]]))

    def test_short_rows_compare_nothing(self):
        for seq in ([NAN], np.array([NAN]), np.array([1j]), np.array([NAN], dtype=object)):
            for counter in ONE_ROW_COUNTERS.values():
                assert counter(seq) == 0
        for kernel in KERNELS:
            assert kernel(np.array([[NAN], [1.0]])).tolist() == [0, 0]
            assert kernel(np.array([[1j], [2]])).tolist() == [0, 0]

    @given(st.lists(st.sampled_from([NAN, 0, 1, 2, 3]), min_size=2, max_size=7))
    def test_lists_are_refused_or_match_literal_loop(self, items):
        oracles = {
            exchange_selection_sort: lambda seq: exchange_sort_list(seq)[1],
            textbook_selection_sort: lambda seq: textbook_sort_list(seq)[1],
            count_inversions: brute_force_inversions,
        }
        for counter, count in ONE_ROW_COUNTERS.items():
            if NAN in items:
                with pytest.raises(ValueError, match="nan"):
                    count(items)
            else:
                assert count(items) == oracles[counter](items)
