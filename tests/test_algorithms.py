"""Instrumented sorts: correctness, exact counter semantics, batch-kernel parity."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sortlab.algorithms import (
    OpCounters,
    _exchange_sort_list,
    _narrow_dtype,
    _textbook_sort_list,
    count_inversions,
    count_inversions_batch,
    exchange_selection_sort,
    exchange_sort_batch,
    textbook_selection_sort,
    textbook_sort_batch,
)

# Small nonnegative ints force ties, the regime that separates the two sorts.
tied_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40)

# (trials, n) batches of the same tied values, one trial per row.  n up to 70
# takes the exchange kernel's log-depth scan across several powers of two.
tied_batches = arrays(
    np.int64,
    st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=70)),
    elements=st.integers(min_value=0, max_value=6),
)


def one_row(items) -> np.ndarray:
    return np.array(items, dtype=np.int64).reshape(1, -1)


def brute_force_inversions(seq) -> int:
    items = list(seq)
    return sum(
        1
        for i in range(len(items))
        for j in range(i + 1, len(items))
        if items[i] > items[j]
    )


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
        _, swaps_list = _exchange_sort_list(items)
        _, (swaps_arr,) = exchange_sort_batch(one_row(items))
        assert swaps_arr == swaps_list

    def test_fast_path_parity_on_seeded_batch(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            n = int(rng.integers(0, 80))
            arr = rng.integers(0, 8, size=n)
            _, swaps_list = _exchange_sort_list(arr.tolist())
            _, (swaps_arr,) = exchange_sort_batch(one_row(arr))
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
        _, swaps_list = _textbook_sort_list(items)
        _, (swaps_arr,) = textbook_sort_batch(one_row(items))
        assert swaps_arr == swaps_list

    @given(tied_lists)
    def test_never_swaps_more_than_exchange_on_reversed_runs(self, items):
        # Both sort; the textbook variant is the low-swap one by design.
        _, ex = exchange_selection_sort(items)
        _, tb = textbook_selection_sort(items)
        assert tb.interchanges <= max(len(items) - 1, 0)
        assert ex.comparisons == tb.comparisons


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
        exchange_sort_batch: [_exchange_sort_list(row)[1] for row in rows],
        textbook_sort_batch: [_textbook_sort_list(row)[1] for row in rows],
        count_inversions_batch: [brute_force_inversions(row) for row in rows],
    }


KERNELS = (exchange_sort_batch, textbook_sort_batch, count_inversions_batch)


class TestBatchKernels:
    @given(tied_batches)
    @settings(max_examples=150)
    def test_each_row_matches_literal_loop(self, batch):
        original = batch.copy()
        for kernel, want in literal_counts(batch).items():
            out, counts = kernel(batch)
            assert counts.dtype == np.int64
            assert counts.tolist() == want, kernel.__name__
            assert out.dtype == batch.dtype
            assert np.array_equal(out, np.sort(batch, axis=1)), kernel.__name__
        assert np.array_equal(batch, original)

    def test_float_batch(self):
        rng = np.random.default_rng(17)
        batch = rng.choice([-1.5, 0.25, 0.25, 2.0, 3.75], size=(5, 33))
        for kernel, want in literal_counts(batch).items():
            out, counts = kernel(batch)
            assert counts.tolist() == want, kernel.__name__
            assert np.array_equal(out, np.sort(batch, axis=1)), kernel.__name__

    def test_single_element_and_all_equal_rows(self):
        for kernel in KERNELS:
            out, counts = kernel(np.array([[7], [3]]))
            assert out.tolist() == [[7], [3]]
            assert counts.tolist() == [0, 0]
            out, counts = kernel(np.full((3, 25), 4))
            assert out.tolist() == np.full((3, 25), 4).tolist()
            assert counts.tolist() == [0, 0, 0]

    def test_values_beyond_int32_are_not_narrowed(self):
        # Wrapped to int32, 2**32 + 1 would read 1 and 2**31 a negative value.
        big = 2**31
        batch = np.array([[2**32 + 1, 2, big, big - 1, 5, 2**40], [big, 0, big + 3, 1, big, 9]])
        for kernel, want in literal_counts(batch).items():
            out, counts = kernel(batch)
            assert counts.tolist() == want, kernel.__name__
            assert out.dtype == np.int64
            assert out.tolist() == np.sort(batch, axis=1).tolist(), kernel.__name__

    def test_negative_values(self):
        batch = np.array([[3, -2, 0, -2, 5, -7], [-1, -1, -3, 4, 2, -3]])
        for kernel, want in literal_counts(batch).items():
            assert kernel(batch)[1].tolist() == want, kernel.__name__

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


def assert_exchange_matches_literal_loop(batch: np.ndarray) -> None:
    out, counts = exchange_sort_batch(batch)
    literal = [_exchange_sort_list(row) for row in batch.tolist()]
    assert counts.tolist() == [swaps for _, swaps in literal]
    assert out.tolist() == [row for row, _ in literal]
    assert out.dtype == batch.dtype


class TestExchangeKernelScanAndNarrowing:
    """The running-minimum scan and the dtype the exchange kernel runs on."""

    @pytest.mark.parametrize(
        "n", sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)})
    )
    def test_scan_boundaries_match_literal_loop(self, n):
        # A suffix of length m takes ceil(log2 m) scan steps; m = 2**k +- 1
        # are the lengths where the step count changes.
        rng = np.random.default_rng(n)
        for trials in range(1, 6):
            assert_exchange_matches_literal_loop(rng.integers(0, 7, size=(trials, n)))

    @pytest.mark.parametrize(
        "rows,dtype,narrow",
        [
            ([list(range(255, -1, -1)), list(range(0, 256, 2)) * 2], np.int64, np.uint8),
            ([list(range(256, -1, -1)), list(range(0, 257))], np.int64, np.uint16),
            ([list(range(255, -1, -1))], np.uint8, np.uint8),
            ([[-3, -1, -128, -1, -7], [-1, -2, -3, -128, -128]], np.int64, np.int8),
            # A nonnegative max reads as unsigned, so a sign takes int16.
            ([[3, -1, 0, 127, -1, 5], [7, 6, 5, -1, -1, 0]], np.int64, np.int16),
            ([[3, -128, 0, 255, -1, 5], [-128, 6, -128, 1, 0, 0]], np.int32, np.int16),
            ([[3, -129, 0, 127, -1, 5], [-129, 6, -128, 255, 0, 0]], np.int64, np.int16),
            # As float64 (what -1 and 2**63 - 1 promote to), 2**63 - 1 and
            # 2**63 - 2 would merge and the row give 3 swaps instead of 5.
            ([[-1, 2**63 - 1, 5, 2**63 - 2, 0]], np.int64, np.int64),
            # int64 would hold these too, but it is wider than the input.
            ([[-1, 2**31 - 1, 5, 2**31 - 2, 0]], np.int32, np.int32),
            ([[2**64 - 1, 2**63, 3, 2**63 + 1, 0], [2**63, 1, 2**63, 0, 7]], np.uint64, np.uint64),
            ([[2**63 - 1, 4, 2**62, 0, 9]], np.int64, np.uint64),
            ([[0.5, -1.25, 3.0, -1.25, 0.0]], np.float64, np.float64),
        ],
    )
    def test_narrowing_is_exact(self, rows, dtype, narrow):
        batch = np.array(rows, dtype=dtype)
        assert _narrow_dtype(batch) == narrow
        assert_exchange_matches_literal_loop(batch)


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
        swaps = exchange_sort_batch(perms)[1]
        assert swaps.tolist() == [brute_force_inversions(p) for p in perms.tolist()]

    def test_equal_on_long_reversed_rows(self):
        # Pass 0 alone swaps n - 1 times, more than a narrow per-pass tally holds.
        n = 300
        batch = np.array([np.arange(n)[::-1], np.arange(n)[::-1] * 7 - 1000])
        for kernel in (exchange_sort_batch, count_inversions_batch):
            assert kernel(batch)[1].tolist() == [n * (n - 1) // 2] * 2, kernel.__name__

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

    def test_fewer_swaps_than_inversions_on_tied_arrays(self):
        rng = np.random.default_rng(99)
        batch = rng.geometric(0.3, size=(50, 200)) - 1
        swaps = exchange_sort_batch(batch)[1]
        inversions = count_inversions_batch(batch)[1]
        assert np.all(swaps <= inversions)
        assert swaps.sum() < inversions.sum()
