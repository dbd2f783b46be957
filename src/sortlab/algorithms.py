"""Instrumented sorting algorithms and an inversion-count oracle.

Two selection-sort variants are provided, with exact operation tallies:

* :func:`exchange_selection_sort` — the swap-eager double loop that
  swaps a[i], a[j] whenever a[i] > a[j].  Always performs n(n-1)/2
  comparisons; the interchange count is the measured quantity in the
  Monte Carlo experiments.
* :func:`textbook_selection_sort` — find the minimum of the unsorted
  suffix, one swap per pass (at most n-1 interchanges).

Each counter has one ndarray kernel that runs a whole (trials, n) batch,
one trial per row, in a single sweep: :func:`exchange_sort_batch`,
:func:`textbook_sort_batch` and :func:`count_inversions_batch`.  Each
exchange pass takes the running minimum of the unsorted suffix by a
log-depth (Hillis-Steele) scan of whole-array ``np.minimum`` calls that
alternate between two scratch buffers, on the smallest integer dtype that
holds the batch exactly (uint8 for geometric draws).  The per-array
functions send a 1-d ndarray through the kernel as a one-row batch.  List
input to the two sorts runs their literal loops, which the tests use as
the reference; :func:`count_inversions` converts any input to an ndarray.

Neither variant is stable.  All operations are pure: the input sequence
is never mutated, and calls are safe from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "OpCounters",
    "count_inversions",
    "count_inversions_batch",
    "exchange_selection_sort",
    "exchange_sort_batch",
    "textbook_selection_sort",
    "textbook_sort_batch",
]


@dataclass(frozen=True)
class OpCounters:
    """Exact comparison and interchange tallies for one sort execution."""

    comparisons: int
    interchanges: int

    def __post_init__(self):
        if self.comparisons < 0 or self.interchanges < 0:
            raise ValueError("counts must be nonnegative")
        if self.interchanges > self.comparisons:
            raise ValueError(
                f"interchanges ({self.interchanges}) cannot exceed comparisons ({self.comparisons})"
            )


def _exchange_sort_list(seq) -> tuple[list, int]:
    # Literal double loop: i < j, swap on strict a[i] > a[j].
    a = list(seq)
    n = len(a)
    swaps = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if a[i] > a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, swaps


def _check_batch(batch: np.ndarray) -> None:
    if batch.ndim != 2:
        raise ValueError(f"expected a 2-d (trials, n) batch, got shape {batch.shape}")


def _one_trial(kernel, arr: np.ndarray) -> tuple[np.ndarray, int]:
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    out, counts = kernel(arr[np.newaxis])
    return out[0], int(counts[0])


def _narrow_dtype(batch: np.ndarray) -> np.dtype:
    # The smallest integer type numpy picks for the batch min and max: uint8
    # for geometric draws, so each SIMD min/max covers 8x the int64 lanes.
    # Kept only when it is an integer type no wider than the input, so the
    # cast is exact (negatives mixed with values >= 2**63 promote to float64).
    if batch.dtype.kind not in "iu" or batch.size == 0:
        return batch.dtype
    narrow = np.result_type(np.min_scalar_type(batch.min()), np.min_scalar_type(batch.max()))
    if narrow.kind in "iu" and narrow.itemsize <= batch.dtype.itemsize:
        return narrow
    return batch.dtype


def exchange_sort_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the swap-eager double loop on every row of a (trials, n) batch.

    Returns the sorted rows and each row's interchange count (int64), in
    row order; the input is left untouched.
    """
    _check_batch(batch)
    trials, n = batch.shape
    # (n, trials) layout: every step of a pass is one whole-array ufunc call
    # over the suffix rows i.., with the trials contiguous.
    a = np.array(batch.T, dtype=_narrow_dtype(batch), order="C")
    # The scan alternates between two buffers (by step parity): a step written
    # in place would make numpy copy its overlapping input to a temporary first.
    scratch = np.empty((2,) + a.shape, dtype=a.dtype)
    swaps = np.zeros(trials, dtype=np.int64)
    for i in range(n - 1):
        # Pass i swaps exactly where the running minimum of a[i:] strictly
        # drops, and the swapped slot receives the previous running minimum;
        # slots that do not swap already hold at least that value.
        s = a[i:]
        m = n - i
        # Running minimum r by a Hillis-Steele scan: after the step with
        # shift k, r[j] = min(s[max(0, j - 2k + 1) .. j]), so ceil(log2 m)
        # contiguous np.minimum calls replace one strided scalar loop per column.
        r, k = s, 1
        while k < m:
            out = scratch[k.bit_length() % 2, :m]
            np.minimum(r[k:], r[:-k], out=out[k:])
            out[:k] = r[:k]
            r, k = out, 2 * k
        swaps += (r[1:] != r[:-1]).sum(axis=0, dtype=np.int32)  # < n per pass
        np.maximum(s[1:], r[:-1], out=s[1:])
        s[0] = r[-1]
    return a.T.astype(batch.dtype, copy=False), swaps


def exchange_selection_sort(seq: Sequence | np.ndarray) -> tuple[list | np.ndarray, OpCounters]:
    """Sort by the swap-eager double loop, counting every operation.

    Returns a sorted copy plus counters.  Comparisons are always
    n(n-1)/2; ties are never swapped (strict > test).  ndarray input
    comes back as an ndarray, anything else as a list.
    """
    if isinstance(seq, np.ndarray):
        out, swaps = _one_trial(exchange_sort_batch, seq)
    else:
        out, swaps = _exchange_sort_list(seq)
    n = len(out)
    return out, OpCounters(comparisons=n * (n - 1) // 2, interchanges=swaps)


def _textbook_sort_list(seq) -> tuple[list, int]:
    a = list(seq)
    n = len(a)
    swaps = 0
    for i in range(n - 1):
        m = i
        for j in range(i + 1, n):
            if a[j] < a[m]:
                m = j
        if m != i:
            a[i], a[m] = a[m], a[i]
            swaps += 1
    return a, swaps


def textbook_sort_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run minimum-of-suffix selection on every row of a (trials, n) batch.

    Returns the sorted rows and each row's interchange count (int64), in
    row order; the input is left untouched.
    """
    _check_batch(batch)
    trials, n = batch.shape
    a = batch.copy()
    rows = np.arange(trials)
    swaps = np.zeros(trials, dtype=np.int64)
    for i in range(n - 1):
        m = i + np.argmin(a[:, i:], axis=1)  # argmin takes the first minimum, like the loop
        swaps += m != i
        low = a[rows, m]
        a[rows, m] = a[:, i]
        a[:, i] = low
    return a, swaps


def textbook_selection_sort(seq: Sequence | np.ndarray) -> tuple[list | np.ndarray, OpCounters]:
    """Sort by minimum-of-suffix selection, one swap per pass at most.

    Comparisons are always n(n-1)/2; the swap is skipped when the
    minimum is already in place, so interchanges <= n-1.
    """
    if isinstance(seq, np.ndarray):
        out, swaps = _one_trial(textbook_sort_batch, seq)
    else:
        out, swaps = _textbook_sort_list(seq)
    n = len(out)
    return out, OpCounters(comparisons=n * (n - 1) // 2, interchanges=swaps)


def count_inversions_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count the inversions of every row of a (trials, n) batch.

    A bottom-up merge sort over all rows at once, whose cost does not
    depend on how many distinct values the rows hold.  Returns the sorted
    rows and each row's inversion count (int64), in row order; the input
    is left untouched.
    """
    _check_batch(batch)
    trials, n = batch.shape
    counts = np.zeros(trials, dtype=np.int64)
    if n < 2:
        return batch.copy(), counts
    size = 1 << (n - 1).bit_length()
    # Trailing copies of the batch maximum add no inversions (ties count 0).
    a = np.pad(batch, ((0, 0), (0, size - n)), constant_values=batch.max())
    width = 1
    while width < size:
        blocks = a.reshape(trials, size // (2 * width), 2 * width)
        order = np.argsort(blocks, axis=2, kind="stable")
        # Both halves (w = width values each) of a block are sorted.  The
        # stable sort puts the right-half element of rank j at position
        # q = j + #(left <= it), so it is inverted with w - (q - j) left
        # elements.  Summed over a block: w^2 + w(w-1)/2 - sum(q).
        right_q = ((order >= width) * np.arange(2 * width)).sum(axis=(1, 2))
        counts += blocks.shape[1] * (width * width + width * (width - 1) // 2) - right_q
        a = np.take_along_axis(blocks, order, axis=2).reshape(trials, size)
        width *= 2
    return a[:, :n], counts


def count_inversions(seq: Sequence | np.ndarray) -> int:
    """Number of ordered pairs i < j with a[i] > a[j]; ties contribute 0.

    Merge-sort based, O(n log n): the sequence runs through
    :func:`count_inversions_batch` as a one-row batch.  The input is left
    untouched.
    """
    return _one_trial(count_inversions_batch, np.asarray(seq))[1]
