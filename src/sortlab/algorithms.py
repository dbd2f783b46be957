"""Instrumented selection sorts and an inversion counter.

:func:`exchange_selection_sort` is the swap-eager double loop, whose
interchange count the Monte Carlo experiments measure;
:func:`textbook_selection_sort` is minimum-of-suffix selection; and
:func:`count_inversions` counts the pairs i < j with a[i] > a[j].  Each
counts through one ndarray kernel for a (trials, n) batch, one trial per
row (:func:`exchange_sort_batch`, :func:`textbook_sort_batch`,
:func:`count_inversions_batch`), which returns only the count vector and
counts by an identity its docstring proves rather than by running the
loop.  All three first code each row in one shared step, ``_ranks``, by
integer codes that keep the order of its values, ties included.  A value
with no place in an order is refused there, before any comparison: a
complex array raises TypeError, and a value not equal to itself (NaN,
NaT) raises ValueError.  The inversion counter then sorts each row's
codes, and each row by the codes' higher bits, one sort per bit of the
largest code.  Rows shorter than 2 make no comparison and count 0.

A 1-d ndarray goes through as a one-row batch; any other input is
converted by ``np.asarray`` first (to an object array where numpy would
change a value), and a list comes back as a list.  The sorts' sorted copy
is numpy's stable sort of that array.  The literal loops live in the
tests, as the oracles the kernels must match count for count.

Neither sort is stable.  All operations are pure: the input sequence is
never mutated, and calls are safe from concurrent workers.
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


def _batch_shape(batch: np.ndarray) -> tuple[int, int]:
    if batch.ndim != 2:
        raise ValueError(f"expected a 2-d (trials, n) batch, got shape {batch.shape}")
    return batch.shape


def _one_trial(kernel, seq: Sequence | np.ndarray) -> tuple[np.ndarray, int]:
    # The 1-d array the kernel counts, and its count.
    arr = np.asarray(seq)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    # numpy rounds a mix of ints past int64 to float64, and turns numbers
    # next to a string into strings; such input is compared as objects.
    if not isinstance(seq, np.ndarray) and arr.tolist() != list(seq):
        arr = np.array(seq, dtype=object)
    return arr, int(kernel(arr[np.newaxis])[0])


def _sort_one(kernel, seq: Sequence | np.ndarray) -> tuple[list | np.ndarray, OpCounters]:
    # An ndarray comes back as an ndarray, anything else as a list.
    arr, swaps = _one_trial(kernel, seq)
    out = np.sort(arr, kind="stable")
    n = len(out)
    counters = OpCounters(comparisons=n * (n - 1) // 2, interchanges=swaps)
    return (out if isinstance(seq, np.ndarray) else out.tolist()), counters


def _sort_order(keys: np.ndarray) -> np.ndarray:
    # Flat indices of each row's stable sort order (quicker to apply than a
    # take_along_axis index); "stable" is a radix sort on 8- and 16-bit keys.
    order = np.argsort(keys, axis=1, kind="stable")
    order += np.arange(0, keys.size, keys.shape[1])[:, np.newaxis]
    return order


def _ranks(batch: np.ndarray) -> tuple[np.ndarray, int]:
    # Codes 1, 2, ... that keep the order of each row's values, in the
    # narrowest unsigned type, and the largest code.  No kernel needs more:
    # ties share a code and a gap between codes stands for no value.  An
    # integer batch whose value range is at most min(n, 64) wide is coded by
    # each value's offset from the min, plus 1, as uint8, with no table and no
    # sort; the bound keeps the codes within one 64-bit word and 6 bits, and
    # the textbook kernel's (trials, top) count table no larger than the batch.
    # Any other batch gets each value's dense rank in its row (1, 2, ... over
    # the row's distinct values): an integer batch whose values lie at most n
    # apart from a table of each row's value counts, no larger than the batch,
    # with no sort; any other batch by one stable sort of each row.  Values
    # with no place in an order are refused before any comparison; integers,
    # which always have one, are not scanned for them.
    trials, n = batch.shape
    keys = batch
    if batch.dtype.kind in "iu":
        lo, hi = batch.min(), batch.max()
        width = int(hi) - int(lo) + 1
        # Each branch works on offsets from the min, taken after a cast to a
        # type that spans every offset: uint8 for the codes, intp for the
        # table's index, else the narrowest unsigned type as the sort keys.
        # The cast wraps each value and the min alike modulo 2**bits, so the
        # differences come out exact.
        if width <= min(n, 64):
            lo = np.uint8((int(lo) - 1) % 256)
            return np.subtract(batch, lo, dtype=np.uint8, casting="unsafe"), width
        if width <= n:
            lo = np.asarray(lo).astype(np.intp)
            row_offsets = np.arange(0, trials * width, width) - lo
            index = np.add(batch, row_offsets[:, np.newaxis], dtype=np.intp, casting="unsafe")
            seen = np.bincount(index.ravel(), minlength=trials * width) > 0
            table = np.cumsum(seen.reshape(trials, width), axis=1, dtype=np.min_scalar_type(width))
            top = int(table[:, -1].max())
            return table.astype(np.min_scalar_type(top)).ravel().take(index), top
        keys = np.subtract(batch, lo, dtype=np.min_scalar_type(width - 1), casting="unsafe")
    elif batch.dtype.kind == "c":
        raise TypeError(f"complex values have no order, got a {batch.dtype} array")
    elif (unordered := batch != batch).any():
        # tolist() gives None for NaT, the one unordered time value.
        value = "NaT" if batch.dtype.kind in "mM" else repr(batch[unordered].tolist()[0])
        raise ValueError(f"{value} is not equal to itself, so it has no place in an order")
    flat = _sort_order(keys)
    keys = keys.ravel()[flat]
    # new[t, i]: slot i of sorted row t holds a value that slot i - 1 does not.
    new = np.ones(batch.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:])
    del keys
    sorted_ranks = np.cumsum(new, axis=1, dtype=np.min_scalar_type(n))
    del new
    top = int(sorted_ranks[:, -1].max())
    ranks = np.empty(batch.shape, dtype=np.min_scalar_type(top))
    ranks.ravel()[flat] = sorted_ranks
    return ranks, top


def exchange_sort_batch(batch: np.ndarray) -> np.ndarray:
    """Count, for every row of a (trials, n) batch, the interchanges of the
    swap-eager double loop (``for i < j: if a[i] > a[j]: swap``).

    Returns each row's interchange count (int64), in row order; the input
    is left untouched.  The literal loop is the test oracle.

    The count comes from an identity rather than from running the loop:
    the loop swaps exactly once for each pair i < j with a[i] > a[j] in
    which a[i] is the first occurrence of its value in the input, that is

        swaps = sum over k of #{distinct values in a[:k] greater than a[k]}.

    Proof sketch.  Pass i leaves a[i] holding the running minimum of the
    suffix a[i:]; it swaps where that minimum strictly drops, rotating the
    values at those record positions by one.  For a threshold t let
    B_t = [a < t].  The records with value < t are the last ones, from the
    first 1 of B_t in the suffix on, so in B_t the pass only moves that
    first 1 to position i.  Each B_t thus evolves on its own: at pass i its
    first 1 in the suffix is at q_t, the (i+1)-th position of the input
    with a < t.  The records of pass i are the distinct q_t (t = +inf gives
    position i), and q_t does not increase with t, so pass i swaps once for
    each distinct value w where q_w exists and differs from q_t at the next
    larger threshold t (the next distinct value, or +inf).  It differs
    exactly when f_w, the first position of value w, is among the first
    i+1 positions with a <= w, i.e. for #{k < f_w : a[k] < w} <= i <
    #{k : a[k] < w}.  Summed over the passes, value w gives
    #{k > f_w : a[k] < w} swaps.

    The count needs only a code that keeps the order of a row's values, ties
    included, not a dense rank: ``_ranks``, the step all three kernels
    share, gives each value such a code, 1 to top.  Then, up to 64 codes per
    machine word, an or-scan along the row gives the set seen of codes met
    up to position k, and the k-th term is popcount(seen >> code(a[k])).  A
    window of codes takes the narrowest unsigned word that holds it (uint8
    for up to 8 codes), and only batches whose top is above 64, which are
    densely ranked, need the codes clipped to their window.  Cost per row:
    O(n) for the codes (one sort for a batch that is not narrow integers)
    plus O(n * ceil(top/64)) word operations; top is at most 64 on the
    offset codes, else the largest number of distinct values in a row.
    """
    trials, n = _batch_shape(batch)
    swaps = np.zeros(trials, dtype=np.int64)
    if n < 2 or trials == 0:
        return swaps
    ranks, top = _ranks(batch)
    for base in range(0, top, 64):
        # Bit b of the word stands for code base + b + 1, so a[k] sets bit
        # shift[k] - 1 and seen >> shift[k] keeps the codes above its own.
        # Codes below the window clip to shift 0 (no bit; every code in the
        # window is above) and codes above it to bits + 1, where both shifts
        # pass the word and give 0, as does shift - 1 wrapped from 0.
        word = np.min_scalar_type((1 << min(top - base, 64)) - 1).type
        if top <= 64:
            shift = ranks
        else:
            bits = np.iinfo(word).bits
            shift = np.clip(ranks, base, min(base + bits + 1, top))
            shift -= base
            shift = shift.astype(np.uint8, copy=False)  # no wider than the word
        # seen[k] holds the codes of a[:k+1] in the window.
        seen = np.left_shift(word(1), shift - np.uint8(1))
        np.bitwise_or.accumulate(seen, axis=1, out=seen)
        np.right_shift(seen, shift, out=seen)
        swaps += np.bitwise_count(seen).sum(axis=1, dtype=np.int64)
    return swaps


def exchange_selection_sort(seq: Sequence | np.ndarray) -> tuple[list | np.ndarray, OpCounters]:
    """Sort by the swap-eager double loop, counting every operation.

    Returns a sorted copy plus counters.  Comparisons are always
    n(n-1)/2; ties are never swapped (strict > test).  ndarray input
    comes back as an ndarray, anything else as a list.
    """
    return _sort_one(exchange_sort_batch, seq)


def textbook_sort_batch(batch: np.ndarray) -> np.ndarray:
    """Run minimum-of-suffix selection on every row of a (trials, n) batch.

    Returns each row's interchange count (int64), in row order; the input
    is left untouched.  The literal loop
    (``for i: m = first minimum of a[i:]; swap a[i], a[m] if m != i``) is
    the test oracle.

    The passes are run one value block at a time, not one by one.  For a
    value v of a row let s = #{values < v} and c = #{values = v}.  Passes
    s, ..., s+c-1 are v's passes: before pass s the slots below s hold the
    values below v, and v is the minimum of the suffix until its c copies
    are placed.

    Proof sketch.  Let p_1 < ... < p_c be the positions of v when pass s
    begins; p_1 >= s, so p_{k+1} >= s+k.  By induction on k, pass s+k finds
    its first minimum at p_{k+1}: the earlier passes of the block moved v's
    only into slots below s+k and wrote other values only into p_1..p_k.
    So the block is c transpositions (s+k, p_{k+1}) known when it begins,
    and it swaps c - L times, L being the number of k with p_{k+1} = s+k
    (the run of v's that starts at slot s).  An element other than v at
    slot s+k goes to p_{k+1}; when that is itself a slot of the block,
    s+j with j > k, pass s+j carries it on to p_{j+1}, and so on until it
    lands at or beyond slot s+c, where it stays.  Nothing else moves.

    ``_ranks``, the step all three kernels share, gives each value a code,
    1 to top, that keeps its row's order.  The blocks of every row's values
    with code d form step d, so there are top steps, and a code missing
    from a row gives that row an empty block.  The count of each (row,
    code) gives the blocks' slots, and one stable sort of the codes their
    elements.  Each step sorts the current positions of its elements,
    follows the chains above by pointer doubling (one round per doubling
    of the longest chain) and moves the displaced elements.  Positions are
    int32 while N < 2**31, and the steps gather through them with
    ``ndarray.take``, which converts such an index to intp in one piece,
    where fancy indexing does it chunk by chunk at about twice the time.
    Cost: the ranking and the sort of the codes plus O(N log N) element
    work over the top steps, N = trials * n.  Each step is also a fixed run
    of numpy calls, so on rows of hundreds of codes (p = 0.01) it is these
    top Python-level steps, not the element work, that set the cost below n
    of about 32k.
    """
    trials, n = _batch_shape(batch)
    if n < 2 or trials == 0:
        return np.zeros(trials, dtype=np.int64)
    size = trials * n
    index = np.int32 if size < 2**31 else np.int64
    ranks, top = _ranks(batch)
    # counts[t, r - 1]: how many values of row t have code r.
    cells = np.add(ranks, np.arange(-1, trials * top - 1, top)[:, np.newaxis], dtype=np.intp)
    counts = np.bincount(cells.ravel(), minlength=trials * top).reshape(trials, top).astype(index)
    del cells
    # Positions are flat (row * n + column).  Element j is the j-th in
    # (code, row, column) order; where[j]: its current position, at first
    # its input position, and who[q]: the element at position q.  who is
    # scattered through the sort's own order, an intp index and so quicker
    # than int32, and the order is dropped before the blocks' arrays are
    # built.
    order = np.argsort(ranks.ravel(), kind="stable")
    del ranks
    who = np.empty(size, dtype=index)
    who[order] = np.arange(size, dtype=index)
    where = order.astype(index)
    del order
    # The block of (row t, code r) fills the slots from first[t, r] on, in
    # the input order of its elements.  Ordered by (code, row), the blocks
    # are the entries of the transposed count table (a code missing from a
    # row gives an empty block), and expanded to one entry per element,
    # those of code d + 1 end at bounds[d].
    first = np.cumsum(counts, axis=1, dtype=index)
    first -= counts
    first += np.arange(0, size, n, dtype=index)[:, np.newaxis]
    first = first.T.ravel()
    lens = counts.T.ravel()
    del counts
    ends = np.cumsum(lens, dtype=index)
    bounds = ends[trials - 1 :: trials].tolist()
    # Element j belongs to the block that fills slots[j]; end[j] is the
    # first slot past that block.
    end = np.repeat(first + lens, lens)
    first += lens - ends
    slots = np.repeat(first, lens)
    del first
    slots += np.arange(size, dtype=index)
    local = np.arange(max(np.diff(bounds, prepend=0)), dtype=index)
    g0 = 0
    for g1 in bounds:
        # Later steps read neither these entries of `where` nor these slots
        # of `who`, so pos is sorted in place: after the loop, where[g0:g1]
        # holds the blocks' p_1 < ... < p_c, and the count compares it with
        # their slots.
        pos = where[g0:g1]
        pos.sort()
        s = slots[g0:g1]
        # jump[k] = index of slot pos[k] when pos[k] is inside the block,
        # else k: the chain ends there.
        jump = np.where(pos < end[g0:g1], pos - s, 0)
        jump += local[: g1 - g0]
        while True:
            nxt = jump.take(jump)
            if not (nxt != jump).any():
                break
            jump = nxt
        occupant = who.take(s)
        moved = np.flatnonzero(occupant >= g1)  # elements of later steps
        elements = occupant.take(moved)
        dest = pos.take(jump.take(moved))
        where[elements] = dest
        who[dest] = elements
        g0 = g1
    # Element j moved iff it ends away from its slot.  moves[k]: how many
    # of the first k elements did, read at the ends of each (code, row)
    # block once the N-sized arrays are freed; summed over the codes, a
    # row's blocks give its count.
    moves = np.zeros(size + 1, dtype=index)
    np.cumsum(where != slots, dtype=index, out=moves[1:])
    del who, where, slots, end
    per_block = moves.take(ends) - moves.take(ends - lens)
    return per_block.reshape(top, trials).sum(axis=0, dtype=np.int64)


def textbook_selection_sort(seq: Sequence | np.ndarray) -> tuple[list | np.ndarray, OpCounters]:
    """Sort by minimum-of-suffix selection, one swap per pass at most.

    Returns a sorted copy plus counters.  Comparisons are always
    n(n-1)/2; the swap is skipped when the minimum is already in place,
    so interchanges <= n-1.  ndarray input comes back as an ndarray,
    anything else as a list.
    """
    return _sort_one(textbook_sort_batch, seq)


def count_inversions_batch(batch: np.ndarray) -> np.ndarray:
    """Count the inversions of every row of a (trials, n) batch.

    Returns each row's inversion count (int64), in row order; the input is
    left untouched.  Checking every pair is the oracle.

    With r a value's code less 1 (0..top-1), from ``_ranks``, the shared
    step whose codes keep each row's order of values, ties included, and
    S_b(j) element j's position in the stable sort of its row by r >> b,
    the count is the sum of S_b(j) - S_{b+1}(j) over b < B =
    bit_length(top-1) and the j with bit b of r_j set (S_B(j) = j).

    Proof sketch.  An inverted pair i < j is told apart first at a bit b
    set in r_i and clear in r_j; a tied pair never is.  The sort by r >> b
    splits each group of equal r >> (b+1) into its elements with bit b
    clear, then those with it set, each in input order, so such an x moves
    on by the number of clear elements of its group that follow it.

    The groups of equal r >> b fill the same positions in the sort by r, so
    the S_b terms sum to i * popcount(r) over the positions i of each row's
    codes sorted by value: one stable sort of the codes gives them, a radix
    sort on 8- or 16-bit keys while top < 2**16.  The S_{b+1} terms take
    one stable sort of r >> (b+1) per bit below the top one, B - 1 sorts,
    each a radix sort on 8- or 16-bit keys while top <= 2**17.  On the
    offset codes of a narrow integer batch top <= 64, so B <= 6.  Cost:
    O(N log top).
    """
    trials, n = _batch_shape(batch)
    if n < 2 or trials == 0:
        return np.zeros(trials, dtype=np.int64)
    ranks, top = _ranks(batch)
    ranks -= 1  # r = code - 1, 0 to top - 1
    # weight[i], i's factor in the count (|.| < 64; the int64 product is exact):
    # popcount of the row's i-th code in sorted order, less, over b, bit b of
    # the i-th code in S_{b+1}.
    weight = np.bitwise_count(np.sort(ranks, axis=1, kind="stable")).astype(np.int8)
    order = None  # S_B is the input order
    for b in range((top - 1).bit_length() - 1, -1, -1):
        key = (ranks >> b).astype(np.min_scalar_type((top - 1) >> b), copy=False)
        weight -= (key if order is None else key.ravel()[order]) & 1
        order = None  # dropped before the next order is built, not after
        if b:
            order = _sort_order(key)
    return weight @ np.arange(n, dtype=np.int64)


def count_inversions(seq: Sequence | np.ndarray) -> int:
    """Number of ordered pairs i < j with a[i] > a[j]; ties contribute 0.

    One row of :func:`count_inversions_batch`, O(n log D) for D distinct
    values.  The input is left untouched.
    """
    return _one_trial(count_inversions_batch, seq)[1]
