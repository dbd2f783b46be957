"""Literal reference implementations the fast code is tested against.

Each function here is the plain, obviously-correct form of something the
package computes in bulk: the two selection sorts as their double loops
(and the textbook sort once more as one numpy pass per slot), the
inversion count by brute force over all pairs (and once more by a merge
sort, for long rows), and the geometric mass function.  The batched
kernels must agree with them exactly, count for count.

:func:`weak_orders` and :func:`pattern_probability` give the exact small-n
law of every count: each count depends only on an array's dense-rank
pattern, so running a literal loop once per pattern, weighted by the
pattern's probability, gives its exact distribution.

The sampling oracles read numpy's own ``PCG64(seed)`` directly: the top
53 bits of each raw output make one uniform deviate, and the inverse CDF
maps it to one geometric variate.  They share no code with the package's
samplers, so ``sample_block`` and ``sample_array`` must agree with them
draw for draw.  :func:`per_trial_rows` is the other reference
for ``sample_block``: its per-trial definition, one ``sample_array`` call
per trial on a source that numpy seeds itself.  :func:`splitmix64` is
``mix64`` in Python ints, with no numpy.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sortlab.distributions import RandomSource, geometric, mix64, sample_array


def exchange_sort_list(seq) -> tuple[list, int]:
    """Swap-eager double loop: for i < j, swap on strict a[i] > a[j]."""
    a = list(seq)
    n = len(a)
    swaps = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            if a[i] > a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, swaps


def textbook_sort_list(seq) -> tuple[list, int]:
    """Minimum-of-suffix selection: one swap per pass, skipped when in place."""
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


def textbook_sort_passes(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-of-suffix selection on every row of a (trials, n) batch, one
    numpy pass per slot: the fast oracle for batches too large for the loop.

    Returns the sorted rows and each row's interchange count (int64).
    """
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


def brute_force_inversions(seq) -> int:
    """Number of pairs i < j with a[i] > a[j], by checking every pair."""
    items = list(seq)
    return sum(
        1
        for i in range(len(items))
        for j in range(i + 1, len(items))
        if items[i] > items[j]
    )


def merge_inversions_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inversions of every row of a (trials, n) batch by a bottom-up merge
    sort over all rows at once: the fast oracle for rows too long to check
    pair by pair.

    Returns the sorted rows and each row's inversion count (int64).
    """
    trials, n = batch.shape
    counts = np.zeros(trials, dtype=np.int64)
    if n < 2 or trials == 0:
        return batch.copy(), counts
    size = 1 << (n - 1).bit_length()
    # Trailing copies of the batch maximum add no inversions (ties count 0).
    # Taken by argmax, which also orders strings, where max has no loop.
    a = np.pad(batch, ((0, 0), (0, size - n)), constant_values=batch.ravel()[np.argmax(batch)])
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


def geometric_from_uniform(u: float, p: float) -> int:
    """Inverse-CDF map of one uniform deviate to a geometric variate.

    floor(log(1-u) / log(1-p)); u < p lands in the first cell (r = 0)
    and p = 1 is guarded to 0.
    """
    if p >= 1.0:
        return 0
    return int(math.log1p(-u) / math.log1p(-p))


def uniform_from_raw(raw: int) -> float:
    """The deviate in [0, 1) one raw 64-bit PCG64 output makes: its top 53 bits times 2**-53."""
    return (raw >> 11) * 2.0**-53


def pcg64_uniforms(seed: int, k: int) -> np.ndarray:
    """The first k deviates of numpy's ``PCG64(seed)``, as :func:`uniform_from_raw`
    makes them, as float64 (a 53-bit integer converts exactly)."""
    return (np.random.PCG64(seed).random_raw(k) >> np.uint64(11)) * 2.0**-53


def sample_geometric_inverse(bitgen: np.random.PCG64, p: float) -> int:
    """One geometric(p) variate from a numpy bit generator by the inverse
    CDF; one raw output per draw."""
    return geometric_from_uniform(uniform_from_raw(bitgen.random_raw()), p)


def geometric_pmf(p: float, r: int) -> float:
    """Mass at r: p * (1-p)**r, the chance of r failures then a success."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return p * (1.0 - p) ** int(r)


def splitmix64(seed: int, index: int) -> int:
    """Seed of substream `index`: the SplitMix64 finalizer (Steele, Lea & Flood,
    OOPSLA 2014) of seed + (index + 1) * gamma, each step mod 2**64."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def per_trial_rows(p: float, n: int, cell_seed: int, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of a cell, each drawn by ``sample_array`` on its
    own ``RandomSource(mix64(cell_seed, t))``."""
    return np.stack(
        [sample_array(RandomSource(mix64(cell_seed, t)), geometric(p), n) for t in range(start, stop)]
    )


def scalar_trial_rows(p: float, n: int, cell_seed: int, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of a cell, each from numpy's own
    ``PCG64(mix64(cell_seed, t))``: the top 53 bits of every raw output
    make one uniform, mapped by :func:`geometric_from_uniform`.

    Shares no code with the package's samplers or its seed derivation
    (:func:`splitmix64` stands for ``mix64``).
    """
    rows = []
    for t in range(start, stop):
        raw = np.random.PCG64(splitmix64(cell_seed, t)).random_raw(n).tolist()
        rows.append([geometric_from_uniform(uniform_from_raw(r), p) for r in raw])
    return np.array(rows, dtype=np.int64)


def weak_orders(n: int):
    """Every dense-rank pattern of length n, as a tuple of ranks 0..D-1 that
    uses each of its D ranks, for D = 1..n (n = 0 gives the empty tuple).

    There are a Fubini number of them: 1, 3, 13, 75, 541, 4683 and 47293
    for n = 1..7.  The ranks are assigned one at a time, lowest first, to a
    nonempty subset of the positions still free.
    """
    pattern = [0] * n

    def fill(free: tuple, rank: int):
        if not free:
            yield tuple(pattern)
            return
        for size in range(1, len(free) + 1):
            for block in itertools.combinations(free, size):
                for i in block:
                    pattern[i] = rank
                yield from fill(tuple(i for i in free if i not in block), rank + 1)

    yield from fill(tuple(range(n)), 0)


def pattern_probability(block_sizes, p: float) -> float:
    """Chance that n iid geometric(p) draws have a given dense-rank pattern,
    the one whose j-th smallest distinct value occurs block_sizes[j] times.

    With c_1..c_D the block sizes, S_j = c_j + ... + c_D and x = 1 - p:
    P = p^n * x^(S_2 + ... + S_D) / prod_j (1 - x^(S_j)).  Write the values
    as v_1 = g_1 and v_j = v_(j-1) + 1 + g_j with every gap g_j >= 0; the
    mass p^n * x^(sum_j c_j v_j) is then p^n * x^(S_2 + ... + S_D) *
    prod_j x^(S_j g_j), and each gap's geometric series sums to
    1 / (1 - x^(S_j)).
    """
    x = 1.0 - p
    tails = list(itertools.accumulate(reversed(block_sizes)))[::-1]  # S_1..S_D
    prob = p ** tails[0] * x ** sum(tails[1:])
    for s in tails:
        prob /= 1.0 - x**s
    return prob
