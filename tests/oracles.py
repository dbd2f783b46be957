"""Literal reference implementations the fast code is tested against.

Each function here is the plain, obviously-correct form of something the
package computes in bulk: the two selection sorts as their double loops
(and the textbook sort once more as one numpy pass per slot), the
inversion count by brute force over all pairs, the geometric samplers
one variate at a time (and a cell's trials one source at a time), and
the geometric mass function.  The batched kernels and the bulk samplers
must agree with them exactly, count for count and draw for draw.
"""

from __future__ import annotations

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


def sample_geometric_loop(src: RandomSource, p: float) -> int:
    """One geometric(p) variate by counting failures until a success.

    Consumes one uniform per Bernoulli trial (u < p is a success), so it
    terminates almost surely for any p > 0.
    """
    r = 0
    while src.uniform() >= p:
        r += 1
    return r


def geometric_from_uniform(u: float, p: float) -> int:
    """Inverse-CDF map of one uniform deviate to a geometric variate.

    floor(log(1-u) / log(1-p)); u < p lands in the first cell (r = 0)
    and p = 1 is guarded to 0.
    """
    if p >= 1.0:
        return 0
    return int(math.log1p(-u) / math.log1p(-p))


def sample_geometric_inverse(src: RandomSource, p: float) -> int:
    """One geometric(p) variate via the inverse CDF; one uniform per draw."""
    return geometric_from_uniform(src.uniform(), p)


def geometric_pmf(p: float, r: int) -> float:
    """Mass at r: p * (1-p)**r, the chance of r failures then a success."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r!r}")
    return p * (1.0 - p) ** int(r)


def per_trial_rows(p: float, n: int, cell_seed: int, start: int, stop: int, method: str) -> np.ndarray:
    """Trials start..stop-1 of a cell, each drawn on its own
    ``RandomSource(mix64(cell_seed, t))``: by ``sample_array`` for the
    inverse sampler, by n scalar failure-counting draws for the loop sampler.
    """
    rows = []
    for t in range(start, stop):
        src = RandomSource(mix64(cell_seed, t))
        if method == "inverse":
            rows.append(sample_array(src, geometric(p), n))
        else:
            rows.append(np.array([sample_geometric_loop(src, p) for _ in range(n)], dtype=np.int64))
    return np.stack(rows)
