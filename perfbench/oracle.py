"""Expected outputs of each workload, derived without the program's counters.

Inputs follow the documented seed derivation: cell ``k`` of the p grid
uses seed ``mix64(master, k)``, trial ``t`` of that cell draws
``sample_array(RandomSource(mix64(cell_seed, t)), geometric(p), n)``.
All trials share one length, so they are stacked as the columns of an
``(n, trials)`` array and every oracle below runs its literal loop over
array positions once for all trials at a time:

* exchange: the double loop ``for i < j: if a[i] > a[j]: swap``;
* textbook: ``for i: m = first minimum of a[i:]; swap a[i], a[m] if m != i``
  with the minimum found by the inner loop over j;
* inversions: brute force over all pairs i < j.

Per-cell mean and population sd come from exact integer sums, and the
verdict from a separate least-squares fit and Student t test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sortlab.distributions import RandomSource, geometric, mix64, sample_array

#: Two-sided 5% critical values of Student's t, by degrees of freedom
#: (computed to 17 digits with mpmath).
T_CRITICAL_05 = {
    1: 12.706204736174705,
    2: 4.3026527297494639,
    3: 3.1824463052837096,
    4: 2.7764451051977944,
    5: 2.5705818356363155,
    6: 2.44691185114497,
    7: 2.3646242515927853,
    8: 2.3060041352041667,
}


def trial_arrays(master_seed: int, n: int, trials: int, p_values) -> np.ndarray:
    """All inputs of a grid as an (n, cells * trials) array, cell-major columns."""
    columns = []
    for index, p in enumerate(p_values):
        cell_seed = mix64(master_seed, index)
        model = geometric(p)
        for t in range(trials):
            columns.append(sample_array(RandomSource(mix64(cell_seed, t)), model, n))
    return np.ascontiguousarray(np.array(columns).T)


def exchange_counts(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    swaps = np.zeros(a.shape[1], dtype=np.int64)
    for i in range(n - 1):
        ai = a[i].copy()
        for j in range(i + 1, n):
            aj = a[j]
            swaps += ai > aj
            low = np.minimum(ai, aj)
            a[j] = np.maximum(ai, aj)
            ai = low
        a[i] = ai
    return swaps


def textbook_counts(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n, width = a.shape
    columns = np.arange(width)
    swaps = np.zeros(width, dtype=np.int64)
    for i in range(n - 1):
        low = a[i].copy()
        at = np.full(width, i)
        for j in range(i + 1, n):
            less = a[j] < low
            low = np.where(less, a[j], low)
            at = np.where(less, j, at)
        swaps += at != i
        a[at, columns] = a[i]
        a[i] = low
    return swaps


def inversion_counts(a: np.ndarray) -> np.ndarray:
    counts = np.zeros(a.shape[1], dtype=np.int64)
    for i in range(a.shape[0] - 1):
        counts += (a[i + 1 :] < a[i]).sum(axis=0)
    return counts


COUNTERS = {"exchange": exchange_counts, "textbook": textbook_counts, "inversions": inversion_counts}


def cell_moments(counts) -> tuple[float, float]:
    """Mean and population sd of integer counts, each rounded once from exact sums."""
    m = len(counts)
    total = sum(int(c) for c in counts)
    squares = sum(int(c) * int(c) for c in counts)
    mean = Fraction(total, m)
    var = Fraction(squares, m) - mean * mean
    return float(mean), math.sqrt(var)


def expected_cells(master_seed: int, n: int, trials: int, p_values, mode: str):
    """Per cell: (p, mean_c, sd_c, count sum); the sum is the exact swap total."""
    counts = COUNTERS[mode](trial_arrays(master_seed, n, trials, p_values))
    cells = []
    for index, p in enumerate(p_values):
        chunk = counts[index * trials : (index + 1) * trials]
        mean, sd = cell_moments(chunk)
        cells.append((p, mean, sd, int(chunk.sum())))
    return cells


def _top_term_t(x: np.ndarray, y: np.ndarray, degree: int) -> float:
    # t of the x^degree coefficient; invariant under the affine rescaling of x.
    design = np.vander((x - x.mean()) / (x.max() - x.min()), degree + 1, increasing=True)
    q, r = np.linalg.qr(design)
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - design @ beta
    s2 = float(resid @ resid) / (len(x) - degree - 1)
    r_inv = np.linalg.inv(r)
    return float(beta[degree] / math.sqrt(s2 * float(r_inv[degree] @ r_inv[degree])))


def expected_verdict(p_values, means, d_min: int = 1, d_max: int = 4) -> str:
    """Label of the first degree whose top term is significant and whose extension is not.

    Significance is the two-sided t test at alpha 0.05; with no adequate
    degree the label is the cap ``d_max``.
    """
    x = np.asarray(p_values, dtype=float)
    y = np.asarray(means, dtype=float)

    def significant(degree):
        return abs(_top_term_t(x, y, degree)) > T_CRITICAL_05[len(x) - degree - 1]

    for d in range(d_min, d_max):
        if significant(d) and not significant(d + 1):
            return f"O_emp(p^{d})"
    return f"O_emp(p^{d_max})"
