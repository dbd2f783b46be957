"""The exact small-n law of every count, by weak-order enumeration.

Each count (exchange swaps, textbook swaps, inversions) depends only on an
array's dense-rank pattern.  The literal loops, run once on each pattern
of length n and weighted by the pattern's probability under iid
geometric(p) draws, give the count's exact distribution at any p.  That law
checks the closed forms and the exact values quoted in ROADMAP items 1, 3
and 5, and it is the reference for a chi-squared goodness-of-fit test of
the Monte Carlo layer: ``sample_block`` and each batch kernel, the calls
``run_cell`` makes.
"""

import functools
import math
from collections import Counter

import mpmath
import numpy as np
import pytest

from oracles import (
    brute_force_inversions,
    exchange_sort_list,
    pattern_probability,
    textbook_sort_list,
    weak_orders,
)
from sortlab.algorithms import count_inversions_batch, exchange_sort_batch, textbook_sort_batch
from sortlab.distributions import geometric, mix64, sample_block
from sortlab.theory import expected_interchanges

LOOPS = {
    "exchange": lambda row: exchange_sort_list(row)[1],
    "textbook": lambda row: textbook_sort_list(row)[1],
    "inversions": brute_force_inversions,
}
KERNELS = {
    "exchange": exchange_sort_batch,
    "textbook": textbook_sort_batch,
    "inversions": count_inversions_batch,
}
FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293)  # patterns of length 0..7


@functools.cache
def enumeration(n: int) -> tuple[list, list]:
    """Every dense-rank pattern of length n, and each one's block sizes."""
    patterns = list(weak_orders(n))
    blocks = [tuple(c for _, c in sorted(Counter(r).items())) for r in patterns]
    return patterns, blocks


@functools.cache
def counts(n: int, counter: str) -> np.ndarray:
    """The literal loop's count on each pattern of length n."""
    return np.array([LOOPS[counter](r) for r in enumeration(n)[0]], dtype=np.int64)


def probabilities(n: int, p: float) -> np.ndarray:
    """Each pattern's probability under n iid geometric(p) draws."""
    blocks = enumeration(n)[1]
    by_blocks = {b: pattern_probability(b, p) for b in set(blocks)}
    return np.array([by_blocks[b] for b in blocks])


def law(n: int, p: float, counter: str) -> np.ndarray:
    """Exact PMF of the count, indexed by the count."""
    return np.bincount(counts(n, counter), weights=probabilities(n, p))


def mean(pmf: np.ndarray) -> float:
    return math.fsum(k * q for k, q in enumerate(pmf.tolist()))


def variance(pmf: np.ndarray) -> float:
    mu = mean(pmf)
    return math.fsum((k - mu) ** 2 * q for k, q in enumerate(pmf.tolist()))


@pytest.mark.parametrize("n", range(8))
def test_weak_orders_are_the_dense_rank_patterns(n):
    patterns = enumeration(n)[0]
    assert len(patterns) == len(set(patterns)) == FUBINI[n]
    assert all(sorted(set(r)) == list(range(len(set(r)))) for r in patterns)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", range(1, 8))
def test_probabilities_sum_to_one(n, p):
    assert math.fsum(probabilities(n, p).tolist()) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_pattern_probability_by_hand():
    # Two draws: equal with chance p / (2 - p), and each order of two
    # distinct values with half the rest.
    p = 0.3
    assert pattern_probability((2,), p) == pytest.approx(p / (2 - p), rel=1e-15)
    assert pattern_probability((1, 1), p) == pytest.approx((1 - p / (2 - p)) / 2, rel=1e-15)
    # p = 1 draws only 0s: the one-block pattern is certain.
    assert pattern_probability((3,), 1.0) == 1.0
    assert pattern_probability((1, 2), 1.0) == 0.0


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", range(1, 8))
def test_mean_inversions_is_the_pairwise_closed_form(n, p):
    want = expected_interchanges(geometric(p), n)
    assert mean(law(n, p, "inversions")) == pytest.approx(want, rel=1e-12)


def test_mean_exchange_swaps_at_n7():
    # ROADMAP item 1: 9.4231965711 at n = 7, p = 0.1.
    assert f"{mean(law(7, 0.1, 'exchange')):.10f}" == "9.4231965711"


@pytest.mark.parametrize(
    "n,p,want",
    [
        (6, 0.1, "3.471834"),
        (6, 0.5, "2.965182"),
        (6, 0.9, "1.196427"),
        (7, 0.1, "4.321180"),
        (7, 0.5, "3.759151"),
        (7, 0.9, "1.623451"),
    ],
)
def test_mean_textbook_swaps(n, p, want):
    # ROADMAP item 5's exact means.
    assert f"{mean(law(n, p, 'textbook')):.6f}" == want


@pytest.mark.parametrize("p,want", [(0.1, "10.914488"), (0.5, "8.489292"), (0.9, "4.675503")])
def test_variance_of_exchange_swaps_at_n7(p, want):
    # ROADMAP item 3's exact values.
    assert f"{variance(law(7, p, 'exchange')):.6f}" == want


# The goodness-of-fit test's design, fixed before its first run.  A failure
# is a finding about the sampler or a kernel: it is reported, never met by
# another seed, trial count or alpha.
CHI2_SEED = 918273
CHI2_N = 6
CHI2_TRIALS = 20_000
CHI2_P = (0.2, 0.5, 0.8)
CHI2_ALPHA = 1e-3
CHI2_MIN_EXPECTED = 5.0


@functools.cache
def drawn(p: float) -> np.ndarray:
    # Cell k of a grid over CHI2_P, seeded as run_experiment seeds it.
    return sample_block(geometric(p), CHI2_N, mix64(CHI2_SEED, CHI2_P.index(p)), 0, CHI2_TRIALS)


def merged_bins(expected: np.ndarray, observed: np.ndarray) -> list[tuple[float, int]]:
    """(expected, observed) per bin: adjacent counts merged from the lowest
    up until each bin expects at least CHI2_MIN_EXPECTED; a remainder that
    expects less joins the last bin."""
    bins = []
    e_sum, o_sum = 0.0, 0
    for e, o in zip(expected.tolist(), observed.tolist()):
        e_sum, o_sum = e_sum + e, o_sum + o
        if e_sum >= CHI2_MIN_EXPECTED:
            bins.append((e_sum, o_sum))
            e_sum, o_sum = 0.0, 0
    if e_sum or o_sum:
        last_e, last_o = bins.pop()
        bins.append((last_e + e_sum, last_o + o_sum))
    return bins


def test_merged_bins():
    expected = np.array([1.0, 4.0, 6.0, 2.0, 2.0, 0.5])
    observed = np.array([0, 5, 7, 1, 3, 1])
    assert merged_bins(expected, observed) == [(5.0, 5), (10.5, 12)]


@pytest.mark.parametrize("counter", KERNELS)
@pytest.mark.parametrize("p", CHI2_P)
def test_monte_carlo_layer_fits_the_exact_law(p, counter):
    pmf = law(CHI2_N, p, counter)
    found = KERNELS[counter](drawn(p))
    observed = np.bincount(found, minlength=len(pmf))
    assert len(observed) == len(pmf) and not observed[pmf == 0].any(), "a count of probability 0"
    bins = merged_bins(CHI2_TRIALS * pmf, observed)
    stat = math.fsum((o - e) ** 2 / e for e, o in bins)
    df = len(bins) - 1
    sig = float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))
    assert sig >= CHI2_ALPHA, f"chi2 = {stat:.2f} on {df} df, sig {sig:.2e} < {CHI2_ALPHA}"
