"""Closed-form expectations for the interchange-count experiment.

For iid input, a pair (i, j) is out of order with probability
P[a(i) > a(j)] = (1 - P[a(i) = a(j)]) / 2, by symmetry.  Continuous
input has tie probability 0, so the interchange probability is exactly
1/2; geometric(p) input ties with probability sum_r (p(1-p)^r)^2, whose
closed form is p/(2-p), giving interchange probability (1-p)/(2-p).

The expected count n(n-1)/2 * P[a(i) > a(j)] is, by linearity, the
exact expectation of the inversion count of the unsorted array
(:func:`sortlab.algorithms.count_inversions`).  It is *not* the
expectation of the exchange-sort swap count: the swap-eager loop swaps
only for the inversions (i, j) in which a(i) is the first occurrence of
its value, that is sum over k of #{distinct values in a[:k] greater than
a(k)} (the identity proved in
:func:`sortlab.algorithms.exchange_sort_batch`).  The two agree on
distinct input and differ by the tie repairs otherwise; reports keep
them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import ContinuousUniform, Geometric, _as_int

__all__ = [
    "TheoryPrediction",
    "expected_interchanges",
    "interchange_probability",
    "predict",
    "tie_probability",
]

InputModel = Geometric | ContinuousUniform


def tie_probability(model: InputModel) -> float:
    """P[a(i) = a(j)] for two independent draws from `model`."""
    if isinstance(model, ContinuousUniform):
        return 0.0
    if isinstance(model, Geometric):
        # closed form of sum_r p^2 (1-p)^(2r) = p^2 / (1 - (1-p)^2)
        return model.p / (2.0 - model.p)
    raise TypeError(f"unknown input model: {model!r}")


def interchange_probability(model: InputModel) -> float:
    """P[a(i) > a(j)] = (1 - P[a(i) = a(j)]) / 2 for iid draws."""
    return 0.5 * (1.0 - tie_probability(model))


def expected_interchanges(model: InputModel, n: int) -> float:
    """n(n-1)/2 pairs times the per-pair interchange probability.

    Exact expectation of the inversion count of an n-element iid array.
    `n` is an integer of any kind (numpy's too); a bool or a non-integer
    raises TypeError, and an n below 1 ValueError.
    """
    n = _as_int("n", n, minimum=1)
    try:
        pairs = float(n * (n - 1) // 2)  # the same rounding as n * (n - 1) / 2.0
    except OverflowError:
        raise ValueError(f"n={n} is too large: its n(n-1)/2 pairs overflow a float") from None
    return pairs * interchange_probability(model)


@dataclass(frozen=True)
class TheoryPrediction:
    """Closed-form quantities for one (model, n) configuration."""

    n: int
    model: InputModel
    tie_probability: float
    interchange_probability: float
    expected_interchanges: float


def predict(model: InputModel, n: int) -> TheoryPrediction:
    """Bundle all closed-form quantities for `model` at array length `n`."""
    n = _as_int("n", n, minimum=1)
    return TheoryPrediction(
        n=n,
        model=model,
        tie_probability=tie_probability(model),
        interchange_probability=interchange_probability(model),
        expected_interchanges=expected_interchanges(model, n),
    )
