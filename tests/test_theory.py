"""Closed-form tie/interchange expectations against independent oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import pcg64_uniforms
from sortlab.distributions import ContinuousUniform, geometric
from sortlab.theory import (
    TheoryPrediction,
    expected_interchanges,
    interchange_probability,
    predict,
    tie_probability,
)


def truncated_tie_series(p: float, terms: int = 4000) -> float:
    # Independent oracle: direct summation of sum_r [p(1-p)^r]^2.
    return math.fsum((p * (1.0 - p) ** r) ** 2 for r in range(terms))


class TestTieProbability:
    def test_continuous_is_zero(self):
        assert tie_probability(ContinuousUniform()) == 0.0

    @pytest.mark.parametrize("p", [round(0.05 * k, 2) for k in range(1, 20)])
    def test_closed_form_vs_series(self, p):
        closed = tie_probability(geometric(p))
        assert abs(closed - p / (2.0 - p)) < 1e-15
        assert abs(closed - truncated_tie_series(p)) <= 1e-12

    def test_pair_enumeration_oracle(self):
        # P[X=Y] for iid geometrics, summed over the joint support directly.
        p = 0.35
        total = math.fsum(
            (p * (1 - p) ** r) * (p * (1 - p) ** s)
            for r in range(600)
            for s in range(600)
            if r == s
        )
        assert tie_probability(geometric(p)) == pytest.approx(total, abs=1e-12)

    def test_degenerate_p_one(self):
        assert tie_probability(geometric(1.0)) == 1.0

    @pytest.mark.parametrize("model", ["geometric", 0.5, None])
    def test_unknown_model_is_a_type_error(self, model):
        with pytest.raises(TypeError, match=f"^unknown input model: {re.escape(repr(model))}$"):
            tie_probability(model)

    @given(st.floats(min_value=0.001, max_value=1.0))
    def test_bounds(self, p):
        t = tie_probability(geometric(p))
        assert 0.0 < t <= 1.0


class TestInterchangeProbability:
    def test_continuous_is_half(self):
        assert interchange_probability(ContinuousUniform()) == 0.5

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_complement_identity(self, p):
        # ties + 2 * (strictly-greater-in-either-order) partitions the pair space
        model = geometric(p)
        assert tie_probability(model) + 2.0 * interchange_probability(model) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_closed_form(self):
        assert interchange_probability(geometric(0.5)) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert interchange_probability(geometric(1.0)) == 0.0

    def test_monte_carlo_oracle(self):
        # Empirical P[X > Y] over seeded iid pairs.
        p = 0.4
        u = pcg64_uniforms(2718, 2_000_000)
        draws = np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64).reshape(-1, 2)
        frac = float(np.mean(draws[:, 0] > draws[:, 1]))
        prob = interchange_probability(geometric(p))
        se = math.sqrt(prob * (1 - prob) / 1_000_000)
        assert abs(frac - prob) < 4.0 * se


class TestExpectedInterchanges:
    def test_continuous_quarter_rule(self):
        assert expected_interchanges(ContinuousUniform(), 1000) == 249750.0
        assert expected_interchanges(ContinuousUniform(), 2) == 0.5

    def test_geometric_known_values(self):
        assert expected_interchanges(geometric(0.5), 1000) == pytest.approx(166500.0, rel=1e-12)
        assert expected_interchanges(geometric(1.0), 10) == 0.0
        assert expected_interchanges(geometric(0.5), 1) == 0.0

    def test_scales_with_pair_count(self):
        model = geometric(0.3)
        per_pair = interchange_probability(model)
        for n in (2, 5, 17):
            assert expected_interchanges(model, n) == pytest.approx(
                n * (n - 1) / 2 * per_pair, rel=1e-14
            )

    @pytest.mark.parametrize("n", [True, 2.5, "3", None])
    def test_rejects_bools_and_non_integers_by_name(self, n):
        for call in (expected_interchanges, predict):
            with pytest.raises(TypeError, match="^n must be an int"):
                call(geometric(0.5), n)

    def test_accepts_numpy_ints(self):
        model = geometric(0.5)
        assert expected_interchanges(model, np.int64(1000)) == expected_interchanges(model, 1000)
        pred = predict(model, np.uint16(1000))
        assert type(pred.n) is int and pred == predict(model, 1000)

    @given(st.integers(min_value=1, max_value=10**154))
    def test_pair_count_rounds_like_float_division(self, n):
        model = geometric(0.3)
        assert expected_interchanges(model, n) == n * (n - 1) / 2.0 * interchange_probability(model)

    @pytest.mark.parametrize("model", [geometric(0.5), ContinuousUniform()])
    def test_rejects_n_whose_pairs_overflow_a_float(self, model):
        n = 10**160
        with pytest.raises(ValueError, match=f"n={n} is too large"):
            expected_interchanges(model, n)
        # n(n-1) itself overflows here, but its half does not.
        n = 15 * 10**153
        assert math.isfinite(expected_interchanges(model, n))


class TestPredict:
    def test_bundles_all_quantities(self):
        pred = predict(geometric(0.5), 1000)
        assert isinstance(pred, TheoryPrediction)
        assert pred.n == 1000
        assert pred.tie_probability == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert pred.interchange_probability == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert pred.expected_interchanges == pytest.approx(166500.0, rel=1e-12)

    def test_continuous(self):
        pred = predict(ContinuousUniform(), 1000)
        assert pred.tie_probability == 0.0
        assert pred.interchange_probability == 0.5
        assert pred.expected_interchanges == 249750.0
