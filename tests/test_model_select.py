"""Degree-scan selection: stopping rule, cap, degeneracy, invariances."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortlab.model_select import SelectionPolicy, format_fixed, render_verdict, select_degree
from sortlab import polyfit
from sortlab.polyfit import DataPoint, diagnostics
from sortlab.report.csvio import read_summaries_csv
from sortlab.report.fixture import reference_points
from sortlab.report.jsonio import verdict_to_dict


def quadratic_points(noise_sd_fraction: float = 0.0, seed: int = 12345):
    xs = [0.1 * i for i in range(1, 10)]
    clean = [3.0 - 2.0 * x + x * x for x in xs]
    if noise_sd_fraction == 0.0:
        return [DataPoint(x, y) for x, y in zip(xs, clean)]
    rng = np.random.default_rng(seed)
    span = max(clean) - min(clean)
    noise = rng.normal(0.0, noise_sd_fraction * span, size=len(xs))
    return [DataPoint(x, y + e) for x, y, e in zip(xs, clean, noise)]


GRID = [round(0.1 * i, 1) for i in range(1, 10)]


def alternating_points():
    # y = 1, -1, 1, ... on p = 0.1..0.9: no polynomial term up to degree 4 explains it.
    return [DataPoint(p, (-1.0) ** k) for k, p in enumerate(GRID)]


def one_bump_points():
    # y = 5 but 6 at p = 0.5: the linear fit's R^2 is zero up to rounding noise.
    return [DataPoint(p, 6.0 if p == 0.5 else 5.0) for p in GRID]


class TestSelectionPolicy:
    def test_defaults(self):
        policy = SelectionPolicy()
        assert (policy.alpha, policy.d_min, policy.d_max) == (0.05, 1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            SelectionPolicy(alpha=1.0)
        with pytest.raises(ValueError):
            SelectionPolicy(d_min=0)
        with pytest.raises(ValueError):
            SelectionPolicy(d_min=3, d_max=2)

    @pytest.mark.parametrize(
        "alpha, plain",
        [
            (Fraction(1, 1000), 0.001),
            (Fraction(1, 100), 0.01),
            (np.float32(0.01), 0.01),
            (np.float64(0.01), 0.01),
        ],
    )
    def test_real_alpha_is_stored_as_float(self, alpha, plain):
        # Stored as a float, so the trace's f"{alpha:g}" can format it.
        policy = SelectionPolicy(alpha=alpha)
        assert type(policy.alpha) is float and policy.alpha == float(alpha)
        verdict = select_degree(reference_points(), policy)
        assert render_verdict(verdict) == render_verdict(
            select_degree(reference_points(), SelectionPolicy(alpha=plain))
        )

    @pytest.mark.parametrize("alpha", [None, "0.05", True])
    def test_alpha_that_is_not_a_real_is_refused(self, alpha):
        with pytest.raises(TypeError, match=r"^alpha must be a real number, got "):
            SelectionPolicy(alpha=alpha)

    def test_numpy_degree_bounds_are_stored_as_ints(self):
        # A numpy d_max must not reach the verdict as np.int64, which the JSON
        # writer cannot serialise.
        policy = SelectionPolicy(d_min=np.int64(1), d_max=np.int64(4))
        assert (type(policy.d_min), type(policy.d_max)) == (int, int)
        verdict = select_degree(reference_points(), policy)
        assert type(verdict.selected_degree) is int
        assert render_verdict(verdict).startswith("empirical order: O_emp(p^4)")
        assert '"selected_degree": 4,' in json.dumps(verdict_to_dict(verdict))


class TestSelectDegree:
    def test_reference_data_default_alpha_is_cap_limited(self):
        # On the embedded rows the quartic term is itself significant at
        # 0.05 (sig ~= 0.0139), so the ascending scan never finds a
        # degree whose extension is insignificant and caps out at 4.
        verdict = select_degree(reference_points(), SelectionPolicy())
        assert verdict.selected_degree == 4
        assert verdict.cap_limited
        assert verdict.verdict_label == "O_emp(p^4)"
        assert len(verdict.decision_trace) == 4
        quartic_sig = verdict.per_degree_reports[4].highest_order_row.sig
        assert quartic_sig == pytest.approx(0.013897, abs=1e-4)

    def test_reference_data_alpha_001_selects_cubic(self):
        verdict = select_degree(reference_points(), SelectionPolicy(alpha=0.01))
        assert verdict.selected_degree == 3
        assert not verdict.cap_limited
        assert verdict.verdict_label == "O_emp(p^3)"
        cubic_entry = verdict.decision_trace[-1]
        assert cubic_entry.accepted
        assert cubic_entry.top_term_sig == pytest.approx(0.005438, abs=1e-4)
        assert cubic_entry.extension_sig == pytest.approx(0.013897, abs=1e-4)

    def test_near_quadratic_selects_two(self):
        verdict = select_degree(quadratic_points(noise_sd_fraction=1e-3), SelectionPolicy())
        assert verdict.selected_degree == 2
        assert not verdict.cap_limited
        assert verdict.verdict_label == "O_emp(p^2)"

    def test_exact_quadratic_terminates_on_exact_fit(self):
        verdict = select_degree(quadratic_points(), SelectionPolicy())
        assert verdict.selected_degree == 2
        assert verdict.decision_trace[-1].reason == "exact fit, no residual variation left"

    def test_constant_response_degenerate(self):
        points = [DataPoint(0.1 * i, 42.0) for i in range(1, 10)]
        verdict = select_degree(points, SelectionPolicy())
        assert verdict.degenerate
        assert verdict.selected_degree == 0
        assert verdict.verdict_label == "O_emp(p^0)"
        assert 0 in verdict.per_degree_reports

    @pytest.mark.parametrize(
        "points, policy, flags",
        [
            (reference_points, SelectionPolicy(alpha=0.01), (False, False)),
            (reference_points, SelectionPolicy(), (True, False)),
            (lambda: [DataPoint(p, 42.0) for p in GRID], SelectionPolicy(), (False, True)),
        ],
        ids=["normal", "cap-limited", "degenerate"],
    )
    def test_label_is_derived_from_the_selected_degree(self, points, policy, flags):
        verdict = select_degree(points(), policy)
        assert (verdict.cap_limited, verdict.degenerate) == flags
        assert verdict.verdict_label == f"O_emp(p^{verdict.selected_degree})"
        assert "verdict_label" not in {f.name for f in dataclasses.fields(verdict)}
        assert dataclasses.replace(verdict, selected_degree=7).verdict_label == "O_emp(p^7)"

    def test_reports_cover_every_examined_degree(self):
        verdict = select_degree(reference_points(), SelectionPolicy())
        assert set(verdict.per_degree_reports) == {1, 2, 3, 4}

    def test_each_report_is_one_least_squares_pass(self, monkeypatch):
        degrees = []
        least_squares = polyfit._least_squares

        def spy(points, degree):
            degrees.append(degree)
            return least_squares(points, degree)

        monkeypatch.setattr(polyfit, "_least_squares", spy)
        select_degree(reference_points(), SelectionPolicy())
        assert degrees == [1, 2, 3, 4]

    def test_d_max_two_caps(self):
        verdict = select_degree(reference_points(), SelectionPolicy(d_max=2))
        assert verdict.selected_degree == 2
        assert verdict.cap_limited

    def test_permissive_alpha_keeps_every_term_significant(self):
        # Run-and-record: with alpha near 1 every extension term counts as
        # significant, so the scan records significance everywhere and caps.
        verdict = select_degree(reference_points(), SelectionPolicy(alpha=0.9999))
        assert verdict.cap_limited
        assert verdict.selected_degree == 4
        for entry in verdict.decision_trace:
            if entry.top_term_sig is not None:
                assert entry.top_term_sig < 0.9999

    def test_needs_enough_points(self):
        points = [DataPoint(float(i), float(i)) for i in range(5)]
        with pytest.raises(ValueError):
            select_degree(points, SelectionPolicy(d_max=4))

    def test_selected_degree_has_significant_top_term_unless_flagged(self):
        for alpha in (0.01, 0.05, 0.2):
            verdict = select_degree(reference_points(), SelectionPolicy(alpha=alpha))
            if not (verdict.cap_limited or verdict.degenerate):
                report = verdict.per_degree_reports[verdict.selected_degree]
                assert report.exact_fit or report.highest_order_row.sig < alpha

    def test_exact_extension_then_exact_fit(self):
        # mean_c = p^3 + 2: the linear and quadratic top terms are
        # significant, the cubic fit is exact, and the scan stops there.
        summaries, _ = read_summaries_csv(Path(__file__).parent / "golden" / "exact" / "cubic.csv")
        points = [DataPoint(s.p, s.mean_c) for s in summaries]
        verdict = select_degree(points, SelectionPolicy())
        assert [entry.reason for entry in verdict.decision_trace] == [
            "extension term still significant",
            "extension fit is exact",
            "exact fit, no residual variation left",
        ]
        assert (verdict.verdict_label, verdict.cap_limited) == ("O_emp(p^3)", False)
        assert set(verdict.per_degree_reports) == {1, 2, 3}

    def test_insignificant_top_term_passes_over_every_degree(self):
        verdict = select_degree(alternating_points(), SelectionPolicy())
        assert (verdict.selected_degree, verdict.verdict_label) == (4, "O_emp(p^4)")
        assert verdict.cap_limited and not verdict.degenerate
        assert [entry.degree for entry in verdict.decision_trace] == [1, 2, 3, 4]
        for entry in verdict.decision_trace:
            assert not entry.accepted
            assert entry.extension_sig is None
            assert entry.reason == "own top term not significant at alpha=0.05"
        sigs = [entry.top_term_sig for entry in verdict.decision_trace]
        assert sigs == pytest.approx([1.0, 0.5424865615741675, 1.0, 0.4676047546094124])


@st.composite
def scan_cases(draw):
    d_max = draw(st.integers(min_value=1, max_value=4))
    d_min = draw(st.integers(min_value=1, max_value=d_max))
    xs = draw(st.lists(st.integers(-20, 20), min_size=d_max + 2, max_size=10, unique=True))
    # A polynomial of degree 0..5 plus integer noise of a drawn size, so that
    # exact fits, significant and insignificant terms all come up.
    coefficients = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
    amplitude = draw(st.sampled_from([0, 1, 5, 50]))
    noise = draw(st.lists(st.integers(-amplitude, amplitude), min_size=len(xs), max_size=len(xs)))
    ys = [sum(c * (x / 10.0) ** j for j, c in enumerate(coefficients)) + e for x, e in zip(xs, noise)]
    if len(set(ys)) == 1:
        ys[0] += 1.0  # non-constant
    alpha = draw(
        st.sampled_from([0.001, 0.01, 0.05, 0.2])
        | st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    )
    points = [DataPoint(x / 10.0, y) for x, y in zip(xs, ys)]
    return points, SelectionPolicy(alpha=alpha, d_min=d_min, d_max=d_max)


@given(scan_cases())
@settings(max_examples=100, deadline=None)
def test_verdict_follows_the_rule_on_independent_sigs(case):
    """The verdict is the first d whose fit is exact, or whose s_d < alpha
    with s_(d+1) >= alpha below the cap; else the cap.  Each s_d here comes
    from its own fit, not from the verdict's reports."""
    points, policy = case
    alpha, d_max = policy.alpha, policy.d_max
    sig = {
        d: diagnostics(points, d).highest_order_row.sig
        for d in range(policy.d_min, d_max + 1)
    }
    selected = next(
        (
            d
            for d in sig
            if sig[d] is None
            or (sig[d] < alpha and d < d_max and sig[d + 1] is not None and sig[d + 1] >= alpha)
        ),
        None,
    )
    verdict = select_degree(points, policy)
    assert not verdict.degenerate
    assert (verdict.selected_degree, verdict.cap_limited) == (
        (d_max, True) if selected is None else (selected, False)
    )
    assert [entry.top_term_sig for entry in verdict.decision_trace] == [
        sig[d] for d in range(policy.d_min, verdict.selected_degree + 1)
    ]


class TestInvariances:
    def test_determinism(self):
        a = select_degree(reference_points(), SelectionPolicy())
        b = select_degree(reference_points(), SelectionPolicy())
        assert a == b

    def test_y_scaling_leaves_degree_unchanged(self):
        base = select_degree(reference_points(), SelectionPolicy())
        scaled = select_degree(
            [DataPoint(pt.x, pt.y * 1000.0) for pt in reference_points()], SelectionPolicy()
        )
        assert scaled.selected_degree == base.selected_degree
        assert scaled.cap_limited == base.cap_limited

    def test_x_shift_leaves_degree_unchanged(self):
        base = select_degree(reference_points(), SelectionPolicy())
        shifted = select_degree(
            [DataPoint(pt.x + 5.0, pt.y) for pt in reference_points()], SelectionPolicy()
        )
        assert shifted.selected_degree == base.selected_degree
        assert shifted.cap_limited == base.cap_limited

    def test_invariances_hold_at_alpha_001(self):
        base = select_degree(reference_points(), SelectionPolicy(alpha=0.01))
        for points in (
            [DataPoint(pt.x, pt.y * 250.0) for pt in reference_points()],
            [DataPoint(pt.x - 2.0, pt.y) for pt in reference_points()],
        ):
            other = select_degree(points, SelectionPolicy(alpha=0.01))
            assert other.selected_degree == base.selected_degree == 3


class TestRenderVerdict:
    def test_contains_label(self):
        verdict = select_degree(reference_points(), SelectionPolicy(alpha=0.01))
        text = render_verdict(verdict)
        assert "O_emp(p^3)" in text
        assert "cap-limited" not in text

    def test_cap_limited_marker(self):
        verdict = select_degree(reference_points(), SelectionPolicy())
        text = render_verdict(verdict)
        assert "O_emp(p^4)" in text
        assert "cap-limited" in text

    def test_trace_rows_match_degrees_examined(self):
        verdict = select_degree(reference_points(), SelectionPolicy())
        text = render_verdict(verdict)
        trace_lines = [line for line in text.splitlines() if "top-term sig" in line]
        assert len(trace_lines) == len(verdict.decision_trace)

    def test_insignificant_top_term_lines(self):
        text = render_verdict(select_degree(alternating_points(), SelectionPolicy()))
        passed = "extension sig n/a -> passed over (own top term not significant at alpha=0.05)"
        assert text.splitlines() == [
            "empirical order: O_emp(p^4)  [cap-limited: no scanned degree was adequate]",
            f"  degree 1: top-term sig 1.0000, {passed}",
            f"  degree 2: top-term sig 0.5425, {passed}",
            f"  degree 3: top-term sig 1.0000, {passed}",
            f"  degree 4: top-term sig 0.4676, {passed}",
            "  fit quality by degree:",
            "    degree 1: R^2 0.000000, adjusted -0.142857",
            "    degree 2: R^2 0.064935, adjusted -0.246753",
            "    degree 3: R^2 0.064935, adjusted -0.496104",
            "    degree 4: R^2 0.194406, adjusted -0.611189",
        ]

    def test_r_squared_that_rounds_to_zero_prints_unsigned(self):
        text = render_verdict(select_degree(one_bump_points(), SelectionPolicy()))
        # The adjusted R^2 is negative after rounding and keeps its sign.
        assert "    degree 1: R^2 0.000000, adjusted -0.142857" in text.splitlines()
        assert "-0.000000" not in text

    @pytest.mark.parametrize(
        "value, places, text",
        [
            (-1e-17, 6, "0.000000"),
            (-0.0, 3, "0.000"),
            (-0.0004, 3, "0.000"),
            (-0.0006, 3, "-0.001"),
            (-0.142857, 6, "-0.142857"),
            (-400.0, 3, "-400.000"),
            (2.5e-10, 3, "0.000"),
        ],
    )
    def test_fixed_drops_the_sign_only_of_a_rounded_zero(self, value, places, text):
        assert format_fixed(value, places) == text

    def test_degenerate_marker(self):
        points = [DataPoint(0.1 * i, 1.0) for i in range(1, 10)]
        text = render_verdict(select_degree(points, SelectionPolicy()))
        assert "degenerate" in text
