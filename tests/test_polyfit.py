"""Polynomial least squares and the diagnostic tables, with cross-oracles."""

import math
import warnings
from dataclasses import asdict, astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from sortlab import polyfit
from sortlab.polyfit import (
    DataPoint,
    ModelSummaryStats,
    PolyModel,
    RankDeficientError,
    diagnostics,
    fit,
)
from sortlab.report.fixture import reference_points
from sortlab.report.render import format_sig

# Published reference statistics for the cubic fit of the embedded rows.
CUBIC_B = {"(constant)": 44576.213, "x": -173518.487, "x^2": 260373.301, "x^3": -133999.436}
CUBIC_SE = {"(constant)": 2337.970, "x": 19171.152, "x^2": 43399.090, "x^3": 28639.647}
CUBIC_BETA = {"x": -5.229, "x^2": 8.046, "x^3": -3.769}
CUBIC_T = {"(constant)": 19.066, "x": -9.051, "x^2": 6.000, "x^3": -4.679}
CUBIC_SIG_RENDERED = {"(constant)": ".000", "x": ".000", "x^2": ".002", "x^3": ".005"}


def random_points_strategy(min_size=5, max_size=12):
    return st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=20),
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda pair: pair[0],
    ).map(lambda pairs: [DataPoint(float(x), y) for x, y in pairs])


class TestTypes:
    def test_datapoint_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DataPoint(float("nan"), 1.0)
        with pytest.raises(ValueError):
            DataPoint(1.0, float("inf"))
        # Ints past the float range are refused, not overflowed.
        for big in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="^coordinates must be finite"):
                DataPoint(big, 1.0)
            with pytest.raises(ValueError, match="^coordinates must be finite"):
                DataPoint(1.0, big)

    def test_polymodel_validation(self):
        with pytest.raises(ValueError, match="^coefficients must be nonempty$"):
            PolyModel(())
        for bad in (float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)):
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                PolyModel((1.0, bad))

    def test_polymodel_derives_its_degree(self):
        assert PolyModel((3.0,)).degree == 0
        assert PolyModel((1.0, 0.0, 0.0, 2.0)).degree == 3
        assert fit(reference_points(), 4).degree == 4
        with pytest.raises(TypeError):
            PolyModel(degree=1, coefficients=(1.0, 2.0))
        # Declaration order is the JSON key order: degree, then coefficients.
        assert list(asdict(PolyModel((1.0, 2.0)))) == ["degree", "coefficients"]


class TestFit:
    def test_exact_line(self):
        points = [DataPoint(float(x), 2.0 * x + 1.0) for x in range(6)]
        model = fit(points, 1)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert model.coefficients[1] == pytest.approx(2.0, abs=1e-10)

    def test_reference_cubic_coefficients(self):
        model = fit(reference_points(), 3)
        b0, b1, b2, b3 = model.coefficients
        assert b0 == pytest.approx(CUBIC_B["(constant)"], abs=0.5)
        assert b1 == pytest.approx(CUBIC_B["x"], abs=0.5)
        assert b2 == pytest.approx(CUBIC_B["x^2"], abs=0.5)
        assert b3 == pytest.approx(CUBIC_B["x^3"], abs=0.5)

    def test_df_boundary(self):
        points = [DataPoint(float(x), float(x * x)) for x in range(4)]
        message = r"^degree 3 needs at least 5 points \(1 residual df\), got 4$"
        with pytest.raises(ValueError, match=message):
            fit(points, 3)  # m = degree + 1: no residual df
        fit(points[:4], 2)  # m = degree + 2: one residual df, allowed

    def test_duplicate_x_rank_collapse(self):
        points = [DataPoint(1.0, 0.0), DataPoint(1.0, 1.0), DataPoint(1.0, 2.0), DataPoint(1.0, 3.0)]
        with pytest.raises(RankDeficientError, match=r"^degree 1 needs 2 distinct x values, got 1$"):
            fit(points, 1)
        # -0.0 and 0.0 are one x value.
        points = [DataPoint(x, y) for x, y in [(0.0, 1.0), (-0.0, 2.0), (1.0, 3.0), (1.0, 4.0)]]
        with pytest.raises(RankDeficientError, match=r"^degree 2 needs 3 distinct x values, got 2$"):
            fit(points, 2)

    def test_interpolation_at_zero_residual_df(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            m = int(rng.integers(2, 8))
            xs = rng.choice(np.arange(-30, 30), size=m, replace=False).astype(float)
            ys = rng.normal(0.0, 50.0, size=m)
            points = [DataPoint(x, y) for x, y in zip(xs, ys)]
            model = diagnostics(points, m - 1).model
            resid = ys - polyval(xs, model.coefficients)
            assert np.max(np.abs(resid)) < 1e-6 * max(np.max(np.abs(ys)), 1.0)

    @given(random_points_strategy())
    @settings(max_examples=60)
    def test_residual_orthogonality(self, points):
        degree = 2
        model = fit(points, degree)
        x = np.array([pt.x for pt in points])
        y = np.array([pt.y for pt in points])
        design = np.vander(x, degree + 1, increasing=True)
        resid = y - design @ np.array(model.coefficients)
        for j in range(degree + 1):
            col = design[:, j]
            scale = float(np.linalg.norm(col) * np.linalg.norm(y)) + 1e-9
            assert abs(float(col @ resid)) <= 1e-6 * scale

    @given(random_points_strategy())
    @settings(max_examples=40)
    def test_prediction_invariant_under_x_scaling(self, points):
        degree = 2
        base = fit(points, degree)
        scaled = fit([DataPoint(pt.x * 10.0, pt.y) for pt in points], degree)
        xs = np.array([pt.x for pt in points])
        base_pred = polyval(xs, base.coefficients)
        scaled_pred = polyval(xs * 10.0, scaled.coefficients)
        scale = np.max(np.abs(base_pred)) + 1e-9
        assert np.max(np.abs(base_pred - scaled_pred)) <= 1e-8 * scale

    def test_matches_numpy_polyfit_oracle(self):
        rng = np.random.default_rng(2718)
        for degree in (1, 2, 3):
            xs = np.sort(rng.uniform(-3, 3, size=12))
            ys = rng.normal(0, 10, size=12)
            points = [DataPoint(float(x), float(y)) for x, y in zip(xs, ys)]
            ours = np.array(fit(points, degree).coefficients)
            theirs = np.polynomial.polynomial.polyfit(xs, ys, degree)
            assert np.allclose(ours, theirs, rtol=1e-8, atol=1e-8)

    def test_degree_zero_is_mean(self):
        points = [DataPoint(float(x), float(y)) for x, y in [(0, 1), (1, 3), (2, 5)]]
        model = fit(points, 0)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-12)

    def test_degree_zero_at_one_x_is_mean(self):
        # Every x equal: q_0 = 1 is the only polynomial, and its coefficient
        # sum(y) / m is the plain mean.
        points = [DataPoint(0.5, y) for y in (1.0, 3.0, 8.0)]
        assert fit(points, 0).coefficients == (4.0,)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_spread_that_underflows_is_rank_deficient(self, degree):
        # Distinct x whose spread (about 1e-200) squares to 0.0 in x.std():
        # the norm of q_1 = x - mean(x) underflows too, so only the
        # intercept's column counts.
        points = [DataPoint(k * 1e-200, float(k * k)) for k in range(1, 6)]
        assert np.std([pt.x for pt in points]) == 0.0
        with pytest.raises(RankDeficientError, match=f"^design matrix rank 1 < {degree + 1}$"):
            fit(points, degree)
        assert fit(points, 0).coefficients[0] == pytest.approx(11.0)


@pytest.fixture(scope="module")
def report():
    points = reference_points()
    return diagnostics(points, 3)


class TestDiagnosticsReference:

    def test_model_summary(self, report):
        assert report.summary.r_squared == pytest.approx(0.991, abs=0.001)
        assert report.summary.adjusted_r_squared == pytest.approx(0.986, abs=0.001)
        assert report.summary.std_error_of_estimate == pytest.approx(1081.351, abs=0.5)
        assert report.summary.r == pytest.approx(np.sqrt(report.summary.r_squared), abs=1e-12)

    def test_anova(self, report):
        assert report.anova.ss_regression == pytest.approx(6.548e8, abs=5e4)
        assert report.anova.ss_residual == pytest.approx(5846595.0, abs=5000.0)
        assert (report.anova.df_regression, report.anova.df_residual, report.anova.df_total) == (3, 5, 8)
        assert report.anova.f == pytest.approx(186.660, abs=0.05)
        assert format_sig(report.anova.sig) == ".000"
        assert report.anova.ss_total == pytest.approx(
            report.anova.ss_regression + report.anova.ss_residual,
            rel=1e-6,
        )

    def test_coefficient_table(self, report):
        rows = {row.term_name: row for row in report.coefficients}
        assert set(rows) == set(CUBIC_B)
        assert report.coefficients[-1].term_name == "(constant)"
        for name, row in rows.items():
            assert row.b == pytest.approx(CUBIC_B[name], abs=0.5)
            assert row.std_error == pytest.approx(CUBIC_SE[name], abs=0.5)
            assert row.t == pytest.approx(CUBIC_T[name], abs=0.005)
            assert format_sig(row.sig) == CUBIC_SIG_RENDERED[name]
            assert row.t == pytest.approx(row.b / row.std_error, rel=1e-9)
        assert rows["(constant)"].beta is None
        for name, beta in CUBIC_BETA.items():
            assert rows[name].beta == pytest.approx(beta, abs=0.005)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_standard_errors_match_exact_normal_equations(self, degree):
        # sqrt(diag((X^T X)^-1) ms_residual), with (X^T X)^-1 taken in 50
        # digits from the float64 x values and ms_residual the report's own;
        # and the residual and regression sums of squares of the 50-digit
        # solution of the normal equations X^T X b = X^T y.
        points = reference_points()
        report = diagnostics(points, degree)
        with mpmath.workdps(50):
            xs = [mpmath.mpf(pt.x) for pt in points]
            ys = [mpmath.mpf(pt.y) for pt in points]
            powers = range(degree + 1)
            xtx = mpmath.matrix([[sum(x ** (i + j) for x in xs) for j in powers] for i in powers])
            inverse = xtx**-1
            want = [float(mpmath.sqrt(inverse[j, j] * report.anova.ms_residual)) for j in powers]
            b = inverse * mpmath.matrix([sum(y * x**i for x, y in zip(xs, ys)) for i in powers])
            fitted = [sum(b[j] * x**j for j in powers) for x in xs]
            ybar = sum(ys) / len(ys)
            ss_residual = float(sum((y - f) ** 2 for y, f in zip(ys, fitted)))
            ss_regression = float(sum((f - ybar) ** 2 for f in fitted))
        for j, row in zip([*range(1, degree + 1), 0], report.coefficients):
            assert row.std_error == pytest.approx(want[j], rel=1e-14), row.term_name
        assert report.anova.ss_residual == pytest.approx(ss_residual, rel=1e-14)
        assert report.anova.ss_regression == pytest.approx(ss_regression, rel=1e-14)

    def test_published_internal_consistency(self, report):
        assert np.sqrt(report.anova.ms_residual) == pytest.approx(
            report.summary.std_error_of_estimate, rel=1e-12
        )
        assert report.anova.ms_regression / report.anova.ms_residual == pytest.approx(
            report.anova.f, rel=1e-12
        )


def assert_reported_or_refused(predictor, exponents):
    # y = k^2 mod 7 at x = predictor(k, e), k = 1..7, for each e and degrees
    # 0-4: each fit is a report whose statistics are all finite or None and
    # whose R^2 is in [0, 1], with no warning, or a refusal
    # (RankDeficientError is a ValueError).
    for e in exponents:
        points = [DataPoint(predictor(k, e), float(k * k % 7)) for k in range(1, 8)]
        for degree in range(5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    report = diagnostics(points, degree)
                except ValueError:
                    continue
            values = [*astuple(report.summary), *astuple(report.anova)]
            for row in report.coefficients:
                values += [row.b, row.std_error, row.beta, row.t, row.sig]
            assert all(v is None or math.isfinite(v) for v in values), (e, degree)
            assert -1e-9 <= report.summary.r_squared <= 1.0 + 1e-9, (e, degree)


class TestDiagnosticsGeneral:
    def test_exact_fit_flagged(self):
        points = [DataPoint(float(x), 2.0 * x + 1.0) for x in range(6)]
        report = diagnostics(points, 1)
        assert report.exact_fit
        assert report.summary.r_squared == 1.0
        assert report.anova.f is None
        assert all(row.t is None and row.sig is None for row in report.coefficients)

    def test_interpolation_has_zero_residual_df_and_is_exact(self):
        points = [DataPoint(float(x), float(y)) for x, y in [(0, 3), (1, -1), (2, 4), (3, 0)]]
        report = diagnostics(points, 3)
        model = report.model
        assert report.anova.df_residual == 0
        assert report.exact_fit
        assert report.summary == ModelSummaryStats(
            r=1.0, r_squared=1.0, adjusted_r_squared=1.0, std_error_of_estimate=0.0
        )
        anova = report.anova
        assert (anova.df_regression, anova.df_total) == (3, 3)
        assert anova.ss_total == 17.0
        assert anova.ms_regression == anova.ss_regression / 3
        assert (anova.ms_residual, anova.f, anova.sig) == (0.0, None, None)
        assert [row.term_name for row in report.coefficients] == ["x", "x^2", "x^3", "(constant)"]
        for row, b in zip(report.coefficients, model.coefficients[1:] + model.coefficients[:1]):
            assert (row.b, row.std_error, row.t, row.sig) == (b, 0.0, None, None)

    def test_a_model_is_not_a_degree(self):
        # The report takes the degree it reports, not a fitted model.
        points = reference_points()
        with pytest.raises(TypeError, match="^degree must be an int, got PolyModel$"):
            diagnostics(points, fit(points, 3))

    def test_constant_response_exact(self):
        # Also at scales whose squared deviations would leave float64: a
        # constant response is not refused.  At 1e300 the fitted values'
        # rounding noise squares past float64, without a warning.
        for value in (7.5, 1e-162, 1e160, 1e300):
            points = [DataPoint(float(x), value) for x in range(5)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = diagnostics(points, 1)
            assert report.exact_fit
            assert report.anova.ss_total == 0.0

    def test_degree_zero_report(self):
        points = [DataPoint(float(x), float(x)) for x in range(5)]
        report = diagnostics(points, 0)
        assert report.anova.df_regression == 0
        assert report.anova.f is None
        assert len(report.coefficients) == 1
        assert report.coefficients[0].term_name == "(constant)"
        assert report.highest_order_row is report.coefficients[0]

    @given(random_points_strategy())
    @settings(max_examples=60)
    def test_summary_invariants(self, points):
        y = np.array([pt.y for pt in points])
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if y.min() < y.max() and ss_tot * polyfit._EXACT_FIT_RTOL < np.finfo(float).tiny:
            # Deviations of about 1e-146 or less: refused, not reported.
            with pytest.raises(ValueError, match="total sum of squares is .*: rescale the response"):
                diagnostics(points, 2)
            return
        report = diagnostics(points, 2)
        assert -1e-12 <= report.summary.r_squared <= 1.0 + 1e-12
        assert report.summary.adjusted_r_squared <= report.summary.r_squared + 1e-12
        assert report.anova.ss_total == pytest.approx(
            report.anova.ss_regression + report.anova.ss_residual,
            rel=1e-6,
            abs=1e-6,
        )
        assert report.anova.df_total == report.anova.df_regression + report.anova.df_residual
        if not report.exact_fit:
            for row in report.coefficients:
                assert row.t == pytest.approx(row.b / row.std_error, rel=1e-9, abs=1e-12)
                assert 0.0 <= row.sig <= 1.0

    @pytest.mark.parametrize(
        "xs, degree",
        [((1.0, 1.0, 2.0, 2.0), 2), ((0.0, 0.0, 0.0, 0.0), 1)],
        ids=["two-x-degree-2", "one-x-degree-1"],
    )
    def test_rank_rule_is_the_same_as_fits(self, xs, degree):
        # Too few distinct x to determine the polynomial: the report is
        # refused exactly as fit refuses that degree.
        points = [DataPoint(x, float(k)) for k, x in enumerate(xs)]
        message = f"^degree {degree} needs {degree + 1} distinct x values, got {len(set(xs))}$"
        with pytest.raises(RankDeficientError, match=message):
            fit(points, degree)
        with pytest.raises(RankDeficientError, match=message):
            diagnostics(points, degree)

    def test_power_column_that_underflows_is_rank_deficient(self):
        # Distinct x of about 1e-200: x^2 underflows to 0.0, and so does the
        # norm of q_1 = x - mean(x), so a degree-2 report is refused with
        # the rank that fit would report.
        points = [DataPoint(k * 1e-200, float(k % 2)) for k in range(5)]
        with pytest.raises(RankDeficientError, match=r"^design matrix rank 1 < 3$"):
            diagnostics(points, 2)

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_predictor_far_from_one_is_reported_or_refused(self, shift):
        # x = shift + k 10^e, k = 1..7, for e over the float64 exponent range.
        assert_reported_or_refused(lambda k, e: shift + k * 10.0**e, range(-300, 301, 10))

    @pytest.mark.parametrize("h", [1e-10, 1e-5, 1e-2])
    def test_offset_predictor_is_reported_or_refused(self, h):
        # x = 10^e (1 + k h), k = 1..7: a spread of h times x itself, where
        # the fitted values would cancel catastrophically in powers of x.
        assert_reported_or_refused(lambda k, e: 10.0**e * (1.0 + k * h), range(0, 301, 10))

    @pytest.mark.parametrize("scale", [1e-162, 1e160])
    def test_response_whose_squares_leave_float64_is_refused(self, scale):
        # Below about 1e-154 the squared deviations underflow, so the
        # residual mean square of a fit that is not exact can be 0.0; above
        # about 1e154 they overflow, and a noisy fit would look exact.
        points = [DataPoint(0.1 * k, c * scale) for k, c in enumerate((1, 3, 2, 5, 1, 4), 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total sum of squares is .*, not a normal float64"):
                diagnostics(points, 1)

    @pytest.mark.parametrize(
        "scales, noise",
        [
            # s = 10^U(-154, -153), e = 10^U(-163, -160): the total sum of
            # squares is normal but its residual sum is subnormal.
            ((-154, -153), lambda rng, s: 10.0 ** rng.uniform(-163, -160)),
            # Noise of 1e-7 to 1e-5 of the trend on either side of the
            # refusal's bound: never an exact fit.
            ((-154, -140), lambda rng, s: s * 10.0 ** rng.uniform(-7, -5)),
        ],
        ids=["subnormal-residual", "across-the-bound"],
    )
    def test_noisy_response_near_underflow_is_refused_or_not_exact(self, scales, noise):
        # y = s(1 + x) + e N(0, 1) at x = 0.1..0.7: no ZeroDivisionError from
        # a mean square that underflows, and no exact fit claimed for noise.
        rng = np.random.default_rng(34)
        x = [0.1 * k for k in range(1, 8)]
        for _ in range(200):
            s = 10.0 ** rng.uniform(*scales)
            e = noise(rng, s)
            points = [DataPoint(xk, s * (1.0 + xk) + e * rng.standard_normal()) for xk in x]
            ss_tot = float(np.var([pt.y for pt in points]) * len(points))
            try:
                report = diagnostics(points, 1)
            except ValueError as exc:
                assert str(exc).endswith(": rescale the response")
                assert ss_tot < 2.3e-292
                continue
            assert not report.exact_fit
            assert report.anova.ms_residual > 0.0

    def test_power_terms_before_intercept(self):
        points = reference_points()
        report = diagnostics(points, 3)
        assert [row.term_name for row in report.coefficients] == ["x", "x^2", "x^3", "(constant)"]
        assert report.highest_order_row.term_name == "x^3"

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_report_has_one_source(self, degree):
        # The report's model, and so its B column, is the fit's own.
        points = reference_points()
        report = diagnostics(points, degree)
        assert report.model == fit(points, degree)
        b = report.model.coefficients
        assert [row.b for row in report.coefficients] == [*b[1:], b[0]]
