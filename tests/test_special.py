"""Incomplete-beta kernel and t/F tail probabilities against mpmath oracles."""

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sortlab.special import f_sig, regularized_incomplete_beta, student_t_two_sided_sig

mpmath.mp.dps = 30


def oracle_betainc(a: float, b: float, x: float) -> float:
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


def oracle_t_sig(t: float, df: int) -> float:
    # Two-sided tail of Student's t by direct quadrature of the density.
    t_abs = abs(mpmath.mpf(t))
    df_m = mpmath.mpf(df)
    norm = mpmath.gamma((df_m + 1) / 2) / (mpmath.sqrt(df_m * mpmath.pi) * mpmath.gamma(df_m / 2))
    tail = mpmath.quad(lambda u: norm * (1 + u * u / df_m) ** (-(df_m + 1) / 2), [t_abs, mpmath.inf])
    return float(2 * tail)


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    @pytest.mark.parametrize("x", [0.25, 0.7])
    def test_uniform_case(self, x):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 5.0, 17.0, 40.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.5, 5.0, 17.0, 40.0])
    @pytest.mark.parametrize("x", [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6])
    def test_against_mpmath_grid(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            oracle_betainc(a, b, x), abs=1e-10
        )

    @given(
        st.floats(min_value=0.3, max_value=30.0),
        st.floats(min_value=0.3, max_value=30.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80)
    @example(a=0.3125, b=1.0, x=1e-15)
    def test_symmetry_identity(self, a, b, x):
        # Snap x so that 1 - x is exact: otherwise both sides are evaluated
        # at different points, which near x = 0 with a < 1 differs by far
        # more than the tolerance (x = 1e-15, a = 0.3125: 5e-9).
        x = 1.0 - (1.0 - x)
        left = regularized_incomplete_beta(a, b, x)
        right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert left == pytest.approx(right, abs=1e-9)
        assert 0.0 <= left <= 1.0

    @pytest.mark.parametrize("a", [0.3125, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-30, 1e-16, 1e-15, 1e-8])
    def test_tiny_x_closed_form(self, a, x):
        # I_x(a, 1) = x^a: covers the tiny and subnormal x that the snap in
        # test_symmetry_identity rounds away.
        assert regularized_incomplete_beta(a, 1.0, x) == pytest.approx(x**a, rel=1e-12)

    def test_monotone_in_x(self):
        values = [regularized_incomplete_beta(3.0, 4.5, x / 20) for x in range(21)]
        assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentTSig:
    def test_zero_statistic(self):
        assert student_t_two_sided_sig(0.0, 5) == 1.0

    def test_published_statistics(self):
        # Frozen quadrature-oracle values for the two table statistics.
        assert student_t_two_sided_sig(6.000, 5) == pytest.approx(0.001846138, abs=1e-8)
        assert student_t_two_sided_sig(-4.679, 5) == pytest.approx(0.005438461, abs=1e-8)

    @pytest.mark.parametrize(
        "t,df", [(0.5, 1), (1.2, 3), (6.0, 5), (-4.679, 5), (2.5, 7), (19.066, 5), (0.1, 30)]
    )
    def test_against_quadrature_oracle(self, t, df):
        assert student_t_two_sided_sig(t, df) == pytest.approx(oracle_t_sig(t, df), abs=1e-10)

    def test_sign_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert student_t_two_sided_sig(t, 8) == pytest.approx(
                student_t_two_sided_sig(-t, 8), abs=1e-15
            )

    def test_monotone_decreasing_in_magnitude(self):
        sigs = [student_t_two_sided_sig(t / 4, 6) for t in range(0, 40)]
        assert all(s1 >= s2 - 1e-15 for s1, s2 in zip(sigs, sigs[1:]))

    def test_validation(self):
        # Its own message, not f_sig's about (df1, df2): the caller passed one df.
        for df in (0, -3):
            with pytest.raises(ValueError, match=rf"^df must be >= 1, got {df}$"):
                student_t_two_sided_sig(1.0, df)

    @pytest.mark.parametrize("df", range(1, 61))
    def test_is_the_f_test_with_one_numerator_df_bit_for_bit(self, df):
        # T_df squared is F(1, df), and f_sig(t * t, 1, df) evaluates the
        # same incomplete beta as the t tail's own identity, at the same
        # arguments.
        for t in (0.0, 1e-8, -1e-8, 0.5, -0.5, 2.7, -2.7, 40.0, -40.0, 1e8, -1e8):
            former = regularized_incomplete_beta(df / 2, 0.5, df / (df + t * t))
            assert f_sig(t * t, 1, df) == former
            assert student_t_two_sided_sig(t, df) == former


class TestFSig:
    def test_zero_statistic(self):
        assert f_sig(0.0, 3, 5) == 1.0

    def test_published_statistic(self):
        # Frozen mpmath value for the ANOVA F of the reference cubic fit;
        # it renders as ".000" at display precision.
        assert f_sig(186.660, 3, 5) == pytest.approx(1.4962192e-05, abs=2e-9)
        assert f_sig(186.660, 3, 5) < 0.0005

    def test_against_mpmath(self):
        for f, df1, df2 in [(1.0, 2, 10), (3.7, 4, 6), (186.660, 3, 5), (0.25, 1, 12)]:
            x = df2 / (df2 + df1 * f)
            expected = float(mpmath.betainc(df2 / 2, df1 / 2, 0, x, regularized=True))
            assert f_sig(f, df1, df2) == pytest.approx(expected, abs=1e-10)

    def test_squared_t_identity(self):
        t, df = 2.5, 7
        assert f_sig(t * t, 1, df) == pytest.approx(
            student_t_two_sided_sig(t, df), abs=1e-9
        )

    def test_monotone_decreasing(self):
        sigs = [f_sig(f / 2, 3, 9) for f in range(0, 30)]
        assert all(s1 >= s2 - 1e-15 for s1, s2 in zip(sigs, sigs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            f_sig(1.0, 0, 5)
        with pytest.raises(ValueError):
            f_sig(-1.0, 3, 5)
