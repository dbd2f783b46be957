"""Tail probabilities for t and F statistics.

The single kernel is the regularized incomplete beta function I_x(a,b),
evaluated by the standard continued fraction (modified Lentz iteration)
with the symmetry switch I_x(a,b) = 1 - I_{1-x}(b,a) applied where the
fraction converges fastest.  Accuracy is well below 1e-10 absolute over
the parameter ranges used here (half-integer a, b from regression
degrees of freedom).
"""

from __future__ import annotations

import math

__all__ = [
    "f_sig",
    "regularized_incomplete_beta",
    "student_t_two_sided_sig",
]

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500


def _off_zero(value: float) -> float:
    # Lentz's guard: a denominator that cancels to about 0 becomes _TINY.
    return _TINY if abs(value) < _TINY else value


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for I_x(a,b), modified Lentz method.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # One iteration takes the fraction's even term, then its odd term.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_sig(t: float, df: int) -> float:
    """Two-sided tail 2*P(T_df > |t|).

    T_df squared is F(1, df), so a two-sided t test is an F(1, df) test:
    the tail is P(F_{1,df} > t*t), and :func:`f_sig` computes it.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return f_sig(t * t, 1, df)


def f_sig(f: float, df1: int, df2: int) -> float:
    """Upper tail P(F_{df1,df2} > f) via the incomplete-beta identity."""
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if f < 0.0:
        raise ValueError(f"f must be nonnegative, got {f}")
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)
