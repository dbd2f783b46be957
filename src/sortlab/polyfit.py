"""Polynomial least squares with the full regression diagnostic suite.

Fits y on powers of x by ordinary least squares and reports the model
summary (R, R^2, adjusted R^2, standard error of the estimate), the
regression ANOVA table, and the per-coefficient table (standard errors,
standardized betas, t statistics, two-sided significances).

The fit, its fitted values, its sums of squares and the coefficient
standard errors all come from one set of polynomials q_0 .. q_d orthogonal
over the data's x, made by Forsythe's three-term recurrence (J. SIAM 5(2),
1957; Golub & Van Loan, *Matrix Computations*, section 5.3):

    q_0 = 1,  q_{k+1} = (x - a_k) q_k - b_k q_{k-1},
    a_k = sum(x q_k^2) / sum(q_k^2),  b_k = sum(q_k^2) / sum(q_{k-1}^2).

The same recurrence carries the coefficients of each q_k in powers of x,
as row k of a lower-triangular C.  In that basis the normal equations are
diagonal, with solution g_k = sum(y q_k) / sum(q_k^2): the fitted values
are sum_k g_k q_k, the raw coefficient of x^j is sum_k C[k, j] g_k, and
diag((X^T X)^-1)_j is sum_k C[k, j]^2 / sum(q_k^2).  The fitted values are
never evaluated in powers of x, which cancels catastrophically when the
spread of x is small next to x itself.  Every step is an element-wise
operation or a numpy sum, with no BLAS or LAPACK call, so the results do
not depend on which kernels the CPU selects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import _as_int
from .special import f_sig

__all__ = [
    "AnovaTable",
    "CoefficientRow",
    "DataPoint",
    "ModelSummaryStats",
    "PolyModel",
    "RankDeficientError",
    "RegressionReport",
    "diagnostics",
    "fit",
]

# Residual sum of squares below this fraction of total variation is
# indistinguishable from an exact fit in float64.
_EXACT_FIT_RTOL = 1e-16
_TINY = np.finfo(np.float64).tiny


class RankDeficientError(ValueError):
    """The design matrix does not have full column rank."""


@dataclass(frozen=True)
class DataPoint:
    """One (predictor, response) observation."""

    x: float
    y: float

    def __post_init__(self):
        # Finite by comparison, which also refuses an int past the float range
        # (np.isfinite raises TypeError on one).
        if not (abs(self.x) <= sys.float_info.max and abs(self.y) <= sys.float_info.max):
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class PolyModel:
    """Polynomial in the raw power basis: coefficients[j] multiplies x**j.

    Only the coefficients are passed, at least one and each finite;
    `degree` is derived from them as ``len(coefficients) - 1``.
    """

    degree: int = field(init=False)
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("coefficients must be nonempty")
        if not all(abs(c) <= sys.float_info.max for c in self.coefficients):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "degree", len(self.coefficients) - 1)


@dataclass(frozen=True)
class ModelSummaryStats:
    r: float
    r_squared: float
    adjusted_r_squared: float
    std_error_of_estimate: float


@dataclass(frozen=True)
class AnovaTable:
    ss_regression: float
    ss_residual: float
    ss_total: float
    df_regression: int
    df_residual: int
    df_total: int
    ms_regression: float | None
    ms_residual: float | None
    f: float | None
    sig: float | None


@dataclass(frozen=True)
class CoefficientRow:
    """One row of the coefficient table; beta is absent for the intercept."""

    term_name: str
    b: float
    std_error: float
    beta: float | None
    t: float | None
    sig: float | None


@dataclass(frozen=True)
class RegressionReport:
    """Fitted model plus every statistic of the three diagnostic tables.

    Power terms come first and the intercept last, matching the usual
    coefficient-table layout.  `exact_fit` marks fits whose residual
    variation is zero to machine precision; their F and t statistics
    are undefined and reported as None instead of infinities.
    """

    model: PolyModel
    summary: ModelSummaryStats
    anova: AnovaTable
    coefficients: tuple[CoefficientRow, ...]
    m: int
    exact_fit: bool

    @property
    def highest_order_row(self) -> CoefficientRow:
        # At degree 0 the index is -1: the intercept, the only row.
        return self.coefficients[self.model.degree - 1]


@np.errstate(over="ignore", invalid="ignore")
def _least_squares(points: Sequence[DataPoint], degree: int) -> tuple:
    # The least-squares fit of `degree` on `points`, in Forsythe's basis: the
    # x and y arrays, the values q[k] of q_0 .. q_degree over x, their
    # coefficients in powers of x (row k of c), their norms sum(q[k]**2), the
    # fit's coefficients g[k] = sum(y q[k]) / norms[k] in that basis, and the
    # fit in powers of x, whose x^j coefficient is sum_k g[k] c[k, j].
    # A degree-d polynomial needs d + 1 distinct x values.  A norm that is
    # not a normal float64 (q_k lost in rounding, or powers of x past the
    # float64 range) leaves the k columns before it: the design has rank k.
    x = np.array([pt.x for pt in points], dtype=np.float64)
    y = np.array([pt.y for pt in points], dtype=np.float64)
    distinct = len(set(x.tolist()))
    if distinct < degree + 1:
        raise RankDeficientError(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    q = np.zeros((degree + 1, x.size))
    c = np.zeros((degree + 1, degree + 1))
    norms = np.zeros(degree + 1)
    q[0] = c[0, 0] = 1.0
    for k in range(degree + 1):
        norms[k] = (q[k] * q[k]).sum()
        if not _TINY <= norms[k] < np.inf:
            raise RankDeficientError(f"design matrix rank {k} < {degree + 1}")
        if k < degree:
            a = (x * q[k] * q[k]).sum() / norms[k]
            # At k = 0, b is 0 and rows -1 (the last) of q and c are still zero.
            b = norms[k] / norms[k - 1] if k else 0.0
            q[k + 1] = (x - a) * q[k] - b * q[k - 1]
            # x q_k: c[k] one power up, its top entry (zero below degree) wrapping to the front.
            c[k + 1] = np.roll(c[k], 1) - a * c[k] - b * c[k - 1]
    g = (q * y).sum(axis=1) / norms
    model = PolyModel(coefficients=tuple(float(b) for b in (g[:, None] * c).sum(axis=0)))
    return x, y, q, c, norms, g, model


def _fit_degree(points: Sequence[DataPoint], degree: int) -> int:
    # `degree` as an int >= 0, refused unless `points` leave it one residual
    # df: the check `fit` makes before its pass, and the `fit` command before
    # its report's.
    degree = _as_int("degree", degree, minimum=0)
    if len(points) < degree + 2:
        raise ValueError(
            f"degree {degree} needs at least {degree + 2} points (1 residual df), got {len(points)}"
        )
    return degree


def fit(points: Sequence[DataPoint], degree: int) -> PolyModel:
    """Least-squares polynomial of `degree` through `points`.

    Requires at least degree + 2 observations, one residual degree of
    freedom, so that the diagnostic tables are defined, and degree + 1
    distinct x values; duplicate-x rank collapse raises
    :class:`RankDeficientError` rather than being silently regularized.
    An interpolation, with no residual df, is reported by
    ``diagnostics(points, len(points) - 1)``, which flags it exact.
    `degree` must be an int >= 0 (a bool is not an int): anything else
    raises TypeError or ValueError before any fitting.

    The predictor's range is bounded: a fit is refused, with
    ``RankDeficientError("design matrix rank k < degree + 1")``, where the
    norm sum(q_k^2) of an orthogonal polynomial leaves the normal float64
    range.  The norms scale as the spread of x to the power 2k, so on
    x = 1..7 times 10^e degree 2 is fitted for e in [-77, 76] and degree 4
    for e in [-38, 38]; a p in (0, 1] is far from the top of that range.
    """
    return _least_squares(points, _fit_degree(points, degree))[-1]


def diagnostics(points: Sequence[DataPoint], degree: int) -> RegressionReport:
    """Model summary, ANOVA, and coefficient table of the degree-`degree` fit.

    Reports the least-squares fit of `degree` on `points`, whose model is
    that of ``fit(points, degree)``: the report's model, its B column and
    every other statistic come from one least-squares pass.  `degree` is
    checked as `fit` checks it, but no residual df is required: an
    interpolation is ``diagnostics(points, len(points) - 1)``, flagged
    exact.  It refuses, as `fit` does, a degree d on fewer than d + 1
    distinct x values, or where the design's rank is below d + 1
    (:class:`RankDeficientError`).  It also refuses (ValueError) a
    non-constant response whose total sum of squares is past about 1.8e308
    or below about 2.2e-292, where the statistics overflow or underflow:
    1e-16 of it, the exact-fit tolerance, must be a normal float64.  A sum
    of squares that overflows warns of nothing.  Sums of squares are taken
    around the response mean (intercept models), standardized betas use
    sample standard deviations of the raw power columns and of y (the
    column x^j taken as max|x|^j (x / max|x|)^j, so its square does not
    overflow), and significances come from the t and F upper tails.

    An exact fit (no residual variation to machine precision, or no
    residual degrees of freedom) reports R^2 and adjusted R^2 of 1, a
    residual mean square, standard error of the estimate and coefficient
    standard errors of 0, and None for F, every t and every sig.  Every
    other statistic comes from the same formula as for any fit.
    """
    d = _as_int("degree", degree, minimum=0)
    x, y, q, c, norms, g, model = _least_squares(points, d)
    m = x.size
    # Squares past the float64 range are inf, which the refusal below or the
    # exact-fit test handles: on a constant response of about 1e300 the
    # fitted values' rounding noise squares past it.
    with np.errstate(over="ignore"):
        ybar = float(y.mean())
        ss_tot = float(((y - ybar) ** 2).sum())
        fitted = (g[:, None] * q).sum(axis=0)
        resid = y - fitted
        ss_res = float((resid * resid).sum())
        ss_reg = float(((fitted - ybar) ** 2).sum())
    # The exact-fit test compares ss_res with ss_tot * _EXACT_FIT_RTOL; below
    # a normal float64 that bound, and the ss_res it is compared with, have
    # lost their precision, and ss_res / df_res can underflow to 0.0.
    if y.min() < y.max() and not _TINY <= ss_tot * _EXACT_FIT_RTOL < np.inf:
        why = "not a normal float64"
        if _TINY <= ss_tot < np.inf:
            why = "too small to test for an exact fit"
        raise ValueError(
            f"the response's total sum of squares is {ss_tot!r}, {why}: rescale the response"
        )
    df_reg, df_res, df_tot = d, m - d - 1, m - 1

    exact = ss_tot == 0.0 or ss_res <= ss_tot * _EXACT_FIT_RTOL or df_res == 0

    r_squared = 1.0 if exact else 1.0 - ss_res / ss_tot
    adjusted = 1.0 if exact else 1.0 - (1.0 - r_squared) * df_tot / df_res
    ms_res = 0.0 if exact else ss_res / df_res
    ms_reg = ss_reg / df_reg if df_reg > 0 else None
    see = float(np.sqrt(ms_res))
    f_stat = None if exact or ms_reg is None else ms_reg / ms_res
    f_p = None if f_stat is None else f_sig(f_stat, df_reg, df_res)

    summary = ModelSummaryStats(
        r=float(np.sqrt(max(r_squared, 0.0))),
        r_squared=r_squared,
        adjusted_r_squared=adjusted,
        std_error_of_estimate=see,
    )
    anova = AnovaTable(
        ss_regression=ss_reg,
        ss_residual=ss_res,
        ss_total=ss_tot,
        df_regression=df_reg,
        df_residual=df_res,
        df_total=df_tot,
        ms_regression=ms_reg,
        ms_residual=ms_res,
        f=f_stat,
        sig=f_p,
    )

    # sum_k C[k, j]^2 / norms[k], scaled before squaring: C[k, j] can pass
    # 1e154 while norms[k] is a normal float64.
    diag = ((c / np.sqrt(norms)[:, None]) ** 2).sum(axis=0)
    s_y = float(y.std(ddof=1)) if m > 1 else 0.0
    top = np.abs(x).max()
    rows = []
    for j in list(range(1, d + 1)) + [0]:
        b_j = float(model.coefficients[j])
        # Not sqrt(diag * 0.0) for an exact fit: that is NaN where diag overflowed.
        se_j = 0.0 if exact else float(np.sqrt(diag[j] * ms_res))
        t_j = None if exact else b_j / se_j
        # T squared is F(1, df): the t test's two-sided sig is an F tail.
        p_j = None if t_j is None else f_sig(t_j * t_j, 1, df_res)
        if j == 0:
            beta_j = None
            name = "(constant)"
        else:
            # x^j's sd with x scaled by its largest |x|, or the square overflows.
            s_xj = float(top**j * ((x / top) ** j).std(ddof=1))
            beta_j = b_j * s_xj / s_y if s_y > 0.0 else None
            name = "x" if j == 1 else f"x^{j}"
        rows.append(
            CoefficientRow(term_name=name, b=b_j, std_error=se_j, beta=beta_j, t=t_j, sig=p_j)
        )

    return RegressionReport(
        model=model,
        summary=summary,
        anova=anova,
        coefficients=tuple(rows),
        m=m,
        exact_fit=exact,
    )
