"""Polynomial least squares with the full regression diagnostic suite.

Fits y on powers of x by ordinary least squares and reports the model
summary (R, R^2, adjusted R^2, standard error of the estimate), the
regression ANOVA table, and the per-coefficient table (standard errors,
standardized betas, t statistics, two-sided significances).

The solver orthogonalizes a centered/scaled design (raw power bases of
even modest degree are ill-conditioned), then maps the coefficients
back to the raw power basis, which is what the reported tables use.
"""

from __future__ import annotations

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


class RankDeficientError(ValueError):
    """The design matrix does not have full column rank."""


@dataclass(frozen=True)
class DataPoint:
    """One (predictor, response) observation."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
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
        if not all(np.isfinite(c) for c in self.coefficients):
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


def _as_arrays(points: Sequence[DataPoint], degree: int) -> tuple[np.ndarray, np.ndarray]:
    # The x and y arrays of `points`, with the rank rule of both fit and
    # diagnostics: a degree-d polynomial needs d + 1 distinct x values.
    x = np.array([pt.x for pt in points], dtype=np.float64)
    y = np.array([pt.y for pt in points], dtype=np.float64)
    distinct = len(set(x.tolist()))
    if distinct < degree + 1:
        raise RankDeficientError(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    return x, y


def fit(points: Sequence[DataPoint], degree: int, *, min_residual_df: int = 1) -> PolyModel:
    """Least-squares polynomial of `degree` through `points`.

    Requires at least degree + 1 + `min_residual_df` observations and
    degree + 1 distinct x values; duplicate-x rank collapse raises
    :class:`RankDeficientError` rather than being silently regularized.
    The default of one residual degree of freedom keeps the diagnostic
    tables defined; pass ``min_residual_df=0`` to allow interpolation.
    `degree` and `min_residual_df` must be ints >= 0 (a bool is not an
    int): anything else raises TypeError or ValueError before any fitting.
    """
    degree = _as_int("degree", degree, minimum=0)
    min_residual_df = _as_int("min_residual_df", min_residual_df, minimum=0)
    m = len(points)
    needed = degree + 1 + min_residual_df
    if m < needed:
        raise ValueError(
            f"degree {degree} needs at least {needed} points "
            f"({min_residual_df} residual df), got {m}"
        )
    x, y = _as_arrays(points, degree)

    mu = float(x.mean())
    scale = float(x.std())
    if scale == 0.0:
        # Every x equal (so degree 0), or a spread of x below about 1e-154,
        # where the variance underflows: the rank check below then refuses
        # any degree above 0.
        scale = 1.0
    z = (x - mu) / scale
    design = np.vander(z, degree + 1, increasing=True)
    coef_z, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < degree + 1:
        raise RankDeficientError(f"design matrix rank {rank} < {degree + 1}")

    # Map back to the raw power basis: compose with z = (x - mu)/scale.
    poly_x = np.polynomial.Polynomial(coef_z)(np.polynomial.Polynomial([-mu / scale, 1.0 / scale]))
    raw = np.zeros(degree + 1)
    raw[: poly_x.coef.size] = poly_x.coef
    return PolyModel(coefficients=tuple(float(c) for c in raw))


def _xtx_inverse_diagonal(design: np.ndarray) -> np.ndarray:
    # diag((X^T X)^-1) via QR of X; avoids forming the normal matrix.
    r = np.linalg.qr(design, mode="r")
    if np.min(np.abs(np.diag(r))) == 0.0:
        raise RankDeficientError("design matrix is singular")
    r_inv = np.linalg.inv(r)
    return (r_inv * r_inv).sum(axis=1)


def diagnostics(points: Sequence[DataPoint], model: PolyModel) -> RegressionReport:
    """Model summary, ANOVA, and coefficient table for a fitted model.

    Assumes `model` was fitted on `points`, and refuses, as `fit` does,
    a model of degree d on fewer than d + 1 distinct x values
    (:class:`RankDeficientError`).  It also refuses (ValueError) a
    non-constant response whose total sum of squares is not a normal
    finite float64: below about 2.2e-308 or past about 1.8e308 the
    statistics underflow or overflow.  Sums of squares are taken
    around the response mean (intercept models), standardized betas use
    sample standard deviations of the raw power columns and of y, and
    significances come from the t and F upper tails.

    An exact fit (no residual variation to machine precision, or no
    residual degrees of freedom) reports R^2 and adjusted R^2 of 1, a
    residual mean square, standard error of the estimate and coefficient
    standard errors of 0, and None for F, every t and every sig.  Every
    other statistic comes from the same formula as for any fit.
    """
    d = model.degree
    x, y = _as_arrays(points, d)
    m = x.size
    coeffs = np.asarray(model.coefficients)
    with np.errstate(over="ignore"):
        ybar = float(y.mean())
        ss_tot = float(((y - ybar) ** 2).sum())
    if y.min() < y.max() and not np.finfo(np.float64).tiny <= ss_tot < np.inf:
        raise ValueError(
            f"the response's total sum of squares is {ss_tot!r}, not a normal "
            "float64: rescale the response"
        )

    design = np.vander(x, d + 1, increasing=True)
    fitted = design @ coeffs
    resid = y - fitted
    ss_res = float(resid @ resid)
    ss_reg = float(((fitted - ybar) ** 2).sum())
    df_reg = d
    df_res = m - d - 1
    df_tot = m - 1

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

    diag = _xtx_inverse_diagonal(design)
    s_y = float(y.std(ddof=1)) if m > 1 else 0.0
    rows = []
    for j in list(range(1, d + 1)) + [0]:
        b_j = float(coeffs[j])
        # Not sqrt(diag * 0.0) for an exact fit: that is NaN where diag overflowed.
        se_j = 0.0 if exact else float(np.sqrt(diag[j] * ms_res))
        t_j = None if exact else b_j / se_j
        # T squared is F(1, df): the t test's two-sided sig is an F tail.
        p_j = None if t_j is None else f_sig(t_j * t_j, 1, df_res)
        if j == 0:
            beta_j = None
            name = "(constant)"
        else:
            s_xj = float(design[:, j].std(ddof=1)) if m > 1 else 0.0
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
