"""Plain-text rendering of regression reports in the classic three-table layout.

Display rounds to 3 decimals; significances below 0.0005 render as
".000", a value that rounds to zero prints without a minus sign, and
fractional statistics drop the leading zero, mirroring standard
statistical-package output.  Full precision lives in the JSON.
"""

from __future__ import annotations

from ..model_select import format_fixed
from ..polyfit import RegressionReport

__all__ = ["format_bounded", "format_sig", "render_report"]


def _strip_zero(text: str) -> str:
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def format_sig(value: float | None) -> str:
    """Significance display: '.002' style, '.000' below 0.0005, 'n/a' if undefined."""
    return "n/a" if value is None else format_bounded(value)


def format_bounded(value: float) -> str:
    """3-decimal display without a leading zero (correlations, betas)."""
    return _strip_zero(format_fixed(value, 3))


def _fmt(value: float | None) -> str:
    return "" if value is None else format_fixed(value, 3)


def _table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["   ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def render_report(report: RegressionReport) -> str:
    """Model Summary, ANOVA, and Coefficients tables as aligned text."""
    s = report.summary
    a = report.anova
    lines = ["Model Summary"]
    lines += _table(
        [
            ["R", "R Square", "Adjusted R Square", "Std. Error of the Estimate"],
            [
                format_bounded(s.r),
                format_bounded(s.r_squared),
                format_bounded(s.adjusted_r_squared),
                _fmt(s.std_error_of_estimate),
            ],
        ]
    )
    lines.append("")
    lines.append("ANOVA")
    lines += _table(
        [
            ["", "Sum of Squares", "df", "Mean Square", "F", "Sig."],
            [
                "Regression",
                _fmt(a.ss_regression),
                str(a.df_regression),
                _fmt(a.ms_regression),
                _fmt(a.f),
                format_sig(a.sig) if a.sig is not None else "",
            ],
            [
                "Residual",
                _fmt(a.ss_residual),
                str(a.df_residual),
                _fmt(a.ms_residual),
                "",
                "",
            ],
            ["Total", _fmt(a.ss_total), str(a.df_total), "", "", ""],
        ]
    )
    lines.append("")
    lines.append("Coefficients")
    coef_rows = [["", "B", "Std. Error", "Beta", "t", "Sig."]]
    for row in report.coefficients:
        coef_rows.append(
            [
                row.term_name,
                _fmt(row.b),
                _fmt(row.std_error),
                format_bounded(row.beta) if row.beta is not None else "",
                _fmt(row.t),
                format_sig(row.sig) if row.sig is not None else "",
            ]
        )
    lines += _table(coef_rows)
    if report.exact_fit:
        lines.append("")
        lines.append("note: exact fit; residual variation is zero, F and t are undefined")
    return "\n".join(lines) + "\n"
