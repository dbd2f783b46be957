"""Empirical growth-order selection over polynomial degrees.

Scans degrees d in ascending order on one number per degree, s_d: the
significance of the x^d term of the degree-d fit, None when that fit is
exact.  The smallest d whose fit is exact, or whose s_d is below alpha
while s_(d+1) is not, is selected.  The resulting verdict carries an
"O_emp(p^d)" label, a decision trace, and the per-degree regression
reports, so a selection can be audited rather than taken on faith.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

from .distributions import _as_int
from .polyfit import DataPoint, RegressionReport, diagnostics, fit

__all__ = [
    "EmpiricalOVerdict",
    "SelectionPolicy",
    "TraceEntry",
    "render_verdict",
    "select_degree",
]


@dataclass(frozen=True)
class SelectionPolicy:
    """Significance threshold and the degree range to scan.

    Refuses, in this order: an alpha that is not a real number (TypeError)
    or is outside (0, 1), a `d_min` that is not an int >= 1, a `d_max` that
    is not an int, and a `d_max` below `d_min`.  A bool is neither a real
    nor an int; any other real alpha (a Fraction, a numpy float) is stored
    as a float, and a numpy int degree as the Python int it is.
    """

    alpha: float = 0.05
    d_min: int = 1
    d_max: int = 4

    def __post_init__(self):
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise TypeError(f"alpha must be a real number, got {type(self.alpha).__name__}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "d_min", _as_int("d_min", self.d_min, minimum=1))
        object.__setattr__(self, "d_max", _as_int("d_max", self.d_max))
        if self.d_max < self.d_min:
            raise ValueError(f"d_max {self.d_max} must be >= d_min {self.d_min}")


@dataclass(frozen=True)
class TraceEntry:
    """One scanned degree: its own top-term sig, the extension's, the verdict."""

    degree: int
    top_term_sig: float | None
    extension_sig: float | None
    accepted: bool
    reason: str


@dataclass(frozen=True)
class EmpiricalOVerdict:
    """Outcome of a scan, auditable via the trace and per-degree reports.

    `cap_limited` marks a scan that exhausted its degree range without
    finding an adequate degree; `degenerate` marks constant-response
    data, which short-circuits to degree 0 without scanning.  The
    "O_emp(p^d)" label is derived from `selected_degree`, not stored.
    """

    selected_degree: int
    cap_limited: bool
    degenerate: bool
    decision_trace: tuple[TraceEntry, ...]
    per_degree_reports: dict[int, RegressionReport] = field(repr=False)

    @property
    def verdict_label(self) -> str:
        return f"O_emp(p^{self.selected_degree})"


def select_degree(points: Sequence[DataPoint], policy: SelectionPolicy) -> EmpiricalOVerdict:
    """Scan degrees `policy.d_min`..`policy.d_max` and pick the first adequate one.

    The scan reads one number per degree: s_d, the sig of the x^d term of
    the degree-d fit, which is None exactly when that fit is exact.  At
    each d in turn, an exact fit (s_d None) is selected, since nothing is
    left for a higher term to explain; s_d >= alpha passes d over; at
    d = d_max the extension is untestable and d is passed over; otherwise
    d is selected when s_(d+1) is not None and s_(d+1) >= alpha.  If no
    scanned degree is selected, the verdict is the degree cap itself,
    flagged cap-limited, never a silently extended search.  Each degree is
    fitted at most once.  Constant-response data cannot rank degrees at
    all and comes back as a flagged degree-0 verdict.
    """
    m = len(points)
    if m < policy.d_max + 2:
        raise ValueError(
            f"scanning up to degree {policy.d_max} needs at least "
            f"{policy.d_max + 2} points, got {m}"
        )

    reports: dict[int, RegressionReport] = {}

    def top_sig(d: int) -> float | None:
        if d not in reports:
            reports[d] = diagnostics(points, fit(points, d))
        return reports[d].highest_order_row.sig

    if len({pt.y for pt in points}) == 1:
        top_sig(0)
        return EmpiricalOVerdict(
            selected_degree=0,
            cap_limited=False,
            degenerate=True,
            decision_trace=(TraceEntry(0, None, None, True, "constant response, nothing to rank"),),
            per_degree_reports=reports,
        )

    trace: list[TraceEntry] = []
    for d in range(policy.d_min, policy.d_max + 1):
        s_d, s_next = top_sig(d), None
        if s_d is None:
            accepted, reason = True, "exact fit, no residual variation left"
        elif s_d >= policy.alpha:
            accepted, reason = False, f"own top term not significant at alpha={policy.alpha:g}"
        elif d == policy.d_max:
            accepted, reason = False, "degree cap reached, extension untestable"
        else:
            s_next = top_sig(d + 1)
            accepted = s_next is not None and s_next >= policy.alpha
            if accepted:
                reason = f"top term significant, extension term not, at alpha={policy.alpha:g}"
            elif s_next is not None:
                reason = "extension term still significant"
            else:
                reason = "extension fit is exact"
        trace.append(TraceEntry(d, s_d, s_next, accepted, reason))
        if accepted:
            break

    return EmpiricalOVerdict(
        selected_degree=d,
        cap_limited=not accepted,
        degenerate=False,
        decision_trace=tuple(trace),
        per_degree_reports=reports,
    )


def _fmt_sig(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def format_fixed(value: float, places: int) -> str:
    """`value` to `places` decimals, unsigned if it rounds to zero ("0.000", not "-0.000").

    The one negative-zero rule of the text output: the verdict's R^2 lines
    and the tables of :mod:`sortlab.report.render` print through it.
    """
    text = f"{value:.{places}f}"
    return text[1:] if text.startswith("-") and not text.strip("-0.") else text


def render_verdict(verdict: EmpiricalOVerdict) -> str:
    """Human-readable verdict: label, scan trace, per-degree fit quality."""
    head = f"empirical order: {verdict.verdict_label}"
    if verdict.cap_limited:
        head += "  [cap-limited: no scanned degree was adequate]"
    if verdict.degenerate:
        head += "  [degenerate: constant response]"
    lines = [head]
    for entry in verdict.decision_trace:
        lines.append(
            f"  degree {entry.degree}: top-term sig {_fmt_sig(entry.top_term_sig)}, "
            f"extension sig {_fmt_sig(entry.extension_sig)} -> "
            f"{'selected' if entry.accepted else 'passed over'} ({entry.reason})"
        )
    lines.append("  fit quality by degree:")
    for d in sorted(verdict.per_degree_reports):
        rep = verdict.per_degree_reports[d]
        lines.append(
            f"    degree {d}: R^2 {format_fixed(rep.summary.r_squared, 6)}, "
            f"adjusted {format_fixed(rep.summary.adjusted_r_squared, 6)}"
        )
    return "\n".join(lines)
