"""JSON serialization of regression reports and selection verdicts.

Statistics are stored at full float precision (JSON already round-trips
doubles exactly); any rounding happens only in the text renderers.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from ..model_select import EmpiricalOVerdict
from ..polyfit import RegressionReport
from .csvio import RunMetadata

__all__ = [
    "report_to_dict",
    "verdict_to_dict",
    "write_report_json",
    "write_verdict_json",
]


def report_to_dict(report: RegressionReport, metadata: RunMetadata | None = None) -> dict:
    """The report's fields in declaration order, which is the JSON key order."""
    return {**asdict(report), "metadata": asdict(metadata) if metadata is not None else None}


def verdict_to_dict(verdict: EmpiricalOVerdict, metadata: RunMetadata | None = None) -> dict:
    return {
        "selected_degree": verdict.selected_degree,
        "label": verdict.verdict_label,
        "cap_limited": verdict.cap_limited,
        "degenerate": verdict.degenerate,
        "trace": [asdict(entry) for entry in verdict.decision_trace],
        "per_degree": {
            str(degree): report_to_dict(report)
            for degree, report in sorted(verdict.per_degree_reports.items())
        },
        "metadata": asdict(metadata) if metadata is not None else None,
    }


def _dump(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_report_json(
    path: str | Path, report: RegressionReport, metadata: RunMetadata | None = None
) -> None:
    _dump(report_to_dict(report, metadata), path)


def write_verdict_json(
    path: str | Path, verdict: EmpiricalOVerdict, metadata: RunMetadata | None = None
) -> None:
    _dump(verdict_to_dict(verdict, metadata), path)
