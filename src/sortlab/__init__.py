"""Workbench for measuring and modeling sorting cost on geometric inputs.

Pipeline: draw geometric(p) arrays, sort them with instrumented
selection-sort variants, aggregate interchange counts over repeated
trials, compare against closed-form expectations, fit polynomials in p
with full regression diagnostics, and select an empirical growth order.

Submodules: `distributions` (seeded sampling), `algorithms`
(instrumented sorts, inversion counting), `theory` (closed forms),
`montecarlo` (trial harness), `polyfit` (least squares + diagnostics),
`model_select` (degree scan), `report` (CSV/JSON/SVG/CLI).
"""

from .algorithms import (
    OpCounters,
    count_inversions,
    exchange_selection_sort,
    textbook_selection_sort,
)
from .distributions import (
    ContinuousUniform,
    Geometric,
    RandomSource,
    geometric,
    mix64,
    sample_array,
)
from .model_select import EmpiricalOVerdict, SelectionPolicy, render_verdict, select_degree
from .montecarlo import ExperimentConfig, TrialSummary, run_cell, run_experiment
from .polyfit import (
    DataPoint,
    PolyModel,
    RankDeficientError,
    RegressionReport,
    diagnostics,
    fit,
)
from .theory import TheoryPrediction, expected_interchanges, interchange_probability, tie_probability

__version__ = "0.1.0"

__all__ = [
    "ContinuousUniform",
    "DataPoint",
    "EmpiricalOVerdict",
    "ExperimentConfig",
    "Geometric",
    "OpCounters",
    "PolyModel",
    "RandomSource",
    "RankDeficientError",
    "RegressionReport",
    "SelectionPolicy",
    "TheoryPrediction",
    "TrialSummary",
    "__version__",
    "count_inversions",
    "diagnostics",
    "exchange_selection_sort",
    "expected_interchanges",
    "fit",
    "geometric",
    "interchange_probability",
    "mix64",
    "render_verdict",
    "run_cell",
    "run_experiment",
    "sample_array",
    "select_degree",
    "textbook_selection_sort",
    "tie_probability",
]
