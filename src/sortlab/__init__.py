"""Workbench for measuring and modeling sorting cost on geometric inputs.

Pipeline: draw geometric(p) arrays, sort them with instrumented
selection-sort variants, aggregate interchange counts over repeated
trials, compare against closed-form expectations, fit polynomials in p
with full regression diagnostics, and select an empirical growth order.

Submodules: `distributions` (seeded sampling), `algorithms`
(instrumented sorts, inversion counting), `theory` (closed forms),
`montecarlo` (trial harness), `polyfit` (least squares + diagnostics),
`model_select` (degree scan), `report` (CSV/JSON/SVG/CLI).

The names in `__all__` load their submodule on first access, so
`import sortlab` alone imports no submodule and not numpy; this lets the
CLI set numpy's thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "algorithms": (
        "OpCounters",
        "count_inversions",
        "exchange_selection_sort",
        "textbook_selection_sort",
    ),
    "distributions": (
        "ContinuousUniform",
        "Geometric",
        "geometric",
        "mix64",
        "sample_block",
    ),
    "model_select": ("EmpiricalOVerdict", "SelectionPolicy", "render_verdict", "select_degree"),
    "montecarlo": ("ExperimentConfig", "TrialSummary", "run_cell", "run_experiment"),
    "polyfit": (
        "DataPoint",
        "PolyModel",
        "RankDeficientError",
        "RegressionReport",
        "diagnostics",
        "fit",
    ),
    "theory": (
        "TheoryPrediction",
        "expected_interchanges",
        "interchange_probability",
        "tie_probability",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted([*_SUBMODULE_OF, "__version__"])


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
