"""Workbench for measuring and modeling sorting cost on geometric inputs.

Pipeline: draw geometric(p) arrays, sort them with instrumented
selection-sort variants, aggregate interchange counts over repeated
trials, compare against closed-form expectations, fit polynomials in p
with full regression diagnostics, and select an empirical growth order.

Submodules: `distributions` (seeded sampling), `algorithms`
(instrumented sorts, inversion counting), `theory` (closed forms),
`montecarlo` (trial harness), `blocks` (its block size and memory per
value), `polyfit` (least squares + diagnostics), `model_select` (degree
scan), `report` (CSV/JSON/SVG/CLI).  Import each name from the submodule
that defines it.

`import sortlab` alone imports no submodule and not numpy; this lets the
CLI set numpy's thread count before numpy loads.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
