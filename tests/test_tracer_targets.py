"""Names that code outside the package relies on must keep resolving.

``perfbench/tracer.install`` skips a target that no longer resolves, so a
renamed or deleted function would make its layer's metric read 0 with no
error.  This resolves each target the way ``install`` does, without
installing anything.  The benchmark's output check draws its inputs
through ``perfbench/oracle.py``, which must keep drawing what the
pipeline draws; and every name a module lists in ``__all__`` must exist,
or ``from ... import *`` breaks.  Each name the package itself once
exported stays public in the module that defines it, and only there.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import sortlab
import sortlab.report.cli  # noqa: F401  (imports every module the targets name)
from sortlab.distributions import geometric, mix64, sample_block

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_target_resolves_to_callable(target):
    _, module_name, attr, _ = target
    module = sys.modules.get(module_name)
    assert module is not None, f"{module_name} is not imported by sortlab.report.cli"
    owner, _, method = attr.partition(".")
    fn = getattr(module, owner, None)
    if method:
        assert isinstance(fn, type), f"{module_name}.{owner} is not a class"
        fn = vars(fn).get(method)
    assert callable(fn), f"{module_name}.{attr} does not resolve to a callable"


def test_oracle_draws_the_pipeline_inputs():
    oracle = _load("oracle")
    seed, n, trials, p_values = 20261018, 7, 3, (0.3, 0.8)
    got = oracle.trial_arrays(seed, n, trials, p_values)
    want = np.concatenate(
        [sample_block(geometric(p), n, mix64(seed, k), 0, trials) for k, p in enumerate(p_values)]
    ).T
    assert got.shape == (n, len(p_values) * trials)
    assert np.array_equal(got, want)


_MODULES = [sortlab] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(sortlab.__path__, "sortlab.")
    if info.name != "sortlab.__main__"
]


@pytest.mark.parametrize(
    "module,name",
    [(m, name) for m in _MODULES for name in getattr(m, "__all__", ())],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_all_names_resolve(module, name):
    assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}, which it lacks"


# The names `sortlab` itself once exported, by the module that defines them.
_FORMER_PACKAGE_NAMES = {
    "algorithms": (
        "OpCounters",
        "count_inversions",
        "exchange_selection_sort",
        "textbook_selection_sort",
    ),
    "distributions": ("ContinuousUniform", "Geometric", "geometric", "mix64", "sample_block"),
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


@pytest.mark.parametrize(
    "module_name,name",
    [(module, name) for module, names in _FORMER_PACKAGE_NAMES.items() for name in names],
    ids=lambda v: v,
)
def test_former_package_name_is_public_in_its_module(module_name, name):
    module = importlib.import_module(f"sortlab.{module_name}")
    assert name in module.__all__, f"sortlab.{module_name}.__all__ no longer lists {name!r}"
    assert not hasattr(sortlab, name), f"sortlab.{name} is back; import it from its module"
