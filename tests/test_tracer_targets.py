"""The benchmark's per-layer spans must find every function they wrap.

``perfbench/tracer.install`` skips a target that no longer resolves, so a
renamed or deleted function would make its layer's metric read 0 with no
error.  This resolves each target the way ``install`` does, without
installing anything.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sortlab.report.cli  # noqa: F401  (imports every module the targets name)

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


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
