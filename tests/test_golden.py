"""Byte pins: CLI artifacts must match the committed goldens exactly.

The goldens in ``tests/golden/`` were written by the per-trial counters
that the batched kernels replaced, so any drift in sampling, counting or
reduction order shows up here as a byte difference, not only as a
self-consistency failure.  Regenerate them only for an intended output
change, and record that change.

The CSVs hold counts and their moments only, so they are pinned byte for
byte.  ``verdict.json`` also holds least-squares fits whose last bits
depend on the LAPACK/BLAS build, so it is compared parsed: keys (in
order), labels, flags and integers exactly, floats to 1e-12 relative.
"""

import json
from pathlib import Path

import pytest

from sortlab.report.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMON = ["--n", "50", "--trials", "20", "--seed", "42", "--no-timestamp"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("mode", ["exchange", "textbook", "inversions"])
def test_simulate_matches_golden(tmp_path, capsys, mode, jobs):
    out = tmp_path / "cells.csv"
    rc = main(["simulate", *COMMON, "--mode", mode, "--jobs", jobs, "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"simulate_{mode}.csv").read_bytes()


def assert_json_close(got, want, path="$"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12), path
    else:
        assert got == want, path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reproduce_matches_golden(tmp_path, capsys, jobs):
    rc = main(["reproduce", *COMMON, "--jobs", jobs, "--out-dir", str(tmp_path)])
    assert rc == 0
    table = "table1_repro.csv"
    assert (tmp_path / table).read_bytes() == (GOLDEN / f"reproduce_{table}").read_bytes()
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert_json_close(verdict, json.loads((GOLDEN / "reproduce_verdict.json").read_text()))


FIXTURE = GOLDEN / "fixture"


def test_reproduce_fixture_matches_golden(tmp_path, capsys):
    """Every artifact of `reproduce --use-fixture`: text bytes exact, JSON parsed."""
    args = ["reproduce", "--use-fixture", "--seed", "42", "--no-timestamp"]
    rc = main([*args, "--out-dir", str(tmp_path)])
    assert rc == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in FIXTURE.iterdir() if path.suffix != ".stdout")
    for name in written:
        got, want = tmp_path / name, FIXTURE / name
        if name.endswith(".json"):
            assert_json_close(json.loads(got.read_text()), json.loads(want.read_text()))
        else:
            assert got.read_bytes() == want.read_bytes(), name


@pytest.mark.parametrize("flags, golden", [([], "theory.stdout"), (["--json"], "theory_json.stdout")])
def test_theory_matches_golden(capsys, flags, golden):
    assert main(["theory", "--p", "0.3", *flags]) == 0
    assert capsys.readouterr().out == (FIXTURE / golden).read_text(encoding="utf-8")
