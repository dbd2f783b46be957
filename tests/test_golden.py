"""Byte pins: CLI artifacts must match the committed goldens exactly.

The simulate and reproduce goldens at the top of ``tests/golden/`` were
written by the per-trial counters
that the batched kernels replaced, so any drift in sampling, counting or
reduction order shows up here as a byte difference, not only as a
self-consistency failure.  The goldens in ``golden/exact/`` and
``golden/degenerate/`` pin the reports of exact fits and the verdict on
a constant response.  Regenerate them only for an intended output
change, and record that change.

The CSVs hold counts and their moments only, so they are pinned byte for
byte.  ``verdict.json`` also holds least-squares fits.  Their bytes do not
depend on the CPU's BLAS or SIMD kernels (``tests/test_report_cli.py``
runs them under other kernels), but the last bits of a float move with
any change in the order of the fits' arithmetic, so the JSON is compared
parsed: keys (in order), labels, flags and integers exactly, floats to
1e-12 relative, with an absolute floor only for the rounding noise of
exact fits (see ``assert_json_close``).
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


def assert_json_close(got, want, path="$", floor=0.0):
    """Keys in order, labels, flags and integers exactly, floats to 1e-12 relative.

    A float has no absolute floor, so a golden 0.0 must come back as 0.0,
    except inside a report whose ``exact_fit`` is true.  There the terms that
    are zero in exact arithmetic (the residual sum of squares, a coefficient
    the data do not need) hold only rounding noise, which moves with any
    change in the order of the arithmetic, so every float of that report
    is also accepted within 1e-12 absolute.
    """
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        if want.get("exact_fit") is True:
            floor = 1e-12
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}", floor)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]", floor)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=floor), path
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


def assert_artifacts_match(out_dir: Path, golden_dir: Path) -> None:
    """Every artifact of a `reproduce` run: text bytes exact, JSON parsed."""
    written = sorted(path.name for path in out_dir.iterdir())
    assert written == sorted(path.name for path in golden_dir.iterdir() if path.suffix != ".stdout")
    for name in written:
        got, want = out_dir / name, golden_dir / name
        if name.endswith(".json"):
            assert_json_close(json.loads(got.read_text()), json.loads(want.read_text()))
        else:
            assert got.read_bytes() == want.read_bytes(), name


def test_reproduce_fixture_matches_golden(tmp_path, capsys):
    args = ["reproduce", "--use-fixture", "--seed", "42", "--no-timestamp"]
    rc = main([*args, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert_artifacts_match(tmp_path, FIXTURE)


DEGENERATE = GOLDEN / "degenerate"


def test_reproduce_degenerate_matches_golden(tmp_path, capsys):
    """n=1 gives zero counts at every p: exact fits at degrees 2-4, a degenerate verdict."""
    args = ["reproduce", "--n", "1", "--trials", "2", "--seed", "1", "--no-timestamp"]
    rc = main([*args, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert_artifacts_match(tmp_path, DEGENERATE)
    captured = capsys.readouterr()
    verdict = (DEGENERATE / "verdict.txt").read_text(encoding="utf-8")
    assert captured.out == f"artifacts written to {tmp_path}\n{verdict}"
    assert captured.err == ""


EXACT = GOLDEN / "exact"


@pytest.mark.parametrize(
    "name, args",
    [
        ("fit_linear_d1", ["fit", "--input", "linear.csv", "--degree", "1"]),
        ("fit_linear_d4", ["fit", "--input", "linear.csv", "--degree", "4"]),
        ("fit_constant_d0", ["fit", "--input", "constant.csv", "--degree", "0"]),
        ("select_constant", ["select", "--input", "constant.csv"]),
        ("select_cubic", ["select", "--input", "cubic.csv"]),
    ],
)
def test_exact_fit_matches_golden(tmp_path, capsys, monkeypatch, name, args):
    """Exact fits and a constant response: stdout bytes exact, the JSON artifact parsed.

    The inputs in ``tests/golden/exact/`` are exactly linear, cubic and
    constant responses, so every fit and every scan here ends on an exact
    fit.  The run is made from that directory so that the JSON's config
    line names the input as written.
    """
    monkeypatch.chdir(EXACT)
    out = tmp_path / "out.json"
    assert main([*args, "--out-json", str(out), "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (EXACT / f"{name}.stdout").read_text(encoding="utf-8")
    assert captured.err == ""
    assert_json_close(json.loads(out.read_text()), json.loads((EXACT / f"{name}.json").read_text()))


@pytest.mark.parametrize("flags, golden", [([], "theory.stdout"), (["--json"], "theory_json.stdout")])
def test_theory_matches_golden(capsys, flags, golden):
    assert main(["theory", "--p", "0.3", *flags]) == 0
    assert capsys.readouterr().out == (FIXTURE / golden).read_text(encoding="utf-8")
