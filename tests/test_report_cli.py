"""Fixture integrity, file formats, figures, and CLI contract tests."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sortlab import montecarlo
from sortlab.model_select import SelectionPolicy, select_degree
from sortlab.montecarlo import TrialSummary
from sortlab.polyfit import DataPoint, PolyModel, diagnostics, fit
from sortlab.report import cli
from sortlab.report.cli import build_parser, main
from sortlab.report.csvio import (
    CSV_HEADER,
    CsvFormatError,
    RunMetadata,
    parse_summaries_csv,
    read_summaries_csv,
    write_summaries_csv,
)
from sortlab.report.fixture import (
    REFERENCE_N,
    REFERENCE_ROWS,
    REFERENCE_TRIALS,
    reference_points,
)
from sortlab.report.jsonio import report_from_dict, report_to_dict, verdict_to_dict
from sortlab.report.render import format_bounded, format_sig, render_report
from sortlab.report.svg import write_scatter_svg

FIXTURE_SHA256 = "07f6a23e204a34f4291c718f54011a9ab969d191d0ca8a016df6a043eabb91fb"


def metadata_for_tests() -> RunMetadata:
    return RunMetadata(
        tool_version="0.1.0",
        algorithm_id="pcg64",
        config="test",
        master_seed=5,
        timestamp=None,
    )


class TestFixture:
    def test_checksum_guards_against_drift(self):
        canon = "\n".join(
            f"{r.p!r},{r.n},{r.trials},{r.mean_c!r},{r.sd_c!r},{r.cv_c!r}"
            for r in REFERENCE_ROWS
        )
        assert hashlib.sha256(canon.encode()).hexdigest() == FIXTURE_SHA256

    def test_shape_and_first_row(self):
        assert len(REFERENCE_ROWS) == 9
        assert (REFERENCE_N, REFERENCE_TRIALS) == (1000, 100)
        first = REFERENCE_ROWS[0]
        assert (first.p, first.mean_c, first.sd_c, first.cv_c) == (0.1, 30590.93, 1785.8720, 0.05838)
        assert all(a.p < b.p for a, b in zip(REFERENCE_ROWS, REFERENCE_ROWS[1:]))
        assert all(a.mean_c > b.mean_c for a, b in zip(REFERENCE_ROWS, REFERENCE_ROWS[1:]))

    def test_reference_points(self):
        points = reference_points()
        assert len(points) == 9
        assert points[4].x == 0.5
        assert points[4].y == 6832.90


class TestCsvRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        rows = (
            TrialSummary(p=0.1, n=50, trials=7, mean_c=123.456789012345, sd_c=0.987654321, cv_c=0.008),
            TrialSummary(p=1.0, n=50, trials=7, mean_c=0.0, sd_c=0.0, cv_c=None),
        )
        path = tmp_path / "cells.csv"
        write_summaries_csv(path, rows, metadata_for_tests())
        loaded, metadata = read_summaries_csv(path)
        assert loaded == rows
        assert metadata["algorithm_id"] == "pcg64"
        assert metadata["master_seed"] == "5"

    def test_cv_empty_not_nan(self, tmp_path):
        rows = (TrialSummary(p=1.0, n=4, trials=2, mean_c=0.0, sd_c=0.0, cv_c=None),)
        path = tmp_path / "cells.csv"
        write_summaries_csv(path, rows, metadata_for_tests())
        data_line = [
            line for line in path.read_text().splitlines() if not line.startswith("#")
        ][1]
        assert data_line.endswith(",")
        assert "nan" not in data_line.lower()

    def test_reference_rows_round_trip(self, tmp_path):
        path = tmp_path / "fixture.csv"
        write_summaries_csv(path, REFERENCE_ROWS, metadata_for_tests())
        loaded, _ = read_summaries_csv(path)
        assert loaded == REFERENCE_ROWS

    def test_missing_header_named(self):
        with pytest.raises(CsvFormatError, match=CSV_HEADER):
            parse_summaries_csv("")

    def test_wrong_header_has_line_number(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            parse_summaries_csv("p,n,mean\n")

    def test_bad_row_has_line_number(self):
        text = "# config: x\n" + CSV_HEADER + "\n0.1,10,5,1.0,0.5,\n0.2,10,abc,1.0,0.5,\n"
        with pytest.raises(CsvFormatError, match="line 4"):
            parse_summaries_csv(text)

    def test_wrong_field_count_has_line_number(self):
        text = CSV_HEADER + "\n0.1,10,5,1.0\n"
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_summaries_csv(text)


class TestJsonRoundTrip:
    def test_report_round_trip(self):
        points = reference_points()
        report = diagnostics(points, fit(points, 3))
        doc = json.loads(json.dumps(report_to_dict(report, metadata_for_tests())))
        assert report_from_dict(doc) == report
        assert set(doc) >= {"model", "summary", "anova", "coefficients", "metadata"}
        assert doc["metadata"]["algorithm_id"] == "pcg64"

    def test_exact_fit_report_round_trip(self):
        points = [DataPoint(float(x), 2.0 * x + 1.0) for x in range(6)]
        report = diagnostics(points, fit(points, 1))
        assert report.exact_fit
        assert report_from_dict(json.loads(json.dumps(report_to_dict(report)))) == report

    def test_verdict_keys(self):
        verdict = select_degree(reference_points(), SelectionPolicy())
        doc = json.loads(json.dumps(verdict_to_dict(verdict, metadata_for_tests())))
        assert set(doc) >= {"selected_degree", "label", "trace", "per_degree"}
        assert doc["selected_degree"] == verdict.selected_degree
        assert doc["label"] == verdict.verdict_label
        assert len(doc["trace"]) == len(verdict.decision_trace)
        assert set(doc["per_degree"]) == {"1", "2", "3", "4"}


class TestRender:
    def test_sig_formatting(self):
        assert format_sig(0.0004999) == ".000"
        assert format_sig(0.002) == ".002"
        assert format_sig(0.0516) == ".052"
        assert format_sig(0.9996) == "1.000"
        assert format_sig(1.0) == "1.000"
        assert format_sig(None) == "n/a"

    def test_bounded_formatting(self):
        assert format_bounded(0.991) == ".991"
        assert format_bounded(-0.123) == "-.123"
        assert format_bounded(-5.229) == "-5.229"

    def test_reference_cubic_table_text(self):
        points = reference_points()
        text = render_report(diagnostics(points, fit(points, 3)))
        for fragment in (
            "Model Summary",
            "ANOVA",
            "Coefficients",
            ".996",
            ".991",
            ".986",
            "1081.351",
            "186.660",
            "-173518.487",
            "260373.301",
            "-133999.436",
            "44576.213",
            "-9.051",
            "6.000",
            "-4.679",
            "19.066",
            ".002",
            ".005",
            "(constant)",
        ):
            assert fragment in text

    def test_exact_fit_note(self):
        points = [DataPoint(float(x), 3.0 * x) for x in range(5)]
        text = render_report(diagnostics(points, fit(points, 1)))
        assert "exact fit" in text


class TestSvg:
    def test_well_formed_with_one_polyline_per_model(self, tmp_path):
        points = reference_points()
        models = [("degree 2", fit(points, 2)), ("degree 3", fit(points, 3))]
        path = tmp_path / "fig.svg"
        write_scatter_svg(path, points, models, metadata=metadata_for_tests(), title="cells")
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:polyline", ns)) == 2
        assert len(root.findall(".//svg:circle", ns)) == len(points)
        texts = [el.text for el in root.findall(".//svg:text", ns)]
        assert "p" in texts
        assert "mean c" in texts
        desc = root.find("svg:desc", ns)
        assert desc is not None and "pcg64" in desc.text

    def test_points_can_be_hidden(self, tmp_path):
        points = reference_points()
        path = tmp_path / "fig.svg"
        write_scatter_svg(path, points, [("fit", fit(points, 3))], include_points=False)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:circle", ns)) == 0
        assert len(root.findall(".//svg:polyline", ns)) == 1

    def test_requires_points(self, tmp_path):
        with pytest.raises(ValueError):
            write_scatter_svg(tmp_path / "fig.svg", [], [])

    def test_no_scripting(self, tmp_path):
        points = reference_points()
        path = tmp_path / "fig.svg"
        write_scatter_svg(path, points, [("fit", fit(points, 2))])
        content = path.read_text()
        assert "<script" not in content


GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# option -> (default, choices, required, accepts "0"); None in the last
# slot for options without a type.
CLI_SURFACE = {
    "simulate": {
        "--n": (1000, None, False, False),
        "--trials": (100, None, False, False),
        "--p": (GRID, None, False, False),
        "--mode": ("exchange", ["exchange", "inversions", "textbook"], False, None),
        "--seed": (None, None, True, True),
        "--jobs": (1, None, False, False),
        "--out": ("-", None, False, None),
        "--no-timestamp": (False, None, False, None),
    },
    "theory": {
        "--dist": ("geometric", ["geometric", "continuous"], False, None),
        "--p": (None, None, False, False),
        "--n": (1000, None, False, False),
        "--json": (False, None, False, None),
    },
    "fit": {
        "--input": (None, None, False, None),
        "--use-fixture": (False, None, False, None),
        "--degree": (None, None, True, True),
        "--out-json": (None, None, False, None),
        "--no-timestamp": (False, None, False, None),
    },
    "select": {
        "--input": (None, None, False, None),
        "--use-fixture": (False, None, False, None),
        "--alpha": (0.05, None, False, False),
        "--d-min": (1, None, False, False),
        "--d-max": (4, None, False, False),
        "--out-json": (None, None, False, None),
        "--no-timestamp": (False, None, False, None),
    },
    "reproduce": {
        "--seed": (None, None, True, True),
        "--out-dir": ("repro_out", None, False, None),
        "--n": (1000, None, False, False),
        "--trials": (100, None, False, False),
        "--jobs": (1, None, False, False),
        "--alpha": (0.05, None, False, False),
        "--use-fixture": (False, None, False, None),
        "--no-timestamp": (False, None, False, None),
    },
}


def _accepts(action, text) -> bool | None:
    if action.type is None:
        return None
    try:
        action.type(text)
    except argparse.ArgumentTypeError:
        return False
    return True


class TestCliSurface:
    """Every subcommand keeps its flags, defaults, choices and requirements."""

    @staticmethod
    def subparsers():
        parser = build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_subcommands(self):
        assert list(self.subparsers()) == list(CLI_SURFACE)

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_options(self, command):
        sub = self.subparsers()[command]
        surface = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (option,) = action.option_strings
            choices = None if action.choices is None else list(action.choices)
            surface[option] = (action.default, choices, action.required, _accepts(action, "0"))
        assert surface == CLI_SURFACE[command]

    @pytest.mark.parametrize("command", list(CLI_SURFACE))
    def test_input_group(self, command):
        groups = [
            (group.required, [a.option_strings for a in group._group_actions])
            for group in self.subparsers()[command]._mutually_exclusive_groups
        ]
        expected = [(True, [["--input"], ["--use-fixture"]])] if command in ("fit", "select") else []
        assert groups == expected

    @pytest.mark.parametrize(
        "argv", [["--help"], ["--version"]] + [[command, "--help"] for command in CLI_SURFACE]
    )
    def test_help_and_version_exit_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out


class TestCliSimulate:
    def test_deterministic_bytes_across_jobs(self, tmp_path):
        args = [
            "simulate", "--n", "40", "--trials", "6", "--p", "0.2,0.5,0.8",
            "--seed", "9", "--no-timestamp",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_row_count_contract(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(
            ["simulate", "--n", "10", "--trials", "2", "--p", "0.1..0.9:0.1",
             "--seed", "42", "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        summaries, metadata = read_summaries_csv(out)
        assert len(summaries) == 9
        assert [round(s.p, 1) for s in summaries] == [round(0.1 * i, 1) for i in range(1, 10)]
        assert metadata["master_seed"] == "42"

    def test_stdout_output(self, capsys):
        rc = main(["simulate", "--n", "5", "--trials", "2", "--p", "0.5", "--seed", "1", "--no-timestamp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out

    def test_invalid_p_exits_2(self, capsys):
        rc = main(["simulate", "--p", "0", "--seed", "1"])
        assert rc == 2
        assert "p must be in (0,1]" in capsys.readouterr().err

    def test_p_too_small_for_int64_exits_1_without_csv(self, tmp_path, capsys):
        out = tmp_path / "tiny.csv"
        rc = main(["simulate", "--n", "20", "--trials", "3", "--p", "1e-300",
                   "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "error: p=1e-300 is too small" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_trial_exits_1_without_csv(self, tmp_path, monkeypatch, capsys):
        # The budget is patched down: no test allocates a trial that large.
        monkeypatch.setattr(montecarlo, "TRIAL_MEMORY_BUDGET", 1000 * montecarlo.BYTES_PER_VALUE)
        out = tmp_path / "big.csv"
        rc = main(["simulate", "--n", "1001", "--trials", "1", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "error: n=1001 is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_p_within_int64_still_samples(self, tmp_path):
        out = tmp_path / "tiny.csv"
        rc = main(["simulate", "--n", "20", "--trials", "3", "--p", "1e-12",
                   "--seed", "1", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        summaries, _ = read_summaries_csv(out)
        assert summaries[0].p == 1e-12 and summaries[0].mean_c > 0

    def test_p_above_one_exits_2(self, capsys):
        rc = main(["simulate", "--p", "1.1", "--seed", "1"])
        assert rc == 2
        assert "p must be in (0,1]" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, capsys):
        rc = main(["simulate", "--n", "5"])
        assert rc == 2

    def test_unknown_flag_exits_2(self, capsys):
        rc = main(["simulate", "--seed", "1", "--frobnicate"])
        assert rc == 2

    def test_sampler_flag_is_gone(self, capsys):
        rc = main(["simulate", "--n", "5", "--trials", "1", "--p", "0.5", "--seed", "1",
                   "--sampler", "loop"])
        assert rc == 2
        assert "unrecognized arguments: --sampler loop" in capsys.readouterr().err

    def test_auto_seed_printed_and_embedded(self, tmp_path, capsys):
        out = tmp_path / "auto.csv"
        rc = main(
            ["simulate", "--n", "5", "--trials", "2", "--p", "0.5", "--seed", "auto",
             "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        stderr = capsys.readouterr().err
        assert "seed: " in stderr
        announced = int(stderr.split("seed: ")[1].split()[0])
        _, metadata = read_summaries_csv(out)
        assert int(metadata["master_seed"]) == announced

    def test_auto_seed_keeps_stdout_csv_readable(self, capsys):
        rc = main(["simulate", "--n", "5", "--trials", "2", "--p", "0.5", "--seed", "auto",
                   "--no-timestamp"])
        assert rc == 0
        captured = capsys.readouterr()
        summaries, metadata = parse_summaries_csv(captured.out)
        assert [s.p for s in summaries] == [0.5]
        assert captured.err == f"seed: {metadata['master_seed']}\n"

    @pytest.mark.parametrize("grid", ["2..2000000:1", "2..2000000000:1"])
    def test_out_of_range_p_range_refused_before_expansion(self, grid, capsys):
        start = time.monotonic()
        assert main(["simulate", "--p", grid, "--seed", "1"]) == 2
        assert time.monotonic() - start < 1.0
        assert "p must be in (0,1]: got 2" in capsys.readouterr().err

    def test_p_range_point_cap(self, capsys):
        limit = cli.MAX_RANGE_POINTS
        assert limit == 10**5
        assert len(cli._parse_p_values("0.000001..0.1:0.000001")) == limit
        with pytest.raises(ValueError, match=f"more than {limit} points"):
            cli._parse_p_values("0.000001..0.100001:0.000001")
        start = time.monotonic()
        assert main(["simulate", "--p", "0.1..0.9:1e-30", "--seed", "1"]) == 2
        assert time.monotonic() - start < 1.0
        assert f"more than {limit} points" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "0.1..nan:0.1", "0.1..0.9:nan", "0.1..0.9:1e-2000000"])
    def test_non_finite_or_extreme_p_exits_2(self, grid, capsys):
        assert main(["simulate", "--p", grid, "--seed", "1"]) == 2
        assert "error: argument --p" in capsys.readouterr().err

    def test_grid_endpoints_inclusive(self, capsys):
        rc = main(["simulate", "--n", "4", "--trials", "1", "--p", "0.2..1.0:0.4",
                   "--seed", "3", "--no-timestamp"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        assert [row.split(",")[0] for row in lines[1:]] == ["0.2", "0.6", "1.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p", "1e-400", "--seed", "1"],
        ["theory", "--p", "1e-400"],
        # Decimal's 28-digit context rounds 0.5 - 1e-400 to 0.5, so the range passes its checks.
        ["simulate", "--p", "1e-400..0.5:0.1", "--seed", "1"],
        ["simulate", "--p", "1e-400,0.5", "--seed", "1"],
    ],
)
def test_p_that_underflows_to_zero_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: argument --p: '1e-400" in err and "rounds to 0.0" in err


def test_smallest_positive_float_p_still_parses():
    assert cli._parse_p_values("5e-324") == (5e-324,)


class TestCliTheory:
    def test_geometric(self, capsys):
        assert main(["theory", "--dist", "geometric", "--p", "0.5", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "166500" in out

    def test_continuous(self, capsys):
        assert main(["theory", "--dist", "continuous", "--n", "1000"]) == 0
        assert "249750" in capsys.readouterr().out

    def test_p_one_expected_zero(self, capsys):
        assert main(["theory", "--dist", "geometric", "--p", "1", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "expected interchanges: 0.0" in out

    def test_json_mode(self, capsys):
        assert main(["theory", "--dist", "geometric", "--p", "0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["expected_interchanges"] == pytest.approx(166500.0, rel=1e-12)

    @pytest.mark.parametrize("dist", [["--dist", "geometric", "--p", "0.5"], ["--dist", "continuous"]])
    def test_n_whose_pairs_overflow_a_float_exits_1(self, dist, capsys):
        n = "1" + "0" * 160
        assert main(["theory", *dist, "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: n={n} is too large: its n(n-1)/2 pairs overflow a float\n"
        assert captured.out == ""

    def test_n_near_1e150_prints(self, capsys):
        assert main(["theory", "--p", "0.5", "--n", "1" + "0" * 150, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 10**150
        assert doc["expected_interchanges"] == pytest.approx(10**300 / 6, rel=1e-12)

    def test_invalid_p_exits_2(self, capsys):
        assert main(["theory", "--dist", "geometric", "--p", "0"]) == 2
        assert "p must be in (0,1]" in capsys.readouterr().err

    def test_missing_p_is_usage_error(self, capsys):
        rc = main(["theory", "--dist", "geometric"])
        assert rc == 2
        assert "--p is required" in capsys.readouterr().err

    def test_p_with_continuous_is_usage_error(self, capsys):
        rc = main(["theory", "--dist", "continuous", "--p", "0.3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: --p applies only to --dist geometric" in captured.err
        assert captured.out == ""


class TestCliFit:
    def test_fixture_tables(self, capsys):
        assert main(["fit", "--use-fixture", "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "186.660" in out
        assert "1081.351" in out

    def test_json_artifact(self, tmp_path, capsys):
        out_json = tmp_path / "fit.json"
        rc = main(["fit", "--use-fixture", "--degree", "3", "--out-json", str(out_json),
                   "--no-timestamp"])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert doc["model"]["degree"] == 3
        assert doc["anova"]["f"] == pytest.approx(186.660, abs=0.05)
        assert doc["metadata"]["timestamp"] is None

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        write_summaries_csv(path, REFERENCE_ROWS, metadata_for_tests())
        assert main(["fit", "--input", str(path), "--degree", "3"]) == 0
        assert "186.660" in capsys.readouterr().out

    def test_insufficient_df_exits_1(self, capsys):
        rc = main(["fit", "--use-fixture", "--degree", "8"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0.1,10,5,1.0,0.5,\nnot,a,row\n")
        rc = main(["fit", "--input", str(path), "--degree", "1"])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_input_flags_exit_2(self, capsys):
        assert main(["fit", "--degree", "3"]) == 2

    @pytest.mark.parametrize(
        "argv", [["fit", "--use-fixture", "--degree", "3"], ["select", "--use-fixture"]]
    )
    def test_nonconvergence_exits_1(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sortlab.special._MAX_ITER", 0)  # every continued fraction gives up
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: incomplete beta continued fraction failed to converge")


class TestCliSelect:
    def test_default_alpha_is_cap_limited(self, capsys):
        assert main(["select", "--use-fixture"]) == 0
        out = capsys.readouterr().out
        assert "O_emp(p^4)" in out
        assert "cap-limited" in out

    def test_alpha_001_selects_cubic(self, capsys):
        assert main(["select", "--use-fixture", "--alpha", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "O_emp(p^3)" in out
        assert "cap-limited" not in out

    def test_d_max_cap(self, capsys):
        assert main(["select", "--use-fixture", "--d-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "O_emp(p^2)" in out
        assert "cap-limited" in out

    def test_verdict_json(self, tmp_path):
        out_json = tmp_path / "verdict.json"
        rc = main(["select", "--use-fixture", "--alpha", "0.01", "--out-json", str(out_json),
                   "--no-timestamp"])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert doc["selected_degree"] == 3
        assert doc["label"] == "O_emp(p^3)"

    def test_invalid_alpha_exits_2(self, capsys):
        assert main(["select", "--use-fixture", "--alpha", "1.5"]) == 2

    def test_d_min_above_d_max_is_usage_error(self, capsys):
        assert main(["select", "--use-fixture", "--d-min", "3", "--d-max", "2"]) == 2
        assert capsys.readouterr().err == "error: d_max 2 must be >= d_min 3\n"


class TestCliReproduce:
    MANIFEST = (
        "table1_repro.csv",
        "fit_d2.json",
        "fit_d3.json",
        "fit_d4.json",
        "verdict.json",
        "fig1.svg",
        "fig2.svg",
        "fig3.svg",
        "fig4.svg",
        "comparison.csv",
    )

    def test_fixture_pipeline_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "repro"
        rc = main(["reproduce", "--use-fixture", "--seed", "42", "--out-dir", str(out_dir),
                   "--no-timestamp"])
        assert rc == 0
        for name in self.MANIFEST:
            assert (out_dir / name).exists(), name
        summaries, _ = read_summaries_csv(out_dir / "table1_repro.csv")
        assert summaries == REFERENCE_ROWS
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["label"].startswith("O_emp(p^")
        fit3 = json.loads((out_dir / "fit_d3.json").read_text())
        assert fit3["anova"]["f"] == pytest.approx(186.660, abs=0.05)
        for fig in ("fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg"):
            ET.parse(out_dir / fig)
        comparison = (out_dir / "comparison.csv").read_text()
        assert "gap" in comparison
        assert "mean_over_pairs" in comparison

    def test_fixture_pipeline_is_deterministic(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for out_dir in (dir_a, dir_b):
            rc = main(["reproduce", "--use-fixture", "--seed", "42",
                       "--out-dir", str(out_dir), "--no-timestamp"])
            assert rc == 0
        for name in self.MANIFEST:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_auto_seed_announced_on_stderr(self, tmp_path, capsys):
        rc = main(["reproduce", "--use-fixture", "--seed", "auto", "--out-dir", str(tmp_path),
                   "--no-timestamp"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("artifacts written to ")
        _, metadata = read_summaries_csv(tmp_path / "table1_repro.csv")
        assert captured.err == f"seed: {metadata['master_seed']}\n"

    def test_single_element_arrays_leave_ratio_empty(self, tmp_path, capsys):
        # At n=1 there are no pairs, so the pairwise expectation is 0 and
        # mean_over_pairs is undefined: left empty, like cv_c for a zero mean.
        rc = main(["reproduce", "--n", "1", "--trials", "3", "--seed", "1",
                   "--out-dir", str(tmp_path), "--no-timestamp"])
        assert rc == 0
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0].endswith(",mean_over_pairs")
        assert rows[1:] == [f"0.{i},0.0,,0.0," for i in range(1, 10)]


def _sortlab_process(args, stdout, unbuffered=False):
    """Run ``python <args>`` in a fresh interpreter that imports this checkout's sortlab."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(cli.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60
    )


class TestCliProcess:
    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads with the first draw, so theory, fit and select
        # never pay for it.  Cells fan out by os.fork, so no command loads a
        # process pool either.
        modules = ("numpy.random", "concurrent.futures", "multiprocessing")
        code = f"import sys, sortlab.report.cli; print([m in sys.modules for m in {modules}])"
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[False, False, False]\n", b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--use-fixture"],
            ["fit", "--use-fixture", "--degree", "3"],
            ["theory", "--p", "0.5", "--n", "10"],
            ["simulate", "--n", "10", "--trials", "2", "--p", "0.5", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_exits_1_without_error_line(self, argv, unbuffered):
        # Buffered, the write fails at main's flush; unbuffered, at the write.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _sortlab_process(["-m", "sortlab", *argv], write_end, unbuffered)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")
