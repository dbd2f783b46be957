"""Fixture integrity, file formats, figures, and CLI contract tests."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
import dataclasses
from dataclasses import asdict, fields
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from sortlab import __version__, montecarlo, polyfit
from sortlab.distributions import ALGORITHM_ID, ContinuousUniform, geometric, mix64
from sortlab.model_select import SelectionPolicy, select_degree
from sortlab.montecarlo import TrialSummary
from sortlab.polyfit import DataPoint, PolyModel, diagnostics, fit
from sortlab.report import cli
from sortlab.report.cli import build_parser, main
from sortlab.report.csvio import (
    CSV_HEADER,
    CsvFormatError,
    RunMetadata,
    format_csv,
    format_summaries_csv,
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
from sortlab.report.jsonio import report_to_dict, verdict_to_dict
from sortlab.report.render import format_bounded, format_sig, render_report
from sortlab.report.svg import write_scatter_svg
from sortlab.theory import TheoryPrediction, predict

FIXTURE_SHA256 = "07f6a23e204a34f4291c718f54011a9ab969d191d0ca8a016df6a043eabb91fb"


def metadata_for_tests() -> RunMetadata:
    return RunMetadata("test", master_seed=5)


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

    def test_numpy_scalar_row_round_trips(self):
        # Stored as Python numbers, a row built from numpy scalars writes the
        # CSV its Python twin writes, and reads back equal to both.
        given = TrialSummary(
            p=np.float64(0.1),
            n=np.int64(10),
            trials=np.int64(5),
            mean_c=np.float64(2.5),
            sd_c=np.float64(0.1 + 0.2),
            cv_c=np.float64(0.12),
        )
        plain = TrialSummary(p=0.1, n=10, trials=5, mean_c=2.5, sd_c=0.1 + 0.2, cv_c=0.12)
        assert [type(v) for v in dataclasses.astuple(given)] == [float, int, int, float, float, float]
        text = format_summaries_csv([given], metadata_for_tests())
        assert text == format_summaries_csv([plain], metadata_for_tests())
        assert parse_summaries_csv(text)[0] == (given,) == (plain,)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["p", "mean_c", "sd_c", "cv_c"])
    def test_non_finite_number_has_line_number(self, field, value):
        row = dict(zip(CSV_HEADER.split(","), ["0.1", "10", "5", "1.0", "0.5", "0.5"]))
        row[field] = value
        text = CSV_HEADER + "\n" + ",".join(row.values()) + "\n"
        with pytest.raises(CsvFormatError, match=f"^line 2: {field} must be finite, got {value}$"):
            parse_summaries_csv(text)

    def test_blank_lines_are_skipped_but_counted(self):
        row = "0.1,10,5,1.0,0.5,0.5"
        text = "# master_seed: 5\n\n" + CSV_HEADER + "\n  \n" + row + "\n\n"
        summaries, metadata = parse_summaries_csv(text)
        assert summaries == parse_summaries_csv(CSV_HEADER + "\n" + row + "\n")[0]
        assert metadata == {"master_seed": "5"}
        with pytest.raises(CsvFormatError, match="^line 7: expected 6 fields, got 1$"):
            parse_summaries_csv(text + "0.2\n")

    def test_wrong_field_count_has_line_number(self):
        text = CSV_HEADER + "\n0.1,10,5,1.0\n"
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_summaries_csv(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,10,5,1.0,0.5,", r"p must be in \(0,1\], got 0.0"),
            ("1.5,10,5,1.0,0.5,", r"p must be in \(0,1\], got 1.5"),
            ("0.1,0,5,1.0,0.5,", "n must be >= 1, got 0"),
            ("0.1,-5,5,1.0,0.5,", "n must be >= 1, got -5"),
            ("0.1,10,0,1.0,0.5,", "trials must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_row_has_line_number(self, row, message):
        text = CSV_HEADER + "\n0.2,10,5,2.0,0.5,\n" + row + "\n"
        with pytest.raises(CsvFormatError, match=f"^line 3: {message}$"):
            parse_summaries_csv(text)


class TestFormatCsv:
    def test_none_is_an_empty_field_and_numbers_are_repr(self):
        rows = [(None, 0.1 + 0.2, 1e-300), (7, None, None)]
        text = format_csv(RunMetadata("cfg"), "a,b,c", rows)
        assert text.splitlines()[-3:] == ["a,b,c", ",0.30000000000000004,1e-300", "7,,"]

    def test_notes_sit_between_the_metadata_and_the_header(self):
        meta = RunMetadata("cfg", master_seed=3)
        text = format_csv(meta, "a,b", [(1, 2)], notes=("first note", "second note"))
        assert text.splitlines() == meta.comment_lines() + [
            "# first note",
            "# second note",
            "a,b",
            "1,2",
        ]
        assert text.endswith("1,2\n")


class TestRunMetadata:
    def test_constant_fields_come_first(self):
        meta = RunMetadata("cfg", master_seed=3, timestamp="t")
        names = [f.name for f in fields(RunMetadata)]
        assert names == ["tool_version", "algorithm_id", "config", "master_seed", "timestamp"]
        assert (meta.tool_version, meta.algorithm_id) == (__version__, ALGORITHM_ID)
        assert meta.comment_lines() == [
            f"# tool_version: {__version__}",
            f"# algorithm_id: {ALGORITHM_ID}",
            "# config: cfg",
            "# master_seed: 3",
            "# timestamp: t",
        ]

    def test_constant_fields_are_not_passed(self):
        for name in ("tool_version", "algorithm_id"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
                RunMetadata("cfg", **{name: "other"})

    def test_create_passes_config_seed_and_timestamp(self):
        assert RunMetadata.create("cfg", master_seed=3, no_timestamp=True) == RunMetadata(
            "cfg", master_seed=3
        )
        stamped = RunMetadata.create("cfg")
        assert datetime.fromisoformat(stamped.timestamp).utcoffset() == timedelta(0)


def typed(value):
    """Dicts and sequences walked, tuples as lists, each leaf as (type name, value),
    so floats compare exactly and never equal an int or a bool."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(item) for item in value]
    return type(value).__name__, value


class TestJsonRoundTrip:
    def test_report_round_trip(self):
        points = reference_points()
        report = diagnostics(points, 3)
        doc = json.loads(json.dumps(report_to_dict(report, metadata_for_tests())))
        assert set(doc) >= {"model", "summary", "anova", "coefficients", "metadata"}
        assert doc.pop("metadata") == asdict(metadata_for_tests())
        assert typed(doc) == typed(asdict(report))

    def test_exact_fit_report_round_trip(self):
        points = [DataPoint(float(x), 2.0 * x + 1.0) for x in range(6)]
        report = diagnostics(points, 1)
        assert report.exact_fit
        doc = json.loads(json.dumps(report_to_dict(report)))
        assert doc.pop("metadata") is None
        assert typed(doc) == typed(asdict(report))

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
        assert format_bounded(-1e-10) == ".000"
        assert format_bounded(-0.0006) == "-.001"

    def test_exact_fit_noise_prints_unsigned(self):
        # The surplus x^2..x^4 coefficients of this exact fit are least-squares
        # rounding noise, of either sign.
        summaries, _ = read_summaries_csv(Path(__file__).parent / "golden" / "exact" / "linear.csv")
        points = [DataPoint(s.p, s.mean_c) for s in summaries]
        rows = render_report(diagnostics(points, 4)).splitlines()
        start = rows.index("Coefficients") + 3  # past the header and the x row
        assert rows[start : start + 3] == [
            "x^2          0.000      0.000        .000",
            "x^3          0.000      0.000        .000",
            "x^4          0.000      0.000        .000",
        ]

    def test_r_square_that_rounds_to_zero_prints_unsigned(self):
        # y = 5 but 6 at p = 0.5: R^2 is zero up to rounding noise, while the
        # adjusted R^2 is negative after rounding and keeps its sign.
        points = [DataPoint(round(0.1 * i, 1), 6.0 if i == 5 else 5.0) for i in range(1, 10)]
        rows = render_report(diagnostics(points, 1)).splitlines()
        assert rows[2] == ".000   .000       -.143               0.356"

    def test_reference_cubic_table_text(self):
        points = reference_points()
        text = render_report(diagnostics(points, 3))
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
        text = render_report(diagnostics(points, 1))
        assert "exact fit" in text


class TestSvg:
    def test_well_formed_with_one_polyline_per_model(self, tmp_path):
        points = reference_points()
        path = tmp_path / "fig.svg"
        write_scatter_svg(
            path, points, fit(points, 3), metadata=metadata_for_tests(), title="cells"
        )
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        (polyline,) = root.findall(".//svg:polyline", ns)
        assert len(polyline.get("points").split()) == 200
        assert len(root.findall(".//svg:circle", ns)) == len(points)
        texts = [el.text for el in root.findall(".//svg:text", ns)]
        (legend,) = [el for el in root.findall(".//svg:text", ns) if el.text == "degree 3"]
        assert legend.get("fill") == polyline.get("stroke")
        assert "p" in texts
        assert "mean c" in texts
        desc = root.find("svg:desc", ns)
        assert desc is not None and "pcg64" in desc.text

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_legend_names_the_model_degree(self, tmp_path, degree):
        path = tmp_path / "fig.svg"
        model = PolyModel(tuple(float(j + 1) for j in range(degree + 1)))
        write_scatter_svg(
            path, reference_points(), model, metadata=metadata_for_tests(), title="cells"
        )
        ns = {"svg": "http://www.w3.org/2000/svg"}
        legends = [
            el.text
            for el in ET.parse(path).getroot().findall(".//svg:text", ns)
            if el.get("font-size") == "12"
        ]
        assert legends == [f"degree {degree}"]

    def test_points_can_be_hidden(self, tmp_path):
        points = reference_points()
        path = tmp_path / "fig.svg"
        write_scatter_svg(
            path,
            points,
            fit(points, 3),
            metadata=metadata_for_tests(),
            title="cells",
            include_points=False,
        )
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//svg:circle", ns)) == 0
        assert len(root.findall(".//svg:polyline", ns)) == 1

    def test_requires_points(self, tmp_path):
        with pytest.raises(ValueError):
            write_scatter_svg(
                tmp_path / "fig.svg",
                [],
                PolyModel((1.0,)),
                metadata=metadata_for_tests(),
                title="cells",
            )

    def test_one_point_widens_both_axes(self, tmp_path):
        # An empty range is widened by 0.5 each way, then padded by 3% (x)
        # and 5% (y) of its width, so the lone point sits mid-plot.
        path = tmp_path / "fig.svg"
        write_scatter_svg(
            path,
            [DataPoint(0.5, 3.0)],
            PolyModel((3.0,)),
            metadata=metadata_for_tests(),
            title="cells",
        )
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        (circle,) = root.findall(".//svg:circle", ns)
        assert (circle.get("cx"), circle.get("cy")) == ("350.00", "212.00")
        ticks = [el.text for el in root.findall(".//svg:text", ns) if el.get("font-size") == "11"]
        assert ticks[0::2] == ["-0.03", "0.235", "0.5", "0.765", "1.03"]
        assert ticks[1::2] == ["2.45", "2.725", "3", "3.275", "3.55"]

    def test_no_scripting(self, tmp_path):
        points = reference_points()
        path = tmp_path / "fig.svg"
        write_scatter_svg(
            path, points, fit(points, 2), metadata=metadata_for_tests(), title="cells"
        )
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

    def test_timestamp_ends_the_comments_in_utc(self, tmp_path):
        out = tmp_path / "cells.csv"
        assert main(["simulate", "--n", "5", "--trials", "2", "--p", "0.5", "--seed", "1",
                     "--out", str(out)]) == 0
        comments = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert comments[-1].startswith("# timestamp: ")
        stamp = datetime.fromisoformat(comments[-1].removeprefix("# timestamp: "))
        assert stamp.utcoffset() == timedelta(0)

    @pytest.mark.parametrize(
        "mode, counter_mode",
        [
            ("exchange", "exchange_interchanges"),
            ("inversions", "inversions"),
            ("textbook", "textbook_interchanges"),
        ],
    )
    def test_mode_runs_its_counter_mode(self, mode, counter_mode, capsys):
        assert main(["simulate", "--n", "5", "--trials", "2", "--p", "0.5", "--seed", "1",
                     "--mode", mode, "--no-timestamp"]) == 0
        _, metadata = parse_summaries_csv(capsys.readouterr().out)
        assert f" mode={counter_mode} " in metadata["config"]

    def test_modes_are_the_counter_modes(self):
        assert cli._MODE_MAP == {
            "exchange": "exchange_interchanges",
            "inversions": "inversions",
            "textbook": "textbook_interchanges",
        }
        assert sorted(cli._MODE_MAP.values()) == sorted(montecarlo.COUNTER_MODES)

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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--seed", "1", "--p", "0.1,,0.2"], "empty p segment"),
        (["simulate", "--seed", "1", "--p", "0.1..0.5"], "needs a step"),
        (["simulate", "--seed", "1", "--p", "0.1..x:0.1"], "bad number in range"),
        (["simulate", "--seed", "1", "--p", "0.5..0.1:0.1"], "runs backwards"),
        (["simulate", "--seed", "1", "--p", "0.1..0.5:0.3"], "does not divide the span exactly"),
        (["simulate", "--seed", "1", "--p", "abc"], "bad p value"),
        (["simulate", "--seed", "1", "--p", "0.5,0.2"], "must be strictly increasing"),
        (["theory", "--p", "0.1,0.2"], "expected a single p value"),
        (["simulate", "--seed", "x"], "integer or 'auto'"),
        (["simulate", "--seed", "18446744073709551616"], "must be a 64-bit unsigned integer"),
        (["simulate", "--seed", "1", "--n", "1.5"], "expected an integer"),
        (["select", "--use-fixture", "--alpha", "x"], "expected a real number"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_refused_argument_exits_2_with_its_message(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _refusal(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


def _config(**fields):
    return montecarlo.ExperimentConfig(**{"n": 5, "trials": 2, "p_values": (0.5,), **fields})


# Every numeric flag at its first refused value, with the library call whose
# check refuses that value.
NUMERIC_FLAG_REFUSALS = [
    *[
        (cmd, flag, text, check)
        for cmd in ("simulate", "reproduce")
        for flag, text, check in [
            ("--n", "0", lambda: _config(n=0)),
            ("--trials", "0", lambda: _config(trials=0)),
            ("--jobs", "0", lambda: montecarlo.run_experiment(_config(), jobs=0)),
            ("--seed", "-1", lambda: mix64(-1, 0)),
            ("--seed", str(2**64), lambda: mix64(2**64, 0)),
        ]
    ],
    ("theory", "--n", "0", lambda: predict(geometric(0.5), 0)),
    ("fit", "--degree", "-1", lambda: fit(reference_points(), -1)),
    ("select", "--d-min", "0", lambda: SelectionPolicy(d_min=0)),
    ("select", "--d-max", "0", lambda: SelectionPolicy(d_max=0)),
    *[
        (cmd, "--alpha", text, lambda text=text: SelectionPolicy(alpha=float(text)))
        for cmd in ("select", "reproduce")
        for text in ("0", "1", "nan")
    ],
]
_REQUIRED_ARGS = {
    "simulate": ["--seed", "1"],
    "reproduce": ["--seed", "1"],
    "theory": ["--p", "0.5"],
    "fit": ["--use-fixture"],
    "select": ["--use-fixture"],
}


@pytest.mark.parametrize(
    "cmd, flag, text, check",
    NUMERIC_FLAG_REFUSALS,
    ids=[" ".join(case[:3]) for case in NUMERIC_FLAG_REFUSALS],
)
def test_numeric_flag_refused_with_the_library_message(cmd, flag, text, check, capsys, tmp_path):
    # The flag under test comes last, so it overrides a required --seed.
    out_dir = ["--out-dir", str(tmp_path / "out")] if cmd == "reproduce" else []
    argv = [cmd, *_REQUIRED_ARGS[cmd], *out_dir, flag, text]
    message = _refusal(check)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"sortlab {cmd}: error: argument {flag}: {message}\n")
    assert not (tmp_path / "out").exists()


class TestCliTheory:
    def test_geometric(self, capsys):
        assert main(["theory", "--dist", "geometric", "--p", "0.5", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "166500" in out

    def test_continuous(self, capsys):
        assert main(["theory", "--dist", "continuous", "--n", "1000"]) == 0
        assert "249750" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "dist,model,text",
        [
            (["--dist", "geometric", "--p", "0.3"], geometric(0.3), "geometric(p=0.3)"),
            (["--dist", "continuous"], ContinuousUniform(), "continuous uniform"),
        ],
    )
    def test_fields_are_the_prediction_record_in_declaration_order(self, dist, model, text, capsys):
        pred = predict(model, 1000)
        names = [f.name for f in fields(TheoryPrediction) if f.name != "model"]
        assert main(["theory", *dist, "--n", "1000"]) == 0
        want = [f"model: {text}"] + [f"{name.replace('_', ' ')}: {getattr(pred, name)}" for name in names]
        assert capsys.readouterr().out.splitlines() == want
        assert main(["theory", *dist, "--n", "1000", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.items()) == [("model", text)] + [(name, getattr(pred, name)) for name in names]

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

    def test_json_artifact_timestamp_is_utc(self, tmp_path, capsys):
        out_json = tmp_path / "fit.json"
        assert main(["fit", "--use-fixture", "--degree", "3", "--out-json", str(out_json)]) == 0
        stamp = datetime.fromisoformat(json.loads(out_json.read_text())["metadata"]["timestamp"])
        assert stamp.utcoffset() == timedelta(0)

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        write_summaries_csv(path, REFERENCE_ROWS, metadata_for_tests())
        assert main(["fit", "--input", str(path), "--degree", "3"]) == 0
        assert "186.660" in capsys.readouterr().out

    def test_insufficient_df_exits_1(self, capsys):
        rc = main(["fit", "--use-fixture", "--degree", "8"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "degree, passes, rc, err",
        [
            ("3", [3], 0, ""),
            ("7", [7], 0, ""),
            ("8", [], 1, "error: degree 8 needs at least 10 points (1 residual df), got 9\n"),
            # 9 distinct p: the rank refusal would read "needs 10 distinct x values".
            ("9", [], 1, "error: degree 9 needs at least 11 points (1 residual df), got 9\n"),
        ],
        ids=["degree-3", "degree-7", "degree-8", "degree-9"],
    )
    def test_one_least_squares_pass(self, monkeypatch, capsys, degree, passes, rc, err):
        # The residual-df refusal is a count check, made before the report's
        # one pass and in place of it.
        fitted = []
        least_squares = polyfit._least_squares

        def counting_least_squares(points, degree):
            fitted.append(degree)
            return least_squares(points, degree)

        monkeypatch.setattr(polyfit, "_least_squares", counting_least_squares)
        assert main(["fit", "--use-fixture", "--degree", degree]) == rc
        assert fitted == passes
        assert capsys.readouterr().err == err

    def test_malformed_csv_exits_1_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0.1,10,5,1.0,0.5,\nnot,a,row\n")
        rc = main(["fit", "--input", str(path), "--degree", "1"])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--degree", "1"], ["select"]])
    @pytest.mark.parametrize("row", ["0.1,10,5,1.0,nan,", "0.1,10,5,inf,0.5,", "nan,10,5,1.0,0.5,"])
    def test_non_finite_csv_exits_1_with_line(self, tmp_path, capsys, command, row):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n" + row + "\n0.2,10,5,2.0,0.5,\n")
        assert main([command[0], "--input", str(path), *command[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    @pytest.mark.parametrize("command", [["fit", "--degree", "1"], ["select"]])
    @pytest.mark.parametrize("row", ["0,10,5,1.0,0.5,", "1.5,10,5,1.0,0.5,", "0.1,-5,0,1.0,0.5,"])
    def test_out_of_range_csv_exits_1_with_line(self, tmp_path, capsys, command, row):
        path = tmp_path / "bad.csv"
        rows = "".join(f"0.{k},10,5,{k}.0,0.5,\n" for k in range(2, 8))
        path.write_text(CSV_HEADER + "\n" + row + "\n" + rows)
        assert main([command[0], "--input", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: ")

    def test_x_spread_that_underflows_exits_1(self, tmp_path, capsys):
        # p = 1e-200 ... 5e-200: the spread of p squares to 0.0, so no
        # degree above 0 can be fitted; the refusal is a RankDeficientError.
        path = tmp_path / "tiny.csv"
        rows = "".join(f"{k}e-200,10,5,{k * k}.0,0.5,\n" for k in range(1, 6))
        path.write_text(CSV_HEADER + "\n" + rows)
        assert main(["fit", "--input", str(path), "--degree", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: design matrix rank 1 < 3\n"

    @pytest.mark.parametrize("command", [["fit", "--degree", "2"], ["select"]])
    def test_x_whose_squares_underflow_exits_1(self, capsys, command):
        # p = 1e-100 ... 7e-100: x and x - mean(x) are fine, but the norm of
        # q_2 is about 1e-400, so degree 2 is refused, with no warning.
        path = Path(__file__).parent / "inputs" / "p_1e-100.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], "--input", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: design matrix rank 2 < 3\n"

    def test_narrow_p_grid_is_reported_not_garbled(self, capsys):
        # p = 0.5 + k 1e-5: in powers of p the fitted values cancel to
        # R Square -14374.571 and a regression sum of squares of 201244.000,
        # past the total of 14.000; the true R Square is 13/22, .591.
        path = Path(__file__).parent / "inputs" / "p_offset.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--input", str(path), "--degree", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split()[:2] == [".769", ".591"]
        assert lines[6].split()[:2] == ["Regression", "8.273"]
        assert lines[7].split()[:2] == ["Residual", "5.727"]
        assert lines[8].split()[:2] == ["Total", "14.000"]

    @pytest.mark.parametrize("command", [["fit", "--degree", "1"], ["select"]])
    @pytest.mark.parametrize(
        "name, total", [("response_1e-162.csv", "1.5e-323"), ("response_1e160.csv", "inf")]
    )
    def test_response_whose_squares_leave_float64_exits_1(self, capsys, command, name, total):
        # An error line, no traceback and no warning: no ZeroDivisionError
        # from an underflowed mean square, no overflow in the squares.
        path = Path(__file__).parent / "inputs" / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], "--input", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the response's total sum of squares is {total}, "
            "not a normal float64: rescale the response\n"
        )

    @pytest.mark.parametrize(
        "command, report",
        [
            (["fit", "--degree", "1"], "note: exact fit; residual variation is zero"),
            (["select"], "O_emp(p^0)  [degenerate: constant response]"),
        ],
        ids=["fit", "select"],
    )
    def test_constant_response_near_the_float64_top_is_exact_and_silent(
        self, capsys, command, report
    ):
        # The fitted values' rounding noise, about 1e284, squares past
        # float64: the exact-fit report, and no overflow warning.
        path = Path(__file__).parent / "inputs" / "constant_1e300.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command[0], "--input", str(path), *command[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert report in captured.out

    def test_csv_without_rows_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        assert main(["fit", "--input", str(path), "--degree", "1"]) == 1
        assert "input CSV contains no data rows" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, degrees",
        [
            (["--use-fixture", "--alpha", "0.05"], {1, 2, 3, 4}),
            (["--use-fixture", "--alpha", "0.005"], {1, 2, 3, 4}),
            (["--use-fixture", "--alpha", "0.002"], {1, 2, 3, 4}),
            (["--n", "1", "--trials", "2"], {0, 2, 3, 4}),
        ],
        ids=["alpha-0.05", "alpha-0.005", "alpha-0.002", "constant-response"],
    )
    def test_each_degree_is_fitted_once(self, argv, degrees, tmp_path, monkeypatch, capsys):
        # The scan's fits serve the tables and figures; a degree it did not
        # reach (3 and 4 at alpha 0.002, 4 at 0.005, 2-4 for a constant
        # response) is fitted by reproduce itself, and only once: each report
        # is one least-squares pass, made in ascending degree.
        fitted = []
        least_squares = polyfit._least_squares

        def counting_least_squares(points, degree):
            fitted.append(degree)
            return least_squares(points, degree)

        monkeypatch.setattr(polyfit, "_least_squares", counting_least_squares)
        rc = main(["reproduce", *argv, "--seed", "1", "--out-dir", str(tmp_path),
                   "--no-timestamp"])
        assert rc == 0
        assert fitted == sorted(degrees)

    @pytest.mark.parametrize("alpha", ["0.05", "0.002"])
    def test_fits_equal_the_fit_command(self, alpha, tmp_path, capsys):
        # At alpha 0.002 the scan selects degree 1 after fitting degrees 1
        # and 2, so degrees 3 and 4 are reproduce's own fits; at 0.05 every
        # fit is the verdict's.
        out_dir = tmp_path / "repro"
        rc = main(["reproduce", "--use-fixture", "--alpha", alpha, "--seed", "1",
                   "--out-dir", str(out_dir), "--no-timestamp"])
        assert rc == 0
        per_degree = json.loads((out_dir / "verdict.json").read_text())["per_degree"]
        if alpha == "0.002":
            assert list(per_degree) == ["1", "2"]

        def without_metadata(path):
            doc = json.loads(path.read_text())
            del doc["metadata"]
            return json.dumps(doc, sort_keys=True)

        for degree in (2, 3, 4):
            capsys.readouterr()
            fit_json = tmp_path / f"fit_d{degree}.json"
            rc = main(["fit", "--use-fixture", "--degree", str(degree),
                       "--out-json", str(fit_json), "--no-timestamp"])
            assert rc == 0
            tables = (out_dir / f"tables_d{degree}.txt").read_bytes()
            assert tables == capsys.readouterr().out.encode()
            assert without_metadata(out_dir / f"fit_d{degree}.json") == without_metadata(fit_json)


def _sortlab_process(args, stdout, unbuffered=False, blas_threads=None, extra_env=None):
    """Run ``python <args>`` in a fresh interpreter that imports this checkout's sortlab.

    `blas_threads` is the child's OPENBLAS_NUM_THREADS, unset when None.
    Importing the CLI sets it in this process, so it is never inherited.
    `extra_env` holds more variables for the child alone.
    """
    env = {**os.environ, **(extra_env or {})}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(cli.__file__).parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60
    )


class TestCliProcess:
    def test_import_leaves_numpy_random_unloaded(self, tmp_path):
        # numpy.random loads with the first draw, so theory, fit and select
        # never pay for it.  No command loads numpy.polynomial: fits use
        # their own recurrence and a figure's curve numpy's polyval, so it
        # stays unloaded after writing a figure too.  Cells fan out by
        # os.fork, so no command loads a process pool either.
        modules = ("numpy.random", "numpy.polynomial", "concurrent.futures", "multiprocessing")
        code = (
            "import contextlib, io, sys\n"
            "from sortlab.report.cli import main\n"
            f"loaded = lambda: [m in sys.modules for m in {modules}]\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['reproduce', '--use-fixture', '--seed', '1', '--no-timestamp',\n"
            f"          '--out-dir', {str(tmp_path)!r}])\n"
            "print(loaded())\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == b"[False, False, False, False]\n" * 2
        assert sorted(path.name for path in tmp_path.glob("*.svg")) == [
            "fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg"
        ]

    def test_import_sortlab_leaves_numpy_unloaded(self):
        # The package imports no submodule, so the CLI module body runs
        # before numpy loads.
        code = (
            "import sys, sortlab\n"
            "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('sortlab.')]\n"
            "print(loaded, sortlab.__version__)\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[] 0.1.0\n", b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_cli_import_runs_numpy_on_one_thread(self):
        # numpy's OpenBLAS would start a second thread that busy-waits.
        code = (
            "import os, sortlab.report.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"1 1\n", b"")

    def test_cli_import_keeps_the_users_blas_thread_count(self):
        code = "import os, sortlab.report.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = _sortlab_process(["-c", code], subprocess.PIPE, blas_threads="2")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"2\n", b"")

    @pytest.mark.parametrize("collector", [True, False], ids=["collector-on", "collector-off"])
    def test_cli_import_freezes_the_import_heap(self, collector):
        # Shutdown and worker collections then skip numpy's import-time
        # objects; a host that turned the collector off keeps it off.
        code = (
            f"import gc; gc.enable() if {collector} else gc.disable()\n"
            "import sortlab.report.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{collector} True\n".encode(), b"")

    @pytest.mark.skipif(not cli._libc.startswith("glibc"), reason="glibc's heap pad")
    @pytest.mark.parametrize("module, keeps_heap", [
        ("sortlab.report.cli", True),
        ("sortlab.montecarlo", False),
    ], ids=["cli", "library"])
    def test_cli_import_keeps_freed_blocks_for_the_next_block(self, module, keeps_heap):
        # A second run of a 3-cell textbook grid faults its blocks' pages in
        # again unless the heap keeps them: measured 0-21 with the CLI's
        # pad, 2,201-2,672 without.  A library user keeps glibc's trimming.
        code = (
            f"import resource, {module}\n"
            "from sortlab.montecarlo import ExperimentConfig, run_experiment\n"
            "config = ExperimentConfig(n=1000, trials=100, p_values=(0.1, 0.5, 0.9),\n"
            "                          counter_mode='textbook_interchanges', master_seed=1)\n"
            "run_experiment(config)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_experiment(config)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        faults = int(proc.stdout)
        assert faults < 300 if keeps_heap else faults > 1000

    def test_library_leaves_the_collector_alone(self):
        code = (
            "import gc, sortlab, sortlab.montecarlo as mc\n"
            "config = mc.ExperimentConfig(n=20, trials=3, p_values=(0.5,), master_seed=1)\n"
            "(cell,) = mc.run_experiment(config)\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"True 0\n", b"")

    def test_failed_cli_import_turns_the_collector_back_on(self):
        # A None entry in sys.modules makes that import raise ImportError.
        code = (
            "import gc, sys; sys.modules['sortlab.report.svg'] = None\n"
            "try:\n"
            "    import sortlab.report.cli\n"
            "except ImportError:\n"
            "    print(gc.isenabled(), gc.get_freeze_count())\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"True 0\n", b"")

    @pytest.mark.parametrize("mode", ["exchange", "textbook", "inversions"])
    def test_forked_command_matches_golden(self, tmp_path, mode):
        # The in-process goldens fork from pytest's heap; this forks the
        # workers from a real command process, frozen import heap and all.
        out = tmp_path / "cells.csv"
        argv = ["simulate", "--n", "50", "--trials", "20", "--seed", "42", "--no-timestamp",
                "--mode", mode, "--jobs", "2", "--out", str(out)]
        proc = _sortlab_process(["-m", "sortlab", *argv], subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        golden = Path(__file__).parent / "golden" / f"simulate_{mode}.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_fit_artifacts_do_not_depend_on_the_cpus_kernels(self, tmp_path):
        # OPENBLAS_CORETYPE=Prescott runs the BLAS kernels of a CPU without
        # AVX, and NPY_DISABLE_CPU_FEATURES turns off numpy's dispatched
        # AVX-512 loops (a numpy without them ignores the empty list).  The
        # fits call no BLAS, and numpy's element-wise operations and sums
        # give the same bits under any of these kernels.
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )

        avx512 = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)
                  and name not in __cpu_baseline__ and ("AVX512" in name or name == "X86_V4")]
        kernels = {"OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
        linear = str(Path(__file__).parent / "golden" / "exact" / "linear.csv")
        out = tmp_path / "out"
        commands = [
            ["fit", "--input", linear, "--degree", "4", "--out-json", str(out / "fit.json")],
            ["select", "--use-fixture", "--out-json", str(out / "verdict.json")],
            ["reproduce", "--use-fixture", "--seed", "1", "--out-dir", str(out)],
        ]
        for argv in commands:
            runs = []
            for extra_env in (None, kernels):
                out.mkdir()
                proc = _sortlab_process(["-m", "sortlab", *argv, "--no-timestamp"],
                                        subprocess.PIPE, extra_env=extra_env)
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                runs.append((proc.returncode, proc.stdout, proc.stderr, files))
                shutil.rmtree(out)
            assert (runs[0][0], runs[0][2]) == (0, b"")
            assert runs[0] == runs[1], argv[0]

    def test_blas_thread_count_moves_no_artifact_byte(self, tmp_path):
        # The fits call no BLAS; numpy's thread count must still move no byte.
        artifacts = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            argv = ["reproduce", "--seed", "77", "--no-timestamp", "--out-dir", str(out)]
            proc = _sortlab_process(["-m", "sortlab", *argv], subprocess.PIPE,
                                    blas_threads=threads)
            assert (proc.returncode, proc.stderr) == (0, b"")
            artifacts[threads] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(artifacts["1"]) == 14
        assert artifacts["1"] == artifacts["2"]

    def test_fixture_commands_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma on its first call; fit counts distinct x
        # with a set, so no command pays for that import.
        commands = [
            ["reproduce", "--use-fixture", "--seed", "1", "--out-dir", str(tmp_path)],
            ["fit", "--use-fixture", "--degree", "3"],
            ["select", "--use-fixture"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from sortlab.report.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = _sortlab_process(["-c", code], subprocess.PIPE)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"False\n", b"")

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
