"""Command-line workbench: simulate, theory, fit, select, reproduce.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.  All
artifact-writing paths stamp run metadata; `--no-timestamp` makes
repeat runs with the same seed byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .. import __version__
from ..distributions import ContinuousUniform, geometric
from ..model_select import SelectionPolicy, render_verdict, select_degree
from ..montecarlo import ExperimentConfig, TrialSummary, run_experiment
from ..polyfit import DataPoint, diagnostics, fit
from ..theory import predict as predict_theory
from .csvio import (
    CsvFormatError,
    RunMetadata,
    _field,
    format_summaries_csv,
    read_summaries_csv,
    write_summaries_csv,
)
from .fixture import REFERENCE_ROWS, reference_points
from .jsonio import write_report_json, write_verdict_json
from .render import render_report
from .svg import write_scatter_svg

__all__ = ["build_parser", "main"]


class UsageError(ValueError):
    """Bad flag combination detected after argparse; exits with code 2."""

_MODE_MAP = {
    "exchange": "exchange_interchanges",
    "textbook": "textbook_interchanges",
    "inversions": "inversions",
}
_DEFAULT_GRID = "0.1..0.9:0.1"

#: Most points one `a..b:step` range may expand to; a range is checked
#: against it before any point is built.
MAX_RANGE_POINTS = 10**5


def _check_p(d: Decimal) -> Decimal:
    if not (d.is_finite() and 0 < d <= 1):
        raise ValueError(f"p must be in (0,1]: got {d}")
    return d


def _parse_p_values(text: str) -> tuple[float, ...]:
    """Parse a p grid: single value, comma list, or inclusive `a..b:step` range.

    Ranges step in exact decimal arithmetic, so `0.1..0.9:0.1` yields
    nine drift-free values with both endpoints included.  A range's
    endpoints and point count are checked before it is expanded, and a
    point that underflows to 0.0 as a float is refused.
    """
    values: list[float] = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            raise ValueError(f"empty p segment in {text!r}")
        if ".." in segment:
            span, colon, step_text = segment.partition(":")
            if not colon:
                raise ValueError(f"range {segment!r} needs a step: a..b:step")
            lo_text, _, hi_text = span.partition("..")
            try:
                lo, hi, step = Decimal(lo_text), Decimal(hi_text), Decimal(step_text)
            except InvalidOperation as exc:
                raise ValueError(f"bad number in range {segment!r}") from exc
            if not (step.is_finite() and step > 0):
                raise ValueError(f"step must be positive and finite in {segment!r}")
            _check_p(lo)
            _check_p(hi)
            if hi < lo:
                raise ValueError(f"range {segment!r} runs backwards")
            # Divides a span below 1 by a constant: cannot overflow, unlike span / step.
            if (hi - lo) / (MAX_RANGE_POINTS - 1) > step:
                raise ValueError(f"range {segment!r} has more than {MAX_RANGE_POINTS} points")
            steps, rest = divmod(hi - lo, step)
            if rest:
                raise ValueError(f"step does not divide the span exactly in {segment!r}")
            decimals = [lo + step * i for i in range(int(steps) + 1)]
        else:
            try:
                decimals = [_check_p(Decimal(segment))]
            except InvalidOperation as exc:
                raise ValueError(f"bad p value {segment!r}") from exc
        points = [float(d) for d in decimals]
        if 0.0 in points:
            raise ValueError(f"{segment!r} holds a p below the smallest float, which rounds to 0.0")
        values.extend(points)
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"p values must be strictly increasing: {text!r}")
    return tuple(values)


_DEFAULT_P_VALUES = _parse_p_values(_DEFAULT_GRID)


def _p_grid_arg(text: str) -> tuple[float, ...]:
    try:
        return _parse_p_values(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _p_single_arg(text: str) -> float:
    values = _p_grid_arg(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"expected a single p value, got {text!r}")
    return values[0]


def _seed_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer or 'auto', got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _int_arg(minimum: int):
    """An argparse type for integers of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_arg(1)


def _alpha_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0,1), got {text}")
    return value


def _resolve_seed(seed) -> int:
    if seed == "auto":
        seed = secrets.randbits(64)
        # stderr: stdout may be the CSV itself.
        print(f"seed: {seed}", file=sys.stderr)
    return seed


def _experiment(
    args, echo_prefix: str = "", **fields
) -> tuple[tuple[TrialSummary, ...], RunMetadata]:
    """Run the experiment the shared run flags plus `fields` configure."""
    seed = _resolve_seed(args.seed)
    config = ExperimentConfig(n=args.n, trials=args.trials, master_seed=seed, **fields)
    summaries = run_experiment(config, jobs=args.jobs)
    grid = ",".join(repr(p) for p in config.p_values)
    # The echo names the one sampler, as every artifact always has.
    echo = (
        f"{echo_prefix}n={config.n} trials={config.trials} mode={config.counter_mode} "
        f"sampler=inverse p={grid}"
    )
    return summaries, RunMetadata.create(echo, master_seed=seed, no_timestamp=args.no_timestamp)


def _load_points(args) -> tuple[list[DataPoint], str]:
    if args.use_fixture:
        return reference_points(), "source=fixture"
    summaries, _ = read_summaries_csv(args.input)
    if not summaries:
        raise CsvFormatError("input CSV contains no data rows")
    return [DataPoint(x=s.p, y=s.mean_c) for s in summaries], f"source={args.input}"


def _cmd_simulate(args) -> int:
    summaries, meta = _experiment(args, p_values=args.p, counter_mode=_MODE_MAP[args.mode])
    if args.out == "-":
        sys.stdout.write(format_summaries_csv(summaries, meta))
    else:
        write_summaries_csv(args.out, summaries, meta)
    return 0


def _cmd_theory(args) -> int:
    if args.dist == "continuous":
        if args.p is not None:
            raise UsageError("--p applies only to --dist geometric")
        model = ContinuousUniform()
        model_text = "continuous uniform"
    else:
        if args.p is None:
            raise UsageError("--p is required for --dist geometric")
        model = geometric(args.p)
        model_text = f"geometric(p={args.p!r})"
    pred = predict_theory(model, args.n)
    fields = {
        "model": model_text,
        "n": args.n,
        "tie_probability": pred.tie_probability,
        "interchange_probability": pred.interchange_probability,
        "expected_interchanges": pred.expected_interchanges,
    }
    if args.json:
        print(json.dumps(fields, indent=2))
    else:
        for key, value in fields.items():
            print(f"{key.replace('_', ' ')}: {value}")
    return 0


def _cmd_fit(args) -> int:
    points, source = _load_points(args)
    model = fit(points, args.degree)
    report = diagnostics(points, model)
    sys.stdout.write(render_report(report))
    if args.out_json:
        meta = RunMetadata.create(
            f"fit degree={args.degree} {source}", no_timestamp=args.no_timestamp
        )
        write_report_json(args.out_json, report, meta)
    return 0


def _cmd_select(args) -> int:
    points, source = _load_points(args)
    try:
        policy = SelectionPolicy(alpha=args.alpha, d_min=args.d_min, d_max=args.d_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    verdict = select_degree(points, policy)
    print(render_verdict(verdict))
    if args.out_json:
        meta = RunMetadata.create(
            f"select alpha={args.alpha!r} d_min={args.d_min} d_max={args.d_max} {source}",
            no_timestamp=args.no_timestamp,
        )
        write_verdict_json(args.out_json, verdict, meta)
    return 0


def _write_comparison(path: Path, summaries, metadata: RunMetadata) -> None:
    lines = metadata.comment_lines()
    lines.append("# simulated mean interchange counts vs the embedded reference rows and the")
    lines.append("# closed-form expectation n(n-1)/2*(1-p)/(2-p); the expectation counts")
    lines.append("# out-of-order PAIRS, not executed swaps, and the swap-eager sorter repairs")
    lines.append("# many pairs per swap, so mean_c sits far below it: the mean_over_pairs")
    lines.append("# column states that theory/measurement gap explicitly")
    lines.append("p,mean_c,reference_mean_c,expected_pairwise,mean_over_pairs")
    reference = {(row.p, row.n): row.mean_c for row in REFERENCE_ROWS}
    for s in summaries:
        expected = predict_theory(geometric(s.p), s.n).expected_interchanges
        ratio = s.mean_c / expected if expected else None
        ref = reference.get((s.p, s.n))
        lines.append(f"{s.p!r},{s.mean_c!r},{_field(ref)},{expected!r},{_field(ratio)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.use_fixture:
        summaries = REFERENCE_ROWS
        meta = RunMetadata.create(
            "reproduce source=fixture",
            master_seed=_resolve_seed(args.seed),
            no_timestamp=args.no_timestamp,
        )
    else:
        summaries, meta = _experiment(args, "reproduce ", p_values=_DEFAULT_P_VALUES)

    write_summaries_csv(out_dir / "table1_repro.csv", summaries, meta)
    points = [DataPoint(x=s.p, y=s.mean_c) for s in summaries]

    models = {}
    for degree in (2, 3, 4):
        model = fit(points, degree)
        report = diagnostics(points, model)
        models[degree] = model
        write_report_json(out_dir / f"fit_d{degree}.json", report, meta)
        (out_dir / f"tables_d{degree}.txt").write_text(
            render_report(report), encoding="utf-8"
        )

    verdict = select_degree(points, SelectionPolicy(alpha=args.alpha))
    write_verdict_json(out_dir / "verdict.json", verdict, meta)
    (out_dir / "verdict.txt").write_text(render_verdict(verdict) + "\n", encoding="utf-8")

    for name, degree, title, include_points in (
        ("fig1", 2, "mean interchange count vs p, degree-2 fit", True),
        ("fig2", 3, "mean interchange count vs p, degree-3 fit", True),
        ("fig3", 4, "mean interchange count vs p, degree-4 fit", True),
        ("fig4", 3, "fitted cubic alone", False),
    ):
        write_scatter_svg(
            out_dir / f"{name}.svg",
            points,
            [(f"degree {degree}", models[degree])],
            metadata=meta,
            title=title,
            include_points=include_points,
        )

    _write_comparison(out_dir / "comparison.csv", summaries, meta)

    print(f"artifacts written to {out_dir}")
    print(render_verdict(verdict))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortlab",
        description="geometric-input sorting-cost workbench: simulate, fit, select",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument(
        "--seed", type=_seed_arg, required=True, help="64-bit unsigned seed, or 'auto'"
    )
    run.add_argument("--n", type=_positive_int, default=1000, help="array length")
    run.add_argument("--trials", type=_positive_int, default=100, help="trials per cell")
    run.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    run.add_argument("--no-timestamp", action="store_true")

    points = argparse.ArgumentParser(add_help=False)
    group = points.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="summary CSV to read (x=p, y=mean_c)")
    group.add_argument(
        "--use-fixture",
        action="store_true",
        help="use the embedded published reference rows instead of a CSV",
    )
    points.add_argument("--out-json", help="write the full-precision JSON artifact here")
    points.add_argument("--no-timestamp", action="store_true")

    sim = sub.add_parser(
        "simulate",
        parents=[run],
        help="run the sample/sort/count experiment and emit a summary CSV",
    )
    sim.add_argument(
        "--p",
        type=_p_grid_arg,
        default=_DEFAULT_P_VALUES,
        metavar="GRID",
        help=f"p grid: value, comma list, or a..b:step (default {_DEFAULT_GRID})",
    )
    sim.add_argument("--mode", choices=sorted(_MODE_MAP), default="exchange")
    sim.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    sim.set_defaults(func=_cmd_simulate)

    thy = sub.add_parser("theory", help="closed-form tie/interchange predictions")
    thy.add_argument("--dist", choices=("geometric", "continuous"), default="geometric")
    thy.add_argument("--p", type=_p_single_arg, default=None)
    thy.add_argument("--n", type=_positive_int, default=1000)
    thy.add_argument("--json", action="store_true")
    thy.set_defaults(func=_cmd_theory)

    fit_cmd = sub.add_parser("fit", parents=[points], help="polynomial fit with full diagnostics")
    fit_cmd.add_argument("--degree", type=_int_arg(0), required=True)
    fit_cmd.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", parents=[points], help="empirical growth-order selection")
    sel.add_argument("--alpha", type=_alpha_arg, default=0.05)
    sel.add_argument("--d-min", type=_positive_int, default=1)
    sel.add_argument("--d-max", type=_positive_int, default=4)
    sel.set_defaults(func=_cmd_select)

    rep = sub.add_parser(
        "reproduce",
        parents=[run],
        help="full pipeline: simulate, fit degrees 2-4, select, figures",
    )
    rep.add_argument("--out-dir", default="repro_out")
    rep.add_argument("--alpha", type=_alpha_arg, default=0.05)
    rep.add_argument(
        "--use-fixture",
        action="store_true",
        help="skip simulation and run the pipeline on the embedded reference rows",
    )
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a usage error.
        return exc.code
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # flush at exit cannot raise again; a closed pipe needs no error line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        # RuntimeError: a numerical routine did not converge, or a worker
        # process ended without reporting its cells.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
