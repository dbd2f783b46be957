"""Command-line workbench: simulate, theory, fit, select, reproduce.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.  All
artifact-writing paths stamp run metadata; `--no-timestamp` makes
repeat runs with the same seed byte-identical.

Importing this module sets `OPENBLAS_NUM_THREADS=1` unless it is already
set, so a command in a fresh interpreter runs numpy's BLAS on one thread
(the setting cannot reach a numpy that is already loaded).  It also runs
its imports with the cyclic garbage collector off and then freezes every
object in the process (`gc.freeze()`), so the collector, the shutdown
collections and the collections in forked `--jobs` workers never walk
numpy's and sortlab's import-time objects again.  The collector is turned
back on only if it was on before; objects made later are collected as
usual.  Where the C library is glibc, it sets glibc's `M_TOP_PAD`, before
numpy loads, to the most memory one block may hold (`BLOCK_VALUES *
BYTES_PER_VALUE`, about 18.9 MB): memory a block frees then stays in the
heap for the next block, instead of going back to the OS and being
faulted in again.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import secrets
import sys
from dataclasses import asdict
from decimal import Decimal, InvalidOperation
from pathlib import Path

from ..blocks import BLOCK_VALUES, BYTES_PER_VALUE

# One OpenBLAS thread, unless the user set a count.  numpy's OpenBLAS
# otherwise starts a second thread at import that busy-waits for BLAS work,
# burning CPU through every command.  The CLI's parallelism is its forked
# workers, and no command calls BLAS: the fits are element-wise operations
# and sums.  This has to run before numpy loads, which is why `import sortlab` loads no
# submodule.  It lives here, not in the package, so that a library user
# keeps their BLAS threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Keep up to one block's memory of freed heap.  glibc otherwise trims the
# top of the heap back to the OS once a block's arrays are freed, and the
# next block faults the same pages in again: a default `simulate --mode
# textbook` took about 12,000 to 13,600 minor faults, and 6,400 with the
# pad.  The pad takes effect as the heap grows, so it is set before
# numpy's import grows it.  Setting it also stops glibc raising its mmap
# threshold from where it stands (128 KiB at start): larger allocations
# come from the padded top of the heap while they fit there, and are
# mapped afresh when they do not.  ctypes costs no import, as numpy loads
# it.  Like the BLAS threads, this is the CLI's setting: a library user
# keeps their allocator's.
_M_TOP_PAD = -2  # glibc's malloc.h
try:
    _libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
except (AttributeError, ValueError, OSError):  # no confstr, or no such name
    _libc = ""
if _libc.startswith("glibc"):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_TOP_PAD, BLOCK_VALUES * BYTES_PER_VALUE)

# No collections during the imports, then freeze what they leave: about
# 34k tracked objects, mostly numpy's, and some 400 objects of cyclic
# garbage that stay alive.  CPython's shutdown collections would otherwise walk them at
# exit (about 40 of a 52 ms exit), and each forked worker's collections
# would touch, and so copy, their pages.  This is the `gc` docs' recipe
# for a process that forks.  A host that turned the collector off keeps
# it off.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .. import __version__
    from ..distributions import ContinuousUniform, _as_int, _as_seed, geometric
    from ..model_select import SelectionPolicy, render_verdict, select_degree
    from ..montecarlo import COUNTER_MODES, ExperimentConfig, TrialSummary, run_experiment
    from ..polyfit import DataPoint, diagnostics, fit
    from ..theory import predict as predict_theory
    from .csvio import (
        CsvFormatError,
        RunMetadata,
        format_csv,
        format_summaries_csv,
        read_summaries_csv,
        write_summaries_csv,
    )
    from .fixture import REFERENCE_ROWS, reference_points
    from .jsonio import write_report_json, write_verdict_json
    from .render import render_report
    from .svg import write_scatter_svg
    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()

__all__ = ["build_parser", "main"]


class UsageError(ValueError):
    """Bad flag combination detected after argparse; exits with code 2."""

_MODE_MAP = {mode.partition("_")[0]: mode for mode in COUNTER_MODES}
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


def _one_p(text: str) -> float:
    values = _parse_p_values(text)
    if len(values) != 1:
        raise ValueError(f"expected a single p value, got {text!r}")
    return values[0]


def _number(kind, text: str, expected: str):
    # Text to a number.  Only this step has a message of the CLI's own; every
    # range is the library's check's.
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{expected}, got {text!r}") from None


def _arg(check):
    """An argparse type that runs `check` on the text.  The check's
    ValueError or TypeError becomes a usage error (exit code 2) that prints
    the check's own message after ``argument --FLAG:``."""

    def parse(text: str):
        try:
            return check(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _integer(text: str) -> int:
    return _number(int, text, "expected an integer")


def _int_arg(name: str, minimum: int):
    return _arg(lambda text: _as_int(name, _integer(text), minimum))


def _seed(text: str):
    if text == "auto":
        return text
    return _as_seed("seed", _number(int, text, "seed must be an integer or 'auto'"))


def _alpha(text: str) -> float:
    return SelectionPolicy(alpha=_number(float, text, "expected a real number")).alpha


def _d_max(text: str) -> int:
    # Checked against the default d_min, 1, the least there is; _cmd_select
    # checks it against --d-min.
    return SelectionPolicy(d_max=_integer(text)).d_max


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
    fields = {"model": model_text, **{k: v for k, v in asdict(pred).items() if k != "model"}}
    if args.json:
        print(json.dumps(fields, indent=2))
    else:
        for key, value in fields.items():
            print(f"{key.replace('_', ' ')}: {value}")
    return 0


def _cmd_fit(args) -> int:
    points, source = _load_points(args)
    report = diagnostics(points, fit(points, args.degree))
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


_COMPARISON_NOTES = (
    "simulated mean interchange counts vs the embedded reference rows and the",
    "closed-form expectation n(n-1)/2*(1-p)/(2-p); the expectation counts",
    "out-of-order PAIRS, not executed swaps, and the swap-eager sorter repairs",
    "many pairs per swap, so mean_c sits far below it: the mean_over_pairs",
    "column states that theory/measurement gap explicitly",
)


def _write_comparison(path: Path, summaries, metadata: RunMetadata) -> None:
    reference = {(row.p, row.n): row.mean_c for row in REFERENCE_ROWS}
    rows = []
    for s in summaries:
        expected = predict_theory(geometric(s.p), s.n).expected_interchanges
        ratio = s.mean_c / expected if expected else None
        rows.append((s.p, s.mean_c, reference.get((s.p, s.n)), expected, ratio))
    header = "p,mean_c,reference_mean_c,expected_pairwise,mean_over_pairs"
    path.write_text(format_csv(metadata, header, rows, _COMPARISON_NOTES), encoding="utf-8")


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

    # The tables and figures show the verdict's own fits.  A degree the scan
    # did not reach is fitted here, and the verdict's reports are left as
    # they are: they are what verdict.json and verdict.txt list.
    verdict = select_degree(points, SelectionPolicy(alpha=args.alpha))
    scanned = verdict.per_degree_reports
    reports = {d: scanned.get(d) or diagnostics(points, fit(points, d)) for d in (2, 3, 4)}
    for degree, report in reports.items():
        write_report_json(out_dir / f"fit_d{degree}.json", report, meta)
        (out_dir / f"tables_d{degree}.txt").write_text(render_report(report), encoding="utf-8")
        title = f"mean interchange count vs p, degree-{degree} fit"
        write_scatter_svg(
            out_dir / f"fig{degree - 1}.svg", points, report.model, metadata=meta, title=title
        )
    write_scatter_svg(
        out_dir / "fig4.svg",
        points,
        reports[3].model,
        metadata=meta,
        title="fitted cubic alone",
        include_points=False,
    )

    verdict_text = render_verdict(verdict)
    write_verdict_json(out_dir / "verdict.json", verdict, meta)
    (out_dir / "verdict.txt").write_text(verdict_text + "\n", encoding="utf-8")

    _write_comparison(out_dir / "comparison.csv", summaries, meta)

    print(f"artifacts written to {out_dir}")
    print(verdict_text)
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
        "--seed", type=_arg(_seed), required=True, help="64-bit unsigned seed, or 'auto'"
    )
    run.add_argument("--n", type=_int_arg("n", 1), default=1000, help="array length")
    run.add_argument("--trials", type=_int_arg("trials", 1), default=100, help="trials per cell")
    run.add_argument("--jobs", type=_int_arg("jobs", 1), default=1, help="worker processes")
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
        type=_arg(_parse_p_values),
        default=_DEFAULT_P_VALUES,
        metavar="GRID",
        help=f"p grid: value, comma list, or a..b:step (default {_DEFAULT_GRID})",
    )
    sim.add_argument("--mode", choices=sorted(_MODE_MAP), default="exchange")
    sim.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    sim.set_defaults(func=_cmd_simulate)

    thy = sub.add_parser("theory", help="closed-form tie/interchange predictions")
    thy.add_argument("--dist", choices=("geometric", "continuous"), default="geometric")
    thy.add_argument("--p", type=_arg(_one_p), default=None)
    thy.add_argument("--n", type=_int_arg("n", 1), default=1000)
    thy.add_argument("--json", action="store_true")
    thy.set_defaults(func=_cmd_theory)

    fit_cmd = sub.add_parser("fit", parents=[points], help="polynomial fit with full diagnostics")
    fit_cmd.add_argument("--degree", type=_int_arg("degree", 0), required=True)
    fit_cmd.set_defaults(func=_cmd_fit)

    sel = sub.add_parser("select", parents=[points], help="empirical growth-order selection")
    sel.add_argument("--alpha", type=_arg(_alpha), default=0.05)
    sel.add_argument("--d-min", type=_int_arg("d_min", 1), default=1)
    sel.add_argument("--d-max", type=_arg(_d_max), default=4)
    sel.set_defaults(func=_cmd_select)

    rep = sub.add_parser(
        "reproduce",
        parents=[run],
        help="full pipeline: simulate, fit degrees 2-4, select, figures",
    )
    rep.add_argument("--out-dir", default="repro_out")
    rep.add_argument("--alpha", type=_arg(_alpha), default=0.05)
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
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull so that the
        # flush at exit cannot raise again; a closed pipe needs no error line.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        # RuntimeError: a numerical routine did not converge, or a worker
        # process ended without reporting its cells.  A UsageError is a
        # ValueError that exits 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
