#!/usr/bin/env python3
"""Benchmark of the sortlab pipeline: three workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload {paper-grid,modes-grid,small-n-wide,all}
           --seed N --seconds S --trace {0,1} [--corrupt {csv-row,verdict}]

Run from the root of a sortlab checkout; the program is used from ``src``
as it is, with no install step.  Every CLI command runs in a fresh
interpreter (``launch.py``).  Artifacts, logs, spans and one
``BENCH_<workload>_seed<N>_trace<T>.json`` per run (metrics, samples and
the machine) go to ``perfbench_out/``.

--trace 0  repeats the workload's commands while one more repetition fits
           in S seconds (at least once) and reports the medians of the
           end-to-end metrics, in reference seconds (see timed_run).
--trace 1  runs the workload once untraced and once traced, serially
           (small-n-wide also once untraced with its 2 jobs), and reports
           the per-layer metrics (S is not used).

Expected outputs come from ``oracle.py`` and are derived before any
timing; each command's CSV (and on paper-grid its verdict) is checked
after it has been timed.  A command that exits nonzero or whose output
differs counts as failed.  ``--corrupt`` damages every output before the
check, to show that the check catches it (see ``selftest.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench_out"

P_GRID = tuple(k / 10 for k in range(1, 10))  # the CLI default 0.1..0.9:0.1
REL_TOL = 1e-9  # CSV floats vs exact moments: admits any correctly rounded reduction
PROBES = 5  # set-up-only launches per timed run, besides the timed commands
CALIBRATION_REF_S = 0.1  # calibration kernel time on the reference machine (see timed_run)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modes: tuple[str, ...]  # one CLI command per counter mode
    n: int
    trials: int
    jobs: int
    reproduce: bool  # `reproduce` (fits, verdict, figures) instead of `simulate`


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-grid",
            "the paper's experiment as users run it: reproduce at n=1000, 100 trials, 9 p values;"
            " the exchange counter dominates and only it runs fits, verdict, theory, JSON and SVG",
            ("exchange",), 1000, 100, 1, True,
        ),
        Workload(
            "modes-grid",
            "simulate in textbook then inversions mode at n=1000, 100 trials: the other two"
            " counters do the work and the exchange counter none",
            ("textbook", "inversions"), 1000, 100, 1, False,
        ),
        Workload(
            "small-n-wide",
            "simulate at n=100, 1000 trials, 2 jobs: per-trial fixed cost and the cell fan-out"
            " to worker processes weigh most",
            ("exchange",), 100, 1000, 2, False,
        ),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed as the last line with --trace 1.  Self times of
#: functions that some workload never calls (and so read 0 on every run there)
#: are in the printed table and the BENCH file only.
PER_LAYER_UNITS = {
    "distributions.seed_s": "s",
    "distributions.sample_s": "s",
    "distributions.calls": "count",
    "distributions.draws": "count",
    "algorithms.sort_s": "s",
    "algorithms.calls": "count",
    "algorithms.swaps": "count",
    "algorithms.compares": "count",
    "algorithms.compares_per_s": "1/s",
    "montecarlo.run_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.cells": "count",
    "montecarlo.trials": "count",
    "montecarlo.parallel_eff": "ratio",
    "theory.calls": "count",
    "polyfit.calls": "count",
    "special.calls": "count",
    "model_select.calls": "count",
    "report.csv_s": "s",
    "report.bytes": "B",
    "trace.overhead_s": "s",
}


# --------------------------------------------------------------------- running


def _pythonpath() -> str:
    rest = os.environ.get("PYTHONPATH")
    return str(SRC) if not rest else os.pathsep.join((str(SRC), rest))


def invoke(cli_args: list[str], mode: str, record: Path, log: Path) -> dict:
    """Run one CLI command through launch.py and measure the process tree."""
    cmd = [sys.executable, str(HERE / "launch.py"), str(record), mode, "--", *cli_args]
    env = dict(os.environ, PYTHONPATH=_pythonpath())
    with open(log, "ab") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=out, cwd=ROOT)
        try:
            # wait4 reports the CPU of the child and of every descendant it
            # waited for (pool workers), and the largest peak RSS among them.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rec = json.loads(record.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        rec = {"entered": None, "spans": [], "missing": []}
    runs = [s for s in rec["spans"] if s[0] == "montecarlo.run" and s[3] is None]
    entered = rec["entered"] if mode == "probe" else (runs[0][1] if runs else None)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup": None if entered is None else entered - start,
        "run_s": sum(s[2] - s[1] for s in runs),
        "trials": sum(s[4]["trials"] for s in runs if s[4]),
        "spans": rec["spans"],
        "missing": rec["missing"],
    }


def cli_args(w: Workload, mode: str, seed: int, jobs: int, out: Path) -> list[str]:
    common = ["--n", str(w.n), "--trials", str(w.trials), "--jobs", str(jobs),
              "--seed", str(seed), "--no-timestamp"]
    if w.reproduce:
        return ["reproduce", *common, "--out-dir", str(out)]
    return ["simulate", "--mode", mode, *common, "--out", str(out / "cells.csv")]


class Run:
    """Output directory, counters and samples of one benchmark run."""

    def __init__(self, w: Workload, seed: int, trace: int, corrupt: str | None):
        self.w, self.seed, self.corrupt = w, seed, corrupt
        self.dir = WORK / f"{w.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        """Count one operation, failed when it has problems."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]

    def command(self, mode: str, jobs: int, launch_mode: str, expected=None) -> tuple[dict, Path]:
        """Run one command; count it, and check its output when `expected` is given."""
        self.count += 1
        out = self.dir / f"cmd{self.count:03d}"
        out.mkdir()
        args = cli_args(self.w, mode, self.seed, jobs, out)
        result = invoke(args, launch_mode, out / "record.json", self.dir / "cli.log")
        problems = []
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']}")
        elif result["setup"] is None:
            problems.append("run_experiment was never entered")
        elif expected is not None:
            if self.corrupt:
                corrupt_outputs(self.w, out, self.corrupt)
            problems += check_outputs(self.w, out, expected[mode])
        self.record(f"{out.name} {' '.join(args[:3])}", problems)
        return result, out


# ---------------------------------------------------------------- output check


def expected_outputs(w: Workload, seed: int) -> dict:
    import oracle

    expected = {}
    for mode in w.modes:
        cells = oracle.expected_cells(seed, w.n, w.trials, P_GRID, mode)
        verdict = oracle.expected_verdict(P_GRID, [c[1] for c in cells]) if w.reproduce else None
        expected[mode] = {"cells": cells, "verdict": verdict}
    return expected


def _csv_path(w: Workload, out: Path) -> Path:
    return out / ("table1_repro.csv" if w.reproduce else "cells.csv")


REPRODUCE_ARTIFACTS = (
    "table1_repro.csv", "fit_d2.json", "fit_d3.json", "fit_d4.json", "tables_d2.txt",
    "tables_d3.txt", "tables_d4.txt", "verdict.json", "verdict.txt", "fig1.svg", "fig2.svg",
    "fig3.svg", "fig4.svg", "comparison.csv",
)


def check_outputs(w: Workload, out: Path, expected: dict) -> list[str]:
    """Differences between a command's artifacts and the oracle; empty when correct."""
    try:
        lines = _csv_path(w, out).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"no CSV: {exc}"]
    rows = [line for line in lines if line and not line.startswith("#")]
    if not rows or rows[0] != "p,n,trials,mean_c,sd_c,cv_c":
        return ["CSV header missing"]
    rows = rows[1:]
    cells = expected["cells"]
    if len(rows) != len(cells):
        return [f"CSV has {len(rows)} rows, expected {len(cells)}"]
    problems = []
    for row, (p, mean, sd, _) in zip(rows, cells):
        try:
            fp, fn, ft, fmean, fsd, fcv = row.split(",")
            got = (float(fp), int(fn), int(ft), float(fmean), float(fsd), float(fcv))
        except ValueError:
            problems.append(f"unparsable CSV row {row!r}")
            continue
        want = (p, w.n, w.trials, mean, sd, sd / mean)
        if got[:3] != want[:3] or not all(
            math.isclose(g, e, rel_tol=REL_TOL) for g, e in zip(got[3:], want[3:])
        ):
            problems.append(f"CSV row {row!r}, expected {want!r}")
    if w.reproduce:
        absent = [name for name in REPRODUCE_ARTIFACTS if not (out / name).is_file()]
        if absent:
            problems.append(f"missing artifacts {absent}")
        try:
            label = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["label"]
        except (OSError, ValueError, KeyError) as exc:
            label = f"unreadable ({exc})"
        if label != expected["verdict"]:
            problems.append(f"verdict {label!r}, expected {expected['verdict']!r}")
    return problems


def corrupt_outputs(w: Workload, out: Path, what: str) -> None:
    """Damage one command's output the way a wrong program would (check self-test)."""
    if what == "csv-row":
        path = _csv_path(w, out)
        lines = path.read_text(encoding="utf-8").splitlines()
        last = lines[-1].split(",")
        last[3] = repr(float(last[3]) * (1 + 1e-6))  # mean_c of the last cell
        lines[-1] = ",".join(last)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif what == "verdict":
        path = out / "verdict.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["label"] = "O_emp(p^3)" if doc["label"] != "O_emp(p^3)" else "O_emp(p^2)"
        path.write_text(json.dumps(doc), encoding="utf-8")


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "record.json"}


# --------------------------------------------------------------------- metrics


def calibration_kernel() -> int:
    """Fixed work shaped like the program's: Python loops around small numpy calls."""
    values = np.arange(1, 801, dtype=np.int64) * 7919 % 1009
    total = 0
    for _ in range(10):
        for i in range(0, 800, 2):
            s = values[i:]
            low = np.minimum.accumulate(s)
            total += int(np.count_nonzero(s[1:] < low[:-1]))
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFF
    return total + x


def calibrate() -> float:
    start = time.monotonic()
    calibration_kernel()
    return time.monotonic() - start


def timed_run(run: Run, seconds: float, jobs: int, expected: dict) -> dict:
    """End-to-end metrics in reference seconds, and the raw ones in the samples.

    The calibration kernel runs before every command and once at the end.
    A command's times are scaled by CALIBRATION_REF_S over the mean of the
    calibrations on either side of it, which removes most of the drift of
    a shared machine's speed; peak RSS is not scaled.
    """
    w = run.w
    commands = []  # (result, calibration seconds just before it)

    def command(mode, launch_mode):
        c = calibrate()
        result, _ = run.command(mode, jobs, launch_mode, expected if launch_mode == "timed" else None)
        commands.append((result, c))
        return len(commands) - 1

    probes = [command(w.modes[0], "probe") for _ in range(PROBES)]
    iterations = []
    start = time.monotonic()
    while True:  # no iteration is started that would end past the time budget
        began = time.monotonic()
        iterations.append([command(mode, "timed") for mode in w.modes])
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    calib = [c for _, c in commands] + [calibrate()]
    factor = [CALIBRATION_REF_S * 2 / (calib[k] + calib[k + 1]) for k in range(len(commands))]

    def metrics_for(scaled: bool) -> dict:
        def r(k):
            return commands[k][0]

        def f(k):
            return factor[k] if scaled else 1.0

        def median_of(g):
            return statistics.median(g(ks) for ks in iterations)

        setups = [r(k)["setup"] * f(k) for k in probes + [k for ks in iterations for k in ks]
                  if r(k)["setup"] is not None]
        return {
            "wall_s": median_of(lambda ks: sum(r(k)["wall"] * f(k) for k in ks)),
            "trials_per_s": median_of(
                lambda ks: sum(r(k)["trials"] for k in ks) / sum(r(k)["run_s"] * f(k) for k in ks)
                if all(r(k)["run_s"] > 0 for k in ks) else 0.0
            ),
            "cpu_s": median_of(lambda ks: sum(r(k)["cpu"] * f(k) for k in ks)),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": median_of(lambda ks: max(r(k)["rss_mb"] for k in ks)),
        }

    samples = {
        "iterations": len(iterations),
        "setup_samples": sum(result["setup"] is not None for result, _ in commands),
        "raw_wall_s": [sum(commands[k][0]["wall"] for k in ks) for ks in iterations],
        "calibration_s": calib,
        "raw": metrics_for(False),
    }
    return {"metrics": metrics_for(True), "samples": samples}


def _layer_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of a traced pass, and calls by span name."""
    time_of, calls, counts = {}, {}, {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        time_of[name] = time_of.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span[4] or {}).items():
            counts[key] = counts.get(key, 0) + value
    t = lambda name: time_of.get(name, 0.0)  # noqa: E731
    c = lambda name: calls.get(name, 0)  # noqa: E731
    sorts_s = t("algorithms.exchange") + t("algorithms.textbook")
    compares = counts.get("compares", 0)
    metrics = {
        "distributions.seed_s": t("distributions.seed"),
        "distributions.sample_s": t("distributions.sample"),
        "distributions.calls": c("distributions.sample"),
        "distributions.draws": counts.get("draws", 0),
        "algorithms.exchange_s": t("algorithms.exchange"),
        "algorithms.textbook_s": t("algorithms.textbook"),
        "algorithms.inversions_s": t("algorithms.inversions"),
        "algorithms.sort_s": sorts_s + t("algorithms.inversions"),
        "algorithms.calls": c("algorithms.exchange") + c("algorithms.textbook")
        + c("algorithms.inversions"),
        "algorithms.swaps": counts.get("swaps", 0),
        "algorithms.compares": compares,
        "algorithms.compares_per_s": compares / sorts_s if sorts_s > 0 else 0.0,
        "montecarlo.run_s": sum(s[2] - s[1] for s in spans if s[0] == "montecarlo.run"),
        "montecarlo.self_s": t("montecarlo.run"),
        "montecarlo.cells": counts.get("cells", 0),
        "montecarlo.trials": counts.get("trials", 0),
        "theory.predict_s": t("theory.predict"),
        "theory.calls": c("theory.predict"),
        "polyfit.fit_s": t("polyfit.fit"),
        "polyfit.diagnostics_s": t("polyfit.diagnostics"),
        "polyfit.calls": c("polyfit.fit") + c("polyfit.diagnostics"),
        "special.sig_s": t("special.sig"),
        "special.calls": c("special.sig"),
        "model_select.select_s": t("model_select.select"),
        "model_select.calls": c("model_select.select"),
        "report.csv_s": t("report.csv"),
        "report.json_s": t("report.json"),
        "report.svg_s": t("report.svg"),
        "report.render_s": t("report.render"),
    }
    return metrics, calls


def traced_run(run: Run, jobs: int, expected: dict) -> dict:
    """Untraced then traced passes, all serial except the workload's own fan-out."""
    w = run.w
    run.command(w.modes[0], 1, "probe")  # compiles bytecode before the compared passes
    plain = [run.command(mode, 1, "timed", expected) for mode in w.modes]
    fanned = [run.command(mode, jobs, "timed", expected)[0] for mode in w.modes] if jobs > 1 else None
    traced = [run.command(mode, 1, "trace", expected) for mode in w.modes]

    spans, span_runs = [], []
    for result, out in traced:
        offset = len(spans)
        for name, start, end, parent, counts in result["spans"]:
            spans.append([name, start, end, None if parent is None else parent + offset, counts])
            span_runs.append(f"{run.dir.name}/{out.name}")
    layer, calls = _layer_metrics(spans)
    plain_run_s = sum(r["run_s"] for r, _ in plain)
    layer["montecarlo.parallel_eff"] = (
        plain_run_s / (jobs * sum(r["run_s"] for r in fanned)) if fanned else 1.0
    )
    layer["report.bytes"] = sum(
        len(b) for _, out in traced for b in artifact_bytes(out).values()
    )
    layer["trace.overhead_s"] = sum(r["wall"] for r, _ in traced) - sum(r["wall"] for r, _ in plain)

    # Exact counts must repeat: compare them with the oracle and the untraced
    # pass of the same seed.  A function that is no longer called is skipped.
    problems = []
    for mode in w.modes:
        name = f"algorithms.{mode}"
        got = sum((s[4] or {}).get("swaps", 0) for s in spans if s[0] == name)
        want = sum(c[3] for c in expected[mode]["cells"])
        if calls.get(name) and got != want:
            problems.append(f"{name} swaps {got}, oracle {want}")
    trials = len(w.modes) * len(P_GRID) * w.trials
    if calls.get("montecarlo.run") and layer["montecarlo.trials"] != trials:
        problems.append(f"montecarlo.trials {layer['montecarlo.trials']}, expected {trials}")
    if calls.get("distributions.sample") and layer["distributions.draws"] != trials * w.n:
        problems.append(f"distributions.draws {layer['distributions.draws']}, expected {trials * w.n}")
    sorts = calls.get("algorithms.exchange", 0) + calls.get("algorithms.textbook", 0)
    if layer["algorithms.compares"] != sorts * w.n * (w.n - 1) // 2:
        problems.append(f"algorithms.compares {layer['algorithms.compares']} for {sorts} sorts")
    for (_, plain_out), (_, traced_out) in zip(plain, traced):
        if artifact_bytes(plain_out) != artifact_bytes(traced_out):
            problems.append(f"traced artifacts in {traced_out.name} differ from {plain_out.name}")
    run.record("exact counts", problems)

    with open(WORK / f"spans_{run.dir.name}.jsonl", "w", encoding="utf-8") as fh:
        for span_run, (name, start, end, parent, counts) in zip(span_runs, spans):
            fh.write(json.dumps({"run": span_run, "name": name, "start": start, "end": end,
                                 "parent": parent, "counts": counts}) + "\n")
    missing = sorted({m for r, _ in traced for m in r["missing"]})
    return {"metrics": layer, "samples": {"calls": calls, "missing_targets": missing}}


# ----------------------------------------------------------------- environment


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # never let git search the directories above
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
    }


# ------------------------------------------------------------------------ main


def bench(w: Workload, seed: int, seconds: float, trace: int, corrupt: str | None) -> dict:
    nproc = len(os.sched_getaffinity(0))
    jobs = min(w.jobs, nproc)  # never more worker processes than CPUs
    expected = expected_outputs(w, seed)  # before any timing
    run = Run(w, seed, trace, corrupt)
    result = traced_run(run, jobs, expected) if trace else timed_run(run, seconds, jobs, expected)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    doc = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": jobs,
        "environment": environment(),
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        **result,
    }
    doc["failed_frac"] = doc["failed"] / doc["attempted"]
    (WORK / f"BENCH_{w.name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {w.name}  seed {seed}  trace {trace}  jobs {jobs}  ({w.why})")
    raw = {}
    if not trace:
        samples = result["samples"]
        raw = samples["raw"]
        print(f"  medians of {samples['iterations']} repetitions"
              f" ({samples['setup_samples']} set-up samples), in reference seconds;"
              f" calibration median {statistics.median(samples['calibration_s']):.4f} s"
              f" (reference {CALIBRATION_REF_S} s)")
    for name, value in result["metrics"].items():
        unit = units.get(name) or ("count" if isinstance(value, int) else "s")
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        as_measured = f"  (as measured {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"  {name:28s} {shown} {unit}{as_measured}")
    print(f"  {'failed_frac':28s} {doc['failed_frac']:>16.6g} ({doc['failed']}/{doc['attempted']})")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print("  environment " + json.dumps(doc["environment"]))
    doc["last_line"] = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", choices=("csv-row", "verdict"))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not (SRC / "sortlab" / "__init__.py").is_file():
        print(f"error: no sortlab sources at {SRC}; run from a sortlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.corrupt == "verdict" and any(not WORKLOADS[n].reproduce for n in names):
        parser.error("--corrupt verdict needs a workload that writes a verdict (paper-grid)")
    docs = [bench(WORKLOADS[n], args.seed, args.seconds, args.trace, args.corrupt) for n in names]
    if len(docs) == 1:
        last = docs[0]["last_line"]
    else:
        last = {
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": {f"{d['workload']}/{k}": v for d in docs
                        for k, v in d["last_line"]["metrics"].items()},
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
