"""Check that the working tree's CLI writes the same bytes as a git revision's.

Usage: python tools/same_bytes.py REV

REV is unpacked into a temporary directory with ``git archive``, so the
repository itself is left alone.  Each command of a fixed list runs under
both trees' ``src`` (with ``--no-timestamp`` wherever the command takes
it), and every artifact, stdout, stderr and exit code is compared, with the
printed output directory normalized.  One line is printed per difference;
the exit status is 1 if there is any, else 0.
"""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_RUNS = [["reproduce", "--seed", "77", "--out-dir", "{out}"]]
for _mode in ("exchange", "inversions", "textbook"):
    _RUNS.append(["simulate", "--seed", "42", "--mode", _mode, "--out", "{out}/cells.csv"])
    _RUNS.append(["simulate", "--n", "100", "--trials", "1000", "--p", "0.001,0.05,0.3,1",
                  "--seed", "7", "--mode", _mode, "--out", "{out}/cells.csv"])
COMMANDS = [run + ["--jobs", jobs] for run in _RUNS for jobs in ("1", "2")] + [
    ["reproduce", "--use-fixture", "--seed", "1", "--out-dir", "{out}"],
    # Scans that stop short of degree 4: reproduce fits degrees 3-4, or 4, itself.
    ["reproduce", "--use-fixture", "--seed", "1", "--alpha", "0.002", "--out-dir", "{out}"],
    ["reproduce", "--use-fixture", "--seed", "1", "--alpha", "0.005", "--out-dir", "{out}"],
    ["reproduce", "--n", "1", "--trials", "2", "--seed", "1", "--out-dir", "{out}"],
    ["theory", "--p", "0.3"],
    ["theory", "--p", "0.3", "--json"],
    ["theory", "--dist", "continuous", "--n", "1000"],
    ["theory", "--dist", "continuous", "--n", "1000", "--json"],
    ["fit", "--use-fixture", "--degree", "3"],
    ["fit", "--use-fixture", "--degree", "0"],
    # The fit command's edge: one residual df is the least it accepts.
    ["fit", "--use-fixture", "--degree", "7"],
    ["fit", "--use-fixture", "--degree", "8"],
    # Refused for its residual df, not for its rank: the fixture has 9 distinct p.
    ["fit", "--use-fixture", "--degree", "9"],
    ["fit", "--input", "tests/golden/exact/linear.csv", "--degree", "4",
     "--out-json", "{out}/fit.json"],
    ["select", "--use-fixture", "--out-json", "{out}/verdict.json"],
    ["select", "--use-fixture", "--alpha", "0.01"],
    ["select", "--use-fixture", "--alpha", "0.001"],
    ["select", "--input", "tests/golden/exact/linear.csv"],
    # A narrow p grid, p = 0.5 + k 1e-5, whose fitted values cancel in powers of p.
    ["fit", "--input", "tests/inputs/p_offset.csv", "--degree", "4",
     "--out-json", "{out}/fit.json"],
    ["select", "--input", "tests/inputs/p_offset.csv"],
    ["select", "--use-fixture", "--d-min", "2", "--d-max", "5", "--out-json", "{out}/verdict.json"],
    ["simulate", "--seed", "5", "--n", "50", "--trials", "20"],
    # Shares split cells: one cell over two shares, and two cells over three.
    ["simulate", "--seed", "3", "--p", "0.5", "--n", "200", "--trials", "7", "--jobs", "2"],
    ["simulate", "--seed", "3", "--p", "0.2,0.4", "--n", "50", "--trials", "5", "--jobs", "3"],
    # Cells of several blocks (87 trials each at n = 3000), the second split mid-cell by two shares.
    ["simulate", "--n", "3000", "--trials", "200", "--p", "0.2,0.5,0.8", "--seed", "11",
     "--jobs", "2"],
    # Hashing passes (BLOCK_VALUES // 8 = 32768 trials) that end inside a cell, in one share
    # and in each of two.
    *(["simulate", "--n", "8", "--trials", "40000", "--p", "0.3,0.6", "--seed", "13",
       "--jobs", jobs] for jobs in ("1", "2")),
    # Trials wider than BLOCK_VALUES, one to a block, in every mode.
    *(["simulate", "--n", "300000", "--trials", "2", "--p", "0.3", "--seed", "9", "--mode", mode]
      for mode in ("exchange", "inversions", "textbook")),
    ["simulate", "--seed", str(2**64)],
    ["simulate", "--seed", "1", "--n", "5", "--trials", "2", "--p", "5e-324"],
    # The same refusal where the run would fork: it comes before any share runs.
    ["simulate", "--seed", "1", "--n", "5", "--trials", "3", "--p", "1e-300", "--jobs", "2"],
    ["simulate", "--seed", "1", "--mode", "nope"],
    # Refused arguments: only stderr and the exit code to compare.
    ["simulate", "--seed", "-1"],
    ["simulate", "--seed", "1", "--n", "0"],
    ["theory", "--p", "0.5", "--n", "0"],
    ["fit", "--use-fixture", "--degree", "-1"],
    ["select", "--use-fixture", "--alpha", "1"],
    ["select", "--use-fixture", "--d-max", "0"],
    # Flag combinations refused after argparse (exit 2), and a CSV row refused (exit 1).
    ["select", "--use-fixture", "--d-min", "3", "--d-max", "2"],
    ["theory", "--dist", "continuous", "--p", "0.3"],
    ["fit", "--input", "tests/inputs/bad_n.csv", "--degree", "1"],
]


def run(tree: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Everything one command leaves: its files, stdout, stderr and exit code."""
    out.mkdir(parents=True)
    argv = [arg.replace("{out}", str(out)) for arg in args]
    if argv[0] != "theory":
        argv.append("--no-timestamp")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "sortlab", *argv], cwd=tree, env=env, capture_output=True
    )
    files = [path for path in out.rglob("*") if path.is_file()]
    result = {str(path.relative_to(out)): path.read_bytes() for path in files}
    for name, text in (("<stdout>", done.stdout), ("<stderr>", done.stderr)):
        result[name] = text.replace(str(out).encode(), b"<out>")
    result["<exit code>"] = str(done.returncode).encode()
    return result


def main(rev: str) -> int:
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = Path(tmp) / "tree"
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
        )
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # The archive comes from this repository, so it is trusted; the
            # "data" filter is still used where tarfile has one (Python
            # 3.10.12, 3.11.4 and later).
            tar.extraction_filter = getattr(tarfile, "data_filter", None)
            tar.extractall(old_tree)
        for index, args in enumerate(COMMANDS):
            old = run(old_tree, args, Path(tmp) / "old" / str(index))
            new = run(ROOT, args, Path(tmp) / "new" / str(index))
            for name in sorted(old.keys() | new.keys()):
                if old.get(name) != new.get(name):
                    differences += 1
                    print(f"{' '.join(args)}: {name} differs from {rev}")
    print(f"{len(COMMANDS)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
