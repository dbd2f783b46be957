#!/usr/bin/env python3
"""Show that the benchmark's output check is not vacuous.

usage: python3 perfbench/selftest.py [--seed N]

Runs the benchmark once per kind of damage, with every output corrupted
after it is written and before it is checked:

* ``csv-row``: the last cell's mean_c of small-n-wide, off by one part
  in a million;
* ``verdict``: the verdict label of paper-grid.

Each run must report ``correct: false`` and a failed fraction above 0.
Exits 0 when both do, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (("small-n-wide", "csv-row"), ("paper-grid", "verdict"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    caught = 0
    for workload, damage in CASES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "0", "--corrupt", damage],
            capture_output=True, text=True, check=False,
        )
        last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        ok = last is not None and not last["correct"] and last["failed"] > 0
        caught += ok
        frac = f"{last['failed']}/{last['attempted']}" if last else f"exit {proc.returncode}"
        print(f"{workload} with corrupted {damage}: failed {frac} -> "
              f"{'caught' if ok else 'NOT CAUGHT'}")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
