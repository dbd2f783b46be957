"""Run one sortlab CLI command in this fresh interpreter and record its spans.

usage: python3 launch.py RECORD_JSON MODE -- SORTLAB_ARGS...

MODE is one of
  probe   stop as soon as run_experiment is entered (set-up time only);
  timed   record only the run_experiment span;
  trace   record a span around every traced layer function (see tracer.py).

The record written to RECORD_JSON holds the time run_experiment was
entered (probe), the spans and the targets that were not found.  The
exit code of this process is the CLI's.  Needs ``src`` of a sortlab
checkout on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import RUN_TARGETS, TARGETS, Tracer, install


class _EnteredRun(BaseException):
    """Raised by the probe wrapper; BaseException so the CLI does not catch it."""


def _stop_on_entry(name, fn, counts):
    def stop(*args, **kwargs):
        raise _EnteredRun(time.monotonic())

    return stop


def main(argv) -> int:
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("probe", "timed", "trace"):
        raise SystemExit(__doc__)

    from sortlab.report import cli

    tracer = Tracer()
    if mode == "probe":
        missing = install(RUN_TARGETS, _stop_on_entry)
    else:
        missing = install(TARGETS if mode == "trace" else RUN_TARGETS, tracer.wrap)
    entered = None
    try:
        rc = cli.main(cli_args)
    except _EnteredRun as stop:
        rc, entered = 0, stop.args[0]
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"entered": entered, "spans": tracer.spans, "missing": missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
