"""Spans around the public functions of each sortlab layer.

The benchmark wraps functions from outside the program: after the CLI
module is imported, every sortlab module attribute that *is* one of the
target functions is replaced by a wrapper that records a span.  A target
that no longer exists is skipped, so its layer reports 0 calls.

A span is ``[name, start, end, parent, counts]``: ``start``/``end`` are
``time.monotonic()`` readings (CLOCK_MONOTONIC, comparable across
processes on Linux), ``parent`` is the index of the enclosing span or
None, and ``counts`` holds the exact work counts measured at that
boundary (draws, swaps, compares, cells, trials).
"""

from __future__ import annotations

import functools
import sys
import time


def _sample_counts(args, kwargs, result):
    return {"draws": len(result)}


def _swaps(result) -> int:
    # A counter returns an int, or (sorted copy, OpCounters or int).
    if isinstance(result, tuple):
        result = result[1]
    return int(getattr(result, "interchanges", result))


def _sort_counts(args, kwargs, result):
    n = len(args[0])
    return {"swaps": _swaps(result), "compares": n * (n - 1) // 2}


def _inversion_counts(args, kwargs, result):
    return {"swaps": _swaps(result)}


def _run_counts(args, kwargs, result):
    return {"cells": len(result), "trials": sum(cell.trials for cell in result)}


#: (span name, module, attribute, counts from (args, kwargs, result) or None).
#: The span name is ``<layer>.<part>``; several functions may share one part.
TARGETS = (
    ("distributions.seed", "sortlab.distributions", "mix64", None),
    ("distributions.seed", "sortlab.distributions", "RandomSource.__init__", None),
    ("distributions.sample", "sortlab.distributions", "sample_array", _sample_counts),
    ("algorithms.exchange", "sortlab.algorithms", "exchange_selection_sort", _sort_counts),
    ("algorithms.textbook", "sortlab.algorithms", "textbook_selection_sort", _sort_counts),
    ("algorithms.inversions", "sortlab.algorithms", "count_inversions", _inversion_counts),
    ("montecarlo.run", "sortlab.montecarlo", "run_experiment", _run_counts),
    ("theory.predict", "sortlab.theory", "predict", None),
    ("polyfit.fit", "sortlab.polyfit", "fit", None),
    ("polyfit.diagnostics", "sortlab.polyfit", "diagnostics", None),
    ("special.sig", "sortlab.special", "student_t_two_sided_sig", None),
    ("special.sig", "sortlab.special", "f_sig", None),
    ("model_select.select", "sortlab.model_select", "select_degree", None),
    ("report.csv", "sortlab.report.csvio", "write_summaries_csv", None),
    ("report.json", "sortlab.report.jsonio", "write_report_json", None),
    ("report.json", "sortlab.report.jsonio", "write_verdict_json", None),
    ("report.svg", "sortlab.report.svg", "write_scatter_svg", None),
    ("report.render", "sortlab.report.render", "render_report", None),
)

#: Only the experiment boundary: what the timed runs record.
RUN_TARGETS = tuple(t for t in TARGETS if t[0] == "montecarlo.run")


class Tracer:
    """In-memory span list for one CLI invocation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return traced


def install(targets, wrap) -> list[str]:
    """Replace each target by ``wrap(name, original, counts)`` everywhere in sortlab.

    Returns the targets that were not found.
    """
    modules = [m for key, m in sys.modules.items() if key == "sortlab" or key.startswith("sortlab.")]
    missing = []
    for name, module_name, attr, counts in targets:
        module = sys.modules.get(module_name)
        owner, _, method = attr.partition(".")
        original = getattr(module, owner, None)
        if method:
            fn = vars(original).get(method) if isinstance(original, type) else None
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(original, method, wrap(name, fn, counts))
            continue
        if not callable(original):
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = wrap(name, original, counts)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return missing


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
