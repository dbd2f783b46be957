"""Repeated-trial experiment harness: sample, sort, count, aggregate.

Each (n, p) cell runs `trials` independent repetitions of drawing a
geometric array and counting operations with the configured counter,
then reduces the counts to mean, standard deviation (population
convention, dividing by the trial count), and coefficient of variation.
The trials of a cell are stacked into (trials, n) batches and counted by
one batched kernel call per batch.  The moments come from the exact
integer sums of the counts and of their squares: the mean and the
variance are each rounded once from those sums, and the sd is the
correctly rounded square root of that variance.

Determinism contract: cell seeds derive from the master seed and the
p-grid index, trial seeds from the cell seed and the trial index, and a
cell's counts are reduced to exact integer sums, whose value does not
depend on the order they are added in.  Output is therefore
bit-identical however the trials are split between forked worker
processes.
Trial t of a cell draws from numpy's ``PCG64(mix64(cell_seed, t))``, as
:func:`~sortlab.distributions.sample_block`'s docstring states.  A share
hashes the seeds of all its trials into their ``SeedSequence`` words
together, in passes of at most ``BLOCK_VALUES // 8`` trials, and draws
each block from its slice of those words, so every row is the one
``sample_block`` draws.

The grid's trials form one cell-major sequence: grid trial g is trial
``g % trials`` of cell ``g // trials``.  A run fans out by a direct fork,
without a pool: each share is a contiguous, near-equal range of that
sequence, so a cell may be split between shares and a one-cell grid can
use every job.  A share draws and counts its range cell by cell and
returns each cell's exact integer sums; the calling process runs share 0
itself and each other share runs in a forked child that sends its sums
back pickled over a pipe and leaves by ``os._exit``.  The calling process
adds the sums and builds each summary once, so the split changes no
summary.  A serial run is the one-share case: it forks no child.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .algorithms import count_inversions_batch, exchange_sort_batch, textbook_sort_batch
from .blocks import BLOCK_VALUES, BYTES_PER_VALUE
from .distributions import _as_int, _as_seed, _draw_rows, _inverse_p, _mix64_block
from .distributions import _seed_sequence_words, geometric, mix64

__all__ = [
    "COUNTER_MODES",
    "ExperimentConfig",
    "TrialSummary",
    "run_cell",
    "run_experiment",
]

_KERNELS = {
    "exchange_interchanges": exchange_sort_batch,
    "textbook_interchanges": textbook_sort_batch,
    "inversions": count_inversions_batch,
}
COUNTER_MODES = tuple(_KERNELS)

#: Most bytes one trial may need.  A block holds at least one trial, so an
#: n with n * BYTES_PER_VALUE above this is refused before any draw.
TRIAL_MEMORY_BUDGET = 1 << 32


@dataclass(frozen=True)
class ExperimentConfig:
    """Array length, trial count, p grid, counter choice, and seeding."""

    n: int
    trials: int
    p_values: tuple[float, ...]
    counter_mode: str = "exchange_interchanges"
    master_seed: int = 0

    def __post_init__(self):
        # Stored as Python numbers, each p as the float the sampler checks
        # and keeps, so that numpy scalars neither leak into the CSV as
        # np.float64(...) nor overflow the seed arithmetic, and a p whose
        # draws would overflow is refused before a run forks.
        for name in ("n", "trials"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), minimum=1))
        p_values = tuple(_inverse_p(geometric(p), self.n) for p in self.p_values)
        object.__setattr__(self, "p_values", p_values)
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        if any(a >= b for a, b in zip(self.p_values, self.p_values[1:])):
            raise ValueError(f"p_values must be strictly increasing, got {self.p_values}")
        if self.counter_mode not in COUNTER_MODES:
            raise ValueError(
                f"counter_mode must be one of {COUNTER_MODES}, got {self.counter_mode!r}"
            )
        object.__setattr__(self, "master_seed", _as_seed("master_seed", self.master_seed))
        if self.n * BYTES_PER_VALUE > TRIAL_MEMORY_BUDGET:
            raise ValueError(
                f"n={self.n} is too large: one trial would need about "
                f"{self.n * BYTES_PER_VALUE / 2**30:.3g} GiB ({BYTES_PER_VALUE} bytes per value), "
                f"over the {TRIAL_MEMORY_BUDGET / 2**30:.3g} GiB budget"
            )


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated counts for one (p, n) cell; cv_c is None when mean_c is 0.

    p, mean_c, sd_c and a cv_c that is not None must be finite, p a valid
    geometric parameter in (0, 1], n and trials ints >= 1, and sd_c >= 0.
    They are stored as Python numbers (floats, and n and trials as ints),
    so that numpy scalars write the CSV that Python numbers write.  The
    field order is the summary CSV's column order.
    """

    p: float
    n: int
    trials: int
    mean_c: float
    sd_c: float
    cv_c: float | None

    def __post_init__(self):
        for name in ("p", "mean_c", "sd_c", "cv_c"):
            value = getattr(self, name)
            if not ((name == "cv_c" and value is None) or math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "p" and value is not None:
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "p", geometric(self.p).p)
        for name in ("n", "trials"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), minimum=1))
        if self.sd_c < 0.0:
            raise ValueError(f"sd_c must be >= 0, got {self.sd_c}")


def run_cell(config: ExperimentConfig, p: float, cell_seed: int) -> TrialSummary:
    """Run all trials of one grid cell and reduce them in trial order.

    The one-cell, full-range case of a share (:func:`_run_share`).
    """
    ((_, total, squares),) = _run_share(config, [(p, cell_seed)], 0, config.trials)
    return _summary(config, p, total, squares)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> tuple[TrialSummary, ...]:
    """One TrialSummary per grid p, in grid order.

    The grid's cells x trials trials are split into contiguous shares of
    near-equal size, at most one per job, per trial and per usable CPU (the
    CPU affinity mask where the platform has one).  Share 0 runs in this
    process and every other share in a child forked for it, so a serial
    run (one share, or no ``os.fork`` on this platform) forks nothing.
    Per-trial seeding and exact integer sums keep the result bit-identical
    whatever the number of shares and wherever a cell is split.

    A child's exception is raised here again, and a child that ends
    without reporting raises RuntimeError naming its exit status.  If this
    process's own share fails, the children are killed before the error
    propagates.  Every child is reaped and every pipe closed on each path.
    """
    jobs = _as_int("jobs", jobs, minimum=1)
    cells = [(p, mix64(config.master_seed, index)) for index, p in enumerate(config.p_values)]
    trials = len(cells) * config.trials
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, trials, cpus) if hasattr(os, "fork") else 1
    bounds = [share * trials // workers for share in range(workers + 1)]
    sums = [[0, 0] for _ in cells]

    def add(share_sums):
        for index, total, squares in share_sums:
            sums[index][0] += total
            sums[index][1] += squares

    children = []  # (pid, read end of its pipe) per forked share, in share order
    try:
        if workers > 1:
            # Load numpy's generator module once, here, so that every child
            # inherits it rather than importing it in its first sample_block.
            import numpy.random  # noqa: F401
        for share in range(1, workers):
            children.append(_fork_share(config, cells, bounds[share], bounds[share + 1]))
        add(_run_share(config, cells, bounds[0], bounds[1]))
        while children:
            pid, pipe = children[0]
            with pipe:
                report = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0 or not report:
                how = f"exited with status {status}"
                if status < 0:
                    how = f"was killed by signal {-status}"
                raise RuntimeError(f"worker process {pid} {how} without reporting its cells")
            ok, result = pickle.loads(report)
            if not ok:
                raise result
            add(result)
    finally:
        # Reached with children left only when something failed.
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    return tuple(_summary(config, p, *cell_sums) for (p, _), cell_sums in zip(cells, sums))


def _run_share(
    config: ExperimentConfig, cells: list[tuple[float, int]], start: int, stop: int
) -> list[tuple[int, int, int]]:
    """Exact sums over trials start..stop-1 of the cell-major sequence of `cells`.

    `cells` holds one (p, cell seed) per cell.  Returns one (cell index,
    sum of the counts, sum of their squares) per cell the range meets, in
    cell order.  The range is hashed in passes of at most BLOCK_VALUES // 8
    trials: the trial seeds of every cell part a pass meets go through one
    :func:`~sortlab.distributions._seed_sequence_words` call.  Each part is
    then drawn and counted in trial order, in blocks of at most
    BLOCK_VALUES values (at least one trial each), every block from its
    slice of the pass's words.
    """
    kernel = _KERNELS[config.counter_mode]
    n, trials = config.n, config.trials
    per_block = max(1, BLOCK_VALUES // n)
    per_pass = max(1, BLOCK_VALUES // 8)
    sums = {}
    for head in range(start, stop, per_pass):
        tail = min(head + per_pass, stop)
        # (cell index, first trial, last trial + 1) of each cell the pass meets.
        parts = [
            (index, max(head - index * trials, 0), min(tail - index * trials, trials))
            for index in range(head // trials, (tail - 1) // trials + 1)
        ]
        seeds = [_mix64_block(cells[index][1], first, last) for index, first, last in parts]
        words = _seed_sequence_words(np.concatenate(seeds))
        row = 0
        for index, first, last in parts:
            p = _inverse_p(geometric(cells[index][0]), n)
            # Python ints: a count squared passes int64 once counts pass ~3.04e9.
            total, squares = sums.get(index, (0, 0))
            for block in range(first, last, per_block):
                size = min(per_block, last - block)
                batch = _draw_rows(p, n, words[row : row + size])
                row += size
                for count in kernel(batch).tolist():
                    total += count
                    squares += count * count
            sums[index] = total, squares
    return [(index, *cell_sums) for index, cell_sums in sums.items()]


def _summary(config: ExperimentConfig, p: float, total: int, squares: int) -> TrialSummary:
    """A cell's summary from the exact sums of its counts and of their squares."""
    trials = config.trials
    mean_c = total / trials  # int / int is correctly rounded
    sd_c = math.sqrt((trials * squares - total * total) / (trials * trials))
    return TrialSummary(
        p=p,
        n=config.n,
        trials=trials,
        mean_c=mean_c,
        sd_c=sd_c,
        cv_c=sd_c / mean_c if mean_c > 0.0 else None,
    )


def _fork_share(config, cells, start, stop):
    """Fork a child that runs one share; return its pid and the read end of its pipe.

    The child writes one pickled ``(ok, sums or exception)`` and always
    leaves by ``os._exit``, with status 0 only once that report is written:
    it never returns into the caller's frames (a CLI or a test runner) and
    never flushes the stdio buffers it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                report = (True, _run_share(config, cells, start, stop))
            except Exception as exc:
                report = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(report))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
