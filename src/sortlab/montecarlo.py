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
p-grid index, trial seeds from the cell seed and the trial index, and
trials are reduced in trial-index order.  Output is therefore
bit-identical whether cells run serially or in forked worker processes.
Each block is drawn by one :func:`~sortlab.distributions.sample_block`
call, and trial t's stream is still exactly
``RandomSource(mix64(cell_seed, t))``.

Parallel runs fork directly, without a pool: cell i belongs to share
``i % workers``, the calling process runs share 0 itself, and each other
share runs in a forked child that sends its summaries back pickled over
a pipe and leaves by ``os._exit``.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import count_inversions_batch, exchange_sort_batch, textbook_sort_batch
from .distributions import geometric, mix64, sample_block

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

#: Most array values one kernel call holds.  A cell's trials run in blocks
#: of at most this many values (at least one trial each), so memory stays
#: bounded whatever the trial count.
BLOCK_VALUES = 1 << 18

#: Peak bytes per array value while a block is counted: at most 64 for a
#: kernel, output included (textbook 29-34, exchange 33-42, inversions
#: 20-23 by tracemalloc), plus the 8 of the int64 block it is given.  The
#: block sampler's own peak (at most 24) comes before.  A tracemalloc test
#: pins a whole block of each mode within this figure.
BYTES_PER_VALUE = 72

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
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.p_values:
            raise ValueError("p_values must be nonempty")
        for p in self.p_values:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"p must be in (0,1], got {p}")
        if any(a >= b for a, b in zip(self.p_values, self.p_values[1:])):
            raise ValueError(f"p_values must be strictly increasing, got {self.p_values}")
        if self.counter_mode not in COUNTER_MODES:
            raise ValueError(
                f"counter_mode must be one of {COUNTER_MODES}, got {self.counter_mode!r}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.n * BYTES_PER_VALUE > TRIAL_MEMORY_BUDGET:
            raise ValueError(
                f"n={self.n} is too large: one trial would need about "
                f"{self.n * BYTES_PER_VALUE / 2**30:.3g} GiB ({BYTES_PER_VALUE} bytes per value), "
                f"over the {TRIAL_MEMORY_BUDGET / 2**30:.3g} GiB budget"
            )


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated counts for one (p, n) cell; cv_c is None when mean_c is 0."""

    p: float
    n: int
    trials: int
    mean_c: float
    sd_c: float
    cv_c: float | None

    def __post_init__(self):
        if self.sd_c < 0.0:
            raise ValueError(f"sd_c must be >= 0, got {self.sd_c}")


def run_cell(config: ExperimentConfig, p: float, cell_seed: int) -> TrialSummary:
    """Run all trials of one grid cell and reduce them in trial order."""
    model = geometric(p)
    kernel = _KERNELS[config.counter_mode]
    per_block = max(1, BLOCK_VALUES // config.n)
    # Python ints: a count squared passes int64 once counts pass ~3.04e9.
    total = squares = 0

    for start in range(0, config.trials, per_block):
        stop = min(start + per_block, config.trials)
        batch = sample_block(model, config.n, cell_seed, start, stop)
        counts = kernel(batch)[1]
        for count in counts.tolist():
            total += count
            squares += count * count
    trials = config.trials
    mean_c = total / trials  # int / int is correctly rounded
    sd_c = math.sqrt(Fraction(trials * squares - total * total, trials * trials))
    return TrialSummary(
        p=p,
        n=config.n,
        trials=trials,
        mean_c=mean_c,
        sd_c=sd_c,
        cv_c=sd_c / mean_c if mean_c > 0.0 else None,
    )


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> tuple[TrialSummary, ...]:
    """One TrialSummary per grid p, in grid order.

    `jobs` > 1 splits the cells into shares, at most one per cell and per
    usable CPU (the CPU affinity mask where the platform has one).  Share 0
    runs in this process and every other share in a child forked for it;
    where ``os.fork`` does not exist the run is serial.  Per-cell seeding
    and ordered collection keep the result bit-identical to a serial run.

    A child's exception is raised here again, and a child that ends
    without reporting raises RuntimeError naming its exit status.  If this
    process's own share fails, the children are killed before the error
    propagates.  Every child is reaped and every pipe closed on each path.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [mix64(config.master_seed, index) for index in range(len(config.p_values))]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(seeds), cpus)
    if workers == 1 or not hasattr(os, "fork"):
        return tuple(_run_share(config, seeds, 0, 1))
    children = []  # (pid, read end of its pipe) per forked share, in share order
    try:
        for share in range(1, workers):
            children.append(_fork_share(config, seeds, share, workers))
        shares = [_run_share(config, seeds, 0, workers)]
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
            shares.append(result)
    finally:
        # Reached with children left only when something failed.
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    summaries = [None] * len(seeds)
    for share, cells in enumerate(shares):
        summaries[share::workers] = cells
    return tuple(summaries)


def _run_share(
    config: ExperimentConfig, seeds: list[int], share: int, workers: int
) -> list[TrialSummary]:
    """Summaries of cells share, share + workers, share + 2 * workers, ..."""
    cells = zip(config.p_values[share::workers], seeds[share::workers])
    return [run_cell(config, p, seed) for p, seed in cells]


def _fork_share(config, seeds, share, workers):
    """Fork a child that runs one share; return its pid and the read end of its pipe.

    The child writes one pickled ``(ok, summaries or exception)`` and always
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
                report = (True, _run_share(config, seeds, share, workers))
            except Exception as exc:
                report = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(report))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
