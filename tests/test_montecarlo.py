"""Trial harness: exact moments, cell seeding, determinism, parallel parity."""

import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_inversions, exchange_sort_list, per_trial_rows, textbook_sort_list
from sortlab import distributions, montecarlo
from sortlab.distributions import RandomSource, geometric, mix64, sample_array
from sortlab.montecarlo import ExperimentConfig, TrialSummary, run_cell, run_experiment
from sortlab.report.cli import main
from sortlab.report.csvio import RunMetadata, format_summaries_csv, parse_summaries_csv
from sortlab.report.fixture import REFERENCE_ROWS
from sortlab.theory import expected_interchanges


class TestExperimentConfig:
    def test_accepts_reference_shape(self):
        config = ExperimentConfig(
            n=1000,
            trials=100,
            p_values=tuple(round(0.1 * i, 1) for i in range(1, 10)),
            master_seed=42,
        )
        assert config.counter_mode == "exchange_interchanges"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"trials": 0},
            {"p_values": ()},
            {"p_values": (0.0, 0.5)},
            {"p_values": (0.5, 1.1)},
            {"p_values": (0.5, 0.5)},
            {"p_values": (0.5, 0.2)},
            {"counter_mode": "bogus"},
            {"master_seed": -1},
            {"master_seed": 2**64},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(n=10, trials=5, p_values=(0.2, 0.5), master_seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**base)

    def test_numpy_scalars_give_the_python_number_csv(self):
        # Stored as Python numbers, they write a CSV that reads back, byte
        # for byte the one the same Python numbers write.
        given = ExperimentConfig(
            n=np.int64(10),
            trials=np.uint16(3),
            p_values=tuple(np.linspace(0.1, 0.9, 3)),
            master_seed=np.uint64(2**64 - 1),
        )
        plain = ExperimentConfig(n=10, trials=3, p_values=(0.1, 0.5, 0.9), master_seed=2**64 - 1)
        assert given == plain
        assert [type(v) for v in (given.n, given.trials, given.master_seed)] == [int] * 3
        assert all(type(p) is float for p in given.p_values)
        meta = RunMetadata.create("test", master_seed=given.master_seed, no_timestamp=True)
        text = format_summaries_csv(run_experiment(given), meta)
        assert text == format_summaries_csv(run_experiment(plain), meta)
        summaries, _ = parse_summaries_csv(text)
        assert summaries == run_experiment(plain)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 10.5),
            ("n", np.float64(10.0)),
            ("trials", True),
            ("master_seed", 1.5),
            ("master_seed", True),
            ("master_seed", "3"),
        ],
    )
    def test_non_integers_and_bools_are_refused_by_name(self, field, value):
        base = dict(n=10, trials=5, p_values=(0.2, 0.5), master_seed=1)
        base[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            ExperimentConfig(**base)

    @pytest.mark.parametrize("p_values", [(0.5, True), ("0.5",), (0.2, float("nan"))])
    def test_p_values_must_be_finite_reals(self, p_values):
        with pytest.raises(ValueError, match="^p must be a finite real"):
            ExperimentConfig(n=10, trials=5, p_values=p_values, master_seed=1)

    @pytest.mark.parametrize("p", [10**400, -(10**400)])
    def test_p_past_the_float_range_is_out_of_range(self, p):
        with pytest.raises(ValueError, match=r"^p must be in \(0,1\]"):
            ExperimentConfig(n=10, trials=5, p_values=(p,), master_seed=1)

    @pytest.mark.parametrize("jobs", [1.5, True, "2"])
    def test_jobs_must_be_an_int(self, jobs):
        config = ExperimentConfig(n=10, trials=5, p_values=(0.5,), master_seed=1)
        with pytest.raises(TypeError, match="^jobs must be an int"):
            run_experiment(config, jobs=jobs)
        assert run_experiment(config, jobs=np.int64(1)) == run_experiment(config)

    def test_oversized_trial_is_refused_before_sampling(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(distributions, "_draw_rows", no_draws)
        monkeypatch.setattr(montecarlo, "TRIAL_MEMORY_BUDGET", 100 * montecarlo.BYTES_PER_VALUE)
        ExperimentConfig(n=100, trials=5, p_values=(0.5,), master_seed=1)
        with pytest.raises(ValueError, match=r"n=101 is too large: .* bytes per value"):
            ExperimentConfig(n=101, trials=5, p_values=(0.5,), master_seed=1)

    def test_default_and_benchmark_sizes_are_far_below_the_budget(self):
        # The CLI default (and the largest benchmark) n is 1000; n = 10**6 runs too.
        assert 10**6 * montecarlo.BYTES_PER_VALUE * 50 < montecarlo.TRIAL_MEMORY_BUDGET


class TestTrialSummary:
    def test_rejects_negative_sd(self):
        with pytest.raises(ValueError):
            TrialSummary(p=0.5, n=10, trials=5, mean_c=1.0, sd_c=-0.1, cv_c=None)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("p", 0.0, ValueError),
            ("p", 1.5, ValueError),
            ("p", -0.5, ValueError),
            ("n", 0, ValueError),
            ("n", -5, ValueError),
            ("trials", 0, ValueError),
            ("n", 10.0, TypeError),
            ("trials", True, TypeError),
        ],
    )
    def test_rejects_out_of_range_cell(self, field, value, error):
        cell = dict(p=0.5, n=10, trials=5, mean_c=1.0, sd_c=0.1, cv_c=0.1)
        TrialSummary(**cell)
        with pytest.raises(error, match=f"^{field} must be"):
            TrialSummary(**{**cell, field: value})

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
        ids=["nan", "inf", "-inf", "10**400", "-10**400"],
    )
    @pytest.mark.parametrize("field", ["p", "mean_c", "sd_c", "cv_c"])
    def test_rejects_nonfinite(self, field, value):
        # An int past the float range is refused like inf, not overflowed.
        cell = dict(p=0.5, n=10, trials=5, mean_c=1.0, sd_c=0.1, cv_c=0.1)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TrialSummary(**{**cell, field: value})

    def test_pipeline_and_fixture_rows_construct(self):
        # dataclasses.replace runs __post_init__ again on each row; p = 1
        # gives mean_c = 0 and cv_c = None.
        config = ExperimentConfig(n=20, trials=3, p_values=(0.5, 1.0), master_seed=1)
        rows = run_experiment(config) + REFERENCE_ROWS
        assert rows[1].cv_c is None
        assert tuple(dataclasses.replace(row) for row in rows) == rows


ORACLES = {
    "exchange_interchanges": lambda row: exchange_sort_list(row)[1],
    "textbook_interchanges": lambda row: textbook_sort_list(row)[1],
    "inversions": brute_force_inversions,
}


def exact_moments(counts) -> tuple[float, float]:
    """Population mean and variance, each rounded once from exact rational
    sums, as (mean, correctly rounded square root of the variance)."""
    t = len(counts)
    mean = Fraction(sum(counts), t)
    variance = Fraction(sum(c * c for c in counts), t) - mean * mean
    return float(mean), math.sqrt(variance)


class TestExactMoments:
    @pytest.mark.parametrize("mode", sorted(ORACLES))
    # The first row is the grid of the CSVs in tests/golden/.
    @pytest.mark.parametrize("n,trials,seed", [(50, 20, 42), (23, 7, 0)])
    def test_moments_are_rounded_once_from_literal_counts(self, mode, n, trials, seed):
        config = ExperimentConfig(
            n=n,
            trials=trials,
            p_values=tuple(round(0.1 * i, 1) for i in range(1, 10)),
            counter_mode=mode,
            master_seed=seed,
        )
        for index, p in enumerate(config.p_values):
            cell_seed = mix64(config.master_seed, index)
            arrays = [
                sample_array(RandomSource(mix64(cell_seed, t)), geometric(p), n)
                for t in range(trials)
            ]
            counts = [ORACLES[mode](a.tolist()) for a in arrays]
            mean, sd = exact_moments(counts)
            summary = run_cell(config, p, cell_seed)
            assert (summary.mean_c, summary.sd_c) == (mean, sd), (mode, p)
            assert summary.cv_c == sd / mean

    @pytest.mark.parametrize(
        "base,step",
        [
            # c^2 passes 2**63 from here on: an int64 sum of squares would wrap.
            (3_040_000_000, 1_234_567),
            # Past 2**53 a float sum cannot even hold one count exactly.
            (4 * 10**18, 1),
        ],
    )
    def test_moments_stay_exact_for_huge_counts(self, monkeypatch, base, step):
        returned = []

        def huge_counts(batch):
            counts = base + step * (batch.sum(axis=1) % 1000)
            returned.extend(counts.tolist())
            return counts

        monkeypatch.setitem(montecarlo._KERNELS, "exchange_interchanges", huge_counts)
        config = ExperimentConfig(n=40, trials=25, p_values=(0.3,), master_seed=8)
        summary = run_cell(config, 0.3, mix64(8, 0))
        assert len(returned) == 25 and len(set(returned)) > 1
        mean, sd = exact_moments(returned)
        assert (summary.mean_c, summary.sd_c, summary.cv_c) == (mean, sd, sd / mean)
        assert sd > 0.0

    @pytest.mark.parametrize("trials", [2, 7, 999])
    def test_sd_is_the_root_of_the_exact_variance_past_int64(self, monkeypatch, trials):
        # 3e9 and 4e9 square past 2**63; T*sum(c^2) - sum(c)^2 is divided
        # as Python ints, which rounds once, as Fraction's float does.
        def counts_past_int64(batch):
            return np.where(np.arange(len(batch)) % 3 == 0, 3 * 10**9, 4 * 10**9)

        monkeypatch.setitem(montecarlo._KERNELS, "exchange_interchanges", counts_past_int64)
        config = ExperimentConfig(n=40, trials=trials, p_values=(0.3,), master_seed=8)
        summary = run_cell(config, 0.3, mix64(8, 0))
        counts = [3 * 10**9 if t % 3 == 0 else 4 * 10**9 for t in range(trials)]
        total, squares = sum(counts), sum(c * c for c in counts)
        assert squares > 2**63
        want = math.sqrt(Fraction(trials * squares - total * total, trials * trials))
        assert summary.sd_c.hex() == want.hex()


class TestRunCell:
    def test_degenerate_p_one(self):
        config = ExperimentConfig(n=20, trials=10, p_values=(1.0,), master_seed=3)
        summary = run_cell(config, 1.0, mix64(3, 0))
        assert summary.mean_c == 0.0
        assert summary.sd_c == 0.0
        assert summary.cv_c is None

    def test_n_two_bernoulli_oracle(self):
        config = ExperimentConfig(
            n=2, trials=20_000, p_values=(0.5,), counter_mode="exchange_interchanges", master_seed=7
        )
        summary = run_cell(config, 0.5, mix64(7, 0))
        tol = 4.0 * math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 20_000)
        assert abs(summary.mean_c - 1.0 / 3.0) < tol
        assert summary.cv_c == pytest.approx(summary.sd_c / summary.mean_c)

    def test_mean_within_operation_bound(self):
        config = ExperimentConfig(n=40, trials=15, p_values=(0.3,), master_seed=9)
        summary = run_cell(config, 0.3, mix64(9, 0))
        assert 0.0 <= summary.mean_c <= 40 * 39 / 2
        assert summary.n == 40
        assert summary.trials == 15

    def test_counter_modes_differ(self):
        base = dict(n=60, trials=10, p_values=(0.4,), master_seed=12)
        means = {}
        for mode in ("exchange_interchanges", "textbook_interchanges", "inversions"):
            config = ExperimentConfig(counter_mode=mode, **base)
            means[mode] = run_cell(config, 0.4, mix64(12, 0)).mean_c
        # Same seeded draws, different counters: inversions dominate, the
        # textbook sort swaps least.
        assert means["textbook_interchanges"] < means["exchange_interchanges"]
        assert means["exchange_interchanges"] < means["inversions"]

    @pytest.mark.parametrize(
        "cell_seed, error, message",
        [
            (1.5, TypeError, "cell_seed must be an int, got float"),
            (True, TypeError, "cell_seed must be an int, got bool"),
            ("7", TypeError, "cell_seed must be an int, got str"),
            (-1, ValueError, "cell_seed must be a 64-bit unsigned integer, got -1"),
            (2**64, ValueError, f"cell_seed must be a 64-bit unsigned integer, got {2**64}"),
        ],
        ids=["float", "bool", "str", "negative", "2**64"],
    )
    def test_bad_cell_seed_is_refused_before_any_draw(
        self, monkeypatch, cell_seed, error, message
    ):
        def no_draws(*args):
            raise AssertionError("hashed or drew for a refused cell")

        monkeypatch.setattr(distributions, "_mix64_block", no_draws)
        monkeypatch.setattr(distributions, "_draw_rows", no_draws)
        config = ExperimentConfig(n=10, trials=3, p_values=(0.5,), master_seed=1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_cell(config, 0.5, cell_seed)
        # The p is checked first, as sample_block checks it.
        with pytest.raises(ValueError, match=re.escape("p must be in (0,1], got 0.0")):
            run_cell(config, 0.0, cell_seed)



    @pytest.mark.parametrize("p", [0.05, 0.4, 0.9])
    def test_inversion_mean_matches_closed_form(self, p):
        # The inversion count's expectation is n(n-1)/2 * (1-p)/(2-p) exactly;
        # the sampled mean of 400 trials lies within 5 standard errors.
        config = ExperimentConfig(
            n=80, trials=400, p_values=(p,), counter_mode="inversions", master_seed=11
        )
        (summary,) = run_experiment(config)
        band = 5.0 * summary.sd_c / math.sqrt(400)
        assert abs(summary.mean_c - expected_interchanges(geometric(p), 80)) < band

    @pytest.mark.parametrize(
        "mode", ["exchange_interchanges", "textbook_interchanges", "inversions"]
    )
    @pytest.mark.parametrize("block_values", [3 * 30, 1])
    def test_blocked_cell_matches_unblocked(self, monkeypatch, mode, block_values):
        config = ExperimentConfig(
            n=30, trials=10, p_values=(0.3,), counter_mode=mode, master_seed=5
        )
        whole = run_cell(config, 0.3, mix64(5, 0))
        kernel = montecarlo._KERNELS[mode]
        rows = []

        def spy(batch):
            rows.append(batch.shape[0])
            return kernel(batch)

        monkeypatch.setitem(montecarlo._KERNELS, mode, spy)
        # 10 trials in blocks of 3 (3+3+3+1), or one trial per block when n
        # alone exceeds the block.
        monkeypatch.setattr(montecarlo, "BLOCK_VALUES", block_values)
        assert run_cell(config, 0.3, mix64(5, 0)) == whole
        assert rows == ([3, 3, 3, 1] if block_values > 1 else [1] * 10)


    @pytest.mark.parametrize(
        "n, block_values, rows, passes",
        [
            # 300 trials of n = 1000 pass BLOCK_VALUES: blocks of 262 and 38
            # trials, from one hashing pass.
            (1000, None, [262, 38], [300]),
            # Blocks of 7 trials and passes of 43 (350 // 8): each pass is six
            # blocks of 7, then one of 1 where the pass ends mid-block.
            (50, 50 * 7, ([7] * 6 + [1]) * 6 + [7] * 6, [43] * 6 + [42]),
        ],
        ids=["default-blocks", "small-blocks"],
    )
    def test_blocks_match_per_trial_sampling(
        self, monkeypatch, hashed, n, block_values, rows, passes
    ):
        config = ExperimentConfig(n=n, trials=300, p_values=(0.3,), master_seed=19)
        cell_seed = mix64(19, 0)
        batches = []
        kernel = montecarlo._KERNELS["exchange_interchanges"]

        def spy(batch):
            batches.append(batch.copy())
            return kernel(batch)

        monkeypatch.setitem(montecarlo._KERNELS, "exchange_interchanges", spy)
        if block_values is not None:
            monkeypatch.setattr(montecarlo, "BLOCK_VALUES", block_values)
        run_cell(config, 0.3, cell_seed)
        assert [b.shape for b in batches] == [(r, n) for r in rows]
        assert hashed == passes
        want = per_trial_rows(0.3, n, cell_seed, 0, 300)
        assert np.array_equal(np.concatenate(batches), want)

    def test_seed_words_held_at_once_stay_within_one_pass(self, monkeypatch):
        # At n = 1 a block of BLOCK_VALUES values is BLOCK_VALUES trials, and
        # the 32 bytes of each trial's seed words alone would pass the
        # BYTES_PER_VALUE budget of a block.  Hashed in passes of
        # BLOCK_VALUES // 8 trials, the run stays within it.
        block_values = 1 << 12
        trials = 40 * (block_values // 8)
        monkeypatch.setattr(montecarlo, "BLOCK_VALUES", block_values)
        budget = montecarlo.BYTES_PER_VALUE * block_values
        assert 32 * trials > 2 * budget
        config = ExperimentConfig(n=1, trials=trials, p_values=(0.3,), master_seed=2)
        # A first draw, so that loading numpy.random is not counted.
        run_cell(dataclasses.replace(config, trials=1), 0.3, mix64(2, 0))
        tracemalloc.start()
        try:
            run_cell(config, 0.3, mix64(2, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize(
        "mode", ["exchange_interchanges", "textbook_interchanges", "inversions"]
    )
    @pytest.mark.parametrize("p", [0.001, 0.008, 0.1, 0.9])
    def test_peak_memory_within_bytes_per_value(self, mode, p):
        # One full block (262 trials of n = 1000): the sampler, the kernel and
        # its output together stay within the figure the trial budget uses.
        # At p = 0.008 the values span n to 2n, and the value table codes them.
        config = ExperimentConfig(
            n=1000, trials=262, p_values=(p,), counter_mode=mode, master_seed=2
        )
        tracemalloc.start()
        try:
            run_cell(config, p, mix64(2, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= montecarlo.BYTES_PER_VALUE * 262 * 1000


class TestRunExperiment:
    def test_grid_order_and_length(self):
        config = ExperimentConfig(n=30, trials=5, p_values=(0.2, 0.5, 0.8), master_seed=21)
        result = run_experiment(config)
        assert [s.p for s in result] == [0.2, 0.5, 0.8]

    def test_single_cell_p_one(self):
        config = ExperimentConfig(n=25, trials=8, p_values=(1.0,), master_seed=4)
        (summary,) = run_experiment(config)
        assert (summary.mean_c, summary.sd_c, summary.cv_c) == (0.0, 0.0, None)

    def test_repeat_runs_identical(self):
        config = ExperimentConfig(n=50, trials=12, p_values=(0.2, 0.6), master_seed=77)
        assert run_experiment(config) == run_experiment(config)

    def test_parallel_matches_serial(self, monkeypatch):
        # Three real shares (two forked children), even on a 1-CPU machine.
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        config = ExperimentConfig(n=60, trials=10, p_values=(0.2, 0.5, 0.8), master_seed=7)
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=3)
        assert serial == parallel

    @pytest.mark.parametrize(
        "affinity,cpus,forks",
        [
            ({0, 1}, 8, 1),  # the affinity mask caps, not the machine's CPU count
            ({0}, 2, 0),  # as under `taskset -c 0` on a 2-CPU machine
            (None, 2, 1),  # no affinity call on this platform: the CPU count caps
            (None, None, 0),  # an unknown CPU count runs serially
        ],
    )
    def test_workers_capped_at_cpu_count(self, monkeypatch, forked, affinity, cpus, forks):
        # The parent runs one share itself, so w workers fork w - 1 children.
        if affinity is None:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        config = ExperimentConfig(n=20, trials=4, p_values=(0.1, 0.3, 0.5, 0.7, 0.9), master_seed=3)
        serial = run_experiment(config, jobs=1)
        assert forked == []
        assert run_experiment(config, jobs=10**6) == serial
        assert len(forked) == forks

    def test_cell_seeding_is_grid_position_based(self):
        config = ExperimentConfig(n=40, trials=6, p_values=(0.3, 0.7), master_seed=13)
        full = run_experiment(config)
        solo = ExperimentConfig(n=40, trials=6, p_values=(0.3,), master_seed=13)
        assert run_experiment(solo)[0] == full[0]

    def test_readme_swap_and_inversion_means(self, exchange_cells, inversion_cells):
        # README: "at n=1000, p=0.1 (100 trials, seed 42) the mean is 30,874
        # swaps against 236,287 inversions"; the fixtures are that run.
        swaps, inversions = exchange_cells[0], inversion_cells[0]
        cell = (swaps.p, swaps.n, swaps.trials)
        assert cell == (inversions.p, inversions.n, inversions.trials) == (0.1, 1000, 100)
        assert f"{round(swaps.mean_c):,}" == "30,874"
        assert f"{round(inversions.mean_c):,}" == "236,287"


@pytest.fixture
def forked(monkeypatch):
    """The list of os.fork calls the test's runs make, one entry each."""
    real_fork = os.fork
    forked = []

    def counting_fork():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(montecarlo.os, "fork", counting_fork)
    return forked


@pytest.fixture
def hashed(monkeypatch):
    """The trial count of each _seed_sequence_words call this process makes."""
    seed_sequence_words = distributions._seed_sequence_words
    hashed = []

    def counting_hash(seeds):
        hashed.append(len(seeds))
        return seed_sequence_words(seeds)

    monkeypatch.setattr(distributions, "_seed_sequence_words", counting_hash)
    return hashed


@pytest.fixture
def no_leaks():
    """Fail a test that leaves a child unreaped or a file descriptor open."""
    fd_dir = "/proc/self/fd"
    before = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert len(os.listdir(fd_dir)) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.usefixtures("no_leaks")
class TestForkedShares:
    """Failure paths of the fork fan-out.  Jobs 3 split CONFIG's 16 trials
    into trials 0-4, 5-9 and 10-15 of the cell-major sequence: share 0
    (cell 0 and trial 0 of cell 1) runs in the calling process, share 1
    meets the cells at p = 0.4 and 0.6, and share 2 those at 0.6 and 0.8."""

    CONFIG = ExperimentConfig(n=20, trials=4, p_values=(0.2, 0.4, 0.6, 0.8), master_seed=5)

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2})

    @staticmethod
    def patch_shares(monkeypatch, in_child):
        """Run `in_child(ps)` before each share that runs outside this
        process, ps being the set of p values of the cells its range meets."""
        parent = os.getpid()
        run_share = montecarlo._run_share

        def share(config, cells, start, stop):
            if os.getpid() != parent:
                in_child({cells[t // config.trials][0] for t in range(start, stop)})
            return run_share(config, cells, start, stop)

        monkeypatch.setattr(montecarlo, "_run_share", share)

    def test_child_exception_is_raised_in_parent(self, monkeypatch):
        # Only share 2 meets p = 0.8: share 1 reports, then share 2's error is raised.
        def fail(ps):
            if 0.8 in ps:
                raise LookupError(f"no cell at p={max(ps)}")

        self.patch_shares(monkeypatch, fail)
        with pytest.raises(LookupError, match=r"^no cell at p=0\.8$"):
            run_experiment(self.CONFIG, jobs=3)

    @pytest.mark.parametrize(
        "end,how",
        [
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL:d}"),
        ],
        ids=["exit", "kill"],
    )
    def test_child_ending_without_report_raises_runtime_error(self, monkeypatch, end, how):
        self.patch_shares(monkeypatch, lambda ps: end())
        with pytest.raises(RuntimeError, match=f"{how} without reporting its cells$"):
            run_experiment(self.CONFIG, jobs=3)

    def test_cli_exits_1_when_a_child_ends_without_report(self, monkeypatch, capsys):
        self.patch_shares(monkeypatch, lambda ps: os._exit(3))
        argv = ["simulate", "--n", "20", "--trials", "4", "--p", "0.2,0.4", "--seed", "1"]
        assert main(argv + ["--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: worker process ")
        assert captured.err.endswith(" exited with status 3 without reporting its cells\n")

    def test_failing_parent_share_kills_and_reaps_children(self, monkeypatch):
        parent = os.getpid()

        def share(config, cells, start, stop):
            if os.getpid() == parent:
                raise ValueError("parent share failed")
            time.sleep(60)  # the children must be killed, not waited for

        monkeypatch.setattr(montecarlo, "_run_share", share)
        started = time.monotonic()
        with pytest.raises(ValueError, match="^parent share failed$"):
            run_experiment(self.CONFIG, jobs=3)
        assert time.monotonic() - started < 30

    def test_unequal_shares_match_serial(self, forked):
        # 5 cells of 4 trials over 3 shares: trials 0-5 here, 6-12 in one
        # child and 13-19 in the other, so cells 1 and 3 are each split.
        config = ExperimentConfig(n=20, trials=4, p_values=(0.1, 0.3, 0.5, 0.7, 0.9), master_seed=5)
        serial = run_experiment(config, jobs=1)
        assert run_experiment(config, jobs=3) == serial
        assert len(forked) == 2

    def test_one_job_forks_nothing(self, monkeypatch):
        # A serial run is the one-share case of the fan-out: no fork, no pipe.
        want = run_experiment(self.CONFIG, jobs=3)

        def refuse(*args):
            raise AssertionError("a one-job run forked or opened a pipe")

        monkeypatch.setattr(montecarlo.os, "fork", refuse)
        monkeypatch.setattr(montecarlo.os, "pipe", refuse)
        assert run_experiment(self.CONFIG, jobs=1) == want

    def test_without_fork_runs_serially(self, monkeypatch):
        want = run_experiment(self.CONFIG, jobs=1)
        pids = set()
        run_share = montecarlo._run_share

        def share(config, cells, start, stop):
            pids.add(os.getpid())
            return run_share(config, cells, start, stop)

        monkeypatch.setattr(montecarlo, "_run_share", share)
        monkeypatch.delattr(montecarlo.os, "fork")
        assert run_experiment(self.CONFIG, jobs=3) == want
        assert pids == {os.getpid()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.usefixtures("no_leaks")
class TestOneSamplerPath:
    """p = 1 is drawn by the inverse CDF in every share, like any p, and a p
    whose draws would overflow int64 is refused by the config, before a run
    forks."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("mode", sorted(ORACLES))
    def test_p_one_rows_are_mapped_in_every_share(self, tmp_path, monkeypatch, mode, jobs):
        # Each mapping appends its process, p, row count and largest draw to
        # one file, in the process that makes it.
        log = tmp_path / "mapped"
        geometric_in_place = distributions._geometric_in_place

        def spy(raw, p):
            draws = geometric_in_place(raw, p)
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {p!r} {len(draws)} {draws.max()}\n")
            return draws

        monkeypatch.setattr(distributions, "_geometric_in_place", spy)
        config = ExperimentConfig(n=15, trials=6, p_values=(1.0,), counter_mode=mode, master_seed=4)
        (summary,) = run_experiment(config, jobs=jobs)
        # Counts are >= 0, so a mean of 0 makes every count 0.
        assert (summary.mean_c, summary.sd_c, summary.cv_c) == (0.0, 0.0, None)
        rows = {}
        for line in log.read_text().splitlines():
            pid, p, size, top = line.split()
            assert (p, top) == ("1.0", "0")
            rows[int(pid)] = rows.get(int(pid), 0) + int(size)
        # One share of 6 trials here, or 3 here and 3 in a child.
        assert os.getpid() in rows
        assert sorted(rows.values()) == ([6] if jobs == 1 else [3, 3])

    def test_p_that_overflows_int64_is_refused_before_any_fork(self, tmp_path, capsys, forked):
        out = tmp_path / "tiny.csv"
        argv = ["simulate", "--n", "5", "--trials", "3", "--p", "1e-300", "--jobs", "2"]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 1
        assert forked == []
        message = "p=1e-300 is too small: geometric draws would overflow int64"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(n=5, trials=3, p_values=(1e-300, 0.5))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.usefixtures("no_leaks")
class TestTrialShares:
    """Shares are contiguous, near-equal ranges of the grid's cell-major
    trial sequence, so a cell may be split and a one-cell grid fans out."""

    @pytest.fixture(autouse=True)
    def eight_cpus(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(8)))

    GRIDS = {1: (0.5,), 2: (0.3, 0.7), 9: tuple(round(0.1 * i, 1) for i in range(1, 10))}

    @pytest.mark.parametrize("mode", sorted(ORACLES))
    @pytest.mark.parametrize(
        "cells,trials,jobs",
        [
            (1, 7, 2),  # one cell split 3 + 4
            (1, 3, 5),  # more jobs than trials: one trial per share
            (2, 5, 3),  # 10 trials as 3 + 3 + 4: both cells split
            (2, 1, 4),  # two trials, two shares of one trial each
            (9, 7, 2),  # 63 trials as 31 + 32: cell 4 split
            (9, 10, 4),  # 90 trials as 22 + 23 + 22 + 23
        ],
    )
    def test_shares_match_one_job_and_run_cell(self, forked, mode, cells, trials, jobs):
        p_values = self.GRIDS[cells]
        config = ExperimentConfig(
            n=15, trials=trials, p_values=p_values, counter_mode=mode, master_seed=29
        )
        serial = run_experiment(config, jobs=1)
        assert forked == []
        assert serial == tuple(run_cell(config, p, mix64(29, i)) for i, p in enumerate(p_values))
        assert run_experiment(config, jobs=jobs) == serial
        # The parent runs one share: min(jobs, trials in the grid) - 1 children.
        assert len(forked) == min(jobs, cells * trials) - 1

    def test_one_cell_with_two_jobs_forks_one_child(self, forked):
        config = ExperimentConfig(n=200, trials=7, p_values=(0.5,), master_seed=1)
        (summary,) = run_experiment(config, jobs=2)
        assert len(forked) == 1
        assert summary == run_cell(config, 0.5, mix64(1, 0))

    def test_shares_are_contiguous_near_equal_ranges(self, tmp_path, monkeypatch):
        # 3 cells of 7 trials over 4 shares; each share appends its range to
        # one file, in the child that runs it.
        log = tmp_path / "shares"
        run_share = montecarlo._run_share

        def share(config, cells, start, stop):
            with open(log, "a") as out:
                out.write(f"{start} {stop}\n")
            return run_share(config, cells, start, stop)

        monkeypatch.setattr(montecarlo, "_run_share", share)
        config = ExperimentConfig(n=10, trials=7, p_values=(0.2, 0.4, 0.6), master_seed=3)
        assert run_experiment(config, jobs=4) == run_experiment(config, jobs=1)
        lines = log.read_text().splitlines()
        ranges = sorted(tuple(map(int, line.split())) for line in lines[:-1])
        assert ranges == [(0, 5), (5, 10), (10, 15), (15, 21)]
        assert lines[-1] == "0 21"  # the one-job run

    @pytest.mark.parametrize("mode", sorted(ORACLES))
    def test_share_sums_are_the_literal_sums_of_its_trials(self, monkeypatch, hashed, mode):
        # Trials 5-9 of 3 cells of 7: trials 5 and 6 of cell 0, then 0-2 of
        # cell 1.  They are hashed in passes of 3 trials (BLOCK_VALUES // 8),
        # share trials 5-7 and 8-9, so the second pass starts mid-cell, and
        # counted in blocks of at most 2 trials within each cell and pass.
        config = ExperimentConfig(
            n=12, trials=7, p_values=(0.2, 0.4, 0.6), counter_mode=mode, master_seed=3
        )
        cells = [(p, mix64(3, i)) for i, p in enumerate(config.p_values)]
        kernel = montecarlo._KERNELS[mode]
        batches = []

        def spy(batch):
            batches.append(batch.copy())
            return kernel(batch)

        monkeypatch.setitem(montecarlo._KERNELS, mode, spy)
        monkeypatch.setattr(montecarlo, "BLOCK_VALUES", 2 * 12)
        want, want_rows = [], []
        for index, trial_range in ((0, range(5, 7)), (1, range(0, 3))):
            p, cell_seed = cells[index]
            model = geometric(p)
            counts = [
                ORACLES[mode](sample_array(RandomSource(mix64(cell_seed, t)), model, 12).tolist())
                for t in trial_range
            ]
            want.append((index, sum(counts), sum(c * c for c in counts)))
            want_rows.append(per_trial_rows(p, 12, cell_seed, trial_range.start, trial_range.stop))
        assert montecarlo._run_share(config, cells, 5, 10) == want
        assert [len(batch) for batch in batches] == [2, 1, 2]
        assert hashed == [3, 2]
        assert np.array_equal(np.concatenate(batches), np.concatenate(want_rows))

    @pytest.mark.parametrize(
        "n, block_values, jobs, passes",
        [
            # The default grid: one hashing pass per share.
            (1000, None, 1, [[900]]),
            (1000, None, 2, [[450], [450]]),
            # Passes of 64 trials (512 // 8): ceil(900 / 64) = 15 for one
            # share, ceil(450 / 64) = 8 for each of two.
            (20, 512, 1, [[64] * 14 + [4]]),
            (20, 512, 2, [[64] * 7 + [2]] * 2),
        ],
    )
    def test_seed_words_are_hashed_once_per_pass_of_a_share(
        self, tmp_path, monkeypatch, n, block_values, jobs, passes
    ):
        # Each hashing call appends its process and trial count to one file,
        # in the process that makes it.
        log = tmp_path / "hashed"
        seed_sequence_words = distributions._seed_sequence_words

        def hash_spy(seeds):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {len(seeds)}\n")
            return seed_sequence_words(seeds)

        monkeypatch.setattr(distributions, "_seed_sequence_words", hash_spy)
        if block_values is not None:
            monkeypatch.setattr(montecarlo, "BLOCK_VALUES", block_values)
        p_values = tuple(round(0.1 * i, 1) for i in range(1, 10))
        config = ExperimentConfig(n=n, trials=100, p_values=p_values, master_seed=7)
        run_experiment(config, jobs=jobs)
        by_process = {}
        for line in log.read_text().splitlines():
            pid, size = map(int, line.split())
            by_process.setdefault(pid, []).append(size)
        assert sorted(by_process.values()) == passes

    @pytest.mark.parametrize(
        "jobs, want",
        [(1, "[] False"), (2, "[True] True")],
        ids=["one-job", "two-jobs"],
    )
    def test_generator_module_loads_before_the_first_fork(self, jobs, want):
        # In a fresh interpreter numpy.random is not loaded yet.  A run that
        # forks loads it before its first fork, so the child inherits it; a
        # one-job run still loads it in its first draw.  Printed: whether it
        # was loaded at each fork, and at this process's first draw.
        code = (
            "import os, sys\n"
            "from sortlab import distributions, montecarlo\n"
            "loaded = lambda: 'numpy.random' in sys.modules\n"
            "at_fork, at_draw = [], []\n"
            "fork, draw = os.fork, distributions._draw_rows\n"
            "def counting_fork():\n"
            "    at_fork.append(loaded())\n"
            "    return fork()\n"
            "def first_draw(*args):\n"
            "    at_draw.append(loaded())\n"
            "    return draw(*args)\n"
            "os.fork, distributions._draw_rows = counting_fork, first_draw\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "config = montecarlo.ExperimentConfig(n=10, trials=4, p_values=(0.5,))\n"
            f"montecarlo.run_experiment(config, jobs={jobs})\n"
            "print(at_fork, at_draw[0])\n"
        )
        path = [str(Path(montecarlo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env, timeout=60, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")
