"""Trial harness: streaming moments, cell seeding, determinism, parallel parity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortlab import montecarlo
from sortlab.distributions import mix64
from sortlab.montecarlo import (
    ExperimentConfig,
    RunningMoments,
    TrialSummary,
    run_cell,
    run_experiment,
)


class TestExperimentConfig:
    def test_accepts_reference_shape(self):
        config = ExperimentConfig(
            n=1000,
            trials=100,
            p_values=tuple(round(0.1 * i, 1) for i in range(1, 10)),
            master_seed=42,
        )
        assert config.counter_mode == "exchange_interchanges"
        assert config.sampler_method == "inverse"

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
            {"sampler_method": "bogus"},
            {"master_seed": -1},
            {"master_seed": 2**64},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(n=10, trials=5, p_values=(0.2, 0.5), master_seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**base)


class TestTrialSummary:
    def test_rejects_negative_sd(self):
        with pytest.raises(ValueError):
            TrialSummary(p=0.5, n=10, trials=5, mean_c=1.0, sd_c=-0.1, cv_c=None)


class TestRunningMoments:
    def test_empty_rejected(self):
        moments = RunningMoments()
        with pytest.raises(ValueError):
            moments.mean
        with pytest.raises(ValueError):
            moments.population_sd

    def test_single_value(self):
        moments = RunningMoments()
        moments.add(4.5)
        assert moments.mean == 4.5
        assert moments.population_sd == 0.0

    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100)
    def test_matches_two_pass(self, values):
        moments = RunningMoments()
        for v in values:
            moments.add(v)
        arr = np.array(values)
        direct_mean = float(arr.mean())
        direct_sd = float(arr.std())
        scale = max(abs(direct_mean), 1.0)
        assert abs(moments.mean - direct_mean) <= 1e-9 * scale
        assert abs(moments.population_sd - direct_sd) <= 1e-9 * max(direct_sd, 1.0)

    def test_cancellation_regime(self):
        # Large offset, small spread: the naive ss/T - mean^2 form loses
        # half the digits here; the streaming form must not.
        rng = np.random.default_rng(5)
        values = 30590.0 + rng.uniform(0.0, 1.0, size=100)
        moments = RunningMoments()
        for v in values:
            moments.add(float(v))
        assert moments.mean == pytest.approx(float(values.mean()), rel=1e-12)
        assert moments.population_sd == pytest.approx(float(values.std()), rel=1e-9)


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

    def test_sampler_methods_agree_statistically(self):
        cells = {}
        for method in ("inverse", "loop"):
            config = ExperimentConfig(
                n=80, trials=40, p_values=(0.4,), master_seed=11, sampler_method=method
            )
            cells[method] = run_experiment(config)[0]
        a, b = cells["inverse"], cells["loop"]
        band = 5.0 * (a.sd_c + b.sd_c) / math.sqrt(40)
        assert abs(a.mean_c - b.mean_c) < band


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

    def test_parallel_matches_serial(self):
        config = ExperimentConfig(n=60, trials=10, p_values=(0.2, 0.5, 0.8), master_seed=7)
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=3)
        assert serial == parallel

    def test_cell_seeding_is_grid_position_based(self):
        config = ExperimentConfig(n=40, trials=6, p_values=(0.3, 0.7), master_seed=13)
        full = run_experiment(config)
        solo = ExperimentConfig(n=40, trials=6, p_values=(0.3,), master_seed=13)
        assert run_experiment(solo)[0] == full[0]

    def test_rejects_bad_jobs(self):
        config = ExperimentConfig(n=10, trials=2, p_values=(0.5,), master_seed=1)
        with pytest.raises(ValueError):
            run_experiment(config, jobs=0)
