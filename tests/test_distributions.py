"""Seeded random source, substream mixing, geometric samplers and the block sampler."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    geometric_from_uniform,
    geometric_pmf,
    per_trial_rows,
    sample_geometric_inverse,
    sample_geometric_loop,
)
from sortlab import distributions
from sortlab.distributions import (
    LOOP_BLOCK,
    LOOP_MAX_UNIFORMS,
    ContinuousUniform,
    Geometric,
    RandomSource,
    _geometric_array_loop,
    _mix64_block,
    _pcg64_states,
    _seed_sequence_words,
    geometric,
    mix64,
    sample_array,
    sample_block,
)

# Upper-tail chi-square critical values at alpha=0.001.
CHI2_CRIT_DF16 = 39.2524
CHI2_CRIT_DF19 = 43.8202


class TestMix64:
    def test_deterministic_and_frozen(self):
        # Frozen regression values: the substream derivation must never drift,
        # or every recorded experiment becomes irreproducible.
        assert mix64(42, 0) == 13679457532755275413
        assert mix64(42, 1) == 2949826092126892291
        assert mix64(42, 0) == mix64(42, 0)

    def test_distinct_across_indexes_and_seeds(self):
        outputs = {mix64(seed, index) for seed in range(50) for index in range(50)}
        assert len(outputs) == 2500

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6))
    def test_output_is_64_bit(self, seed, index):
        value = mix64(seed, index)
        assert 0 <= value < 2**64


class TestRandomSource:
    def test_rejects_bad_seeds(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)
        with pytest.raises((TypeError, ValueError)):
            RandomSource(1.5)

    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_uniforms_matches_scalar_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert a.uniforms(50).tolist() == [b.uniform() for _ in range(50)]

    def test_unit_interval(self):
        u = RandomSource(3).uniforms(10_000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    def test_substream_differs_from_parent_and_siblings(self):
        s0 = RandomSource(mix64(11, 0)).uniforms(8).tolist()
        s1 = RandomSource(mix64(11, 1)).uniforms(8).tolist()
        parent = RandomSource(11).uniforms(8).tolist()
        assert s0 != s1
        assert s0 != parent

    def test_uniform_goodness_of_fit(self):
        u = RandomSource(2024).uniforms(1_000_000)
        assert abs(float(u.mean()) - 0.5) < 0.002
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = 1_000_000 / 20
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_DF19


class TestGeometric:
    def test_validation(self):
        with pytest.raises(ValueError):
            Geometric(0.0)
        with pytest.raises(ValueError):
            Geometric(1.5)
        with pytest.raises(ValueError):
            Geometric(float("nan"))
        assert Geometric(1).p == 1.0 and isinstance(Geometric(1).p, float)
        assert geometric(0.3) == Geometric(0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            geometric(0.3).p = 0.5

    # The oracle pmf the goodness-of-fit tests below read.
    def test_pmf_matches_formula_and_sums_to_one(self):
        for r in range(20):
            assert geometric_pmf(0.25, r) == pytest.approx(0.25 * 0.75**r, rel=1e-15)
        total = sum(geometric_pmf(0.25, r) for r in range(400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_rejects_bad_support(self):
        with pytest.raises(ValueError):
            geometric_pmf(0.5, -1)


class TestInverseTransform:
    def test_boundaries(self):
        assert geometric_from_uniform(0.0, 0.5) == 0
        assert geometric_from_uniform(0.99, 1.0) == 0

    def test_known_cells(self):
        # With p=0.5 the inverse transform is floor(log(1-u)/log(0.5)):
        # u < 0.5 -> 0, u in [0.5, 0.75) -> 1, u in [0.75, 0.875) -> 2.
        assert geometric_from_uniform(0.4999, 0.5) == 0
        assert geometric_from_uniform(0.5, 0.5) == 1
        assert geometric_from_uniform(0.7499, 0.5) == 1
        assert geometric_from_uniform(0.75, 0.5) == 2

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_matches_cdf_inversion(self, u, p):
        r = geometric_from_uniform(u, p)
        assert r >= 0
        # r is the number of whole failures that fit before u: the CDF
        # through r-1 lies at or below u, the CDF through r above it.
        if p < 1.0:
            cdf_below = 1.0 - (1.0 - p) ** r
            cdf_at = 1.0 - (1.0 - p) ** (r + 1)
            assert cdf_below <= u + 1e-12
            assert u < cdf_at + 1e-12


class TestSamplerAgreement:
    @pytest.mark.parametrize("seed", [5, 99, 123456])
    def test_bulk_loop_equals_scalar_loop(self, seed):
        bulk = _geometric_array_loop(RandomSource(seed), 0.3, 50)
        src = RandomSource(seed)
        scalar = [sample_geometric_loop(src, 0.3) for _ in range(50)]
        assert bulk.tolist() == scalar

    @pytest.mark.parametrize("seed", [5, 99])
    def test_bulk_inverse_equals_scalar_inverse(self, seed):
        bulk = sample_array(RandomSource(seed), geometric(0.3), 30)
        src = RandomSource(seed)
        scalar = [sample_geometric_inverse(src, 0.3) for _ in range(30)]
        assert bulk.tolist() == scalar

    @pytest.mark.parametrize(
        "p,n,seed,want",
        [
            (0.5, 12, 1, [2, 1, 0, 1, 1, 2, 1, 0, 0, 0, 0, 0]),
            (0.01, 10, 2, [86, 10, 43, 346, 63, 276, 82, 260, 13, 18]),
            (1e-3, 8, 3, [1432, 203, 614, 1044, 256, 798, 382, 665]),
            # need/p exceeds LOOP_BLOCK here, so the draws span many capped blocks.
            (1e-5, 20, 4, [43458, 52708, 10959, 150042, 24996, 201391, 10203, 89813,
                           69868, 358, 93536, 173439, 121422, 166694, 8381, 47513,
                           11535, 3374, 37705, 18228]),
        ],
    )
    def test_bulk_loop_pinned_values(self, p, n, seed, want):
        # uniforms(a) then uniforms(b) reads the same stream as uniforms(a + b),
        # so the block size must not change any value.
        assert _geometric_array_loop(RandomSource(seed), p, n).tolist() == want

    def test_bulk_loop_memory_is_bounded(self):
        # One block of need/p * 1.1 uniforms would hold over 500 MB here.
        tracemalloc.start()
        try:
            draws = _geometric_array_loop(RandomSource(7), 1e-6, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.shape == (20,) and int(draws.min()) >= 0
        assert peak < 5 * 8 * LOOP_BLOCK

    @pytest.mark.parametrize("p,n", [(1e-9, 5), (1e-300, 1), (20 / LOOP_MAX_UNIFORMS / 1.001, 20)])
    def test_bulk_loop_refuses_work_past_limit_before_drawing(self, p, n):
        src = RandomSource(3)
        with pytest.raises(ValueError, match="too small for the loop sampler.*--sampler inverse"):
            _geometric_array_loop(src, p, n)
        assert src.uniform() == RandomSource(3).uniform()

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 3.9e-18])
    def test_bulk_inverse_rejects_p_that_overflows_int64(self, p):
        src = RandomSource(1)
        with pytest.raises(ValueError, match="too small"):
            sample_array(src, geometric(p), 5)
        assert src.uniform() == RandomSource(1).uniform()

    def test_bulk_inverse_samples_tiny_p_within_int64(self):
        draws = sample_array(RandomSource(1), geometric(1e-12), 1000)
        assert draws.dtype == np.int64
        assert int(draws.min()) >= 0
        assert 1e11 < float(draws.mean()) < 1e13

    def test_p_one_always_zero(self):
        assert _geometric_array_loop(RandomSource(1), 1.0, 5).tolist() == [0] * 5
        assert sample_array(RandomSource(1), geometric(1.0), 5).tolist() == [0] * 5
        assert sample_geometric_loop(RandomSource(1), 1.0) == 0

    @pytest.mark.parametrize("method,seed", [("inverse", 2024), ("loop", 2025)])
    def test_goodness_of_fit(self, method, seed):
        p = 0.3
        src = RandomSource(seed)
        if method == "inverse":
            draws = sample_array(src, geometric(p), 1_000_000)
        else:
            draws = _geometric_array_loop(src, p, 1_000_000)
        pmf = np.array([geometric_pmf(p, r) for r in range(16)])
        expected = np.append(pmf, 1.0 - pmf.sum()) * 1_000_000
        counts = np.bincount(np.minimum(draws, 16), minlength=17)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_DF16
        zero_frac = float(np.mean(draws == 0))
        assert abs(zero_frac - p) < 3.0 * math.sqrt(p * (1 - p) / 1_000_000)


class TestSampleArray:
    def test_geometric(self):
        arr = sample_array(RandomSource(8), geometric(0.4), 100)
        assert arr.dtype == np.int64
        assert arr.shape == (100,)
        assert int(arr.min()) >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_array(RandomSource(8), geometric(0.4), 0)
        # Continuous input is a theory tag only: no sampler draws it.
        for model in (ContinuousUniform(), object(), 0.4):
            with pytest.raises(TypeError, match="unknown input model"):
                sample_array(RandomSource(8), model, 10)

    def test_samplers_share_distribution_not_values(self):
        # Both samplers draw geometric(p) (test_goodness_of_fit), but they map
        # the uniform stream differently, so one seed gives different arrays.
        inverse = sample_array(RandomSource(5), geometric(0.3), 10)
        loop = _geometric_array_loop(RandomSource(5), 0.3, 10)
        assert inverse[:3].tolist() == [4, 4, 2]
        assert loop[:3].tolist() == [3, 0, 2]

    def test_deterministic(self):
        a = sample_array(RandomSource(8), geometric(0.4), 50)
        b = sample_array(RandomSource(8), geometric(0.4), 50)
        assert a.tolist() == b.tolist()

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50)
    def test_geometric_support_property(self, n, p):
        arr = sample_array(RandomSource(123), Geometric(p), n)
        assert arr.shape == (n,)
        assert int(arr.min()) >= 0


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestVectorisedSeeding:
    @pytest.fixture(scope="class")
    def seeds(self):
        drawn = np.random.default_rng(20261018).integers(0, 2**64, 10_000, dtype=np.uint64)
        return EDGE_SEEDS + drawn.tolist()

    def test_seed_sequence_words_match_numpy(self, seeds):
        words = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words.tolist()):
            assert row == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist(), seed

    def test_pcg64_states_match_construction(self, seeds):
        states = _pcg64_states(np.array(seeds, dtype=np.uint64))
        for seed, state in zip(seeds, states):
            assert state == np.random.PCG64(seed).state, seed

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [42, 12345])
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 300), (7, 19), (2**40, 2**40 + 5)])
    def test_mix64_block_matches_scalar(self, seed, start, stop):
        got = _mix64_block(seed, start, stop)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(seed, t) for t in range(start, stop)]


class TestSampleBlock:
    @pytest.mark.parametrize("method", ["inverse", "loop"])
    @pytest.mark.parametrize("p", [0.001, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_matches_per_trial_sampling(self, method, p, n):
        for start, stop in [(0, 4), (5, 8)]:
            got = sample_block(geometric(p), n, 987654321, start, stop, method)
            want = per_trial_rows(p, n, 987654321, start, stop, method)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (start, stop)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_block(geometric(0.5), 0, 1, 0, 3)
        for start, stop in [(3, 3), (4, 2), (-1, 2)]:
            with pytest.raises(ValueError, match="start < stop"):
                sample_block(geometric(0.5), 5, 1, start, stop)
        with pytest.raises(ValueError, match="method must be"):
            sample_block(geometric(0.5), 5, 1, 0, 3, "bogus")
        for model in (object(), ContinuousUniform()):
            with pytest.raises(TypeError, match="unknown input model"):
                sample_block(model, 5, 1, 0, 3)

    @pytest.mark.parametrize(
        "p,n,method,match",
        [
            (1e-300, 5, "inverse", "would overflow int64"),
            (3.9e-18, 5, "inverse", "would overflow int64"),
            (1e-9, 5, "loop", "too small for the loop sampler"),
            (20 / LOOP_MAX_UNIFORMS / 1.001, 20, "loop", "too small for the loop sampler"),
        ],
    )
    def test_refuses_before_any_draw(self, monkeypatch, p, n, method, match):
        draws = []

        class RecordingSource(RandomSource):
            def __init__(self, master_seed):
                super().__init__(master_seed)
                real = self._bitgen

                class Recorder:
                    state = property(lambda _: real.state, lambda _, v: setattr(real, "state", v))

                    def random_raw(self, size=None):
                        draws.append(size)
                        return real.random_raw(size)

                self._bitgen = Recorder()

        monkeypatch.setattr(distributions, "RandomSource", RecordingSource)
        with pytest.raises(ValueError, match=match):
            sample_block(geometric(p), n, 3, 0, 4, method)
        assert draws == []
        # The recorder does see the draws of an accepted call.
        sample_block(geometric(0.5), n, 3, 0, 2, method)
        assert draws

    @pytest.mark.parametrize("method", ["inverse", "loop"])
    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_peak_memory_per_value(self, method, p):
        # One block of BLOCK_VALUES at n = 1000.  Measured (output included):
        # inverse 8.5 B/value, loop 16.7 (its rows, then their stack).
        tracemalloc.start()
        try:
            block = sample_block(geometric(p), 1000, 5, 0, 262, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * block.size
