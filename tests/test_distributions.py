"""Seeded random source, substream mixing, the geometric sampler and the block sampler."""

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
    scalar_trial_rows,
)
from sortlab import distributions
from sortlab.distributions import (
    ContinuousUniform,
    Geometric,
    RandomSource,
    _check_inverse_p,
    _geometric_in_place,
    _mix64_block,
    _seed_sequence_words,
    _TrialSeed,
    geometric,
    mix64,
    sample_array,
    sample_block,
)

# Upper-tail chi-square critical values at alpha=0.001.
CHI2_CRIT_DF3 = 16.2662
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

    def test_uniforms_of_zero_draws_nothing_and_negative_is_refused(self):
        src = RandomSource(7)
        empty = src.uniforms(0)
        assert empty.dtype == np.float64 and empty.shape == (0,)
        with pytest.raises(ValueError, match="nonnegative"):
            src.uniforms(-1)
        assert src.uniform() == RandomSource(7).uniform()

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
    @pytest.mark.parametrize("seed", [5, 99])
    def test_bulk_inverse_equals_scalar_inverse(self, seed):
        bulk = sample_array(RandomSource(seed), geometric(0.3), 30)
        src = RandomSource(seed)
        scalar = [sample_geometric_inverse(src, 0.3) for _ in range(30)]
        assert bulk.tolist() == scalar

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
        assert sample_array(RandomSource(1), geometric(1.0), 5).tolist() == [0] * 5

    def test_p_one_consumes_the_stream_like_p_below_one(self):
        # A p = 1 cell leaves the source where any other p would.
        src = RandomSource(1)
        sample_array(src, geometric(1.0), 5)
        ahead = RandomSource(1)
        ahead.uniforms(5)
        assert src.uniform() == ahead.uniform()

    @pytest.mark.parametrize("p", [4e-18, 1e-17, 1e-12, 1e-3])
    def test_accepted_p_maps_the_largest_uniform_within_int64(self, p):
        # The overflow check admits p exactly when the largest deviate,
        # 1 - 2**-53, still lands in int64 instead of wrapping negative.
        _check_inverse_p(p)
        u = np.array([1.0 - 2.0**-53, 0.0])
        top, bottom = _geometric_in_place(u, p).tolist()
        assert bottom == 0
        assert 0 <= top < 2**63
        assert top == geometric_from_uniform(1.0 - 2.0**-53, p)

    def test_goodness_of_fit(self):
        p = 0.3
        draws = sample_array(RandomSource(2024), geometric(p), 1_000_000)
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

    def test_pinned_values(self):
        assert sample_array(RandomSource(5), geometric(0.3), 10)[:3].tolist() == [4, 4, 2]

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

    def test_trial_seed_seeds_like_construction(self, seeds):
        np.random.bit_generator.ISeedSequence.register(_TrialSeed)
        words = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
        for seed, row in zip(seeds, words):
            assert np.random.PCG64(_TrialSeed(row)).state == np.random.PCG64(seed).state, seed

    @pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
    def test_trial_seed_refuses_other_word_requests(self, n_words, dtype):
        with pytest.raises(ValueError, match="holds 4 uint64 seed words"):
            _TrialSeed(np.zeros(4, dtype=np.uint64)).generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [42, 12345])
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 300), (7, 19), (2**40, 2**40 + 5)])
    def test_mix64_block_matches_scalar(self, seed, start, stop):
        got = _mix64_block(seed, start, stop)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(seed, t) for t in range(start, stop)]


class TestSampleBlock:
    @pytest.mark.parametrize("p", [0.001, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_matches_per_trial_sampling(self, p, n):
        for start, stop in [(0, 4), (5, 8)]:
            got = sample_block(geometric(p), n, 987654321, start, stop)
            want = per_trial_rows(p, n, 987654321, start, stop)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (start, stop)

    @pytest.mark.parametrize("p", [0.001, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_matches_scalar_inverse_cdf(self, p, n):
        # Against numpy's PCG64 and a scalar map, from the first trials and
        # from trial indices past 2**40.
        for start, stop in [(0, 3), (2**40, 2**40 + 3)]:
            got = sample_block(geometric(p), n, 2**64 - 5, start, stop)
            assert np.array_equal(got, scalar_trial_rows(p, n, 2**64 - 5, start, stop)), start

    @pytest.mark.parametrize(
        "p,cells,crit", [(0.02, 16, CHI2_CRIT_DF16), (0.3, 16, CHI2_CRIT_DF16), (0.9, 3, CHI2_CRIT_DF3)]
    )
    def test_goodness_of_fit(self, p, cells, crit):
        # 1000 trials of n = 1000: r = 0..cells-1 and one tail cell, each
        # expecting at least 1000 draws.
        draws = sample_block(geometric(p), 1000, 31337, 0, 1000)
        pmf = np.array([geometric_pmf(p, r) for r in range(cells)])
        expected = np.append(pmf, 1.0 - pmf.sum()) * draws.size
        assert expected.min() >= 1000
        counts = np.bincount(np.minimum(draws, cells).reshape(-1), minlength=cells + 1)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < crit

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_block(geometric(0.5), 0, 1, 0, 3)
        for start, stop in [(3, 3), (4, 2), (-1, 2)]:
            with pytest.raises(ValueError, match="start < stop"):
                sample_block(geometric(0.5), 5, 1, start, stop)
        for model in (object(), ContinuousUniform()):
            with pytest.raises(TypeError, match="unknown input model"):
                sample_block(model, 5, 1, 0, 3)

    @pytest.mark.parametrize("p", [1e-300, 3.9e-18])
    def test_refuses_before_any_draw(self, monkeypatch, p):
        draws = []
        pcg64 = np.random.PCG64

        class RecordingPCG64:
            def __init__(self, seed):
                self.real = pcg64(seed)

            def random_raw(self, size=None):
                draws.append(size)
                return self.real.random_raw(size)

        monkeypatch.setattr(distributions.np.random, "PCG64", RecordingPCG64)
        with pytest.raises(ValueError, match="would overflow int64"):
            sample_block(geometric(p), 5, 3, 0, 4)
        assert draws == []
        # The recorder does see the draws of an accepted call.
        sample_block(geometric(0.5), 5, 3, 0, 2)
        assert draws

    @pytest.mark.parametrize(
        "model,n,start,stop,error",
        [
            (geometric(0.5), 0, 0, 3, ValueError),
            (geometric(0.5), 5, 3, 3, ValueError),
            (geometric(0.5), 5, -1, 2, ValueError),
            (ContinuousUniform(), 5, 0, 3, TypeError),
        ],
        ids=["n=0", "empty-range", "negative-start", "continuous"],
    )
    def test_other_refusals_build_no_generator(self, monkeypatch, model, n, start, stop, error):
        def no_generator(seed):
            raise AssertionError("built a generator before refusing")

        monkeypatch.setattr(distributions.np.random, "PCG64", no_generator)
        with pytest.raises(error):
            sample_block(model, n, 3, start, stop)

    @pytest.mark.parametrize("p", [0.1, 0.9])
    def test_peak_memory_per_value(self, p):
        # One block of BLOCK_VALUES at n = 1000.  Measured: 8.5 B/value,
        # output included.
        tracemalloc.start()
        try:
            block = sample_block(geometric(p), 1000, 5, 0, 262)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * block.size
