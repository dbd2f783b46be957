"""Seeded random source, substream mixing, and geometric samplers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortlab.distributions import (
    LOOP_BLOCK,
    ContinuousUniform,
    Geometric,
    GeometricParam,
    RandomSource,
    _geometric_array_inverse,
    _geometric_array_loop,
    geometric,
    geometric_from_uniform,
    geometric_pmf,
    mix64,
    sample_array,
    sample_geometric_inverse,
    sample_geometric_loop,
    sample_uniform,
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
        base = RandomSource(11)
        s0 = base.substream(0).uniforms(8).tolist()
        s1 = base.substream(1).uniforms(8).tolist()
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


class TestGeometricParam:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricParam(0.0)
        with pytest.raises(ValueError):
            GeometricParam(1.5)
        with pytest.raises(ValueError):
            GeometricParam(float("nan"))
        assert GeometricParam(1.0).p == 1.0
        assert geometric(0.3).p == 0.3

    def test_pmf_matches_formula_and_sums_to_one(self):
        param = GeometricParam(0.25)
        for r in range(20):
            assert geometric_pmf(param, r) == pytest.approx(0.25 * 0.75**r, rel=1e-15)
        total = sum(geometric_pmf(param, r) for r in range(400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_rejects_bad_support(self):
        param = GeometricParam(0.5)
        with pytest.raises(ValueError):
            geometric_pmf(param, -1)


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
        param = GeometricParam(0.3)
        bulk = _geometric_array_loop(RandomSource(seed), 0.3, 50)
        src = RandomSource(seed)
        scalar = [sample_geometric_loop(src, param) for _ in range(50)]
        assert bulk.tolist() == scalar

    @pytest.mark.parametrize("seed", [5, 99])
    def test_bulk_inverse_equals_scalar_inverse(self, seed):
        param = GeometricParam(0.3)
        bulk = _geometric_array_inverse(RandomSource(seed), 0.3, 30)
        src = RandomSource(seed)
        scalar = [sample_geometric_inverse(src, param) for _ in range(30)]
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

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 3.9e-18])
    def test_bulk_inverse_rejects_p_that_overflows_int64(self, p):
        src = RandomSource(1)
        with pytest.raises(ValueError, match="too small"):
            _geometric_array_inverse(src, p, 5)
        with pytest.raises(ValueError, match="too small"):
            sample_array(src, geometric(p), 5)

    def test_bulk_inverse_samples_tiny_p_within_int64(self):
        draws = _geometric_array_inverse(RandomSource(1), 1e-12, 1000)
        assert draws.dtype == np.int64
        assert int(draws.min()) >= 0
        assert 1e11 < float(draws.mean()) < 1e13

    def test_p_one_always_zero(self):
        assert _geometric_array_loop(RandomSource(1), 1.0, 5).tolist() == [0] * 5
        assert _geometric_array_inverse(RandomSource(1), 1.0, 5).tolist() == [0] * 5
        src = RandomSource(1)
        assert sample_geometric_loop(src, GeometricParam(1.0)) == 0

    @pytest.mark.parametrize(
        "sampler,seed",
        [(_geometric_array_inverse, 2024), (_geometric_array_loop, 2025)],
    )
    def test_goodness_of_fit(self, sampler, seed):
        p = 0.3
        param = GeometricParam(p)
        draws = sampler(RandomSource(seed), p, 1_000_000)
        pmf = np.array([geometric_pmf(param, r) for r in range(16)])
        expected = np.append(pmf, 1.0 - pmf.sum()) * 1_000_000
        counts = np.bincount(np.minimum(draws, 16), minlength=17)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_DF16
        zero_frac = float(np.mean(draws == 0))
        assert abs(zero_frac - p) < 3.0 * math.sqrt(p * (1 - p) / 1_000_000)


class TestSampleArray:
    def test_continuous(self):
        arr = sample_array(RandomSource(8), ContinuousUniform(), 100)
        assert arr.dtype == np.float64
        assert arr.shape == (100,)
        assert float(arr.min()) >= 0.0 and float(arr.max()) < 1.0

    @pytest.mark.parametrize("method", ["inverse", "loop"])
    def test_geometric(self, method):
        arr = sample_array(RandomSource(8), geometric(0.4), 100, method=method)
        assert arr.dtype == np.int64
        assert arr.shape == (100,)
        assert int(arr.min()) >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_array(RandomSource(8), geometric(0.4), 0)
        with pytest.raises(ValueError):
            sample_array(RandomSource(8), geometric(0.4), 10, method="bogus")

    def test_samplers_share_distribution_not_values(self):
        # Both samplers draw geometric(p) (test_goodness_of_fit), but they map
        # the uniform stream differently, so one seed gives different arrays.
        inverse = sample_array(RandomSource(5), geometric(0.3), 10, method="inverse")
        loop = sample_array(RandomSource(5), geometric(0.3), 10, method="loop")
        assert inverse[:3].tolist() == [4, 4, 2]
        assert loop[:3].tolist() == [3, 0, 2]

    def test_deterministic(self):
        a = sample_array(RandomSource(8), geometric(0.4), 50)
        b = sample_array(RandomSource(8), geometric(0.4), 50)
        assert a.tolist() == b.tolist()

    @given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50)
    def test_geometric_support_property(self, n, p):
        arr = sample_array(RandomSource(123), Geometric(GeometricParam(p)), n)
        assert arr.shape == (n,)
        assert int(arr.min()) >= 0

    def test_scalar_helpers(self):
        src = RandomSource(4)
        u = sample_uniform(src)
        assert 0.0 <= u < 1.0
