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
    splitmix64,
    uniform_from_raw,
)
from sortlab import distributions
from sortlab.distributions import (
    ContinuousUniform,
    Geometric,
    RandomSource,
    _geometric_in_place,
    _inverse_p,
    _mix64_block,
    _seed_sequence_words,
    _TrialSeed,
    geometric,
    mix64,
    sample_array,
    sample_block,
)
from sortlab.model_select import SelectionPolicy
from sortlab.montecarlo import ExperimentConfig, TrialSummary, run_experiment
from sortlab.polyfit import DataPoint, fit
from sortlab.theory import expected_interchanges, predict

# Upper-tail chi-square critical values at alpha=0.001.
CHI2_CRIT_DF3 = 16.2662
CHI2_CRIT_DF16 = 39.2524


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

    @pytest.mark.parametrize(
        "seed, error, message",
        [
            (-1, ValueError, "seed must be a 64-bit unsigned integer, got -1"),
            (2**64, ValueError, f"seed must be a 64-bit unsigned integer, got {2**64}"),
            (True, TypeError, "seed must be an int, got bool"),
        ],
    )
    def test_refuses_a_seed_outside_64_bits(self, seed, error, message):
        # Not wrapped mod 2**64: mix64(-1, t) would be mix64(2**64 - 1, t).
        with pytest.raises(error) as caught:
            mix64(seed, 0)
        assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5), np.uint8(5)])
    def test_numpy_seed_is_the_int(self, seed):
        assert mix64(seed, 3) == mix64(int(seed), 3)

    @pytest.mark.parametrize("index", [2**64 - 1, 2**64, 2**64 + 5, 2**70])
    def test_refuses_an_index_whose_multiplier_would_wrap(self, index):
        # Not wrapped mod 2**64: index 2**64 - 1 would be index -1, and
        # 2**64 + k would repeat index k.
        with pytest.raises(ValueError) as caught:
            mix64(5, index)
        assert str(caught.value) == f"index must be <= {2**64 - 2}, got {index}"

    def test_refuses_the_index_that_would_alias_index_0(self):
        assert splitmix64(5, 2**64) == splitmix64(5, 0)  # the aliasing pair, wrapped
        with pytest.raises(ValueError, match="^index must be <="):
            mix64(5, 2**64)

    def test_largest_index_is_unchanged(self):
        assert mix64(5, 2**64 - 2) == 16861065833068299987 == splitmix64(5, 2**64 - 2)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**64 - 2))
    def test_matches_the_python_oracle(self, seed, index):
        assert mix64(seed, index) == splitmix64(seed, index)


class TestRandomSource:
    def test_rejects_bad_seeds(self):
        for seed, error, message in [
            (True, TypeError, "master_seed must be an int, got bool"),
            (1.5, TypeError, "master_seed must be an int, got float"),
            (-1, ValueError, "master_seed must be a 64-bit unsigned integer, got -1"),
            (2**64, ValueError, f"master_seed must be a 64-bit unsigned integer, got {2**64}"),
        ]:
            with pytest.raises(error) as caught:
                RandomSource(seed)
            assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.uint8(5)])
    def test_numpy_integer_seed_draws_as_the_int(self, seed):
        model = geometric(0.3)
        given_draws = sample_array(RandomSource(seed), model, 100)
        assert given_draws.tolist() == sample_array(RandomSource(5), model, 100).tolist()

    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        model = geometric(0.3)
        whole = sample_array(a, model, 100)
        assert whole.tolist() == sample_array(b, model, 100).tolist()
        # Successive calls continue one stream.
        c = RandomSource(7)
        parts = np.concatenate([sample_array(c, model, 60), sample_array(c, model, 40)])
        assert parts.tolist() == whole.tolist()

    def test_bulk_uniforms_match_scalar_stream(self):
        # The in-place map sample_array applies to the source's raw outputs.
        raw = np.random.PCG64(7).random_raw(50)
        for p in (1e-12, 1e-3, 0.3, 0.9):
            scalar = [geometric_from_uniform(uniform_from_raw(r), p) for r in raw.tolist()]
            assert _geometric_in_place(raw.copy(), p).tolist() == scalar

    def test_unit_interval(self):
        # Raw 0 and 2**64 - 1 make the deviates 0 and 1 - 2**-53, the ends of
        # [0, 1), so their draws are 0 and the largest any raw word gives.
        raw = np.append(np.random.PCG64(3).random_raw(10_000), np.array([0, 2**64 - 1], dtype=np.uint64))
        p = 1e-3
        draws = _geometric_in_place(raw, p)
        assert int(draws.min()) == int(draws[-2]) == 0
        assert int(draws.max()) == int(draws[-1]) == geometric_from_uniform(1.0 - 2.0**-53, p)

    def test_substream_differs_from_parent_and_siblings(self):
        model = geometric(1e-3)
        s0 = sample_array(RandomSource(mix64(11, 0)), model, 8).tolist()
        s1 = sample_array(RandomSource(mix64(11, 1)), model, 8).tolist()
        parent = sample_array(RandomSource(11), model, 8).tolist()
        assert s0 != s1
        assert s0 != parent


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

    @pytest.mark.parametrize("p", [np.float32(0.5), np.float64(0.25), np.int64(1), np.uint8(1)])
    def test_numpy_reals_are_accepted_as_floats(self, p):
        model = geometric(p)
        assert type(model.p) is float and model.p == float(p)
        assert model == Geometric(float(p))

    @pytest.mark.parametrize("p", [True, np.True_, "0.5", None, 0.5j, np.float64("inf"), np.float32(2.0)])
    def test_bools_and_non_reals_are_refused(self, p):
        with pytest.raises(ValueError, match="p must be"):
            geometric(p)

    @pytest.mark.parametrize("p", [10**400, -(10**400)])
    def test_ints_past_the_float_range_are_out_of_range(self, p):
        with pytest.raises(ValueError, match=r"^p must be in \(0,1\]"):
            geometric(p)

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
        bitgen = np.random.PCG64(seed)
        scalar = [sample_geometric_inverse(bitgen, 0.3) for _ in range(30)]
        assert bulk.tolist() == scalar

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 3.9e-18])
    def test_bulk_inverse_rejects_p_that_overflows_int64(self, p):
        src = RandomSource(1)
        with pytest.raises(ValueError, match="too small"):
            sample_array(src, geometric(p), 5)
        # The refusal drew nothing: the source still starts at its first output.
        after = sample_array(src, geometric(0.5), 5)
        assert after.tolist() == sample_array(RandomSource(1), geometric(0.5), 5).tolist()

    def test_bulk_inverse_samples_tiny_p_within_int64(self):
        draws = sample_array(RandomSource(1), geometric(1e-12), 1000)
        assert draws.dtype == np.int64
        assert int(draws.min()) >= 0
        assert 1e11 < float(draws.mean()) < 1e13

    def test_p_one_always_zero(self):
        assert sample_array(RandomSource(1), geometric(1.0), 5).tolist() == [0] * 5

    def test_p_one_takes_the_inverse_cdf(self, monkeypatch):
        # p = 1 is no second path: its raw words are mapped like any p's, the
        # divisor log1p(-1) being -inf, so every draw is 0 (and no
        # RuntimeWarning, which fails the test, is raised).
        mapped = []
        geometric_in_place = distributions._geometric_in_place

        def spy(raw, p):
            draws = geometric_in_place(raw, p)
            mapped.append((p, draws))
            return draws

        monkeypatch.setattr(distributions, "_geometric_in_place", spy)
        block = sample_block(geometric(1.0), 6, 3, 0, 4)
        row = sample_array(RandomSource(1), geometric(1.0), 6)
        assert [(p, draws.shape) for p, draws in mapped] == [(1.0, (4, 6)), (1.0, (6,))]
        assert not any(draws.any() for _, draws in mapped)
        assert not block.any() and not row.any()

    def test_p_one_consumes_the_stream_like_p_below_one(self):
        # A p = 1 cell leaves the source where any other p would.
        src = RandomSource(1)
        sample_array(src, geometric(1.0), 5)
        ahead = np.random.PCG64(1)
        ahead.random_raw(5)
        after = sample_array(src, geometric(0.5), 3).tolist()
        assert after == [sample_geometric_inverse(ahead, 0.5) for _ in range(3)]

    @pytest.mark.parametrize("p", [4e-18, 1e-17, 1e-12, 1e-3])
    def test_accepted_p_maps_the_largest_uniform_within_int64(self, p):
        # The overflow check admits p exactly when the largest deviate,
        # 1 - 2**-53, still lands in int64 instead of wrapping negative.
        assert _inverse_p(geometric(p), 1) == p
        raw = np.array([(2**53 - 1) << 11, 0], dtype=np.uint64)  # u = 1 - 2**-53 and 0
        top, bottom = _geometric_in_place(raw, p).tolist()
        assert bottom == 0
        assert 0 <= top < 2**63
        assert top == geometric_from_uniform(1.0 - 2.0**-53, p)

    @pytest.mark.parametrize(
        "p", [1e-17, 1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999999]
    )
    def test_truncating_cast_is_the_floor(self, p):
        # The quotient is never negative, so the cast truncates as floor does;
        # the edge uniforms give -0.0 / log1p(-p) = +0.0 and the largest draw.
        # Each u is a multiple m * 2**-53 (numpy's random() deviates are too),
        # so it is the deviate the raw word m << 11 makes.
        edges = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
        u = np.concatenate([edges, np.random.default_rng(17).random(20_000)])
        raw = (u * 2.0**53).astype(np.uint64) << np.uint64(11)
        want = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        assert np.array_equal(_geometric_in_place(raw, p), want)

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
        src = RandomSource(8)
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_array(src, geometric(0.4), 0)
        with pytest.raises(ValueError, match="would overflow int64"):
            sample_array(src, geometric(5e-324), 10)
        # Continuous input is a theory tag only: no sampler draws it.
        for model in (ContinuousUniform(), object(), 0.4):
            with pytest.raises(TypeError, match="unknown input model"):
                sample_array(src, model, 10)
        # Each refusal came before any draw: the source still starts at its first output.
        first = sample_array(RandomSource(8), geometric(0.4), 5)
        assert np.array_equal(sample_array(src, geometric(0.4), 5), first)

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

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_sample_array_leaves_seeding_to_numpy(self, monkeypatch, seed):
        # sample_array is the definition the benchmark's output check draws
        # its inputs by, so it must not share sample_block's seed hashing:
        # otherwise that check would test the hashing against itself.
        def refuse(*args, **kwargs):
            raise AssertionError("sample_array went through sample_block's seeding")

        # A class, so that registering it as an ISeedSequence still works.
        refused_trial_seed = type("RefusedTrialSeed", (), {"__init__": refuse})
        monkeypatch.setattr(distributions, "_seed_sequence_words", refuse)
        monkeypatch.setattr(distributions, "_TrialSeed", refused_trial_seed)
        p, n = 0.3, 200
        got = sample_array(RandomSource(seed), geometric(p), n)
        raw = np.random.PCG64(seed).random_raw(n).tolist()
        assert got.tolist() == [geometric_from_uniform(uniform_from_raw(r), p) for r in raw]

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [42, 12345])
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 300), (7, 19), (2**40, 2**40 + 5)])
    def test_mix64_block_matches_scalar(self, seed, start, stop):
        got = _mix64_block(seed, start, stop)
        assert got.dtype == np.uint64
        assert got.tolist() == [splitmix64(seed, t) for t in range(start, stop)]


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

    def test_model_is_refused_before_cell_seed(self):
        with pytest.raises(TypeError, match="unknown input model"):
            sample_block(ContinuousUniform(), 5, -1, 0, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_block(geometric(0.5), 0, 1, 0, 3)
        for start, stop in [(3, 3), (4, 2), (-1, 2)]:
            with pytest.raises(ValueError, match="start < stop"):
                sample_block(geometric(0.5), 5, 1, start, stop)
        for model in (object(), ContinuousUniform()):
            with pytest.raises(TypeError, match="unknown input model"):
                sample_block(model, 5, 1, 0, 3)

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 3.9e-18])
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
            (geometric(0.5), 5, True, 3, TypeError),
            (geometric(0.5), 3, 2**64 - 1, 2**64, ValueError),
            (geometric(0.5), 3, 2**64, 2**64 + 1, ValueError),
            (geometric(1.0), 3, 2**64 - 1, 2**64, ValueError),
        ],
        ids=[
            "n=0",
            "empty-range",
            "negative-start",
            "continuous",
            "bool-start",
            "index-2**64-1",
            "index-2**64",
            "index-2**64-1-at-p=1",
        ],
    )
    def test_other_refusals_build_no_generator(self, monkeypatch, model, n, start, stop, error):
        def no_generator(seed):
            raise AssertionError("built a generator before refusing")

        monkeypatch.setattr(distributions.np.random, "PCG64", no_generator)
        with pytest.raises(error):
            sample_block(model, n, 3, start, stop)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("start", True),
            ("start", False),
            ("start", 1.5),
            ("stop", True),
            ("stop", False),
            ("stop", 1.5),
            ("n", 3.0),
        ],
    )
    def test_n_start_and_stop_must_be_ints(self, name, value):
        # A bool is refused, not taken as 1 or 0.  A bool n is in TestCountCheck.
        args = {"n": 3, "start": 0, "stop": 3, name: value}
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(value).__name__}$"):
            sample_block(geometric(0.5), args["n"], 1, args["start"], args["stop"])

    def test_largest_trial_index_still_samples(self):
        got = sample_block(geometric(0.5), 3, 1, 2**64 - 2, 2**64 - 1)
        assert got.tolist() == [[0, 2, 0]]
        assert np.array_equal(got, scalar_trial_rows(0.5, 3, 1, 2**64 - 2, 2**64 - 1))

    def test_numpy_ints_are_accepted(self):
        got = sample_block(geometric(0.5), np.int64(3), 1, np.uint8(1), np.int64(4))
        assert np.array_equal(got, sample_block(geometric(0.5), 3, 1, 1, 4))

    @pytest.mark.parametrize("cell_seed", [-1, 2**64])
    def test_refuses_cell_seed_outside_64_bits(self, monkeypatch, cell_seed):
        def no_generator(seed):
            raise AssertionError("built a generator before refusing")

        monkeypatch.setattr(distributions.np.random, "PCG64", no_generator)
        for p in (0.5, 1.0):
            with pytest.raises(ValueError, match="^cell_seed must be a 64-bit unsigned integer"):
                sample_block(geometric(p), 5, cell_seed, 0, 3)

    @pytest.mark.parametrize("cell_seed", [1.5, True, "1"])
    def test_refuses_a_cell_seed_that_is_not_an_int(self, cell_seed):
        with pytest.raises(TypeError, match="^cell_seed must be an int"):
            sample_block(geometric(0.5), 5, cell_seed, 0, 3)

    def test_accepts_the_largest_cell_seed(self):
        got = sample_block(geometric(0.5), 5, 2**64 - 1, 0, 3)
        assert np.array_equal(got, per_trial_rows(0.5, 5, 2**64 - 1, 0, 3))

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


FIT_POINTS = [DataPoint(x, x * x) for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]

# Every entry point that takes an integer through _as_int: (argument name,
# minimum or None, call).
INT_ENTRY_POINTS = {
    "ExperimentConfig-n": ("n", 1, lambda v: ExperimentConfig(n=v, trials=2, p_values=(0.5,))),
    "ExperimentConfig-trials": (
        "trials",
        1,
        lambda v: ExperimentConfig(n=5, trials=v, p_values=(0.5,)),
    ),
    "TrialSummary-n": (
        "n",
        1,
        lambda v: TrialSummary(p=0.5, n=v, trials=2, mean_c=1.0, sd_c=0.5, cv_c=0.5),
    ),
    "TrialSummary-trials": (
        "trials",
        1,
        lambda v: TrialSummary(p=0.5, n=5, trials=v, mean_c=1.0, sd_c=0.5, cv_c=0.5),
    ),
    "run_experiment-jobs": (
        "jobs",
        1,
        lambda v: run_experiment(ExperimentConfig(n=5, trials=2, p_values=(0.5,)), jobs=v),
    ),
    "expected_interchanges-n": ("n", 1, lambda v: expected_interchanges(geometric(0.5), v)),
    "predict-n": ("n", 1, lambda v: predict(geometric(0.5), v)),
    "sample_block-n": ("n", 1, lambda v: sample_block(geometric(0.5), v, 1, 0, 2)),
    "SelectionPolicy-d_min": ("d_min", 1, lambda v: SelectionPolicy(d_min=v)),
    "SelectionPolicy-d_max": ("d_max", None, lambda v: SelectionPolicy(d_max=v)),
    "fit-degree": ("degree", 0, lambda v: fit(FIT_POINTS, v)),
    "fit-min_residual_df": ("min_residual_df", 0, lambda v: fit(FIT_POINTS, 1, min_residual_df=v)),
    "mix64-index": ("index", 0, lambda v: mix64(1, v)),
}


class TestIntCheck:
    @pytest.mark.parametrize("entry", INT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [True, 1.5])
    def test_bool_or_float_is_a_type_error(self, entry, value):
        name, _, call = INT_ENTRY_POINTS[entry]
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(value).__name__}$"):
            call(value)

    @pytest.mark.parametrize(
        "entry", [name for name, entry in INT_ENTRY_POINTS.items() if entry[1] is not None]
    )
    @pytest.mark.parametrize("below", [1, 2])
    def test_below_the_minimum_is_a_value_error(self, entry, below):
        name, minimum, call = INT_ENTRY_POINTS[entry]
        value = minimum - below
        with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {value}$"):
            call(value)

    @pytest.mark.parametrize("entry", INT_ENTRY_POINTS)
    def test_numpy_int_is_accepted(self, entry):
        _, _, call = INT_ENTRY_POINTS[entry]
        np.testing.assert_equal(call(np.int64(3)), call(3))
