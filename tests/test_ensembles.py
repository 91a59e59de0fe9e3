"""Tests for seeded ensemble sampling and Monte Carlo estimates."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_row_markov
from ginisafe import (
    CorrelatedSpecRejectedError,
    DimensionMismatchError,
    EnsembleSpec,
    FunctionMap,
    collision_probability_mc,
    empirical_tensor,
    ensembles,
    function_to_matrix,
    make_rng,
    merge,
    product_probabilities,
    sample_codes,
    sample_sequence,
    scalar_product,
    shard_rng,
    tensor_to_matrix,
    uniform_matrix,
)
from ginisafe.markov import encode
from ginisafe.reference import demo_correlated_tensor, demo_matrix


class TestSpecs:
    def test_independent_requires_matrix(self):
        with pytest.raises(Exception):
            EnsembleSpec(kind="independent")

    def test_exact_tensor_independent(self):
        q = demo_matrix(0.3, 0.6)
        spec = EnsembleSpec.independent(q)
        np.testing.assert_allclose(spec.exact_tensor(), product_probabilities(q), atol=1e-15)

    def test_d_property(self):
        assert EnsembleSpec.independent(uniform_matrix(3)).d == 3
        assert EnsembleSpec.correlated(np.full(27, 1 / 27)).d == 3


class TestSampling:
    def test_degenerate_independent(self):
        f = FunctionMap((1, 2, 1))
        spec = EnsembleSpec.independent(function_to_matrix(f))
        rng = make_rng(0)
        for _ in range(10):
            assert sample_sequence(spec, rng) == f

    def test_degenerate_correlated(self):
        g = FunctionMap((2, 0, 2))
        t = np.zeros(27)
        t[g.code] = 1.0
        spec = EnsembleSpec.correlated(t)
        rng = make_rng(1)
        for _ in range(10):
            assert sample_sequence(spec, rng) == g

    def test_single_draw_point_mass(self):
        spec = EnsembleSpec.independent(uniform_matrix(2))
        t = empirical_tensor(spec, 1, make_rng(3))
        assert t.sum() == 1.0
        assert (t > 0).sum() == 1

    def test_uniform_frequencies(self):
        spec = EnsembleSpec.independent(uniform_matrix(2))
        n = 100_000
        t = empirical_tensor(spec, n, make_rng(0))
        stderr = np.sqrt(0.25 * 0.75 / n)
        np.testing.assert_allclose(t, 0.25, atol=4 * stderr)

    def test_determinism(self):
        spec = EnsembleSpec.independent(demo_matrix(0.3, 0.6))
        t1 = empirical_tensor(spec, 5000, make_rng(42))
        t2 = empirical_tensor(spec, 5000, make_rng(42))
        np.testing.assert_array_equal(t1, t2)

    def test_shard_streams_differ(self):
        spec = EnsembleSpec.independent(demo_matrix(0.3, 0.6))
        t1 = empirical_tensor(spec, 1000, shard_rng(0, 0))
        t2 = empirical_tensor(spec, 1000, shard_rng(0, 1))
        assert np.any(t1 != t2)

    def test_total_variation_convergence(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            q = random_row_markov(rng, d)
            spec = EnsembleSpec.independent(q)
            n = 1_000_000
            emp = empirical_tensor(spec, n, make_rng(7))
            tv = 0.5 * np.abs(emp - spec.exact_tensor()).sum()
            assert tv <= 5.0 * np.sqrt(d**d / n)

    def test_correlated_sampling_matches_tensor(self):
        t = demo_correlated_tensor(0.1, 0.4)
        spec = EnsembleSpec.correlated(t)
        emp = empirical_tensor(spec, 200_000, make_rng(11))
        assert 0.5 * np.abs(emp - t).sum() < 0.01


def searchsorted_codes(spec, n, rng):
    """Oracle: the unchunked sampler, one ``rng.random`` block and a search per position.

    A uniform at or above a CDF that rounds to below 1 is clipped to the last
    category of positive probability.
    """
    if spec.kind == "independent":
        q = spec.matrix
        u = rng.random((n, q.shape[0]))
        digits = (
            np.minimum(np.searchsorted(np.cumsum(row), u[:, i], side="right"), np.flatnonzero(row)[-1])
            for i, row in enumerate(q)
        )
        return encode(digits, q.shape[0])
    t = spec.tensor
    return np.minimum(np.searchsorted(np.cumsum(t), rng.random(n), side="right"), np.flatnonzero(t)[-1])


@st.composite
def distributions(draw, size):
    """A probability vector of `size` entries: a point mass, or weights with zeros."""
    if draw(st.booleans()):
        p = np.zeros(size)
        p[draw(st.integers(0, size - 1))] = 1.0
        return p
    p = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.3, 0.5, 1.0, 7.0]),
                               min_size=size, max_size=size)))
    if p.sum() == 0:
        p[draw(st.integers(0, size - 1))] = 1.0
    return p / p.sum()


@st.composite
def specs(draw):
    d = draw(st.integers(1, 6))
    if d <= 4 and draw(st.booleans()):
        return EnsembleSpec.correlated(draw(distributions(d**d)))
    return EnsembleSpec.independent(np.array([draw(distributions(d)) for _ in range(d)]))


class TestChunkedSampler:
    """The chunked sampler against the unchunked searchsorted oracle."""

    @settings(max_examples=150, deadline=None)
    @given(spec=specs(), chunk=st.sampled_from([1, 2, 3, ensembles._CHUNK]),
           multiple=st.integers(1, 3), offset=st.integers(-1, 1), seed=st.integers(0, 2**32))
    def test_matches_oracle_across_chunk_boundaries(self, spec, chunk, multiple, offset, seed):
        n = max(1, multiple * chunk + offset)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        with mock.patch.object(ensembles, "_CHUNK", chunk):
            codes = sample_codes(spec, n, rng)
        want = searchsorted_codes(spec, n, oracle_rng)
        assert codes.dtype == np.intp
        np.testing.assert_array_equal(codes, want)
        # collision draws b right after a: the generator must end where the oracle's does
        assert rng.random() == oracle_rng.random()

    def test_memory_holds_codes_and_a_few_chunks(self):
        d, n = 6, 10**6
        spec = EnsembleSpec.independent(random_row_markov(np.random.default_rng(2), d))
        bound = n * np.dtype(np.intp).itemsize + 5 * ensembles._CHUNK * d * 8
        for draw in (sample_codes, empirical_tensor):
            draw(spec, 10, make_rng(0))
            tracemalloc.start()
            try:
                draw(spec, n, make_rng(0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (draw.__name__, peak)  # n * d uniforms alone are 48 MB


class ConstantUniforms:
    """A generator stub whose every uniform is `u`."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return np.full(size, self.u)


TOP = 1.0 - 2.0**-53  # the largest uniform PCG64 draws


class TestExactUniforms:
    """Uniforms on a CDF value: the extremes that decide which side a threshold counts on."""

    ROW = [0.277, 0.17, 0.457, 0.096, 0.0]
    TENSOR = [0.33, 0.56, 0.11, 0.0]

    def test_top_uniform_overflows_to_last_positive_category(self):
        spec = EnsembleSpec.independent([self.ROW] * 5)
        assert np.cumsum(spec.matrix[0])[-1] < 1.0  # so TOP is at or above every cumulative sum
        codes = sample_codes(spec, 3, ConstantUniforms(TOP))
        np.testing.assert_array_equal(codes, [encode([3] * 5, 5)] * 3)

    def test_top_uniform_overflows_to_last_positive_code(self):
        spec = EnsembleSpec.correlated(self.TENSOR)
        assert np.cumsum(spec.tensor)[-1] < 1.0
        np.testing.assert_array_equal(sample_codes(spec, 3, ConstantUniforms(TOP)), [2, 2, 2])

    @pytest.mark.parametrize("u, digit", [(0.0, 1), (0.5, 2)])
    def test_a_uniform_on_a_threshold_takes_the_next_category(self, u, digit):
        # searchsorted(side="right"): a leading zero-probability category is never drawn
        q = [[0.0, 0.5, 0.5]] * 3
        codes = sample_codes(EnsembleSpec.independent(q), 2, ConstantUniforms(u))
        np.testing.assert_array_equal(codes, [encode([digit] * 3, 3)] * 2)

    def test_a_zero_uniform_skips_a_leading_zero_probability_code(self):
        tensor = np.zeros(27)
        tensor[1:] = 1 / 26
        assert sample_codes(EnsembleSpec.correlated(tensor), 1, ConstantUniforms(0.0))[0] == 1


class TestCollision:
    def test_degenerate(self):
        spec = EnsembleSpec.independent(function_to_matrix(FunctionMap((0, 1))))
        est = collision_probability_mc(spec, spec, 1000, make_rng(0))
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert est.n == 1000

    def test_rejects_correlated(self):
        ind = EnsembleSpec.independent(uniform_matrix(3))
        corr = EnsembleSpec.correlated(np.full(27, 1 / 27))
        with pytest.raises(CorrelatedSpecRejectedError):
            collision_probability_mc(ind, corr, 100, make_rng(0))

    def test_converges_to_scalar_product(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            d = int(rng.integers(2, 4))
            q = random_row_markov(rng, d)
            p = random_row_markov(rng, d)
            n = 200_000
            est = collision_probability_mc(
                EnsembleSpec.independent(q), EnsembleSpec.independent(p), n, make_rng(trial)
            )
            target = scalar_product(q, p)
            assert abs(est.value - target) <= 4 * max(est.stderr, np.sqrt(target / n))

    def test_against_uniform(self):
        q = demo_matrix(0.35, 0.55)
        est = collision_probability_mc(
            EnsembleSpec.independent(q),
            EnsembleSpec.independent(uniform_matrix(3)),
            400_000,
            make_rng(9),
        )
        assert est.value == pytest.approx(1 / 27, abs=4 * est.stderr)

    def test_stderr_formula(self):
        spec = EnsembleSpec.independent(uniform_matrix(2))
        est = collision_probability_mc(spec, spec, 10_000, make_rng(1))
        assert est.stderr == pytest.approx(
            np.sqrt(est.value * (1 - est.value) / est.n), abs=1e-15
        )

    def test_estimates_bit_identical_under_same_seed(self):
        spec = EnsembleSpec.independent(demo_matrix(0.25, 0.5))
        e1 = collision_probability_mc(spec, spec, 50_000, make_rng(21))
        e2 = collision_probability_mc(spec, spec, 50_000, make_rng(21))
        assert (e1.value, e1.stderr, e1.n) == (e2.value, e2.stderr, e2.n)


class TestSharding:
    def test_shard_counts_combine_associatively(self):
        # a sharded run is reproduced by any single-threaded pass over the
        # same substreams, in any order
        spec = EnsembleSpec.independent(demo_matrix(0.3, 0.6))
        per_shard = 2_000
        shards = list(range(4))

        def shard_counts(s):
            return np.bincount(sample_codes(spec, per_shard, shard_rng(99, s)), minlength=27)

        forward = sum(shard_counts(s) for s in shards)
        backward = sum(shard_counts(s) for s in reversed(shards))
        np.testing.assert_array_equal(forward, backward)
        np.testing.assert_array_equal(forward, sum(shard_counts(s) for s in shards))


class TestMerge:
    def test_identity_limits(self):
        a = EnsembleSpec.independent(demo_matrix(0.2, 0.5))
        b = EnsembleSpec.independent(uniform_matrix(3))
        assert merge(a, b, 1.0) is a
        assert merge(a, b, 0.0) is b

    def test_two_point_merge(self):
        f = FunctionMap((0, 1))
        g = FunctionMap((1, 0))
        a = EnsembleSpec.independent(function_to_matrix(f))
        b = EnsembleSpec.independent(function_to_matrix(g))
        merged = merge(a, b, 0.5)
        assert merged.kind == "correlated"
        expected = np.zeros(4)
        expected[f.code] = 0.5
        expected[g.code] = 0.5
        np.testing.assert_allclose(merged.tensor, expected, atol=1e-15)
        np.testing.assert_allclose(
            tensor_to_matrix(merged.tensor),
            (function_to_matrix(f) + function_to_matrix(g)) / 2,
            atol=1e-15,
        )

    def test_merged_products_dominate(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            q1 = random_row_markov(rng, d)
            q2 = random_row_markov(rng, d)
            lam = float(rng.uniform(0.05, 0.95))
            merged = merge(
                EnsembleSpec.independent(q1), EnsembleSpec.independent(q2), lam
            )
            mixed_matrix = tensor_to_matrix(merged.tensor)
            np.testing.assert_allclose(mixed_matrix, lam * q1 + (1 - lam) * q2, atol=1e-12)
            products_of_mixture = product_probabilities(mixed_matrix)
            bound = lam**d * product_probabilities(q1) + (1 - lam) ** d * product_probabilities(q2)
            assert np.all(products_of_mixture >= bound - 1e-12)

    def test_correlated_merge_mixes_tensors(self):
        t1 = demo_correlated_tensor(0.1, 0.4)
        t2 = np.full(27, 1 / 27)
        merged = merge(EnsembleSpec.correlated(t1), EnsembleSpec.correlated(t2), 0.25)
        np.testing.assert_allclose(merged.tensor, 0.25 * t1 + 0.75 * t2, atol=1e-15)

    def test_mixed_kind_merge(self):
        ind = EnsembleSpec.independent(demo_matrix(0.2, 0.5))
        corr = EnsembleSpec.correlated(demo_correlated_tensor(0.2, 0.5))
        merged = merge(ind, corr, 0.5)
        np.testing.assert_allclose(
            merged.tensor,
            0.5 * ind.exact_tensor() + 0.5 * corr.exact_tensor(),
            atol=1e-15,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            merge(
                EnsembleSpec.independent(uniform_matrix(2)),
                EnsembleSpec.independent(uniform_matrix(3)),
                0.5,
            )
