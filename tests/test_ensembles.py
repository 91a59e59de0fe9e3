"""Tests for seeded ensemble sampling and Monte Carlo estimates."""

import contextlib
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_row_markov
from ginisafe import (
    CorrelatedSpecRejectedError,
    EnsembleSpec,
    FunctionMap,
    ValidationError,
    cli,
    collision_probability_mc,
    empirical_tensor,
    ensembles,
    make_rng,
    markov,
    product_probabilities,
    sample_codes,
    scalar_product,
    shard_rng,
    validate_markov_tensor,
    validate_row_markov,
)
from ginisafe.markov import MAX_ENUMERATION_D, code_count, encode
from ginisafe.reference import demo_correlated_tensor, demo_matrix
from oracles import function_to_matrix
from test_writer import ENSEMBLE

CORRELATED = json.dumps({"kind": "correlated", "weights": [0.25] * 4})


class TestSpecs:
    def test_independent_requires_matrix(self):
        with pytest.raises(Exception):
            EnsembleSpec(kind="independent")

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            # sample_codes drew [2 2 2 2 2] from this matrix
            ("independent", "matrix", np.array([[2.0, -1.0], [0.0, 1.0]])),
            ("independent", "matrix", np.array([[0.5, 0.4], [0.5, 0.5]])),
            ("correlated", "tensor", np.array([0.5, 0.5, 0.5, -0.5])),
            ("correlated", "tensor", np.full(5, 0.2)),
        ],
    )
    def test_a_direct_spec_must_hold_markov_data(self, kind, field, value):
        with pytest.raises(ValidationError):
            EnsembleSpec(kind=kind, **{field: value})

    def test_a_direct_spec_holds_the_validated_bits(self):
        # within DEFAULT_TOL but not exactly normalized: every route stores the validator's output
        matrix = np.array([[0.5, 0.5 + 1e-12], [0.25, 0.75]])
        direct = EnsembleSpec(kind="independent", matrix=matrix).matrix
        assert direct.tobytes() == EnsembleSpec.independent(matrix).matrix.tobytes()
        assert direct.tobytes() == validate_row_markov(matrix).tobytes()
        assert direct.flags.c_contiguous
        tensor = [0.25, 0.25, 0.25, 0.25 - 1e-12]
        spec = EnsembleSpec(kind="correlated", tensor=tensor)
        assert spec.tensor.tobytes() == EnsembleSpec.correlated(tensor).tensor.tobytes()
        assert spec.tensor.tobytes() == validate_markov_tensor(tensor).tobytes()
        assert spec.d == 2  # a list tensor raised AttributeError here

    def test_the_tolerance_is_init_only(self):
        q = np.array([[0.5, 0.5000001], [0.25, 0.75]])
        with pytest.raises(ValidationError, match="tolerance 1e-09"):
            EnsembleSpec(kind="independent", matrix=q)
        spec = EnsembleSpec(kind="independent", matrix=q, tol=1e-6)
        assert spec.matrix.tobytes() == validate_row_markov(q, 1e-6).tobytes()
        assert [f.name for f in dataclasses.fields(EnsembleSpec)] == ["kind", "matrix", "tensor"]
        assert "tol" not in repr(spec)

    def test_an_unknown_kind_is_echoed_short(self):
        with pytest.raises(ValidationError) as info:
            EnsembleSpec(kind=list(range(2000)))
        assert str(info.value) == "unknown ensemble kind [0, 1, 2, 3, 4, 5, ...]"

    def test_validated_specs_check_clean(self):
        # the CLI validates at --tol and renormalizes exactly, so the spec's own check passes
        rng = np.random.default_rng(5)
        for d in (2, 3, 6):
            q = random_row_markov(rng, d) * (1 + 1e-7)
            spec = EnsembleSpec(kind="independent", matrix=validate_row_markov(q, tol=1e-6))
            assert spec.d == d

    @pytest.mark.parametrize("run, rows, tensors", [
        (lambda: cli.main(["simulate", "--ensemble", ENSEMBLE, "--n", "10"]) == 0, 1, 0),
        (lambda: cli.main(["collision", "--ensemble", ENSEMBLE, "--ensemble", ENSEMBLE, "--n", "10"]) == 0, 2, 0),
        (lambda: cli.main(["simulate", "--ensemble", CORRELATED, "--n", "10"]) == 0, 0, 1),
        (lambda: EnsembleSpec.independent(demo_matrix(0.3, 0.6)), 1, 0),
        (lambda: EnsembleSpec.correlated(np.full(4, 0.25)), 0, 1),
    ], ids=["simulate", "collision", "simulate-correlated", "independent", "correlated"])
    def test_each_ensemble_is_validated_once(self, run, rows, tensors):
        counters = {name: mock.Mock(wraps=getattr(markov, name))
                    for name in ("validate_row_markov", "validate_markov_tensor")}
        with contextlib.ExitStack() as stack:
            for name, counter in counters.items():
                for module in (markov, ensembles):
                    stack.enter_context(mock.patch.object(module, name, counter))
            assert run()  # exit 0, or a spec
        assert [counter.call_count for counter in counters.values()] == [rows, tensors]

    def test_d_property(self):
        assert EnsembleSpec.independent(np.full((3, 3), 1 / 3)).d == 3
        assert EnsembleSpec.correlated(np.full(27, 1 / 27)).d == 3


class TestSampling:
    def test_degenerate_independent(self):
        f = FunctionMap((1, 2, 1))
        spec = EnsembleSpec.independent(function_to_matrix(f))
        rng = make_rng(0)
        for _ in range(10):
            assert FunctionMap.from_code(int(sample_codes(spec, 1, rng)[0]), 3) == f

    def test_degenerate_correlated(self):
        g = FunctionMap((2, 0, 2))
        t = np.zeros(27)
        t[g.code] = 1.0
        spec = EnsembleSpec.correlated(t)
        rng = make_rng(1)
        for _ in range(10):
            assert FunctionMap.from_code(int(sample_codes(spec, 1, rng)[0]), 3) == g

    def test_single_draw_point_mass(self):
        spec = EnsembleSpec.independent(np.full((2, 2), 1 / 2))
        t = empirical_tensor(spec, 1, make_rng(3))
        assert t.sum() == 1.0
        assert (t > 0).sum() == 1

    def test_uniform_frequencies(self):
        spec = EnsembleSpec.independent(np.full((2, 2), 1 / 2))
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
            tv = 0.5 * np.abs(emp - product_probabilities(spec.matrix)).sum()
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


@st.composite
def independent_pairs(draw):
    """Two INDEPENDENT specs of one d, as a collision takes them."""
    d = draw(st.integers(1, 6))
    return tuple(EnsembleSpec.independent(np.array([draw(distributions(d)) for _ in range(d)])) for _ in range(2))


CHUNKS = st.sampled_from([1, 2, 3, ensembles._CHUNK])
D1 = EnsembleSpec.independent([[1.0]])  # no thresholds, one digit: encode sums a single term


class TestChunkedSampler:
    """The chunked sampler against the unchunked searchsorted oracle."""

    @settings(max_examples=150, deadline=None)
    @given(spec=specs(), chunk=CHUNKS, multiple=st.integers(1, 3), offset=st.integers(-1, 1),
           seed=st.integers(0, 2**32))
    @example(spec=D1, chunk=2, multiple=2, offset=1, seed=0)
    def test_matches_oracle_across_chunk_boundaries(self, spec, chunk, multiple, offset, seed):
        n = max(1, multiple * chunk + offset)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        with mock.patch.object(ensembles, "_CHUNK", chunk):
            codes = sample_codes(spec, n, rng)
            tensor = empirical_tensor(spec, n, rng)
        want = searchsorted_codes(spec, n, oracle_rng)
        assert codes.dtype == np.intp
        np.testing.assert_array_equal(codes, want)
        want = np.bincount(searchsorted_codes(spec, n, oracle_rng), minlength=code_count(spec.d)) / n
        assert tensor.dtype == want.dtype and tensor.tobytes() == want.tobytes()
        # collision draws b right after a: the generator must end where the oracle's does
        assert rng.random() == oracle_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(pair=independent_pairs(), chunk=CHUNKS, multiple=st.integers(1, 3), offset=st.integers(-1, 1),
           seed=st.integers(0, 2**32))
    @example(pair=(D1, D1), chunk=2, multiple=2, offset=1, seed=0)
    def test_collision_is_the_oracle_estimate(self, pair, chunk, multiple, offset, seed):
        a, b = pair
        n = max(1, multiple * chunk + offset)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        with mock.patch.object(ensembles, "_CHUNK", chunk):
            est = collision_probability_mc(a, b, n, rng)
        codes_a = searchsorted_codes(a, n, oracle_rng)  # a's whole block, then b's
        p_hat = np.count_nonzero(codes_a == searchsorted_codes(b, n, oracle_rng)) / n
        assert (est.value, est.stderr, est.n) == (p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n)), n)
        assert rng.random() == oracle_rng.random()

    def test_every_code_fits_the_stream_buffer(self):
        # the stream's digits and codes are uint16: a larger cap must widen them, not wrap codes
        assert code_count(MAX_ENUMERATION_D) <= np.iinfo(np.uint16).max + 1

    def test_top_code_keeps_its_uint16_headroom(self):
        # every position on its last category: the top code 6**6 - 1, whose terms 5 * 6**i are
        # the largest uint16 digit products, under value-based casting and numpy 2's integer rules
        q = np.zeros((6, 6))
        q[:, -1] = 1.0
        spec, n, top = EnsembleSpec.independent(q), ensembles._CHUNK + 1, 46655
        np.testing.assert_array_equal(sample_codes(spec, n, make_rng(0)), np.full(n, top))
        tensor = empirical_tensor(spec, n, make_rng(0))
        assert tensor[top] == 1.0 and np.count_nonzero(tensor) == 1
        assert collision_probability_mc(spec, spec, n, make_rng(0)).value == 1.0
        assert {codes.dtype for _, codes in ensembles._code_chunks(spec, n, make_rng(0))} == {np.dtype(np.uint16)}

    def test_memory_holds_codes_and_a_few_chunks(self):
        d, n = 6, 10**6
        spec = EnsembleSpec.independent(random_row_markov(np.random.default_rng(2), d))
        chunks = 5 * ensembles._CHUNK * d * 8  # a few chunks of uniforms
        draws = [
            (sample_codes, n * np.dtype(np.intp).itemsize + chunks),  # its n intp codes
            (empirical_tensor, chunks),  # counted chunk by chunk: no n-sized array
        ]
        for draw, bound in draws:
            draw(spec, 10, make_rng(0))
            tracemalloc.start()
            try:
                draw(spec, n, make_rng(0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (draw.__name__, peak, bound)  # n * d uniforms alone are 48 MB


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
        ind = EnsembleSpec.independent(np.full((3, 3), 1 / 3))
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
            EnsembleSpec.independent(np.full((3, 3), 1 / 3)),
            400_000,
            make_rng(9),
        )
        assert est.value == pytest.approx(1 / 27, abs=4 * est.stderr)

    def test_stderr_formula(self):
        spec = EnsembleSpec.independent(np.full((2, 2), 1 / 2))
        est = collision_probability_mc(spec, spec, 10_000, make_rng(1))
        assert est.stderr == pytest.approx(
            np.sqrt(est.value * (1 - est.value) / est.n), abs=1e-15
        )

    @pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 100_003])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_chunked_b_is_bitwise_the_two_array_estimate(self, n, seed):
        a = EnsembleSpec.independent(demo_matrix(0.3, 0.6))
        b = EnsembleSpec.independent(np.full((3, 3), 1 / 3))
        rng = make_rng(seed)
        codes_a = sample_codes(a, n, rng)
        codes_b = sample_codes(b, n, rng)
        p_hat = float(np.mean(codes_a == codes_b))
        want = (p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n)), n)
        rng = make_rng(seed)
        est = collision_probability_mc(a, b, n, rng)
        assert (est.value, est.stderr, est.n) == want
        assert rng.random() == make_rng(seed).random(2 * 3 * n + 1)[-1]  # the generator ends where one draw does

    def test_holds_the_codes_of_one_ensemble(self):
        spec = EnsembleSpec.independent(demo_matrix(0.3, 0.6))
        n = 10**6
        tracemalloc.start()
        try:
            collision_probability_mc(spec, spec, n, make_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a's codes at 2 bytes each and a few chunks of uniforms; the intp codes of both took 17 MiB
        assert peak < 2 * n + 5 * ensembles._CHUNK * 3 * 8, peak

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
