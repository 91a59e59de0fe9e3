"""Tests for function maps, row Markov matrices, expansions and Gini statistics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_prob_vector, random_row_markov
from ginisafe import (
    DimensionMismatchError,
    FunctionMap,
    NotProductFormError,
    ValidationError,
    all_function_maps,
    compose,
    correlation_coefficients,
    function_table,
    function_to_matrix,
    local_gini_vector,
    product_probabilities,
    push_forward,
    scalar_product,
    scalar_product_via_tensors,
    tensor_dimension,
    tensor_to_matrix,
    total_gini,
    uniform_matrix,
    uniform_vector,
    validate_markov_tensor,
    validate_prob_vector,
    validate_row_markov,
)
from ginisafe.reference import demo_correlated_tensor, demo_matrix, demo_table_rows


def brute_force_collision_probability(q, p):
    """Independent oracle: enumerate all pairs of opening sequences."""
    d = q.shape[0]
    total = 0.0
    for f in itertools.product(range(d), repeat=d):
        for g in itertools.product(range(d), repeat=d):
            if f != g:
                continue
            joint = 1.0
            for i in range(d):
                joint *= q[i, f[i]] * p[i, g[i]]
            total += joint
    return total


# ---------------------------------------------------------------------------
# FunctionMap codec
# ---------------------------------------------------------------------------

class TestFunctionMap:
    def test_code_roundtrip(self):
        for d in (2, 3, 4):
            for code in range(d**d):
                f = FunctionMap.from_code(code, d)
                assert f.code == code
                assert FunctionMap(f.images) == f

    def test_code_examples(self):
        assert FunctionMap((2, 1, 2)).code == 23
        assert FunctionMap((1, 1, 0)).code == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            FunctionMap((0, 3, 1))
        with pytest.raises(ValidationError):
            FunctionMap(())

    def test_is_permutation(self):
        assert FunctionMap((2, 0, 1)).is_permutation()
        assert not FunctionMap((1, 2, 1)).is_permutation()

    def test_enumeration_order(self):
        maps = list(all_function_maps(2))
        assert [m.images for m in maps] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_tensor_dimension(self):
        assert tensor_dimension(27) == 3
        assert tensor_dimension(256) == 4
        with pytest.raises(ValidationError):
            tensor_dimension(28)


class TestMatrixRepresentation:
    def test_identity_map(self):
        np.testing.assert_array_equal(function_to_matrix(FunctionMap((0, 1, 2))), np.eye(3))

    def test_repeated_rows(self):
        m = function_to_matrix(FunctionMap((1, 2, 1)))
        np.testing.assert_array_equal(m, [[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        m = function_to_matrix(FunctionMap((1, 2, 2)))
        np.testing.assert_array_equal(m, [[0, 1, 0], [0, 0, 1], [0, 0, 1]])

    def test_rank_of_permutation(self):
        assert np.linalg.matrix_rank(function_to_matrix(FunctionMap((2, 0, 1)))) == 3
        assert np.linalg.matrix_rank(function_to_matrix(FunctionMap((1, 1, 1)))) == 1


class TestCompose:
    def test_identity_is_unit(self):
        ident = FunctionMap((0, 1, 2))
        f = FunctionMap((1, 2, 1))
        assert compose(f, ident) == f
        assert compose(ident, f) == f

    def test_pointwise_examples(self):
        assert compose(FunctionMap((1, 2, 1)), FunctionMap((2, 2, 0))).images == (1, 1, 1)
        assert compose(FunctionMap((1, 1)), FunctionMap((0, 1))).images == (1, 1)

    def test_matrix_homomorphism_exhaustive(self):
        for d in (2, 3):
            for f in all_function_maps(d):
                for g in all_function_maps(d):
                    lhs = function_to_matrix(g) @ function_to_matrix(f)
                    rhs = function_to_matrix(compose(f, g))
                    np.testing.assert_array_equal(lhs, rhs)

    def test_matrix_homomorphism_random_d4(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = FunctionMap(tuple(rng.integers(0, 4, size=4)))
            g = FunctionMap(tuple(rng.integers(0, 4, size=4)))
            lhs = function_to_matrix(g) @ function_to_matrix(f)
            np.testing.assert_array_equal(lhs, function_to_matrix(compose(f, g)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(FunctionMap((0, 1)), FunctionMap((0, 1, 2)))


# ---------------------------------------------------------------------------
# Row Markov matrices
# ---------------------------------------------------------------------------

class TestRowMarkov:
    def test_validate_names_bad_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            validate_row_markov([[0.5, 0.5], [0.7, 0.7]])

    def test_product_is_row_markov(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            q = random_row_markov(rng, d)
            p = random_row_markov(rng, d)
            validate_row_markov(q @ p, tol=1e-12)

    def test_push_forward_demo_point(self):
        q = demo_matrix(0.5, 0.5)
        np.testing.assert_allclose(
            push_forward(uniform_vector(3), q), [1 / 6, 1 / 2, 1 / 3], atol=1e-15
        )

    def test_push_forward_uniform_matrix(self):
        rng = np.random.default_rng(2)
        x = random_prob_vector(rng, 4)
        np.testing.assert_allclose(push_forward(x, uniform_matrix(4)), uniform_vector(4), atol=1e-15)

    def test_push_forward_identity(self):
        rng = np.random.default_rng(3)
        x = random_prob_vector(rng, 5)
        np.testing.assert_array_equal(push_forward(x, np.eye(5)), x)

    def test_push_forward_is_valid_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            validate_prob_vector(
                push_forward(random_prob_vector(rng, d), random_row_markov(rng, d)), tol=1e-12
            )


# ---------------------------------------------------------------------------
# Scalar product
# ---------------------------------------------------------------------------

class TestScalarProduct:
    def test_with_uniform_matrix(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            q = random_row_markov(rng, d)
            assert scalar_product(q, uniform_matrix(d)) == pytest.approx(d**-d, abs=1e-15)

    def test_function_matrices_are_orthonormal(self):
        for d in (2, 3):
            for f in all_function_maps(d):
                for g in all_function_maps(d):
                    expected = 1.0 if f == g else 0.0
                    assert scalar_product(
                        function_to_matrix(f), function_to_matrix(g)
                    ) == expected

    def test_demo_closed_form_at_half(self):
        q = demo_matrix(0.5, 0.5)
        assert scalar_product(q, q) == pytest.approx(0.125, abs=1e-15)

    def test_demo_closed_form_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = rng.random(2)
            q = demo_matrix(a, b)
            expected = (2 * a**2 - 2 * a + 1) ** 2 * (2 * b**2 - 2 * b + 1)
            assert scalar_product(q, q) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            q = random_row_markov(rng, d)
            p = random_row_markov(rng, d)
            v = scalar_product(q, p)
            assert v == scalar_product(p, q)
            assert 0.0 <= v <= 1.0

    def test_identity_gives_diagonal_product(self):
        rng = np.random.default_rng(8)
        q = random_row_markov(rng, 4)
        assert scalar_product(q, np.eye(4)) == pytest.approx(np.prod(np.diag(q)), abs=1e-15)

    def test_mixture_inequality(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            q1 = random_row_markov(rng, d)
            q2 = random_row_markov(rng, d)
            p = random_row_markov(rng, d)
            lam = float(rng.random())
            lhs = scalar_product(lam * q1 + (1 - lam) * q2, p)
            rhs = lam**d * scalar_product(q1, p) + (1 - lam) ** d * scalar_product(q2, p)
            assert lhs >= rhs - 1e-12

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for _ in range(5):
                q = random_row_markov(rng, d)
                p = random_row_markov(rng, d)
                assert scalar_product(q, p) == pytest.approx(
                    brute_force_collision_probability(q, p), abs=1e-12
                )


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

class TestProductProbabilities:
    def test_point_mass_for_function_matrix(self):
        g = FunctionMap((1, 2, 1))
        weights = product_probabilities(function_to_matrix(g))
        expected = np.zeros(27)
        expected[g.code] = 1.0
        np.testing.assert_array_equal(weights, expected)

    def test_uniform_matrix_is_flat(self):
        np.testing.assert_allclose(product_probabilities(uniform_matrix(3)), np.full(27, 27.0**-1), atol=1e-15)

    def test_demo_table_values(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            b = rng.uniform(0.0, 0.5)
            a = rng.uniform(0.0, b / 2)
            weights = product_probabilities(demo_matrix(a, b))
            for row in demo_table_rows(a, b):
                assert weights[row["code"]] == pytest.approx(row["product_probability"], abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            assert product_probabilities(random_row_markov(rng, d)).sum() == pytest.approx(
                1.0, abs=1e-12
            )

    def test_sum_product_identity_for_arbitrary_matrices(self):
        # sum_f prod_i q(i, f(i)) == prod_i sum_j q(i, j), no Markov structure needed
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            q = rng.random((d, d)) * 3.0
            lhs_brute = 0.0
            for f in itertools.product(range(d), repeat=d):
                term = 1.0
                for i in range(d):
                    term *= q[i, f[i]]
                lhs_brute += term
            assert product_probabilities(q).sum() == pytest.approx(lhs_brute, rel=1e-12)
            assert lhs_brute == pytest.approx(np.prod(q.sum(axis=1)), rel=1e-12)

    def test_mixture_domination(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            q1 = random_row_markov(rng, d)
            q2 = random_row_markov(rng, d)
            lam = float(rng.random())
            mixed = product_probabilities(lam * q1 + (1 - lam) * q2)
            bound = lam**d * product_probabilities(q1) + (1 - lam) ** d * product_probabilities(q2)
            assert np.all(mixed >= bound - 1e-12)


class TestTensorToMatrix:
    def test_demo_correlated_expansion(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            b = rng.uniform(0.0, 1.0)
            a = rng.uniform(0.0, b)
            np.testing.assert_allclose(
                tensor_to_matrix(demo_correlated_tensor(a, b)), demo_matrix(a, b), atol=1e-15
            )

    def test_point_mass(self):
        g = FunctionMap((2, 0, 1))
        t = np.zeros(27)
        t[g.code] = 1.0
        np.testing.assert_array_equal(tensor_to_matrix(t), function_to_matrix(g))

    def test_uniform_tensor(self):
        np.testing.assert_allclose(tensor_to_matrix(np.full(27, 1 / 27)), uniform_matrix(3), atol=1e-15)

    def test_reconstruction(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            q = random_row_markov(rng, d)
            np.testing.assert_allclose(tensor_to_matrix(product_probabilities(q)), q, atol=1e-12)

    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d),
                min_size=d,
                max_size=d,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_reconstruction_property(self, rows):
        q = np.array(rows)
        q /= q.sum(axis=1, keepdims=True)
        weights = product_probabilities(q)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.abs(tensor_to_matrix(weights) - q).max() < 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_one_bincount_matches_per_component_oracle(self, d):
        # the marginals eta ranks must keep their bits: one bincount per
        # component, stacked, is the form tensor_to_matrix replaced
        rng = np.random.default_rng(40 + d)
        table = function_table(d)
        for _ in range(5):
            t = rng.random(d**d) ** 3
            t[rng.random(d**d) < 0.3] = 0.0
            oracle = np.stack([np.bincount(table[:, i], weights=t, minlength=d) for i in range(d)])
            assert np.array_equal(tensor_to_matrix(t), oracle)

    def test_validate_markov_tensor(self):
        validate_markov_tensor(np.full(27, 1 / 27))
        with pytest.raises(ValidationError):
            validate_markov_tensor(np.full(26, 1 / 26))


class TestCorrelations:
    def test_product_tensors_are_uncorrelated(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            t = product_probabilities(random_row_markov(rng, d))
            np.testing.assert_allclose(correlation_coefficients(t), 0.0, atol=1e-12)

    def test_demo_table_columns(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            b = rng.uniform(0.0, 0.5)
            a = rng.uniform(0.0, b / 2)
            coeffs = correlation_coefficients(demo_correlated_tensor(a, b))
            for row in demo_table_rows(a, b):
                assert coeffs[row["code"]] == pytest.approx(row["correlation"], abs=1e-12)

    def test_coefficients_sum_to_zero_and_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            t = random_prob_vector(rng, d**d)
            c = correlation_coefficients(t)
            assert abs(c.sum()) < 1e-12
            assert np.all(np.abs(c) <= 1.0 + 1e-12)


class TestScalarProductViaTensors:
    def test_uniform(self):
        # 27 terms of (1/27)^2 sum to 1/27
        t = product_probabilities(uniform_matrix(3))
        assert scalar_product_via_tensors(t, t) == pytest.approx(1 / 27, abs=1e-15)

    def test_function_matrix_tensors(self):
        for d in (2, 3):
            for f in all_function_maps(d):
                for g in all_function_maps(d):
                    tf = product_probabilities(function_to_matrix(f))
                    tg = product_probabilities(function_to_matrix(g))
                    assert scalar_product_via_tensors(tf, tg) == (1.0 if f == g else 0.0)

    def test_matches_direct_route(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            q = random_row_markov(rng, d)
            p = random_row_markov(rng, d)
            via = scalar_product_via_tensors(product_probabilities(q), product_probabilities(p))
            assert via == pytest.approx(scalar_product(q, p), abs=1e-12)

    def test_product_form_verification(self):
        t = demo_correlated_tensor(0.1, 0.4)
        tp = product_probabilities(demo_matrix(0.1, 0.4))
        with pytest.raises(NotProductFormError):
            scalar_product_via_tensors(t, tp, verify_product_form=True)
        scalar_product_via_tensors(tp, tp, verify_product_form=True)


# ---------------------------------------------------------------------------
# Gini statistics of matrices and tensors
# ---------------------------------------------------------------------------

class TestMarkovGini:
    def test_demo_gini_vector(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            b = rng.uniform(0.0, 0.5)
            a = rng.uniform(0.0, b / 2)
            np.testing.assert_allclose(
                local_gini_vector(demo_matrix(a, b)),
                [(1 - a) / 2, (1 - a) / 2, (1 - b) / 2],
                atol=1e-12,
            )

    def test_uniform_matrix_zero(self):
        np.testing.assert_allclose(local_gini_vector(uniform_matrix(4)), 0.0, atol=1e-15)

    def test_function_matrix_maximal(self):
        m = function_to_matrix(FunctionMap((1, 2, 1)))
        np.testing.assert_allclose(local_gini_vector(m), 0.5, atol=1e-15)

    def test_demo_total_gini(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            b = rng.uniform(0.0, 0.5)
            a = rng.uniform(0.0, b / 2)
            expected = (13 - a - b) / 14
            assert total_gini(demo_correlated_tensor(a, b)) == pytest.approx(expected, abs=1e-12)

    def test_total_gini_extremes(self):
        assert total_gini(np.full(27, 1 / 27)) == pytest.approx(0.0, abs=1e-12)
        point = np.zeros(27)
        point[5] = 1.0
        assert total_gini(point) == pytest.approx(26 / 28, abs=1e-15)
