"""Tests for Fourier transforms, projectors, partial traces and state statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import random_complex_unit
from ginisafe import (
    DimensionMismatchError,
    FunctionMap,
    IndexOutOfRangeError,
    ValidationError,
    apply_dual,
    basis_state,
    componentwise_parity,
    dual_state,
    fourier_single,
    function_to_matrix,
    global_fourier,
    index_product,
    index_to_tuple,
    kron_chain,
    local_dimension,
    local_fourier,
    parity_matrix,
    projector_function,
    projector_local,
    pure_density,
    reduced_density,
    state_scalar_product,
    state_stats,
    tuple_to_index,
    uncertainty_deficits,
    validate_density_matrix,
)
from ginisafe import quantum
from ginisafe.quantum import MAX_COMPONENTS, elementary_projector
from ginisafe.reference import (
    TRIPARTITE_DUAL_GINI_VECTOR,
    TRIPARTITE_DUAL_MARKOV,
    TRIPARTITE_DUAL_TOTAL_GINI,
    pair_expected,
    pair_state,
    pair_triple_overlap,
    triple_expected,
    triple_state,
    tripartite_mixed_state,
    tripartite_pure_state,
)


def random_amplitude_settings(rng):
    """Moduli-squared for the two-qubit worked states, with random phases."""
    a2 = float(rng.uniform(0.05, 0.45))
    probs = np.sort(rng.dirichlet(np.ones(3)))
    e2, d2, c2 = (float(v) for v in probs)
    phases = np.exp(2j * np.pi * rng.random(5))
    a = np.sqrt(a2) * phases[0]
    b = np.sqrt(1 - a2) * phases[1]
    c = np.sqrt(c2) * phases[2]
    dd = np.sqrt(d2) * phases[3]
    e = np.sqrt(e2) * phases[4]
    return a, b, c, dd, e, a2, c2, d2, e2


# ---------------------------------------------------------------------------
# Index codec
# ---------------------------------------------------------------------------

class TestIndexCodec:
    def test_examples(self):
        assert tuple_to_index((2, 1, 2), 3) == 23
        assert tuple_to_index((1, 1, 0), 3) == 4
        assert index_product((2, 1, 2), (1, 1, 0), 3) == 11

    def test_roundtrip(self):
        for d in (2, 3):
            for m in range(d**d):
                assert tuple_to_index(index_to_tuple(m, d), d) == m

    def test_components_reduced_mod_d(self):
        assert tuple_to_index((4, 1, 5), 3) == tuple_to_index((1, 1, 2), 3)

    def test_sum_wraps_mod_dimension(self):
        # 23 + 4 = 27 reduces to 0 in the 27-element ring
        assert (tuple_to_index((2, 1, 2), 3) + tuple_to_index((1, 1, 0), 3)) % 27 == 0

    def test_local_dimension(self):
        assert local_dimension(4) == 2
        assert local_dimension(27) == 3
        assert local_dimension(256) == 4
        with pytest.raises(ValidationError):
            local_dimension(8)

    def test_codec_matches_function_codes(self):
        for d in (2, 3):
            for code in range(d**d):
                f = FunctionMap.from_code(code, d)
                assert tuple_to_index(f.images, d) == code


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

class TestFourierSingle:
    def test_qubit_is_hadamard(self):
        np.testing.assert_allclose(
            fourier_single(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    def test_qubit_squares_to_identity(self):
        f = fourier_single(2)
        np.testing.assert_allclose(f @ f, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary_and_fourth_power(self, d):
        f = fourier_single(d)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(d), atol=1e-10)
        np.testing.assert_allclose(np.linalg.matrix_power(f, 4), np.eye(d), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_square_is_parity(self, d):
        f = fourier_single(d)
        np.testing.assert_allclose(f @ f, parity_matrix(d), atol=1e-12)


class TestLocalFourier:
    def test_qubit_pair_matches_kron(self):
        f = fourier_single(2)
        np.testing.assert_allclose(local_fourier(2), np.kron(f, f), atol=1e-15)

    def test_uniform_superposition(self):
        psi = local_fourier(2) @ basis_state(FunctionMap((0, 0)))
        np.testing.assert_allclose(psi, np.full(4, 0.5), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_fourth_power_and_parity(self, d):
        fl = local_fourier(d)
        dim = d**d
        np.testing.assert_allclose(fl @ fl.conj().T, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(np.linalg.matrix_power(fl, 4), np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(fl @ fl, componentwise_parity(d), atol=1e-10)

    def test_dense_limit(self):
        from ginisafe.errors import DimensionTooLargeError

        with pytest.raises(DimensionTooLargeError):
            local_fourier(MAX_COMPONENTS + 1)


class TestGlobalFourier:
    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_and_fourth_power(self, d):
        fg = global_fourier(d)
        dim = d**d
        np.testing.assert_allclose(fg @ fg.conj().T, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(np.linalg.matrix_power(fg, 4), np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_flat_entry_magnitudes(self, d):
        # both dual bases are mutually unbiased with the computational one
        fg = global_fourier(d)
        np.testing.assert_allclose(np.abs(fg) ** 2, d**-d, atol=1e-12)
        fl = local_fourier(d)
        np.testing.assert_allclose(np.abs(fl) ** 2, d**-d, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_square_is_flat_parity(self, d):
        fg = global_fourier(d)
        np.testing.assert_allclose(fg @ fg, parity_matrix(d**d), atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_differs_from_local(self, d):
        # F_G is not a tensor product of local unitaries; already its square
        # (flat index negation) differs from the componentwise parity F_L**2,
        # because negation mod d**d carries across digits.
        assert np.abs(global_fourier(d) - local_fourier(d)).max() > 0.1
        assert np.abs(parity_matrix(d**d) - componentwise_parity(d)).max() == 1.0

    def test_factorisable_columns(self):
        # columns of F_G at d=3 are product states across every bipartition
        fg = global_fourier(3)
        for code in (0, 5, 23):
            t = fg[:, code].reshape(3, 3, 3)  # axes: component 2, 1, 0
            for axis in range(3):
                m = np.moveaxis(t, axis, 0).reshape(3, 9)
                s = np.linalg.svd(m, compute_uv=False)
                assert s[1] < 1e-12


# ---------------------------------------------------------------------------
# Projectors
# ---------------------------------------------------------------------------

def kron_projector_oracle(i, j, d):
    """Independent construction: explicit tensor product under the codec order."""
    ops = [np.eye(d, dtype=complex)] * d
    ops[i] = elementary_projector(j, d)
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = np.kron(out, op)
    return out


class TestProjectors:
    @pytest.mark.parametrize("d", [2, 3])
    def test_local_matches_kron_oracle(self, d):
        for i in range(d):
            for j in range(d):
                np.testing.assert_allclose(
                    projector_local(i, j, d), kron_projector_oracle(i, j, d), atol=0
                )

    def test_component_zero_is_least_significant(self):
        np.testing.assert_allclose(
            np.diag(projector_local(0, 0, 2)).real, [1, 0, 1, 0], atol=0
        )
        np.testing.assert_allclose(
            np.diag(projector_local(1, 0, 2)).real, [1, 1, 0, 0], atol=0
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_resolution_of_identity(self, d):
        for i in range(d):
            total = sum(projector_local(i, j, d) for j in range(d))
            np.testing.assert_allclose(total, np.eye(d**d), atol=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pairwise_commutation(self, d):
        projs = [projector_local(i, j, d) for i in range(d) for j in range(d)]
        for p1 in projs:
            for p2 in projs:
                np.testing.assert_allclose(p1 @ p2, p2 @ p1, atol=0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_idempotent_hermitian(self, d):
        for i in range(d):
            for j in range(d):
                p = projector_local(i, j, d)
                np.testing.assert_allclose(p @ p, p, atol=0)
                np.testing.assert_allclose(p, p.conj().T, atol=0)

    def test_index_errors(self):
        with pytest.raises(IndexOutOfRangeError):
            projector_local(3, 0, 3)
        with pytest.raises(IndexOutOfRangeError):
            projector_local(0, 3, 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_function_projectors(self, d):
        total = np.zeros((d**d, d**d), dtype=complex)
        for code in range(d**d):
            f = FunctionMap.from_code(code, d)
            pf = projector_function(f)
            psi = basis_state(f)
            np.testing.assert_allclose(pf @ psi, psi, atol=0)
            product = np.eye(d**d, dtype=complex)
            for i in range(d):
                product = product @ projector_local(i, f.images[i], d)
            np.testing.assert_allclose(pf, product, atol=0)
            total += pf
        np.testing.assert_allclose(total, np.eye(d**d), atol=0)

    def test_basis_orthonormality(self):
        for f in (FunctionMap((0, 1)), FunctionMap((1, 1))):
            for g in (FunctionMap((0, 1)), FunctionMap((1, 1))):
                val = basis_state(g).conj() @ projector_function(f) @ basis_state(g)
                assert val == (1.0 if f == g else 0.0)


# ---------------------------------------------------------------------------
# Partial trace
# ---------------------------------------------------------------------------

class TestReducedDensity:
    def test_product_basis_states(self):
        for images in ((0, 1), (1, 0), (1, 1)):
            rho = pure_density(basis_state(FunctionMap(images)))
            for i, level in enumerate(images):
                expected = elementary_projector(level, 2)
                np.testing.assert_allclose(reduced_density(rho, i), expected, atol=0)

    def test_pair_state_reductions(self):
        rng = np.random.default_rng(0)
        a, b, *_ = random_amplitude_settings(rng)
        rho = pure_density(pair_state(a, b))
        expected = np.diag([abs(a) ** 2, abs(b) ** 2]).astype(complex)
        np.testing.assert_allclose(reduced_density(rho, 0), expected, atol=1e-15)
        np.testing.assert_allclose(reduced_density(rho, 1), expected, atol=1e-15)

    def test_triple_state_reductions(self):
        rng = np.random.default_rng(1)
        _, _, c, dd, e, _, c2, d2, e2 = random_amplitude_settings(rng)
        rho = pure_density(triple_state(c, dd, e))
        red0 = reduced_density(rho, 0)
        red1 = reduced_density(rho, 1)
        # component 0 pairs c with d (both have second component 0)
        np.testing.assert_allclose(
            red0,
            np.array([[c2 + e2, c * np.conj(dd)], [np.conj(c) * dd, d2]]),
            atol=1e-15,
        )
        # component 1 pairs c with e (both have first component 0)
        np.testing.assert_allclose(
            red1,
            np.array([[c2 + d2, c * np.conj(e)], [np.conj(c) * e, e2]]),
            atol=1e-15,
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        rho = pure_density(random_complex_unit(rng, 27))
        for i in range(3):
            red = reduced_density(rho, i)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)

    def test_projector_consistency(self):
        # Tr[rho Pi(i, j)] equals Tr[reduced_i rho * |j><j|] for random states,
        # pure and mixed
        rng = np.random.default_rng(3)
        for d in (2, 3):
            pure = pure_density(random_complex_unit(rng, d**d))
            weights = rng.dirichlet(np.ones(3))
            mixed = sum(
                w * pure_density(random_complex_unit(rng, d**d)) for w in weights
            )
            for rho in (pure, mixed):
                for i in range(d):
                    red = reduced_density(rho, i)
                    for j in range(d):
                        via_projector = np.trace(rho @ projector_local(i, j, d)).real
                        via_reduction = np.trace(red @ elementary_projector(j, d)).real
                        assert via_projector == pytest.approx(via_reduction, abs=1e-12)

    def test_index_error(self):
        rho = pure_density(basis_state(FunctionMap((0, 1))))
        with pytest.raises(IndexOutOfRangeError):
            reduced_density(rho, 2)


# ---------------------------------------------------------------------------
# State statistics
# ---------------------------------------------------------------------------

class TestStateStats:
    def test_basis_states_give_function_matrices(self):
        for d in (2, 3):
            for code in range(d**d):
                f = FunctionMap.from_code(code, d)
                stats = state_stats(pure_density(basis_state(f)))
                np.testing.assert_allclose(stats.markov, function_to_matrix(f), atol=1e-15)
                assert stats.tensor[code] == pytest.approx(1.0, abs=1e-15)

    def test_pair_state_closed_forms(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b, *_ = random_amplitude_settings(rng)
            a2 = abs(a) ** 2
            stats = state_stats(pure_density(pair_state(a, b)))
            expected = pair_expected(a2)
            np.testing.assert_allclose(stats.markov, expected["markov"], atol=1e-12)
            np.testing.assert_allclose(stats.tensor, expected["tensor"], atol=1e-12)
            np.testing.assert_allclose(stats.products, expected["products"], atol=1e-12)
            np.testing.assert_allclose(stats.correlations, expected["correlations"], atol=1e-12)
            np.testing.assert_allclose(stats.gini_vector, expected["gini_vector"], atol=1e-12)
            assert stats.total_gini == pytest.approx(expected["total_gini"], abs=1e-12)

    def test_triple_state_closed_forms(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            _, _, c, dd, e, _, c2, d2, e2 = random_amplitude_settings(rng)
            stats = state_stats(pure_density(triple_state(c, dd, e)))
            expected = triple_expected(c2, d2, e2)
            np.testing.assert_allclose(stats.markov, expected["markov"], atol=1e-12)
            np.testing.assert_allclose(stats.tensor, expected["tensor"], atol=1e-12)
            np.testing.assert_allclose(stats.products, expected["products"], atol=1e-12)
            np.testing.assert_allclose(stats.correlations, expected["correlations"], atol=1e-12)
            np.testing.assert_allclose(stats.gini_vector, expected["gini_vector"], atol=1e-12)
            assert stats.total_gini == pytest.approx(expected["total_gini"], abs=1e-12)

    def test_random_state_consistency(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            stats = state_stats(pure_density(random_complex_unit(rng, d**d)))
            assert stats.tensor.sum() == pytest.approx(1.0, abs=1e-10)
            assert abs(stats.correlations.sum()) < 1e-10
            from ginisafe import tensor_to_matrix

            np.testing.assert_allclose(stats.markov, tensor_to_matrix(stats.tensor), atol=1e-12)

    @given(
        st.integers(2, 4),
        st.sampled_from(["pure", "rank_two", "basis_ket"]),
        st.sampled_from([None, "local", "global"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_markov_rows_are_reduced_density_diagonals(self, d, family, dual, seed):
        # the partial trace is an independent route to the tensor marginals
        rng = np.random.default_rng(seed)
        n = d**d
        if family == "pure":
            rho = pure_density(random_complex_unit(rng, n))
        elif family == "rank_two":
            lam = rng.uniform(0.1, 0.9)
            rho = lam * pure_density(random_complex_unit(rng, n)) + (1 - lam) * pure_density(
                random_complex_unit(rng, n)
            )
        else:
            rho = pure_density(basis_state(FunctionMap.from_code(int(rng.integers(n)), d)))
        if dual is not None:
            rho = dual_state(rho, dual)
        stats = state_stats(rho)
        for i in range(d):
            np.testing.assert_allclose(
                np.real(np.diag(reduced_density(rho, i))), stats.markov[i], rtol=0, atol=1e-12
            )

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            state_stats(np.ones((27, 30)) / 27)


class TestDualState:
    def test_maximally_mixed_invariant(self):
        rho = np.eye(4, dtype=complex) / 4
        for mode in ("local", "global"):
            np.testing.assert_allclose(dual_state(rho, mode), rho, atol=1e-12)
        np.testing.assert_allclose(dual_state(np.eye(3, dtype=complex) / 3, "single"),
                                   np.eye(3) / 3, atol=1e-12)

    def test_basis_state_local_dual_is_flat(self):
        stats = state_stats(dual_state(pure_density(basis_state(FunctionMap((1, 2, 0)))), "local"))
        np.testing.assert_allclose(stats.tensor, 1 / 27, atol=1e-12)
        np.testing.assert_allclose(stats.gini_vector, 0.0, atol=1e-12)

    def test_tripartite_global_dual_frozen_values(self):
        stats = state_stats(dual_state(pure_density(tripartite_pure_state()), "global"))
        np.testing.assert_allclose(stats.markov, TRIPARTITE_DUAL_MARKOV, atol=1e-12)
        np.testing.assert_allclose(stats.gini_vector, TRIPARTITE_DUAL_GINI_VECTOR, atol=1e-12)
        assert stats.total_gini == pytest.approx(TRIPARTITE_DUAL_TOTAL_GINI, abs=1e-12)

    def test_tripartite_global_dual_phase_formula_oracle(self):
        # independent oracle: dual probabilities from the phase sum
        # |sum_m omega(-c_m k)|^2 / (3 * 27) over the three ket codes
        codes = [0, 12, 25]
        p = np.zeros(27)
        for k in range(27):
            amp = sum(np.exp(-2j * np.pi * ((c * k) % 27) / 27) for c in codes)
            p[k] = abs(amp) ** 2 / 81
        stats = state_stats(dual_state(pure_density(tripartite_pure_state()), "global"))
        np.testing.assert_allclose(stats.tensor, p, atol=1e-12)

    def test_tripartite_mixture_global_dual_is_flat(self):
        stats = state_stats(dual_state(tripartite_mixed_state(), "global"))
        np.testing.assert_allclose(stats.markov, 1 / 3, atol=1e-12)
        np.testing.assert_allclose(stats.gini_vector, 0.0, atol=1e-12)
        assert stats.total_gini == pytest.approx(0.0, abs=1e-12)

    def test_local_sandwich_matches_dense(self):
        rng = np.random.default_rng(7)
        rho = pure_density(random_complex_unit(rng, 27))
        fl = local_fourier(3)
        np.testing.assert_allclose(
            dual_state(rho, "local"), fl.conj().T @ rho @ fl, atol=1e-12
        )

    def test_factored_vector_apply_matches_dense(self):
        rng = np.random.default_rng(8)
        psi = random_complex_unit(rng, 27)
        fl = local_fourier(3)
        np.testing.assert_allclose(apply_dual(psi, 3, "local"), fl.conj().T @ psi, atol=1e-12)
        # F_L = conj(F_L†) entrywise, so the forward transform is a conjugated dual
        np.testing.assert_allclose(
            apply_dual(psi.conj(), 3, "local").conj(), fl @ psi, atol=1e-12
        )

    def test_single_mode_requires_square(self):
        with pytest.raises(ValidationError):
            dual_state(np.ones((2, 3)), "single")


def dense_transform(d, mode):
    if mode == "single":
        return fourier_single(d)
    return local_fourier(d) if mode == "local" else global_fourier(d)


def random_complex_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestApplyDual:
    @pytest.mark.parametrize("mode", ["single", "local", "global"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dense_oracle(self, d, mode):
        rng = np.random.default_rng(10 * d)
        u = dense_transform(d, mode)
        n = u.shape[0]
        psi = random_complex_unit(rng, n)
        np.testing.assert_allclose(apply_dual(psi, d, mode), u.conj().T @ psi, atol=1e-12)
        batch = random_complex_matrix(rng, n, 7)
        np.testing.assert_allclose(apply_dual(batch, d, mode), u.conj().T @ batch, atol=1e-12)
        # a non-Hermitian matrix, so a wrong conjugation or transpose shows
        sigma = random_complex_matrix(rng, n, n) / n
        np.testing.assert_allclose(dual_state(sigma, mode), u.conj().T @ sigma @ u, atol=1e-12)

    def test_five_qudit_duals_match_fft(self):
        # rho = |a><b| has F† rho F = |F† a><F† b|, so the reference needs
        # only the FFT of two vectors: fft for F_G, fftn over the digits for F_L
        rng = np.random.default_rng(11)
        d, n = 5, 5**5
        a, b = random_complex_unit(rng, n), random_complex_unit(rng, n)
        rho = np.outer(a, b.conj())

        def local_ref(v):
            return np.fft.fftn(v.reshape((d,) * d), norm="ortho").reshape(n)

        def global_ref(v):
            return np.fft.fft(v, norm="ortho")

        for mode, ref in (("local", local_ref), ("global", global_ref)):
            expected = np.outer(ref(a), ref(b).conj())
            assert np.abs(dual_state(rho, mode) - expected).max() < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            apply_dual(np.ones(4), 2, "sideways")
        with pytest.raises(ValidationError):
            apply_dual(np.ones(1), 1, "single")
        with pytest.raises(DimensionMismatchError):
            apply_dual(np.ones(5), 2, "local")
        with pytest.raises(DimensionMismatchError):
            apply_dual(np.ones((4, 4, 4)), 2, "global")

    def test_single_mode_caches_no_large_transform(self):
        # single mode admits d up to 3125 (a 156 MB F†): alternating small d
        # (1 MB at most) rebuild nothing, and past d = 256 the transform is
        # an FFT that builds no d x d matrix at all
        quantum._single_dagger.cache_clear()
        for d in (2, 3, 64, 2, 257, 3, 300, 64):
            psi = random_complex_unit(np.random.default_rng(d), d)
            np.testing.assert_allclose(apply_dual(psi, d, "single"), fourier_single(d).conj().T @ psi, atol=1e-12)
        assert quantum._single_dagger.cache_info().misses == 3
        psi = random_complex_unit(np.random.default_rng(5), 3125)
        tracemalloc.start()
        try:
            apply_dual(psi, 3125, "single")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert quantum._single_dagger.cache_info().misses == 3


class TestStateScalarProduct:
    def test_basis_states_orthonormal(self):
        for d in (2, 3):
            for f_code in range(min(d**d, 6)):
                for g_code in range(min(d**d, 6)):
                    rho = pure_density(basis_state(FunctionMap.from_code(f_code, d)))
                    sig = pure_density(basis_state(FunctionMap.from_code(g_code, d)))
                    expected = 1.0 if f_code == g_code else 0.0
                    assert state_scalar_product(rho, sig) == pytest.approx(expected, abs=1e-15)

    def test_disjoint_supports_never_collide(self):
        rho = pure_density(pair_state(0.0, 1.0))
        sig = pure_density(triple_state(np.sqrt(0.7), np.sqrt(0.3), 0.0))
        assert state_scalar_product(rho, sig) == pytest.approx(0.0, abs=1e-15)

    def test_balanced_pair_overlap(self):
        rho = pure_density(pair_state(np.sqrt(0.5), np.sqrt(0.5)))
        assert state_scalar_product(rho, rho) == pytest.approx(0.25, abs=1e-12)

    def test_thirds_triple_overlap(self):
        amp = np.sqrt(1 / 3)
        sig = pure_density(triple_state(amp, amp, amp))
        assert state_scalar_product(sig, sig) == pytest.approx(25 / 81, abs=1e-12)

    def test_closed_forms_random(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a, b, c, dd, e, a2, c2, d2, e2 = random_amplitude_settings(rng)
            rho = pure_density(pair_state(a, b))
            sig = pure_density(triple_state(c, dd, e))
            assert state_scalar_product(rho, rho) == pytest.approx(
                pair_expected(a2)["self_overlap"], abs=1e-12
            )
            assert state_scalar_product(sig, sig) == pytest.approx(
                triple_expected(c2, d2, e2)["self_overlap"], abs=1e-12
            )
            assert state_scalar_product(rho, sig) == pytest.approx(
                pair_triple_overlap(a2, c2, d2, e2), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            state_scalar_product(np.eye(4) / 4, np.eye(27) / 27)


class TestBlindnessAndSensitivity:
    def test_plain_stats_blind_to_offdiagonals(self):
        rng = np.random.default_rng(9)
        for d in (2, 3):
            dim = d**d
            codes = rng.choice(dim, size=2, replace=False)
            f = FunctionMap.from_code(int(codes[0]), d)
            g = FunctionMap.from_code(int(codes[1]), d)
            a2 = float(rng.uniform(0.1, 0.9))
            a = np.sqrt(a2) * np.exp(2j * np.pi * rng.random())
            b = np.sqrt(1 - a2)
            mixed = a2 * pure_density(basis_state(f)) + (1 - a2) * pure_density(basis_state(g))
            psi = a * basis_state(f) + b * basis_state(g)
            superposed = pure_density(psi)
            sm = state_stats(mixed)
            ss = state_stats(superposed)
            np.testing.assert_allclose(sm.tensor, ss.tensor, atol=1e-15)
            np.testing.assert_allclose(sm.markov, ss.markov, atol=1e-15)
            dual_mixed = state_stats(dual_state(mixed, "global"))
            dual_superposed = state_stats(dual_state(superposed, "global"))
            assert np.abs(dual_mixed.tensor - dual_superposed.tensor).max() > 1e-6


class TestUncertaintyDeficits:
    def test_maximally_mixed(self):
        for d in (2, 3):
            dim = d**d
            deficits = uncertainty_deficits(np.eye(dim, dtype=complex) / dim)
            np.testing.assert_allclose(deficits.local_components, 2 * (d - 1) / (d + 1), atol=1e-12)
            np.testing.assert_allclose(deficits.global_components, 2 * (d - 1) / (d + 1), atol=1e-12)
            assert deficits.local_total == pytest.approx(2 * (dim - 1) / (dim + 1), abs=1e-12)
            assert deficits.global_total == pytest.approx(2 * (dim - 1) / (dim + 1), abs=1e-12)

    def test_positive_on_random_pure_states(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            for _ in range(20):
                deficits = uncertainty_deficits(pure_density(random_complex_unit(rng, d**d)))
                assert np.all(deficits.local_components > 0)
                assert deficits.local_total > 0
                assert np.all(deficits.global_components > 0)
                assert deficits.global_total > 0


class TestDensityValidation:
    def test_accepts_valid(self):
        rng = np.random.default_rng(11)
        rho = pure_density(random_complex_unit(rng, 4))
        validate_density_matrix(rho)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.5
        with pytest.raises(ValidationError):
            validate_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            validate_density_matrix(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("case", ["nan_off_diagonal", "all_nan", "inf_on_diagonal"])
    def test_rejects_non_finite(self, case):
        rho = np.eye(2, dtype=complex) / 2
        if case == "nan_off_diagonal":
            rho[0, 1] = np.nan
        elif case == "all_nan":
            rho[:] = np.nan
        else:
            rho[1, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            validate_density_matrix(rho)

    def test_repair_clips_and_renormalizes(self):
        rng = np.random.default_rng(12)
        rho = pure_density(random_complex_unit(rng, 4))
        noisy = 0.999999999 * rho + np.diag([1e-9, -0.3e-9, 0.2e-9, 0.1e-9])
        noisy = (noisy + noisy.conj().T) / 2
        noisy = noisy / np.trace(noisy).real
        repaired = validate_density_matrix(noisy, repair=True)
        eigvals = np.linalg.eigvalsh(repaired)
        assert eigvals.min() >= -1e-15
        assert np.trace(repaired).real == pytest.approx(1.0, abs=1e-12)


def eigh_validate(rho, eig_floor=-1e-8, repair=False):
    """The eigendecomposition-only validator: the oracle of the Cholesky route."""
    rho = np.asarray(rho, dtype=complex)
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-10:
        raise ValidationError(f"not Hermitian: max |rho - rho†| = {herm:.3g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"trace is {tr:.12g}, not 1 within {1e-10:g}")
    eigvals, eigvecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if eigvals.min() < eig_floor:
        raise ValidationError(
            f"negative eigenvalue {eigvals.min():.3g} below floor {eig_floor:g}"
        )
    if repair:
        clipped = np.clip(eigvals, 0.0, None)
        clipped /= clipped.sum()
        return (eigvecs * clipped) @ eigvecs.conj().T
    return rho


def outcome(validate, rho, **kwargs):
    try:
        return validate(rho, **kwargs)
    except ValidationError as exc:
        return str(exc)


def density_with_smallest(rng, n, smallest, zeros):
    """A Hermitian unit-trace matrix whose smallest eigenvalue is `smallest`.

    `zeros` further eigenvalues are exactly 0 (a rank-deficient state); the
    rest are positive and fill the trace.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    lam = rng.random(n) + 0.01
    lam[0] = smallest
    lam[1 : 1 + zeros] = 0.0
    rest = lam[1 + zeros :]
    rest *= (1.0 - smallest) / rest.sum()
    rho = (u * lam) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


class TestCholeskyAdmission:
    """The Cholesky certificate against the eigh oracle, at and around the floor."""

    # no shrinking: an example at N = 256 costs tens of milliseconds
    @settings(max_examples=120, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4, 27, 256]),
        floor=st.sampled_from([-1e-8, 0.0]),
        offset=st.sampled_from([0.0, 1e-11, -1e-11, 1e-9, -1e-9, 3e-9, -3e-9]),
        zeros=st.integers(0, 2),
    )
    def test_same_decisions_as_eigh(self, seed, n, floor, offset, zeros):
        rho = density_with_smallest(np.random.default_rng(seed), n, floor + offset, zeros)
        got = outcome(validate_density_matrix, rho, eig_floor=floor)
        want = outcome(eigh_validate, rho, eig_floor=floor)
        if isinstance(want, str):
            assert got == want
        else:
            assert got is rho  # admitted unchanged
        repaired = outcome(validate_density_matrix, rho, eig_floor=floor, repair=True)
        oracle = outcome(eigh_validate, rho, eig_floor=floor, repair=True)
        if isinstance(oracle, str):
            assert repaired == oracle
        else:
            assert repaired.tobytes() == oracle.tobytes()

    def test_valid_density_needs_no_eigendecomposition(self, monkeypatch):
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        rng = np.random.default_rng(21)
        for n in (4, 27, 256):
            a, b = random_complex_unit(rng, n), random_complex_unit(rng, n)
            rank_two = 0.3 * pure_density(a) + 0.7 * pure_density(b)
            assert validate_density_matrix(rank_two) is rank_two
        assert calls == []
        validate_density_matrix(rank_two, repair=True)
        assert calls == ["eigh"]  # the counter sees the repair route


class TestKronChain:
    def test_component_order(self):
        # component 0 least significant: kron(Z, X) places X on component 0
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1, -1]).astype(complex)
        np.testing.assert_allclose(kron_chain([x, z]), np.kron(z, x), atol=0)
