"""Tests for the uncertainty-coefficient search and deficit sweeps."""

import numpy as np
import pytest

from conftest import random_complex_unit
from ginisafe import (
    DimensionTooLargeError,
    ValidationError,
    certain_vector,
    deficit,
    deficit_sweep,
    estimate_eta,
    gini_sum,
    gini_sum_cap,
    pure_density,
)
from ginisafe.eta import MODES, state_space_dim


def scalar_sweep(d, mode, n, seed):
    """Smallest per-state deficit over the states deficit_sweep draws."""
    from ginisafe import make_rng

    dim = state_space_dim(d, mode)
    rng = make_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return min(deficit(psi, d, mode) for psi in z)


class TestGiniSum:
    def test_caps(self):
        assert gini_sum_cap(2, "single") == pytest.approx(2 / 3)
        assert gini_sum_cap(2, "local_total") == pytest.approx(2 * 3 / 5)
        assert gini_sum_cap(3, "global_component") == pytest.approx(1.0)
        assert gini_sum_cap(3, "global_total") == pytest.approx(2 * 26 / 28)

    def test_basis_state_single(self):
        # certain position vector and flat dual vector
        psi = certain_vector(2).astype(complex)
        assert gini_sum(psi, 2, "single") == pytest.approx(1 / 3, abs=1e-12)
        assert deficit(psi, 2, "single") == pytest.approx(1 / 3, abs=1e-12)

    def test_basis_state_local_total(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        # total gini is maximal, locally dual total gini is 0
        assert gini_sum(psi, 2, "local_total") == pytest.approx(3 / 5, abs=1e-12)

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(0)
        for mode in MODES:
            for d in (2, 3):
                if mode == "single":
                    dim = d
                else:
                    dim = d**d
                psi = random_complex_unit(rng, dim)
                s_pure = gini_sum(psi, d, mode)
                s_dens = gini_sum(pure_density(psi), d, mode)
                assert s_pure == pytest.approx(s_dens, abs=1e-11)

    def test_bounded_by_cap(self):
        rng = np.random.default_rng(1)
        for mode in MODES:
            cap = gini_sum_cap(2, mode)
            dim = 2 if mode == "single" else 4
            for _ in range(50):
                assert gini_sum(random_complex_unit(rng, dim), 2, mode) <= cap

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            gini_sum(np.ones(2) / np.sqrt(2), 2, "sideways")
        with pytest.raises(DimensionTooLargeError):
            gini_sum_cap(6, "global_total")


class TestEstimateEta:
    def test_budget_one_with_seed_state(self):
        psi0 = certain_vector(2).astype(complex)
        est = estimate_eta(2, "single", budget=1, seed=0, initial_states=[psi0])
        assert est.evaluations == 1
        assert est.best_sum == pytest.approx(1 / 3, abs=1e-12)
        assert est.eta_upper == pytest.approx(1 / 3, abs=1e-12)
        np.testing.assert_allclose(est.best_state, psi0, atol=1e-12)

    def test_deterministic(self):
        e1 = estimate_eta(2, "single", budget=300, seed=7)
        e2 = estimate_eta(2, "single", budget=300, seed=7)
        assert e1.best_sum == e2.best_sum
        assert e1.evaluations == e2.evaluations
        np.testing.assert_array_equal(e1.best_state, e2.best_state)

    def test_monotone_in_budget(self):
        sums = [
            estimate_eta(2, "single", budget=budget, seed=3).best_sum
            for budget in (25, 100, 400)
        ]
        assert sums[0] <= sums[1] <= sums[2]

    def test_improves_on_trivial_state(self):
        est = estimate_eta(2, "single", budget=400, seed=0)
        assert est.best_sum > 1 / 3  # beats the certain state
        assert est.eta_upper < 1 / 3
        assert est.eta_upper >= 0.0  # the true coefficient is known positive

    def test_qubit_search_reaches_known_plateau(self):
        # with a modest budget the refinement lands on the sqrt(2)/3 plateau
        # of the qubit objective; one-sided so a sharper optimum still passes
        est = estimate_eta(2, "single", budget=3000, seed=0)
        assert est.best_sum >= np.sqrt(2) / 3 - 1e-6
        assert gini_sum(est.best_state, 2, "single") == pytest.approx(est.best_sum, abs=1e-12)

    def test_respects_budget(self):
        est = estimate_eta(2, "global_total", budget=37, seed=0)
        assert est.evaluations <= 37

    def test_cap_never_exceeded(self):
        for mode in MODES:
            est = estimate_eta(2, mode, budget=150, seed=5)
            assert est.best_sum <= gini_sum_cap(2, mode) + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            estimate_eta(2, "single", budget=0)
        with pytest.raises(DimensionTooLargeError):
            estimate_eta(6, "global_total", budget=10)


class TestDeficitSweep:
    @pytest.mark.parametrize("mode", MODES)
    def test_positive_for_qubits(self, mode):
        assert deficit_sweep(2, mode, n=500, seed=0) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_positive_for_qutrits(self, mode):
        assert deficit_sweep(3, mode, n=200, seed=1) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_scalar_deficits(self, mode):
        # the batched sweep must reproduce the per-state scalar route; both
        # use quantum.apply_dual, which test_quantum checks against dense F
        d, n, seed = 2, 40, 9
        assert deficit_sweep(d, mode, n=n, seed=seed) == pytest.approx(
            scalar_sweep(d, mode, n, seed), abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["local_total", "global_total"])
    def test_five_qudits(self, mode):
        # d = 5 runs on the 3125-dimensional space without a dense transform
        assert deficit_sweep(5, mode, n=50, seed=4) == pytest.approx(
            scalar_sweep(5, mode, 50, seed=4), abs=1e-12
        )

    def test_deterministic(self):
        assert deficit_sweep(2, "single", 300, seed=5) == deficit_sweep(2, "single", 300, seed=5)


class TestConvexity:
    @pytest.mark.parametrize("mode", ["single", "global_total"])
    def test_mixtures_never_beat_endpoints(self, mode):
        rng = np.random.default_rng(6)
        dim = 2 if mode == "single" else 4
        for _ in range(100):
            rho1 = pure_density(random_complex_unit(rng, dim))
            rho2 = pure_density(random_complex_unit(rng, dim))
            lam = float(rng.uniform(0.05, 0.95))
            mixed = lam * rho1 + (1 - lam) * rho2
            endpoint_best = max(gini_sum(rho1, 2, mode), gini_sum(rho2, 2, mode))
            assert gini_sum(mixed, 2, mode) <= endpoint_best + 1e-10
