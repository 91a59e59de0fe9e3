"""Tests for the uncertainty-coefficient search and deficit sweeps."""

import numpy as np
import pytest

from conftest import random_complex_unit
from ginisafe import (
    DimensionTooLargeError,
    ValidationError,
    apply_dual,
    certain_vector,
    deficit,
    deficit_sweep,
    estimate_eta,
    function_table,
    gini_index,
    gini_sum,
    gini_sum_cap,
    pure_density,
    random_pure_state,
    shard_rng,
    tensor_to_matrix,
)
from ginisafe.eta import _TRANSFORM, MODES, REFINE_STEP_TOL, _nelder_mead, state_space_dim


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


def argsort_nelder_mead(fn, x0, max_evals, step=0.1):
    """The simplex descent that re-sorts every step with a stable argsort: the oracle."""
    n = x0.size
    used = 0

    def call(x):
        nonlocal used
        used += 1
        return fn(x)

    if max_evals < 1:
        return 0
    verts = [x0.copy()]
    fvals = [call(x0)]
    for i in range(n):
        if used >= max_evals:
            return used
        v = x0.copy()
        v[i] += step
        verts.append(v)
        fvals.append(call(v))
    verts = np.array(verts)
    fvals = np.array(fvals)

    while used < max_evals:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        spread = np.abs(verts[1:] - verts[0]).max()
        if spread < REFINE_STEP_TOL:
            break
        centroid = verts[:-1].mean(axis=0)
        reflected = centroid + (centroid - verts[-1])
        f_r = call(reflected)
        if f_r < fvals[0] and used < max_evals:
            expanded = centroid + 2.0 * (centroid - verts[-1])
            f_e = call(expanded)
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
            continue
        if f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
            continue
        if used >= max_evals:
            break
        contracted = centroid + 0.5 * (verts[-1] - centroid)
        f_c = call(contracted)
        if f_c < fvals[-1]:
            verts[-1], fvals[-1] = contracted, f_c
            continue
        for i in range(1, len(verts)):
            if used >= max_evals:
                break
            verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
            fvals[i] = call(verts[i])
    return used


def oracle_search(d, mode, budget, seed=0, initial_states=None):
    """(best_sum, evaluations, best_state) of the search through the checked
    gini_sum and the argsort descent."""
    dim = state_space_dim(d, mode)
    best = {"sum": -np.inf, "state": None, "evaluations": 0}

    def objective(z):
        best["evaluations"] += 1
        psi = z[:dim] + 1j * z[dim:]
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            return 1.0
        psi = psi / norm
        s = gini_sum(psi, d, mode)
        if s > best["sum"]:
            best["sum"], best["state"] = s, psi
        return -s

    starts = [np.asarray(g, dtype=complex) for g in initial_states or []]
    starts = [psi / np.linalg.norm(psi) for psi in starts]
    k = 0
    while best["evaluations"] < budget:
        if starts:
            psi0 = starts.pop(0)
        else:
            psi0 = random_pure_state(dim, shard_rng(seed, k))
            k += 1
        x0 = np.concatenate([psi0.real, psi0.imag])
        argsort_nelder_mead(objective, x0, budget - best["evaluations"])
    return best["sum"], best["evaluations"], best["state"]


SEARCH_GRID = (
    [(d, mode, {2: 500, 3: 400, 4: 600}[d]) for d in (2, 3, 4) for mode in MODES]
    + [(5, mode, 300 if mode == "single" else 30) for mode in MODES]
    + [(7, "single", 800), (64, "single", 800)]
)


class TestSearchBitIdentity:
    # the lean objective and the incremental simplex ordering must give the
    # bits of the checked gini_sum and the argsort descent, on any numpy

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d, mode, budget", SEARCH_GRID)
    def test_matches_oracle(self, d, mode, budget, seed):
        est = estimate_eta(d, mode, budget, seed=seed)
        best_sum, evaluations, best_state = oracle_search(d, mode, budget, seed=seed)
        assert (est.best_sum, est.evaluations) == (best_sum, evaluations)
        assert est.best_state.tobytes() == best_state.tobytes()

    @pytest.mark.parametrize("d, mode", [(2, "single"), (3, "global_component"), (3, "local_total")])
    def test_initial_states_match_oracle(self, d, mode):
        rng = np.random.default_rng(d)
        dim = state_space_dim(d, mode)
        given = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2)]
        given.append(np.eye(dim)[0])  # a basis state: zeros in the simplex coordinates
        est = estimate_eta(d, mode, 400, seed=3, initial_states=given)
        best_sum, evaluations, best_state = oracle_search(d, mode, 400, seed=3, initial_states=given)
        assert (est.best_sum, est.evaluations) == (best_sum, evaluations)
        assert est.best_state.tobytes() == best_state.tobytes()

    @pytest.mark.parametrize("n, budget", [(4, 500), (9, 800), (16, 1200)])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_ties_and_nan_follow_the_argsort_order(self, n, budget, with_nan):
        # rounding to one decimal puts many vertices on equal values, so the
        # insertion point of a new vertex and the shrink steps both matter;
        # NaN values take the argsort fallback
        def logged(calls):
            def fn(x):
                value = round(float(np.sin(3 * x).sum() + 0.2 * (x @ x)), 1)
                if with_nan and int(20 * np.abs(x).sum()) % 7 == 0:
                    value = float("nan")  # scattered shells of NaN
                calls.append((x.tobytes(), repr(value)))  # repr: nan == nan
                return value

            return fn

        x0 = np.random.default_rng(n).uniform(-0.5, 0.5, n)
        got, want = [], []
        used = _nelder_mead(logged(got), x0, budget)
        assert used == argsort_nelder_mead(logged(want), x0, budget)
        assert got == want
        values = [v for _, v in want]
        assert len(set(values)) < len(values) // 4  # the run really had ties
        assert ("nan" in values) == with_nan

    def test_nan_majority_takes_the_argsort(self):
        # all but one initial vertex read NaN, so a better reflected point is
        # placed among the remaining values ahead of the NaN ones
        def logged(calls):
            def fn(x):
                value = float("nan") if x.max() > 0.07 else float(x @ [-1.0, -1.0, -1.0, 1.0])
                calls.append((x.tobytes(), repr(value)))
                return value

            return fn

        got, want = [], []
        used = _nelder_mead(logged(got), np.zeros(4), 200)
        assert used == argsort_nelder_mead(logged(want), np.zeros(4), 200)
        assert got == want
        assert [v for _, v in want[:5]] == ["0.0", "nan", "nan", "nan", "nan"]


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


def sorted_rows_oracle(p):
    """The sorted-rows Gini formula that selected the eta certificates, kept verbatim."""
    p = np.sort(p, axis=1)
    k = p.shape[1]
    weights = np.arange(k, 0, -1, dtype=float)
    return 1.0 - (2.0 / (k + 1)) * (p @ weights)


class TestGiniKernelBits:
    # estimate_eta keeps a state when its Gini sum is larger, so the bits of
    # the kernel on the shapes eta passes decide the best_state certificates

    @pytest.mark.parametrize("d, mode", [(2, "single"), (5, "single"), (3, "global_total"), (5, "local_total")])
    def test_vectors(self, d, mode):
        rng = np.random.default_rng(d)
        for _ in range(100):
            psi = random_complex_unit(rng, state_space_dim(d, mode))
            for p in (np.abs(psi) ** 2, np.abs(apply_dual(psi, d, _TRANSFORM[mode])) ** 2):
                assert gini_index(p) == float(sorted_rows_oracle(p[None, :])[0])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_marginal_matrices(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(50):
            psi = random_complex_unit(rng, d**d)
            for p in (np.abs(psi) ** 2, np.abs(apply_dual(psi, d, "global")) ** 2):
                q = tensor_to_matrix(p)
                np.testing.assert_array_equal(gini_index(q), sorted_rows_oracle(q))

    @pytest.mark.parametrize("d, mode", [(3, "single"), (3, "global_component"), (4, "global_total")])
    def test_batches(self, d, mode):
        rng = np.random.default_rng(20 + d)
        dim = state_space_dim(d, mode)
        z = rng.standard_normal((300, dim)) + 1j * rng.standard_normal((300, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        p = np.abs(apply_dual(z.T, d, _TRANSFORM[mode]).T) ** 2
        if mode == "global_component":
            p = p @ np.equal.outer(function_table(d)[:, 1], np.arange(d)).astype(float)
        np.testing.assert_array_equal(gini_index(p), sorted_rows_oracle(p))


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
