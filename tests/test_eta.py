"""Tests for the uncertainty-coefficient search and deficit sweeps."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_complex_unit
from ginisafe import (
    DimensionTooLargeError,
    GiniSafeError,
    NotNormalizedError,
    ValidationError,
    apply_dual,
    deficit_sweep,
    estimate_eta,
    function_table,
    gini_index,
    make_rng,
    pure_density,
    random_pure_state,
    shard_rng,
    tensor_to_matrix,
    uncertainty_deficits,
)
from ginisafe.ensembles import MAX_SAMPLES
from ginisafe.eta import (
    _EVAL_COST,
    _SWEEP_BLOCK,
    _TRANSFORM,
    MODES,
    REFINE_STEP_TOL,
    SEARCH_COST,
    _admit_search,
    _max_budget,
    _nelder_mead,
    _pure_gini_sum,
)
from ginisafe.quantum import admit_transform


def scalar_sweep(d, mode, n, seed):
    """Smallest per-state deficit over the states deficit_sweep draws."""
    dim = admit_transform(d, _TRANSFORM[mode])[1]
    rng = make_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    evaluate = _pure_gini_sum(d, mode)
    return min(_admit_search(d, mode)[2] - evaluate(psi) for psi in z)


class TestGiniSum:
    def test_caps(self):
        assert _admit_search(2, "single")[2] == pytest.approx(2 / 3)
        assert _admit_search(2, "local_total")[2] == pytest.approx(2 * 3 / 5)
        assert _admit_search(3, "global_component")[2] == pytest.approx(1.0)
        assert _admit_search(3, "global_total")[2] == pytest.approx(2 * 26 / 28)

    def test_basis_state_single(self):
        # certain position vector and flat dual vector
        psi = np.eye(2, dtype=complex)[0]
        evaluate = _pure_gini_sum(2, "single")
        assert evaluate(psi) == pytest.approx(1 / 3, abs=1e-12)
        assert _admit_search(2, "single")[2] - evaluate(psi) == pytest.approx(1 / 3, abs=1e-12)

    def test_basis_state_local_total(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        # total gini is maximal, locally dual total gini is 0
        assert _pure_gini_sum(2, "local_total")(psi) == pytest.approx(3 / 5, abs=1e-12)

    def test_pure_and_density_paths_agree(self):
        # a pure state's deficits from its amplitudes and from its density's diagonals
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for _ in range(5):
                psi = random_complex_unit(rng, d**d)
                deficits = uncertainty_deficits(pure_density(psi))
                for mode, want in (
                    ("local_total", deficits.local_total),
                    ("global_total", deficits.global_total),
                    ("global_component", deficits.global_components.min()),
                ):
                    assert _admit_search(d, mode)[2] - _pure_gini_sum(d, mode)(psi) == pytest.approx(want, abs=1e-11)

    def test_bounded_by_cap(self):
        rng = np.random.default_rng(1)
        for mode in MODES:
            cap, evaluate = _admit_search(2, mode)[2], _pure_gini_sum(2, mode)
            dim = 2 if mode == "single" else 4
            for _ in range(50):
                assert evaluate(random_complex_unit(rng, dim)) <= cap

    @pytest.mark.parametrize("mode", MODES)
    def test_an_unnormalized_vector_is_rejected_as_its_density_is(self, mode):
        psi = np.zeros(2 if mode == "single" else 4, dtype=complex)
        psi[0] = 2.0
        # the unchecked evaluator reads a sum below 0, a deficit above the cap
        # (-4.67 against a cap of 0.667 at d = 2, single), so the vector must
        # be admitted through its density, which rejects it
        assert _pure_gini_sum(2, mode)(psi) < 0 < _admit_search(2, mode)[2]
        with pytest.raises(NotNormalizedError):
            uncertainty_deficits(pure_density(np.eye(4)[0] * 2.0))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_the_argument_is_left_unchanged(self, mode, shape):
        # the Gini kernel sorts in place, so the evaluator must hand it fresh arrays
        dim = admit_transform(3, _TRANSFORM[mode])[1]
        rng = np.random.default_rng(7)
        z = rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        before = z.copy()
        _pure_gini_sum(3, mode)(z)
        np.testing.assert_array_equal(z, before)

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            _admit_search(2, "sideways")[2]
        with pytest.raises(DimensionTooLargeError):
            _admit_search(6, "global_total")[2]


class TestEstimateEta:
    def test_budget_one_with_seed_state(self):
        # one evaluation, at the first start the seed draws
        psi0 = random_pure_state(2, shard_rng(0, 0))
        est = estimate_eta(2, "single", budget=1, seed=0)
        assert est.evaluations == 1
        assert est.best_sum == pytest.approx(_pure_gini_sum(2, "single")(psi0), abs=1e-12)
        assert est.eta_upper == pytest.approx(_admit_search(2, "single")[2] - est.best_sum, abs=1e-15)
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
        assert _pure_gini_sum(2, "single")(est.best_state) == pytest.approx(est.best_sum, abs=1e-12)

    def test_eta_upper_is_an_upper_bound_up_to_rounding(self):
        # the qubit supremum is sqrt(2)/3 exactly; this search lands 3.9e-16 above it,
        # so its eta_upper is 4.4e-16 below the true (2 - sqrt(2))/3
        est = estimate_eta(2, "single", 5000, seed=0)
        assert est.best_sum <= math.sqrt(2) / 3 + 1e-15
        assert est.eta_upper >= (2 - math.sqrt(2)) / 3 - 1e-15

    def test_respects_budget(self):
        est = estimate_eta(2, "global_total", budget=37, seed=0)
        assert est.evaluations <= 37

    def test_counts_the_evaluations_each_descent_reports(self, monkeypatch):
        # a descent that spends its whole share in one call: the search takes
        # the descent's count, so one start uses up the budget
        starts = []

        def one_call(fn, x0, max_evals):
            starts.append(max_evals)
            fn(x0)
            return max_evals

        monkeypatch.setattr("ginisafe.eta._nelder_mead", one_call)
        est = estimate_eta(2, "single", budget=50, seed=0)
        assert starts == [50]
        assert est.evaluations == 50

    def test_cap_never_exceeded(self):
        for mode in MODES:
            est = estimate_eta(2, mode, budget=150, seed=5)
            assert est.best_sum <= _admit_search(2, mode)[2] + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            estimate_eta(2, "single", budget=0)
        with pytest.raises(DimensionTooLargeError):
            estimate_eta(6, "global_total", budget=10)

    @pytest.mark.parametrize("budget", [2.5, 3.0, True, "5", None])
    def test_rejects_a_budget_that_is_no_integer(self, budget):
        # budget=2.5 ran 3 evaluations and budget=True one
        with pytest.raises(ValidationError, match=r"^budget must be an integer in \[1, 49627\], got"):
            estimate_eta(2, "single", budget=budget)

    def test_accepts_a_numpy_integer_budget(self):
        est = estimate_eta(2, "single", budget=np.int64(40), seed=1)
        assert est.evaluations == 40
        assert est.best_sum == estimate_eta(2, "single", budget=40, seed=1).best_sum

    #: A search at the largest admitted budget ends within this many seconds.  On a
    #: 2-core x86-64 host it took 0.6 s at d = 2 in single mode, 1.2-1.3 s at d = 2 in
    #: global_component mode (the slowest mode at d <= 5) and 0.4-0.5 s at d = 5; the
    #: slowest search at any cap, d = 2234 in single mode, took 1.6-2.0 s.
    SEARCH_SECONDS = 10

    @pytest.mark.parametrize("d, mode", [(2, "single"), (2, "global_component"), (5, "global_total")])
    def test_the_largest_admitted_budget_ends_in_seconds(self, d, mode):
        # the amplitude cap alone admitted 5,000,000 evaluations at d = 2, about 100 s
        cap = _max_budget(admit_transform(d, _TRANSFORM[mode])[1])
        with pytest.raises(DimensionTooLargeError, match=rf"^budget = {cap + 1} outside \[1, {cap}\]$"):
            estimate_eta(d, mode, cap + 1)
        start = time.perf_counter()
        assert estimate_eta(d, mode, cap, seed=0).evaluations == cap
        assert time.perf_counter() - start < self.SEARCH_SECONDS

    #: The largest admitted budgets; a cheaper evaluator must not move an ``eta`` exit code.
    MAX_BUDGETS = {
        (2, "single"): 49627, (2, "local_total"): 48780, (2, "global_component"): 48780, (2, "global_total"): 48780,
        (3, "single"): 49261, (3, "local_total"): 25732, (3, "global_component"): 25732, (3, "global_total"): 25732,
        (4, "single"): 48780, (4, "local_total"): 1105, (4, "global_component"): 1105, (4, "global_total"): 1105,
        (5, "single"): 48193, (5, "local_total"): 3200, (5, "global_component"): 3200, (5, "global_total"): 3200,
        (2234, "single"): 4474, (2235, "single"): 4474,
    }

    def test_every_search_cap_is_pinned(self):
        got = {(d, mode): _max_budget(admit_transform(d, _TRANSFORM[mode])[1]) for d, mode in self.MAX_BUDGETS}
        assert got == self.MAX_BUDGETS

    def test_the_cost_of_evaluations_alone_never_binds(self):
        # the cap with its third term, SEARCH_COST // per_eval, which no admitted dim reaches
        def three_terms(dim):
            per_eval, simplex = _EVAL_COST + dim, 2 * dim + 1
            past_simplex = (SEARCH_COST - simplex * per_eval) // (per_eval + dim * dim)
            return min(SEARCH_COST // per_eval, simplex + past_simplex, MAX_SAMPLES // dim)

        dims = range(1, 5**5 + 1)
        assert [_max_budget(dim) for dim in dims] == [three_terms(dim) for dim in dims]

    def test_the_default_and_benchmark_budgets_are_admitted(self):
        # the CLI's default budget at every d, and the budgets of perfbench's eta_search workload
        assert min(map(_max_budget, range(2, 5**5 + 1))) >= 1000
        for d, mode, budget in [(2, "single", 1000), (3, "local_total", 400), (3, "global_total", 400),
                                (3, "global_component", 400), (4, "global_total", 20)]:
            assert budget <= _max_budget(admit_transform(d, _TRANSFORM[mode])[1])

    @pytest.mark.parametrize("d, mode", [(5, "local_total"), (5, "global_component")])
    def test_admits_the_budget_against_the_amplitude_cap(self, d, mode):
        # the budget was uncapped: a budget of 3201 at d = 5 ran, with a peak of 188 MB,
        # and one of 2**63 never returned
        dim = admit_transform(d, _TRANSFORM[mode])[1]
        tracemalloc.start()
        try:
            for budget in (MAX_SAMPLES // dim + 1, 2**63):
                with pytest.raises(DimensionTooLargeError, match=rf"^budget = {budget} outside \[1, {MAX_SAMPLES // dim}\]$"):
                    estimate_eta(d, mode, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


    def test_the_simplex_is_held_twice(self):
        # the vertices as a list, their np.array and each reordering's copy held a
        # single-mode simplex three times: 367 MiB for 122 MiB at d = 2000
        d = 512
        n = 2 * d
        budget = n + 1 + 75  # 75 evaluations past the initial simplex
        estimate_eta(d, "single", 1)  # first-call allocations
        tracemalloc.start()
        try:
            assert estimate_eta(d, "single", budget, seed=0).evaluations == budget
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * (n + 1) * n * 8


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


def oracle_gini_sum(psi, d, mode):
    """The mode's Gini sum of a unit vector from public pieces, not through the search's evaluator."""
    p = np.abs(psi) ** 2
    p_dual = np.abs(apply_dual(psi, d, _TRANSFORM[mode])) ** 2
    if mode == "global_component":
        return float((gini_index(tensor_to_matrix(p)) + gini_index(tensor_to_matrix(p_dual))).max())
    return gini_index(p) + gini_index(p_dual)


def oracle_search(d, mode, budget, seed=0):
    """(best_sum, evaluations, best_state) of the search through oracle_gini_sum
    and the argsort descent."""
    dim = admit_transform(d, _TRANSFORM[mode])[1]
    best = {"sum": -np.inf, "state": None, "evaluations": 0}

    def objective(z):
        best["evaluations"] += 1
        psi = z[:dim] + 1j * z[dim:]
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            return 1.0
        psi = psi / norm
        s = oracle_gini_sum(psi, d, mode)
        if s > best["sum"]:
            best["sum"], best["state"] = s, psi
        return -s

    k = 0
    while best["evaluations"] < budget:
        psi0 = random_pure_state(dim, shard_rng(seed, k))
        k += 1
        x0 = np.concatenate([psi0.real, psi0.imag])
        argsort_nelder_mead(objective, x0, budget - best["evaluations"])
    return best["sum"], best["evaluations"], best["state"]


SEARCH_GRID = (
    [(d, mode, {2: 500, 3: 400, 4: 600}[d]) for d in (2, 3, 4) for mode in MODES]
    + [(5, mode, 300 if mode == "single" else 30) for mode in MODES]
    + [(7, "single", 800), (64, "single", 800), (257, "single", 600)]  # 257: the FFT route
)


class TestSearchBitIdentity:
    # the lean objective and the incremental simplex ordering must give the
    # bits of the Gini sum from public pieces and the argsort descent, on any numpy

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])  # 7 and 11 see a reordered marginal sum that 0 and 1 miss
    @pytest.mark.parametrize("d, mode, budget", SEARCH_GRID)
    def test_matches_oracle(self, d, mode, budget, seed):
        est = estimate_eta(d, mode, budget, seed=seed)
        best_sum, evaluations, best_state = oracle_search(d, mode, budget, seed=seed)
        assert (est.best_sum, est.evaluations) == (best_sum, evaluations)
        assert est.best_state.tobytes() == best_state.tobytes()

    @pytest.mark.parametrize("d, mode", [(d, mode) for d in (2, 3, 4, 5) for mode in MODES] + [(257, "single")])
    def test_the_vector_route_matches_the_oracle(self, d, mode):
        evaluate = _pure_gini_sum(d, mode)
        rng = np.random.default_rng(d)
        for _ in range(100):
            psi = random_complex_unit(rng, admit_transform(d, _TRANSFORM[mode])[1])
            assert evaluate(psi) == oracle_gini_sum(psi, d, mode)

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

    @pytest.mark.parametrize("n", [0, -3, True, 2.5, 4.0, "10", None])
    def test_rejects_a_count_that_is_no_positive_integer(self, n):
        # n=True and n=2.5 ended in numpy TypeErrors
        with pytest.raises(ValidationError, match=r"^sample count of states of dimension 2 (must be an integer in "
                                                  r"\[1, 5000000\], got|= -?\d+ outside \[1, 5000000\]$)"):
            deficit_sweep(2, "single", n)

    @pytest.mark.parametrize("d, mode", [(2, "single"), (5, "global_total"), (5, "local_total")])
    def test_admits_the_amplitude_count_before_drawing(self, d, mode):
        dim = admit_transform(d, _TRANSFORM[mode])[1]
        tracemalloc.start()
        try:
            for n in (MAX_SAMPLES // dim + 1, 10**15):
                pattern = rf"^sample count of states of dimension {dim} = {n} outside \[1, {MAX_SAMPLES // dim}\]$"
                with pytest.raises(DimensionTooLargeError, match=pattern):
                    deficit_sweep(d, mode, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_count_cap_is_the_amplitude_cap(self):
        # 39062 states of dimension 256 hold 9,999,872 amplitudes, and one more state 10,000,128
        with pytest.raises(DimensionTooLargeError, match=r"= 39063 outside \[1, 39062\]$"):
            deficit_sweep(4, "global_total", 39063)
        assert deficit_sweep(4, "global_total", 39062, seed=0) > 0.0

    def test_numpy_integer_count(self):
        assert deficit_sweep(3, "single", np.int32(70), seed=2) == deficit_sweep(3, "single", 70, seed=2)

    def test_blocks_bound_the_peak(self):
        # the whole-batch sweep peaked at 11.7 MB here; the real parts alone take 2 MB
        deficit_sweep(4, "global_total", 10, seed=0)  # warm the transform and weight caches
        tracemalloc.start()
        try:
            deficit_sweep(4, "global_total", 1000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def batched_sweep_oracle(d, mode, n, seed):
    """The whole-batch sweep that deficit_sweep replaced, kept verbatim as its oracle."""
    dim = admit_transform(d, _TRANSFORM[mode])[1]
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    cap = _admit_search(d, mode)[2]
    rng = make_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    p = np.abs(z) ** 2
    p_dual = np.abs(apply_dual(z.T, d, _TRANSFORM[mode]).T) ** 2

    if mode in ("single", "local_total", "global_total"):
        sums = gini_index(p) + gini_index(p_dual)
    else:
        table = function_table(d)
        sums = np.full(n, -np.inf)
        for i in range(d):
            indicator = np.equal.outer(table[:, i], np.arange(d)).astype(float)
            rows = gini_index(p @ indicator) + gini_index(p_dual @ indicator)
            sums = np.maximum(sums, rows)
    deficits = cap - sums
    smallest = float(deficits.min())
    if smallest <= 0.0:
        raise GiniSafeError(
            f"non-positive uncertainty deficit {smallest}; numerical fault"
        )
    return smallest


def sweep_cases():
    for d in (2, 3, 4, 5):
        for mode in MODES:
            block = _SWEEP_BLOCK // admit_transform(d, _TRANSFORM[mode])[1]
            for n in sorted({1, block - 1, block, block + 1, 1000} - {0}):
                # the ranked marginals take another summation order than the
                # oracle's p @ indicator, and at d = 5 the local passes' zgemm
                # width follows the block
                bitwise = mode in ("single", "global_total") or (mode == "local_total" and d <= 4)
                yield d, mode, n, bitwise


class TestSweepMatchesBatchedOracle:
    @pytest.mark.parametrize("d, mode, n, bitwise", list(sweep_cases()))
    def test_blocks_match_the_whole_batch(self, d, mode, n, bitwise):
        for seed in (0, 1, 2):
            got, want = deficit_sweep(d, mode, n, seed=seed), batched_sweep_oracle(d, mode, n, seed)
            if bitwise:
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-12)


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
            psi = random_complex_unit(rng, admit_transform(d, _TRANSFORM[mode])[1])
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
        dim = admit_transform(d, _TRANSFORM[mode])[1]
        z = rng.standard_normal((300, dim)) + 1j * rng.standard_normal((300, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        p = np.abs(apply_dual(z.T, d, _TRANSFORM[mode]).T) ** 2
        if mode == "global_component":
            p = p @ np.equal.outer(function_table(d)[:, 1], np.arange(d)).astype(float)
        np.testing.assert_array_equal(gini_index(p), sorted_rows_oracle(p))


class TestConvexity:
    # a Gini sum is convex in the density, so a mixture's deficit is never
    # below the smaller deficit of its endpoints: the search may walk pure states
    @pytest.mark.parametrize("total", ["local_total", "global_total"])
    def test_mixtures_never_beat_endpoints(self, total):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho1 = pure_density(random_complex_unit(rng, 4))
            rho2 = pure_density(random_complex_unit(rng, 4))
            lam = float(rng.uniform(0.05, 0.95))
            mixed = lam * rho1 + (1 - lam) * rho2
            endpoint_least = min(getattr(uncertainty_deficits(rho), total) for rho in (rho1, rho2))
            assert getattr(uncertainty_deficits(mixed), total) >= endpoint_least - 1e-10
