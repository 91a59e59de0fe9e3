"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two sub-checks are marked as strict expected failures (xfail): they
compare exact results against three-decimal reference constants whose
truncation error exceeds the stated strict tolerance, and against an operator
identity between the two parity permutations that does not hold.  Both are
re-asserted in attainable form right next to them (display-precision
constants, and each parity identity separately); see the package README.
"""

import itertools

import numpy as np
import pytest

import ginisafe as gs
from ginisafe import quantum, reference
from ginisafe.eta import MODES
from ginisafe.markov import code_count
from oracles import componentwise_parity, parity_matrix


def announce(num: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


def region_pairs(rng, count):
    """Seeded (a, b) pairs with 0 < 2a < b < 1/2."""
    pairs = []
    for _ in range(count):
        b = float(rng.uniform(0.05, 0.5))
        a = float(rng.uniform(0.0, b / 2))
        pairs.append((a, b))
    return pairs


def amplitude_settings(rng, count):
    """Seeded moduli-squared and phased amplitudes for the two-qubit states."""
    settings = []
    for _ in range(count):
        a2 = float(rng.uniform(0.05, 0.45))
        e2, d2, c2 = np.sort(rng.dirichlet(np.ones(3)))
        phases = np.exp(2j * np.pi * rng.random(5))
        settings.append(
            {
                "a": np.sqrt(a2) * phases[0],
                "b": np.sqrt(1 - a2) * phases[1],
                "c": np.sqrt(c2) * phases[2],
                "d": np.sqrt(d2) * phases[3],
                "e": np.sqrt(e2) * phases[4],
                "a2": a2,
                "c2": float(c2),
                "d2": float(d2),
                "e2": float(e2),
            }
        )
    return settings


def test_criterion_01_uniform_push_forward_exactness():
    q = reference.demo_matrix(0.5, 0.5)
    pushed = gs.push_forward(gs.uniform_vector(3), q)
    ok = (
        np.abs(pushed - np.array([1 / 6, 1 / 2, 1 / 3])).max() <= 1e-12
        and abs(gs.gini_index(pushed) - 1 / 6) <= 1e-12
        and np.abs(gs.lorenz_values(pushed) - np.array([1 / 6, 1 / 2, 1.0])).max() <= 1e-12
    )
    announce(1, "uniform vector through the banded demo matrix (values, Gini, Lorenz)", ok)


def test_criterion_02_independent_expansion_table():
    rng = np.random.default_rng(2)
    ok = True
    for a, b in region_pairs(rng, 5):
        weights = gs.product_probabilities(reference.demo_matrix(a, b))
        tensor = reference.demo_correlated_tensor(a, b)
        coeffs = gs.correlation_coefficients(tensor)
        support = set()
        for row in reference.demo_table_rows(a, b):
            code = row["code"]
            support.add(code)
            ok &= abs(weights[code] - row["product_probability"]) <= 1e-12
            ok &= abs(tensor[code] - row["joint_probability"]) <= 1e-12
            ok &= abs(coeffs[code] - row["correlation"]) <= 1e-12
        off_support = [weights[c] for c in range(27) if c not in support]
        ok &= len(off_support) == 19 and max(off_support) == 0.0
    announce(2, "demo expansion table: 8 support rows and 19 vanishing weights", ok)


def test_criterion_03_self_overlap_closed_form():
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        a, b = rng.random(2)
        q = reference.demo_matrix(a, b)
        ok &= abs(gs.scalar_product(q, q) - reference.demo_self_overlap(a, b)) <= 1e-12
    q_half = reference.demo_matrix(0.5, 0.5)
    ok &= abs(gs.scalar_product(q_half, q_half) - 0.125) <= 1e-12
    announce(3, "scalar-product closed form for the demo matrix (20 seeded points)", ok)


def test_criterion_04_expansion_reconstruction():
    rng = np.random.default_rng(4)
    ok = True
    for trial in range(200):
        d = (2, 3, 4)[trial % 3]
        rows = rng.random((d, d))
        q = rows / rows.sum(axis=1, keepdims=True)
        weights = gs.product_probabilities(q)
        ok &= abs(weights.sum() - 1.0) <= 1e-12
        ok &= np.abs(gs.tensor_to_matrix(weights) - q).max() <= 1e-12
    announce(4, "expansion reconstruction and normalization on 200 random matrices", ok)


def test_criterion_05_tensor_route_equivalence_and_oracle():
    rng = np.random.default_rng(5)
    ok = True
    for trial in range(100):
        d = (2, 3, 4)[trial % 3]
        rows_q = rng.random((d, d))
        rows_p = rng.random((d, d))
        q = rows_q / rows_q.sum(axis=1, keepdims=True)
        p = rows_p / rows_p.sum(axis=1, keepdims=True)
        direct = gs.scalar_product(q, p)
        via = gs.scalar_product_via_tensors(
            gs.product_probabilities(q), gs.product_probabilities(p)
        )
        ok &= abs(direct - via) <= 1e-12
        if d <= 3:
            brute = 0.0
            for f in itertools.product(range(d), repeat=d):
                for g in itertools.product(range(d), repeat=d):
                    if f != g:
                        continue
                    term = 1.0
                    for i in range(d):
                        term *= q[i, f[i]] * p[i, g[i]]
                    brute += term
            ok &= abs(direct - brute) <= 1e-12
    announce(5, "tensor-route scalar product equals direct route and brute-force oracle", ok)


def test_criterion_06_gini_formula_equivalence_and_bounds():
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(1000):
        d = 2 + trial % 7
        x = rng.random(d)
        x /= x.sum()
        g = gs.gini_index(x)
        ok &= abs(g - gs.gini_mean_abs_diff(x)) <= 1e-12
        ok &= -1e-15 <= g <= (d - 1) / (d + 1) + 1e-15
        lv = gs.lorenz_values(x)
        ok &= np.all(lv >= -1e-15) and np.all(lv <= np.arange(1, d + 1) / d + 1e-12)
    announce(6, "two Gini routes agree on 1000 random vectors; bounds never violated", ok)


def test_criterion_07_local_and_total_gini_closed_forms():
    rng = np.random.default_rng(7)
    ok = True
    for a, b in region_pairs(rng, 5):
        gv = gs.local_gini_vector(reference.demo_matrix(a, b))
        ok &= np.abs(gv - reference.demo_gini_vector(a, b)).max() <= 1e-12
        total = gs.total_gini(reference.demo_correlated_tensor(a, b))
        ok &= abs(total - reference.demo_total_gini(a, b)) <= 1e-12
    announce(7, "local Gini vector and total Gini closed forms (5 seeded points)", ok)


def overlap(rho, sigma) -> float:
    """The state overlap (q_rho, q_sigma): the scalar product of the two Markov matrices."""
    return gs.scalar_product(gs.state_stats(rho).markov, gs.state_stats(sigma).markov)


def test_criterion_08_two_qubit_worked_example():
    rng = np.random.default_rng(8)
    ok = True
    for setting in amplitude_settings(rng, 20):
        rho = quantum.pure_density(reference.pair_state(setting["a"], setting["b"]))
        sig = quantum.pure_density(
            reference.triple_state(setting["c"], setting["d"], setting["e"])
        )
        stats_rho = gs.state_stats(rho)
        stats_sig = gs.state_stats(sig)
        expected_rho = reference.pair_expected(setting["a2"])
        expected_sig = reference.triple_expected(
            setting["c2"], setting["d2"], setting["e2"]
        )
        for stats, expected in ((stats_rho, expected_rho), (stats_sig, expected_sig)):
            ok &= np.abs(stats.markov - expected["markov"]).max() <= 1e-12
            # the 12 table entries per state: joint, product, correlation per map
            ok &= np.abs(stats.tensor - expected["tensor"]).max() <= 1e-12
            ok &= np.abs(stats.products - expected["products"]).max() <= 1e-12
            ok &= np.abs(stats.correlations - expected["correlations"]).max() <= 1e-12
            ok &= np.abs(stats.gini_vector - expected["gini_vector"]).max() <= 1e-12
            ok &= abs(stats.total_gini - expected["total_gini"]) <= 1e-12
        ok &= (
            abs(overlap(rho, rho) - expected_rho["self_overlap"]) <= 1e-12
        )
        ok &= (
            abs(overlap(sig, sig) - expected_sig["self_overlap"]) <= 1e-12
        )
        ok &= (
            abs(
                overlap(rho, sig)
                - reference.pair_triple_overlap(
                    setting["a2"], setting["c2"], setting["d2"], setting["e2"]
                )
            )
            <= 1e-12
        )
    balanced = quantum.pure_density(reference.pair_state(np.sqrt(0.5), np.sqrt(0.5)))
    ok &= abs(overlap(balanced, balanced) - 0.25) <= 1e-12
    thirds = quantum.pure_density(
        reference.triple_state(*(np.sqrt(1 / 3),) * 3)
    )
    ok &= abs(overlap(thirds, thirds) - 25 / 81) <= 1e-12
    announce(8, "two-qubit worked example: matrices, table entries, Ginis, overlaps", ok)


def test_criterion_09_globally_dual_mixture_exact():
    stats = gs.state_stats(gs.dual_state(reference.tripartite_mixed_state(), "global"))
    ok = (
        np.abs(stats.markov - 1 / 3).max() <= 1e-12
        and np.abs(stats.gini_vector).max() <= 1e-12
        and abs(stats.total_gini) <= 1e-12
    )
    announce(9, "tripartite mixture: globally dual statistics exactly uniform", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the three-decimal reference constants are truncated displays whose "
    "third matrix column is a row-sum complement; their error reaches 1.2e-3, "
    "so the 5e-4 comparison cannot hold (see notes and the display-precision test)",
)
def test_criterion_09_globally_dual_pure_vs_reported_strict():
    stats = gs.state_stats(
        gs.dual_state(quantum.pure_density(reference.tripartite_pure_state()), "global")
    )
    ok = (
        np.abs(stats.markov - reference.REPORTED_DUAL_MARKOV).max() <= 5e-4
        and np.abs(stats.gini_vector - reference.REPORTED_DUAL_GINI_VECTOR).max() <= 5e-4
        and abs(stats.total_gini - reference.REPORTED_DUAL_TOTAL_GINI) <= 5e-4
    )
    announce(9, "tripartite pure state vs reported constants at strict 5e-4", ok)


def test_criterion_09_globally_dual_pure_at_display_precision():
    stats = gs.state_stats(
        gs.dual_state(quantum.pure_density(reference.tripartite_pure_state()), "global")
    )
    tol = reference.DISPLAY_TOL
    ok = (
        np.abs(stats.markov - reference.REPORTED_DUAL_MARKOV).max() <= tol
        and np.abs(stats.gini_vector - reference.REPORTED_DUAL_GINI_VECTOR).max() <= tol
        and abs(stats.total_gini - reference.REPORTED_DUAL_TOTAL_GINI) <= tol
    )
    # and the exact values against the frozen full-precision reference
    ok &= np.abs(stats.markov - reference.TRIPARTITE_DUAL_MARKOV).max() <= 1e-12
    ok &= (
        np.abs(stats.gini_vector - reference.TRIPARTITE_DUAL_GINI_VECTOR).max() <= 1e-12
    )
    ok &= abs(stats.total_gini - reference.TRIPARTITE_DUAL_TOTAL_GINI) <= 1e-12
    announce(
        9,
        "tripartite pure state: reported constants at display precision, "
        "frozen full-precision values at 1e-12",
        ok,
    )


def transform(d: int, mode: str) -> np.ndarray:
    """The matrix F of a transform, read off the layer every verb runs: F = (F† 1)†."""
    return gs.apply_dual(np.eye(quantum.admit_transform(d, mode)[1]), d, mode).conj().T


def test_criterion_10_fourier_structure():
    ok = True
    for d in (2, 3):
        dim = d**d
        for mode, n in (("single", d), ("local", dim), ("global", dim)):
            u = transform(d, mode)
            ok &= np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-10
            ok &= np.abs(np.linalg.matrix_power(u, 4) - np.eye(n)).max() <= 1e-10
        fl, fg = transform(d, "local"), transform(d, "global")
        ok &= np.abs(np.abs(fg) ** 2 - 1.0 / dim).max() <= 1e-10
        ok &= np.abs(fl @ fl - componentwise_parity(d)).max() <= 1e-10
        ok &= np.abs(fg @ fg - parity_matrix(dim)).max() <= 1e-10
    ok &= gs.FunctionMap((2, 1, 2)).code == 23
    ok &= gs.FunctionMap((1, 1, 0)).code == 4
    ok &= (23 * 4) % code_count(3) == 11
    announce(10, "Fourier structure: unitarity, fourth power, magnitudes, codec, parities", ok)


@pytest.mark.xfail(
    strict=True,
    reason="the squared local transform is the componentwise parity permutation "
    "while the squared global transform negates the flat index mod d**d; "
    "negation carries across digits, so the two permutations differ (already "
    "for qubits, where the componentwise parity is the identity)",
)
def test_criterion_10_parity_identity_as_stated():
    ok = True
    for d in (2, 3):
        fl, fg = transform(d, "local"), transform(d, "global")
        ok &= np.abs(fg @ fg - fl @ fl).max() <= 1e-10
    announce(10, "squared global transform equals squared local transform", ok)


def test_criterion_11_monte_carlo_consistency():
    q = reference.demo_matrix(0.5, 0.5)
    spec = gs.EnsembleSpec.independent(q)
    est = gs.collision_probability_mc(spec, spec, 1_000_000, gs.make_rng(0))
    ok = abs(est.value - 0.125) <= 4 * est.stderr

    a, b = 0.1, 0.4
    tensor = reference.demo_correlated_tensor(a, b)
    emp = gs.empirical_tensor(gs.EnsembleSpec.correlated(tensor), 1_000_000, gs.make_rng(0))
    for images, weight in (((0, 1, 2), a), ((1, 2, 2), b - a), ((1, 2, 1), 1 - b)):
        code = gs.FunctionMap(images).code
        stderr = np.sqrt(weight * (1 - weight) / 1_000_000)
        ok &= abs(emp[code] - weight) <= 4 * stderr
    announce(11, "seeded Monte Carlo recovers collision probability and joint weights", ok)


def test_criterion_12_uncertainty_positivity_and_search_behavior():
    ok = True
    for d in (2, 3):
        for mode in MODES:
            ok &= gs.deficit_sweep(d, mode, n=10_000, seed=0) > 0.0

    first = gs.estimate_eta(2, "single", budget=300, seed=12)
    second = gs.estimate_eta(2, "single", budget=300, seed=12)
    ok &= first.best_sum == second.best_sum
    ok &= first.evaluations == second.evaluations
    ok &= bool(np.array_equal(first.best_state, second.best_state))

    sums = [gs.estimate_eta(2, "single", budget=n, seed=12).best_sum for n in (30, 120, 300)]
    ok &= sums[0] <= sums[1] <= sums[2]

    rng = np.random.default_rng(12)
    for _ in range(100):
        rho1 = quantum.pure_density(
            (lambda z: z / np.linalg.norm(z))(
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
            )
        )
        rho2 = quantum.pure_density(
            (lambda z: z / np.linalg.norm(z))(
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
            )
        )
        lam = float(rng.uniform(0.05, 0.95))
        mixed = lam * rho1 + (1 - lam) * rho2
        endpoint = min(gs.uncertainty_deficits(rho1).global_total, gs.uncertainty_deficits(rho2).global_total)
        ok &= gs.uncertainty_deficits(mixed).global_total >= endpoint - 1e-10
    announce(12, "deficits strictly positive over 10k-state sweeps; search deterministic, "
                 "monotone in budget, maximal on pure states", ok)


def test_criterion_13_blindness_and_global_sensitivity():
    rng = np.random.default_rng(13)
    ok = True
    sensitive_instances = 0
    for _ in range(20):
        d = 3
        dim = d**d
        code_f, code_g = rng.choice(dim, size=2, replace=False)
        f = gs.FunctionMap.from_code(int(code_f), d)
        g = gs.FunctionMap.from_code(int(code_g), d)
        a2 = float(rng.uniform(0.1, 0.9))
        a = np.sqrt(a2) * np.exp(2j * np.pi * rng.random())
        b = np.sqrt(1 - a2)
        mixed = a2 * quantum.pure_density(gs.basis_state(f)) + (1 - a2) * quantum.pure_density(
            gs.basis_state(g)
        )
        superposed = quantum.pure_density(a * gs.basis_state(f) + b * gs.basis_state(g))
        plain_mixed = gs.state_stats(mixed)
        plain_superposed = gs.state_stats(superposed)
        ok &= np.abs(plain_mixed.tensor - plain_superposed.tensor).max() <= 1e-12
        ok &= np.abs(plain_mixed.markov - plain_superposed.markov).max() <= 1e-12
        dual_mixed = gs.state_stats(gs.dual_state(mixed, "global"))
        dual_superposed = gs.state_stats(gs.dual_state(superposed, "global"))
        if np.abs(dual_mixed.tensor - dual_superposed.tensor).max() > 1e-6:
            sensitive_instances += 1
    ok &= sensitive_instances >= 1
    announce(13, "plain statistics blind to off-diagonals; global duals sensitive "
                 f"({sensitive_instances}/20 instances)", ok)
