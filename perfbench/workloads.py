"""The three workloads: per-session inputs, the calls, and their output checks.

A session is a fixed list of operations built from a per-session generator,
so every session of a workload does the same work on fresh inputs.  Each
operation runs the program once (``ginisafe.cli.main`` with an argv, or a
library call where no verb exists) and returns its output text; its check
recomputes the answer with the oracles below, which use numpy FFTs, digit
marginals and closed forms written here, never the program's own routes.

This module imports ginisafe and numpy, so it is imported only after the
worker has pinned the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ginisafe import cli, eta


class CheckFailed(Exception):
    """The program answered, but its output disagrees with the oracle."""


class ProgramError(Exception):
    """The program exited non-zero or raised."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], str]
    check: Callable[[str], None]
    cli: bool = False


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise ProgramError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_op(name: str, argv: list[str], check: Callable[[dict], None]) -> Op:
    return Op(name, lambda: run_cli(argv), lambda text: check(json.loads(text)), cli=True)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def close(name: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= tol:
        raise CheckFailed(f"{name}: deviates by {err:.3g} (> {tol:g})")


def digits(d: int) -> np.ndarray:
    """(d**d, d) table of little-endian base-d digits of every code."""
    codes = np.arange(d**d)
    return np.stack([(codes // d**i) % d for i in range(d)], axis=1)


def digit_marginals(t: np.ndarray, d: int) -> np.ndarray:
    """Row i holds the distribution of digit i under the joint weights t."""
    cube = np.asarray(t, dtype=float).reshape((d,) * d)
    # C order puts digit i (weight d**i) on axis d - 1 - i.
    return np.stack(
        [cube.sum(axis=tuple(a for a in range(d) if a != d - 1 - i)) for i in range(d)]
    )


def row_products(q: np.ndarray) -> np.ndarray:
    """prod_i q[i, digit_i(code)] for every code, by outer products."""
    q = np.asarray(q, dtype=float)
    out = q[-1]
    for i in range(q.shape[0] - 2, -1, -1):
        out = np.multiply.outer(out, q[i])
    return out.ravel()


def gini_mad(x) -> float:
    """Gini index as sum_{r,s} |x_r - x_s| / (2 (n + 1))."""
    x = np.asarray(x, dtype=float)
    return float(np.abs(x[:, None] - x[None, :]).sum()) / (2.0 * (x.size + 1))


def gini_mad_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise mean-absolute-difference Gini via sum |x_r - x_s| = 2 sum_k (2k - n + 1) x_(k)."""
    n = p.shape[1]
    ranks = 2.0 * np.arange(n) - n + 1.0
    return (np.sort(p, axis=1) @ ranks) / (n + 1.0)


def dual_pure(psi: np.ndarray, d: int, mode: str) -> np.ndarray:
    """F† psi: F_G† psi = fft(psi)/sqrt(N); F_L† is fftn over the d digit axes."""
    n = psi.size
    if mode == "local":
        return np.fft.fftn(psi.reshape((d,) * d)).ravel() / math.sqrt(n)
    return np.fft.fft(psi) / math.sqrt(n)


def dual_density(rho: np.ndarray, d: int, mode: str) -> np.ndarray:
    """F† rho F for the local or global transform, by FFTs."""
    n = rho.shape[0]
    if mode == "global":
        return np.fft.ifft(np.fft.fft(rho, axis=0), axis=1)
    t = rho.reshape((d,) * (2 * d))
    t = np.fft.ifftn(np.fft.fftn(t, axes=range(d)), axes=range(d, 2 * d))
    return t.reshape(n, n)


def probabilities(rho: np.ndarray) -> np.ndarray:
    p = np.clip(np.real(np.diag(rho)), 0.0, None)
    return p / p.sum()


def haar_state(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def pairs(values) -> list:
    """Complex values as the CLI's [[re, im], ...] list."""
    flat = np.ravel(values)
    return np.column_stack((flat.real, flat.imag)).tolist()


def mc_band(mean):
    """Allowed |count - mean| of a sampled count: six Poisson sigmas plus six."""
    return 6.0 * np.sqrt(mean) + 6.0


# ---------------------------------------------------------------------------
# qudit_duals
# ---------------------------------------------------------------------------

def _check_stats(out: dict, p: np.ndarray, d: int) -> None:
    tensor = np.asarray(out["tensor"], dtype=float)
    close("tensor", tensor, p, 1e-10)
    markov = np.asarray(out["markov"], dtype=float)
    close("markov", markov, digit_marginals(tensor, d), 1e-12)
    products = np.asarray(out["products"], dtype=float)
    close("products", products, row_products(markov), 1e-12)
    close("correlations", out["correlations"], tensor - products, 1e-12)
    close("gini_vector", out["gini_vector"], [gini_mad(row) for row in markov], 1e-10)
    close("total_gini", out["total_gini"], gini_mad(tensor), 1e-10)


def _check_dual(out: dict, rho: np.ndarray, d: int, mode: str) -> None:
    state = out["state"]
    n = state["dim"]
    got = np.asarray(state["entries"], dtype=float)
    got = (got[:, 0] + 1j * got[:, 1]).reshape(n, n)
    want = dual_density(rho, d, mode)
    err = float(np.abs(got - want).max())
    if not err <= 1e-10:
        raise CheckFailed(f"{mode} dual deviates from the FFT dual by {err:.3g}")
    _check_stats(out, probabilities(want), d)


def _check_deficits(out: dict, rho: np.ndarray, d: int) -> None:
    n = d**d
    cap_component = 2.0 * (d - 1) / (d + 1)
    cap_total = 2.0 * (n - 1) / (n + 1)
    plain = probabilities(rho)
    for mode in ("local", "global"):
        dual = probabilities(dual_density(rho, d, mode))
        components = cap_component - np.array(
            [gini_mad(a) + gini_mad(b) for a, b in zip(digit_marginals(plain, d), digit_marginals(dual, d))]
        )
        total = cap_total - (gini_mad(plain) + gini_mad(dual))
        close(f"{mode}_components", out[f"{mode}_components"], components, 1e-9)
        close(f"{mode}_total", out[f"{mode}_total"], total, 1e-9)
        if min(np.min(out[f"{mode}_components"]), out[f"{mode}_total"]) <= 0.0:
            raise CheckFailed(f"{mode} deficit is not positive")


#: Verb name -> (argv head, check of its output against the input density).
QUDIT_VERBS = {
    "quantum-stats": (["quantum-stats"], lambda out, rho, d: _check_stats(out, probabilities(rho), d)),
    "dual-local": (["dual", "--mode", "local"], lambda out, rho, d: _check_dual(out, rho, d, "local")),
    "dual-global": (["dual", "--mode", "global"], lambda out, rho, d: _check_dual(out, rho, d, "global")),
    "deficits": (["deficits"], _check_deficits),
}


def qudit_duals(rng: np.random.Generator, seed: int, work: Path) -> list[Op]:
    """quantum-stats, dual and deficits on pure and rank-2 states at d = 3 and 4."""
    ops = []
    for d in (3, 4):
        n = d**d
        psi = haar_state(rng, n)
        lam = rng.uniform(0.3, 0.7)
        a, b = haar_state(rng, n), haar_state(rng, n)
        mixed = lam * np.outer(a, a.conj()) + (1.0 - lam) * np.outer(b, b.conj())
        density = json.dumps({"dim": n, "entries": pairs(mixed)})
        if d == 3:
            mixed_arg = ["--state", density]
            verbs = ("quantum-stats", "dual-local", "dual-global", "deficits")
        else:
            # The 3 MB density goes through the --input read path.
            path = work / "density-d4.json"
            path.write_text(density, encoding="utf-8")
            mixed_arg = ["--input", str(path)]
            verbs = ("quantum-stats", "deficits")
        states = (
            ("pure", ["--state", json.dumps({"dim": n, "amplitudes": pairs(psi)})], np.outer(psi, psi.conj())),
            ("mixed", mixed_arg, mixed),
        )
        for label, arg, rho in states:
            for verb in verbs:
                head, check = QUDIT_VERBS[verb]
                ops.append(
                    cli_op(
                        f"{verb}-d{d}-{label}",
                        head + arg + ["--seed", str(seed)],
                        lambda out, check=check, rho=rho, d=d: check(out, rho, d),
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# eta_search
# ---------------------------------------------------------------------------

#: (d, mode, budget) of the eta calls in every session.
ETA_CALLS = (
    (2, "single", 1000),
    (3, "local_total", 400),
    (3, "global_total", 400),
    (3, "global_component", 400),
    (4, "global_total", 20),
)

#: The deficit sweep run in every session: d, mode and batch size.  The
#: oracle in ``_check_sweep`` covers the global_total mode only.
SWEEP = (4, "global_total", 1000)


def _oracle_gini_sum(psi: np.ndarray, d: int, mode: str) -> float:
    p = np.abs(psi) ** 2
    q = np.abs(dual_pure(psi, d, "local" if mode == "local_total" else "global")) ** 2
    if mode == "global_component":
        return max(
            gini_mad(a) + gini_mad(b) for a, b in zip(digit_marginals(p, d), digit_marginals(q, d))
        )
    return gini_mad(p) + gini_mad(q)


def _check_eta(out: dict, d: int, mode: str, budget: int) -> None:
    size = d if mode == "single" else d**d
    ranked = d if mode in ("single", "global_component") else d**d  # length of each ranked vector
    cap = 2.0 * (ranked - 1) / (ranked + 1)
    amps = np.asarray(out["best_state"]["amplitudes"], dtype=float)
    if amps.shape != (size, 2):
        raise CheckFailed(f"best_state has shape {amps.shape}, expected {(size, 2)}")
    psi = amps[:, 0] + 1j * amps[:, 1]
    close("best_sum", out["best_sum"], _oracle_gini_sum(psi, d, mode), 1e-9)
    if not out["best_sum"] <= cap:
        raise CheckFailed(f"best_sum {out['best_sum']} exceeds the cap {cap}")
    close("eta_upper", out["eta_upper"], cap - out["best_sum"], 1e-12)
    if not 0 < out["evaluations"] <= budget:
        raise CheckFailed(f"{out['evaluations']} evaluations for a budget of {budget}")


def _check_sweep(text: str, d: int, n: int, seed: int) -> None:
    """Oracle of a ``global_total`` sweep: regenerate the states, FFT, Gini."""
    dim = d**d
    rng = np.random.Generator(np.random.PCG64(seed))
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    p = np.abs(z) ** 2
    q = np.abs(np.fft.fft(z, axis=1) / math.sqrt(dim)) ** 2
    cap = 2.0 * (dim - 1) / (dim + 1)
    smallest = float((cap - gini_mad_rows(p) - gini_mad_rows(q)).min())
    close("sweep minimum", float(text), smallest, 1e-9)
    if not smallest > 0.0:
        raise CheckFailed("sweep minimum is not positive")


def eta_search(rng: np.random.Generator, seed: int, work: Path) -> list[Op]:
    """eta in all four modes plus one deficit_sweep batch, each on the session seed."""
    ops = []
    for d, mode, budget in ETA_CALLS:
        argv = ["eta", "--d", str(d), "--mode", mode, "--budget", str(budget), "--seed", str(seed)]
        check = lambda out, d=d, mode=mode, budget=budget: _check_eta(out, d, mode, budget)
        ops.append(cli_op(f"eta-d{d}-{mode}", argv, check))
    d, mode, n = SWEEP
    ops.append(
        Op(
            f"deficit_sweep-d{d}-{mode}",
            lambda: repr(eta.deficit_sweep(d, mode, n=n, seed=seed)),
            lambda text: _check_sweep(text, d, n, seed),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# safe_export
# ---------------------------------------------------------------------------

SAFE_D = 5
SIMULATE_N = 100_000
COLLISION_N = 100_000


def _markov(rng: np.random.Generator, d: int, support: int | None = None) -> np.ndarray:
    q = np.zeros((d, d))
    for row in q:
        cols = rng.choice(d, size=support or d, replace=False)
        row[cols] = rng.dirichlet(np.full(cols.size, 0.5))
    return q


def _check_expand(out: dict, q: np.ndarray) -> None:
    weights = np.asarray(out["weights"], dtype=float)
    close("weights", weights, row_products(q), 1e-12)
    close("weight total", weights.sum(), 1.0, 1e-9)
    terms = out["terms"]
    close("term codes", [t["code"] for t in terms], np.arange(weights.size), 0)
    close("term images", [t["images"] for t in terms], digits(q.shape[0]), 0)
    close("term weights", [t["weight"] for t in terms], weights, 0)


def _check_scalar_product(out: dict, q: np.ndarray, p: np.ndarray) -> None:
    want = math.prod(float(np.dot(a, b)) for a, b in zip(q, p))
    close("scalar product", out["value"], want, 1e-12 * max(want, 1e-300) + 1e-300)


def _check_simulate(out: dict, q: np.ndarray, n: int) -> None:
    weights = np.asarray(out["weights"], dtype=float)
    close("sample total", weights.sum(), 1.0, 1e-9)
    if out["n"] != n or out["d"] != q.shape[0]:
        raise CheckFailed("simulate echoes the wrong n or d")
    counts, means = weights * n, row_products(q) * n
    worst = float(np.max(np.abs(counts - means) - mc_band(means)))
    if worst > 0.0:
        raise CheckFailed(f"empirical tensor leaves its six-sigma band by {worst:.3g} counts")


def _check_collision(out: dict, q: np.ndarray, p: np.ndarray, n: int) -> None:
    exact = math.prod(float(np.dot(a, b)) for a, b in zip(q, p))
    count = out["value"] * n
    if abs(count - exact * n) > mc_band(exact * n):
        raise CheckFailed(f"collision estimate {out['value']} is far from the exact {exact}")


def _check_correlations(out: dict, t: np.ndarray, d: int) -> None:
    coeffs = np.asarray(out["coefficients"], dtype=float)
    close("coefficients", coeffs, t - row_products(digit_marginals(t, d)), 1e-12)
    close("coefficient total", coeffs.sum(), 0.0, 1e-12)
    close("coefficient marginals", digit_marginals(coeffs, d), np.zeros((d, d)), 1e-12)


def _check_lorenz(out: dict, w: np.ndarray) -> None:
    order = np.asarray(out["ordering"])
    if not np.array_equal(np.sort(order), np.arange(w.size)) or np.any(np.diff(w[order]) < 0):
        raise CheckFailed("ordering does not sort the vector ascending")
    close("lorenz", out["lorenz"], np.cumsum(np.sort(w)), 1e-12)
    close("lorenz end", out["lorenz"][-1], 1.0, 1e-9)


def _check_table1(out: dict, a: float, b: float) -> None:
    q = np.array([[a, 1 - a, 0.0], [0.0, a, 1 - a], [0.0, 1 - b, b]])
    joint = {(0, 1, 2): a, (1, 2, 2): b - a, (1, 2, 1): 1 - b}
    rows = out["rows"]
    if len(rows) != 8 or not out["all_pass"]:
        raise CheckFailed("table1 does not list 8 passing rows")
    for row in rows:
        f = tuple(row["images"])
        product = q[0, f[0]] * q[1, f[1]] * q[2, f[2]]
        close(f"code{f}", row["code"], f[0] + 3 * f[1] + 9 * f[2], 0)
        close(f"product{f}", row["product_probability"], product, 1e-12)
        close(f"joint{f}", row["joint_probability"], joint.get(f, 0.0), 1e-12)
        close(f"correlation{f}", row["correlation"], joint.get(f, 0.0) - product, 1e-12)


def safe_export(rng: np.random.Generator, seed: int, work: Path) -> list[Op]:
    """Markov expansions, Monte Carlo ensembles and Lorenz output at d = 5."""
    d = SAFE_D
    q = _markov(rng, d)
    p = 0.8 * q + 0.2 * _markov(rng, d)
    lam = rng.uniform(0.2, 0.8)
    mixture = lam * row_products(_markov(rng, d, 2)) + (1 - lam) * row_products(_markov(rng, d, 2))
    terms = [{"code": int(c), "weight": float(mixture[c])} for c in np.flatnonzero(mixture)]
    # Mixing every row with the uniform row is doubly stochastic on the codes,
    # so the first weight vector majorizes the second.
    smooth = row_products(0.5 * q + 0.5 / d)
    weights = row_products(q)
    a = rng.uniform(0.05, 0.45)
    b = rng.uniform(a + 0.05, 0.95)

    common = ["--seed", str(seed)]
    q_arg = json.dumps(q.tolist())
    p_arg = json.dumps(p.tolist())
    q_ens = json.dumps({"kind": "independent", "matrix": q.tolist()})
    p_ens = json.dumps({"kind": "independent", "matrix": p.tolist()})
    w_arg = json.dumps(weights.tolist())

    def majorize_check(out):
        if out["relation"] != "x_majorizes_y":
            raise CheckFailed(f"relation {out['relation']!r}, expected 'x_majorizes_y'")

    return [
        cli_op("expand", ["expand", "--matrix", q_arg] + common, lambda out: _check_expand(out, q)),
        cli_op(
            "scalar-product",
            ["scalar-product", "--matrix", q_arg, "--matrix", p_arg] + common,
            lambda out: _check_scalar_product(out, q, p),
        ),
        cli_op(
            "simulate",
            ["simulate", "--ensemble", q_ens, "--n", str(SIMULATE_N)] + common,
            lambda out: _check_simulate(out, q, SIMULATE_N),
        ),
        cli_op(
            "collision",
            ["collision", "--ensemble", q_ens, "--ensemble", p_ens, "--n", str(COLLISION_N)] + common,
            lambda out: _check_collision(out, q, p, COLLISION_N),
        ),
        cli_op(
            "correlations",
            ["correlations", "--tensor", json.dumps({"d": d, "terms": terms})] + common,
            lambda out: _check_correlations(out, mixture, d),
        ),
        cli_op("lorenz", ["lorenz", "--vector", w_arg] + common, lambda out: _check_lorenz(out, weights)),
        cli_op(
            "majorize",
            ["majorize", "--vector", w_arg, "--vector", json.dumps(smooth.tolist())] + common,
            majorize_check,
        ),
        cli_op(
            "report-table1",
            ["report", "table1", "--a", repr(a), "--b", repr(b)] + common,
            lambda out: _check_table1(out, a, b),
        ),
    ]


#: Workload name -> (session builder, items per session for the throughput metrics).
WORKLOADS = {
    "qudit_duals": (qudit_duals, {}),
    "eta_search": (eta_search, {"sweep_states": SWEEP[2]}),
    "safe_export": (safe_export, {"samples": SIMULATE_N + 2 * COLLISION_N}),
}
