"""Search for Gini uncertainty coefficients over pure states.

The uncertainty coefficient of a Fourier pair is the gap between the additive
cap ``2 (D - 1)/(D + 1)`` and the supremum, over states, of a Gini index plus
its dual.  The supremum is attained on pure states: probabilities are affine
in the density matrix and the Gini index is convex on probability vectors, so
the objective is convex over the state set and maximal on its extreme points.
The search therefore walks pure states only: multi-start random amplitudes
followed by derivative-free simplex descent (the objective has sorting kinks,
so gradients are off the table).

A finite search can only lower-bound the supremum, so ``eta_upper``
(``cap - best_sum``) is an upper bound on the true coefficient, with
``best_state`` as the certificate.  Positivity of the coefficient itself is
probed separately by :func:`deficit_sweep`.

Modes
-----
``single``            Gini + dual Gini on H_d under the single-qudit DFT.
``local_total``       total Gini + locally dual total Gini on the d**d space.
``global_component``  per-component Gini + globally dual Gini, maximized
                      over components.
``global_total``      total Gini + globally dual total Gini.

There is no separate locally-dual component mode: the reduced state of one
component is again a single-qudit state, so that search coincides with
``single``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import make_rng, shard_rng
from .errors import DimensionTooLargeError, GiniSafeError, ValidationError
from .markov import function_table, tensor_to_matrix
from .probvec import gini_index
from .quantum import (
    GLOBAL,
    LOCAL,
    MAX_COMPONENTS,
    SINGLE,
    apply_dual,
    dual_state,
    random_pure_state,
)

MODE_SINGLE = "single"
MODE_LOCAL_TOTAL = "local_total"
MODE_GLOBAL_COMPONENT = "global_component"
MODE_GLOBAL_TOTAL = "global_total"
MODES = (MODE_SINGLE, MODE_LOCAL_TOTAL, MODE_GLOBAL_COMPONENT, MODE_GLOBAL_TOTAL)

#: The Fourier transform behind each mode's dual (see :func:`quantum.apply_dual`).
_TRANSFORM = {
    MODE_SINGLE: SINGLE,
    MODE_LOCAL_TOTAL: LOCAL,
    MODE_GLOBAL_COMPONENT: GLOBAL,
    MODE_GLOBAL_TOTAL: GLOBAL,
}

#: Simplex descent stops when the vertex spread falls below this step size.
REFINE_STEP_TOL = 1e-6


def _check_mode(d: int, mode: str):
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if d < 2:
        raise ValidationError("d must be >= 2")
    if mode != MODE_SINGLE and d > MAX_COMPONENTS:
        raise DimensionTooLargeError(f"{mode} supports d <= {MAX_COMPONENTS}")


def state_space_dim(d: int, mode: str) -> int:
    """Dimension of the pure-state space searched in this mode."""
    _check_mode(d, mode)
    return d if mode == MODE_SINGLE else d**d


def gini_sum_cap(d: int, mode: str) -> float:
    """The additive cap 2 (D - 1)/(D + 1) for the mode's Gini sum."""
    _check_mode(d, mode)
    D = d if mode in (MODE_SINGLE, MODE_GLOBAL_COMPONENT) else d**d
    return 2.0 * (D - 1) / (D + 1)


def _mode_sum_from_probs(p: np.ndarray, p_dual: np.ndarray, d: int, mode: str) -> float:
    if mode == MODE_GLOBAL_COMPONENT:
        rows = gini_index(tensor_to_matrix(p)) + gini_index(tensor_to_matrix(p_dual))
        return float(rows.max())
    return gini_index(p) + gini_index(p_dual)


def gini_sum(state, d: int, mode: str) -> float:
    """The mode's Gini sum for a pure amplitude vector or a density matrix.

    For ``global_component`` this is the maximum over components of the
    component Gini plus its global dual.
    """
    _check_mode(d, mode)
    state = np.asarray(state, dtype=complex)
    dim = state_space_dim(d, mode)
    if state.ndim == 1:
        if state.size != dim:
            raise ValidationError(f"state has dimension {state.size}, expected {dim}")
        p = np.abs(state) ** 2
        p_dual = np.abs(apply_dual(state, d, _TRANSFORM[mode])) ** 2
        return _mode_sum_from_probs(p, p_dual, d, mode)
    if state.shape != (dim, dim):
        raise ValidationError(f"density has shape {state.shape}, expected {(dim, dim)}")
    dual = dual_state(state, _TRANSFORM[mode])
    p = np.clip(np.real(np.diag(state)), 0.0, None)
    p_dual = np.clip(np.real(np.diag(dual)), 0.0, None)
    return _mode_sum_from_probs(p / p.sum(), p_dual / p_dual.sum(), d, mode)


def deficit(state, d: int, mode: str) -> float:
    """The mode's uncertainty deficit, cap minus Gini sum.

    For ``global_component`` the Gini sum is maximized over components, so
    this is the smallest per-component deficit.
    """
    return gini_sum_cap(d, mode) - gini_sum(state, d, mode)


@dataclass(frozen=True)
class EtaEstimate:
    """Result of a budgeted search for an uncertainty coefficient.

    ``best_sum`` is the largest observed Gini sum, so ``eta_upper = cap -
    best_sum`` upper-bounds the true coefficient; ``best_state`` certifies it.
    """

    d: int
    mode: str
    best_sum: float
    eta_upper: float
    best_state: np.ndarray
    evaluations: int


def _nelder_mead(fn, x0: np.ndarray, max_evals: int, step: float = 0.1):
    """Simplex descent on fn; stops at the eval budget or vertex spread < tol.

    Deterministic: vertex ordering uses a stable sort, coefficients are the
    standard reflection/expansion/contraction/shrink values.
    """
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
        # shrink toward the best vertex
        for i in range(1, len(verts)):
            if used >= max_evals:
                break
            verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
            fvals[i] = call(verts[i])
    return used


def estimate_eta(
    d: int,
    mode: str,
    budget: int,
    seed: int = 0,
    initial_states=None,
) -> EtaEstimate:
    """Budgeted multi-start search maximizing the mode's Gini sum.

    Starts are drawn from per-index substreams of ``seed`` (after any caller
    supplied ``initial_states``), each refined by simplex descent until its
    step size collapses or the remaining evaluation budget runs out.  The
    result is deterministic in (seed, budget, initial_states), and
    ``best_sum`` is nondecreasing in the budget.  Exhausting the budget is
    not an error: the partial result carries the evaluation count.
    """
    _check_mode(d, mode)
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    dim = state_space_dim(d, mode)
    cap = gini_sum_cap(d, mode)

    best_sum = -np.inf
    best_state = None
    evaluations = 0

    def objective(z: np.ndarray) -> float:
        nonlocal best_sum, best_state, evaluations
        psi = z[:dim] + 1j * z[dim:]
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            evaluations += 1
            return 1.0  # worse than any attainable -gini_sum
        psi = psi / norm
        s = gini_sum(psi, d, mode)
        evaluations += 1
        if s > best_sum:
            best_sum = s
            best_state = psi
        return -s

    def starts():
        if initial_states is not None:
            for given in initial_states:
                psi = np.asarray(given, dtype=complex)
                if psi.size != dim:
                    raise ValidationError(
                        f"initial state has dimension {psi.size}, expected {dim}"
                    )
                yield psi / np.linalg.norm(psi)
        k = 0
        while True:
            yield random_pure_state(dim, shard_rng(seed, k))
            k += 1

    for psi0 in starts():
        remaining = budget - evaluations
        if remaining < 1:
            break
        x0 = np.concatenate([psi0.real, psi0.imag])
        _nelder_mead(objective, x0, remaining)

    if best_sum > cap + 1e-9:
        raise GiniSafeError(
            f"gini sum {best_sum} exceeds the additive cap {cap}; numerical fault"
        )
    return EtaEstimate(
        d=d,
        mode=mode,
        best_sum=float(best_sum),
        eta_upper=float(cap - best_sum),
        best_state=best_state,
        evaluations=evaluations,
    )


def deficit_sweep(d: int, mode: str, n: int, seed: int = 0) -> float:
    """Minimum uncertainty deficit over n seeded Haar-random pure states.

    The deficit is strictly positive for every state; a non-positive minimum
    indicates a numerical fault and raises.  Vectorized over the whole batch.
    """
    _check_mode(d, mode)
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    dim = state_space_dim(d, mode)
    cap = gini_sum_cap(d, mode)
    rng = make_rng(seed)
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    p = np.abs(z) ** 2
    p_dual = np.abs(apply_dual(z.T, d, _TRANSFORM[mode]).T) ** 2

    if mode in (MODE_SINGLE, MODE_LOCAL_TOTAL, MODE_GLOBAL_TOTAL):
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
