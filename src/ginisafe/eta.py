"""Search for Gini uncertainty coefficients over pure states.

The uncertainty coefficient of a Fourier pair is the gap between the additive
cap ``2 (D - 1)/(D + 1)`` and the supremum, over states, of a Gini index plus
its dual.  The supremum is attained on pure states: probabilities are affine
in the density matrix and the Gini index is convex on probability vectors, so
the objective is convex over the state set and maximal on its extreme points.
The search therefore walks pure states only: multi-start random amplitudes
followed by derivative-free simplex descent (the objective has sorting kinks,
so gradients are off the table).

The search loop does only the numerics: :func:`estimate_eta` checks ``d``,
the mode and the dimension once and evaluates every candidate through one
evaluator that binds the mode's dual transform (:func:`gini_sum` checks its
input and then uses the same evaluator).  The simplex keeps its vertices in
stable-sorted order incrementally instead of re-sorting every step.  Results
(``best_sum``, ``evaluations``, the bytes of ``best_state``) are bitwise those
of a descent that re-sorts with a stable argsort every step over the checked
:func:`gini_sum`, which the tests keep as the oracle.

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
Searched states are under the one state cap of :func:`quantum.space_dimension`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import make_rng, shard_rng
from .errors import GiniSafeError, ValidationError
from .markov import function_table, tensor_to_matrix
from .probvec import gini_index
from .quantum import (
    GLOBAL,
    LOCAL,
    SINGLE,
    _dual_transform,
    apply_dual,
    dual_state,
    random_pure_state,
    space_dimension,
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

#: Offset of each initial simplex vertex from the start, one coordinate each.
_SIMPLEX_STEP = 0.1


def state_space_dim(d: int, mode: str) -> int:
    """Dimension of the pure-state space searched in this mode, under the state cap."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    return space_dimension(d, _TRANSFORM[mode])


def gini_sum_cap(d: int, mode: str) -> float:
    """The additive cap 2 (D - 1)/(D + 1) for the mode's Gini sum."""
    dim = state_space_dim(d, mode)
    D = d if mode == MODE_GLOBAL_COMPONENT else dim
    return 2.0 * (D - 1) / (D + 1)


def _mode_sum_from_probs(p: np.ndarray, p_dual: np.ndarray, mode: str) -> float:
    if mode == MODE_GLOBAL_COMPONENT:
        rows = gini_index(tensor_to_matrix(p)) + gini_index(tensor_to_matrix(p_dual))
        return float(rows.max())
    return gini_index(p) + gini_index(p_dual)


def _pure_gini_sum(d: int, mode: str):
    """The unchecked Gini sum of an amplitude vector, for an admitted (d, mode).

    The dual transform is bound once.  :func:`gini_sum` calls this after its
    checks, and :func:`estimate_eta` calls it for every evaluation.
    """
    dual = _dual_transform(d, _TRANSFORM[mode])

    def evaluate(psi: np.ndarray) -> float:
        return _mode_sum_from_probs(np.abs(psi) ** 2, np.abs(dual(psi)) ** 2, mode)

    return evaluate


def gini_sum(state, d: int, mode: str) -> float:
    """The mode's Gini sum for a pure amplitude vector or a density matrix.

    For ``global_component`` this is the maximum over components of the
    component Gini plus its global dual.
    """
    state = np.asarray(state, dtype=complex)
    dim = state_space_dim(d, mode)
    if state.ndim == 1:
        if state.size != dim:
            raise ValidationError(f"state has dimension {state.size}, expected {dim}")
        return _pure_gini_sum(d, mode)(state)
    if state.shape != (dim, dim):
        raise ValidationError(f"density has shape {state.shape}, expected {(dim, dim)}")
    dual = dual_state(state, _TRANSFORM[mode])
    p = np.clip(np.real(np.diag(state)), 0.0, None)
    p_dual = np.clip(np.real(np.diag(dual)), 0.0, None)
    return _mode_sum_from_probs(p / p.sum(), p_dual / p_dual.sum(), mode)


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


def _nelder_mead(fn, x0: np.ndarray, max_evals: int):
    """Simplex descent on fn; stops at the eval budget or vertex spread < tol.

    Deterministic: vertices stay in the order of a stable sort of their
    values, coefficients are the standard reflection/expansion/contraction/
    shrink values.  The stable argsort runs after the initial simplex and
    after a shrink; a single new vertex is inserted after every vertex of
    equal value, which is where the stable argsort puts it.
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
        v[i] += _SIMPLEX_STEP
        verts.append(v)
        fvals.append(call(v))
    verts = np.array(verts)
    verts, fvals = _stable_order(verts, fvals)

    def replace_worst(x, f):
        nonlocal verts, fvals
        # the argsort puts NaN last; bisect puts a NaN f there too, but does
        # not skip a NaN left among the first n values
        if fvals[n - 1] != fvals[n - 1]:
            verts[n], fvals[n] = x, f
            verts, fvals = _stable_order(verts, fvals)
            return
        k = bisect.bisect_right(fvals, f, 0, n)
        verts[k + 1 :] = verts[k:n]
        verts[k] = x
        fvals.insert(k, f)
        del fvals[-1]

    while used < max_evals:
        spread = np.abs(verts[1:] - verts[0]).max()
        if spread < REFINE_STEP_TOL:
            break
        centroid = np.add.reduce(verts[:n], axis=0) / n  # bitwise .mean(axis=0)
        worst = verts[n]
        reflected = centroid + (centroid - worst)
        f_r = call(reflected)
        if f_r < fvals[0] and used < max_evals:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = call(expanded)
            if f_e < f_r:
                replace_worst(expanded, f_e)
            else:
                replace_worst(reflected, f_r)
            continue
        if f_r < fvals[n - 1]:
            replace_worst(reflected, f_r)
            continue
        if used >= max_evals:
            break
        contracted = centroid + 0.5 * (worst - centroid)
        f_c = call(contracted)
        if f_c < fvals[n]:
            replace_worst(contracted, f_c)
            continue
        # shrink toward the best vertex
        for i in range(1, n + 1):
            if used >= max_evals:
                break
            verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
            fvals[i] = call(verts[i])
        verts, fvals = _stable_order(verts, fvals)
    return used


def _stable_order(verts: np.ndarray, fvals: list):
    order = np.argsort(fvals, kind="stable")
    return verts[order], [fvals[i] for i in order]


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
    dim = state_space_dim(d, mode)
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    cap = gini_sum_cap(d, mode)
    evaluate = _pure_gini_sum(d, mode)

    best_sum = -np.inf
    best_state = None
    evaluations = 0

    def objective(z: np.ndarray) -> float:
        nonlocal best_sum, best_state, evaluations
        evaluations += 1
        psi = z[:dim] + 1j * z[dim:]
        re, im = psi.real, psi.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's own sum
        if norm < 1e-12:
            return 1.0  # worse than any attainable -gini_sum
        psi /= norm
        s = evaluate(psi)
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
    dim = state_space_dim(d, mode)
    if n < 1:
        raise ValidationError("sample count must be >= 1")
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
