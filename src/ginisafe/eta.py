"""Search for Gini uncertainty coefficients over pure states.

The uncertainty coefficient of a Fourier pair is the gap between the additive
cap ``2 (D - 1)/(D + 1)`` and the supremum, over states, of a Gini index plus
its dual.  The supremum is attained on pure states: probabilities are affine
in the density matrix and the Gini index is convex on probability vectors, so
the objective is convex over the state set and maximal on its extreme points.
The search therefore walks pure states only: multi-start random amplitudes
followed by derivative-free simplex descent (the objective has sorting kinks,
so gradients are off the table).

Every Gini sum here is of amplitude vectors, priced by the evaluator of
:func:`_pure_gini_sum` through the one Gini kernel of :mod:`probvec` and the
one marginal kernel of :mod:`markov`.  :func:`estimate_eta` checks ``d``, the
mode, the budget and the seed once and prices each candidate, one 1-D vector;
:func:`deficit_sweep` prices each 2-D block of states, one per row.  Both
admit (d, mode) once by :func:`quantum.admit_transform`, for the state
dimension and the cap, and their evaluator once more, for its transform's
space.  Each count, the budget and the sweep's state count, is one
:func:`errors.admit_int` call against its cap, ``_max_budget(dim)`` and
``MAX_SAMPLES // dim``.  A density's deficits are those of
:func:`quantum.uncertainty_deficits`.  The simplex keeps its vertices in
stable-sorted order incrementally instead of re-sorting every step, in two
arrays of its size made once per descent.
Results (``best_sum``, ``evaluations``, the bytes of ``best_state``) are
bitwise those of a descent that re-sorts with a stable argsort every step over
a Gini sum built from public pieces (``|psi|**2``, :func:`quantum.apply_dual`,
:func:`probvec.gini_index` and :func:`markov.tensor_to_matrix`), which the
tests keep as the oracle.

A finite search can only lower-bound the supremum, so ``eta_upper``
(``cap - best_sum``) is an upper bound on the true coefficient up to the
rounding of ``best_sum``, about 1e-15, with ``best_state`` as the
certificate: at d = 2 in single mode a search can land 4e-16 above the
exact supremum sqrt(2)/3.  Positivity of the coefficient itself is
probed by :func:`deficit_sweep`.

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
Searched states are under the one state cap of :func:`quantum.admit_transform`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import MAX_SAMPLES, make_rng, shard_rng
from .errors import GiniSafeError, ValidationError, admit_int
from .markov import _marginal_kernel
from .probvec import _additive_cap, _gini_kernel
from .quantum import (
    GLOBAL,
    LOCAL,
    SINGLE,
    _dual_transform,
    admit_transform,
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

#: Offset of each initial simplex vertex from the start, one coordinate each.
_SIMPLEX_STEP = 0.1

#: Amplitudes per block of a deficit sweep: 2**14 // dim states, 256 kB complex.
_SWEEP_BLOCK = 2**14

#: The cost cap of one search.  An evaluation costs _EVAL_COST + dim units,
#: and each evaluation after the first simplex's 2 dim + 1 costs dim**2 more
#: for the simplex step.  A unit is about an amplitude's share of an
#: evaluation, 25 to 60 ns on a 2-core x86-64 host; the slowest searches at
#: the cap there took 1.6 to 2.0 s at d = 2234 in ``single`` mode, where the
#: simplex's dim**2 binds, and 1.2 to 1.3 s at d = 2 in ``global_component``.
SEARCH_COST = 4 * 10**7
_EVAL_COST = 800


def _max_budget(dim: int) -> int:
    """The largest budget of a search on `dim` amplitudes.

    Its cost stays within SEARCH_COST, and ``budget * dim`` within
    MAX_SAMPLES, the amplitude cap of a deficit sweep, which bounds the
    vertices the simplex holds.  The first simplex fits the cost at every
    admitted dim (2.45e7 units at 3125), so ``simplex + past_simplex`` is
    never above ``SEARCH_COST // per_eval``, the cost of evaluations alone.
    """
    per_eval, simplex = _EVAL_COST + dim, 2 * dim + 1
    past_simplex = (SEARCH_COST - simplex * per_eval) // (per_eval + dim * dim)
    return min(simplex + past_simplex, MAX_SAMPLES // dim)


def _admit_search(d: int, mode: str) -> tuple[int, int, float]:
    """A search's d and state dimension, by :func:`quantum.admit_transform` for its mode, and its cap.

    The cap is the additive cap 2 (D - 1)/(D + 1) of the mode's Gini sum.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    d, dim = admit_transform(d, _TRANSFORM[mode])
    return d, dim, _additive_cap(d if mode == MODE_GLOBAL_COMPONENT else dim)


def _pure_gini_sum(d: int, mode: str):
    """The unchecked Gini sum of one amplitude vector, or of each row of a block, for an admitted (d, mode).

    :func:`estimate_eta` calls it for every evaluation, :func:`deficit_sweep`
    for every block.  The dual transform and the kernels of
    :func:`probvec.gini_index` and, in ``global_component`` mode,
    :func:`markov.tensor_to_matrix` are bound once.  The squared moduli are
    fresh arrays, which the Gini kernel sorts in place, with no admission,
    copy or cache lookup per call.  A block's dual is laid out in C order, as
    ``gini_index``'s copy lays it out: the bits of its row sums rest on it.
    The sum has the bits of the public pieces: ``|psi|**2``,
    :func:`quantum.apply_dual`, ``gini_index`` and ``tensor_to_matrix``.
    """
    d, dim = admit_transform(d, _TRANSFORM[mode])
    dual = _dual_transform(d, _TRANSFORM[mode])
    marginal = _marginal_kernel(dim) if mode == MODE_GLOBAL_COMPONENT else None
    gini = _gini_kernel(dim if marginal is None else d)

    def evaluate(z: np.ndarray):
        p = abs(z)
        p_dual = abs(dual(z)) if z.ndim == 1 else np.abs(dual(z.T).T, order="C")
        np.square(p, p)
        np.square(p_dual, p_dual)
        if marginal is None:
            return gini(p) + gini(p_dual)
        s = gini(marginal(p)) + gini(marginal(p_dual))
        return float(s.max()) if z.ndim == 1 else s.max(axis=-1)

    return evaluate


@dataclass(frozen=True, eq=False)
class EtaEstimate:
    """Result of a budgeted search for an uncertainty coefficient.

    ``best_sum`` is the largest observed Gini sum, so ``eta_upper = cap -
    best_sum`` upper-bounds the true coefficient up to rounding, about
    1e-15; ``best_state`` certifies it.
    """

    d: int
    mode: str
    best_sum: float
    eta_upper: float
    best_state: np.ndarray
    evaluations: int


def _nelder_mead(fn, x0: np.ndarray, max_evals: int):
    """Simplex descent on fn; stops at the eval budget, at least 1, or vertex spread < tol.

    Returns the number of calls of fn, which the search counts as spent.  fn
    may read its argument but not keep it: the descent reuses the buffer.

    Deterministic: vertices stay in the order of a stable sort of their
    values, coefficients are the standard reflection/expansion/contraction/
    shrink values.  The stable argsort runs after the initial simplex and
    after a shrink; a single new vertex is inserted after every vertex of
    equal value, which is where the stable argsort puts it.

    The simplex is held twice, not more: the (n + 1, n) vertices are filled
    in place, and one scratch array of their shape takes the spread, each
    reordering (then the two swap) and the rows an insertion shifts.  The
    centroid and the trial points live in buffers of n made once per descent.
    The spread is taken only when one coordinate of the worst vertex lies
    within the tolerance of the best's: otherwise it cannot be below it.
    """
    n = x0.size
    used = 0

    def call(x):
        nonlocal used
        used += 1
        return fn(x)

    verts = np.empty((min(n + 1, max_evals), n))  # a budget below n + 1 ends in the first simplex
    verts[0] = x0
    fvals = [call(x0)]
    for i in range(n):
        if used >= max_evals:
            return used
        v = verts[i + 1]
        v[:] = x0
        v[i] += _SIMPLEX_STEP
        fvals.append(call(v))
    scratch = np.empty_like(verts)
    centroid, reflected, trial = np.empty(n), np.empty(n), np.empty(n)

    def reorder():
        nonlocal verts, scratch, fvals
        order = np.argsort(fvals, kind="stable")
        np.take(verts, order, axis=0, out=scratch, mode="clip")  # "raise" would buffer the output
        verts, scratch = scratch, verts
        fvals = [fvals[i] for i in order]

    def replace_worst(x, f):
        # the argsort puts NaN last; bisect puts a NaN f there too, but does
        # not skip a NaN left among the first n values
        if fvals[n - 1] != fvals[n - 1]:
            verts[n], fvals[n] = x, f
            reorder()
            return
        k = bisect.bisect_right(fvals, f, 0, n)
        tail = scratch[k:n]
        tail[...] = verts[k:n]
        verts[k + 1 :] = tail
        verts[k] = x
        fvals.insert(k, f)
        del fvals[-1]

    reorder()
    while used < max_evals:
        if abs(verts.item(n, 0) - verts.item(0, 0)) < REFINE_STEP_TOL:  # else the spread is not below it
            spread = np.subtract(verts[1:], verts[0], scratch[1:])
            if np.abs(spread, spread).max() < REFINE_STEP_TOL:
                break
        np.add.reduce(verts[:n], 0, None, centroid)
        centroid /= n  # bitwise .mean(axis=0)
        worst = verts[n]
        # each trial point is its textbook expression, term by term, in place
        np.subtract(centroid, worst, reflected)
        np.add(centroid, reflected, reflected)
        f_r = call(reflected)
        if f_r < fvals[0] and used < max_evals:
            expanded = np.subtract(centroid, worst, trial)
            expanded *= 2.0
            expanded += centroid
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
        contracted = np.subtract(worst, centroid, trial)
        contracted *= 0.5
        contracted += centroid
        f_c = call(contracted)
        if f_c < fvals[n]:
            replace_worst(contracted, f_c)
            continue
        # shrink toward the best vertex
        best = verts[0]
        for i in range(1, n + 1):
            if used >= max_evals:
                break
            v = verts[i]
            v -= best
            v *= 0.5
            v += best
            fvals[i] = call(v)
        reorder()
    return used


def estimate_eta(d: int, mode: str, budget: int, seed: int = 0) -> EtaEstimate:
    """Budgeted multi-start search maximizing the mode's Gini sum.

    Starts are drawn from per-index substreams of ``seed``, each refined by
    simplex descent until its step size collapses or the remaining
    evaluation budget runs out.  The result is deterministic in (seed,
    budget), and ``best_sum`` is nondecreasing in the budget.  Exhausting
    the budget is not an error: the partial result carries the evaluation count.
    """
    d, dim, cap = _admit_search(d, mode)
    budget = admit_int(budget, "budget", 1, _max_budget(dim))
    seed = admit_int(seed, "seed", 0)
    evaluate = _pure_gini_sum(d, mode)

    best_sum = -np.inf
    best_state = None
    evaluations = 0

    def objective(z: np.ndarray) -> float:
        nonlocal best_sum, best_state
        # built in place: numpy forms 1j * x as (0*x - 1*0) + (0*0 + 1*x)j, so the
        # sum z[:dim] + 1j * z[dim:] has these parts unless a coordinate is exactly
        # -0.0, which a search reaches only from an exactly-zero Gaussian draw
        psi = np.empty(dim, complex)
        psi.real, psi.imag = z[:dim], z[dim:]
        re, im = psi.real, psi.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's own sum
        if norm < 1e-12:
            return 1.0  # worse than any attainable negated Gini sum
        psi /= norm
        s = evaluate(psi)
        if s > best_sum:
            best_sum = s
            best_state = psi
        return -s

    for k in itertools.count():
        remaining = budget - evaluations
        if remaining < 1:
            break
        psi0 = random_pure_state(dim, shard_rng(seed, k))
        x0 = np.concatenate([psi0.real, psi0.imag])
        evaluations += _nelder_mead(objective, x0, remaining)

    if best_sum > cap + 1e-9:
        raise GiniSafeError(f"gini sum {best_sum} exceeds the additive cap {cap}; numerical fault")
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
    indicates a numerical fault and raises.  ``n`` is admitted against
    ``MAX_SAMPLES // dim``, so ``n * dim <= MAX_SAMPLES``, before anything is
    drawn.  After one draw of all real parts, each block of states, one per
    row, draws its imaginary parts and is priced by the evaluator of
    :func:`_pure_gini_sum`, as a search prices one state; chunked draws are
    the numbers of one draw.
    """
    d, dim, cap = _admit_search(d, mode)
    n = admit_int(n, f"sample count of states of dimension {dim}", 1, MAX_SAMPLES // dim)
    evaluate = _pure_gini_sum(d, mode)
    rng = make_rng(seed)
    real = rng.standard_normal((n, dim))
    deficits = np.empty(n)
    block = _SWEEP_BLOCK // dim
    for start in range(0, n, block):
        z = real[start : start + block] + 1j * rng.standard_normal((min(block, n - start), dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        deficits[start : start + block] = cap - evaluate(z)
    smallest = float(deficits.min())
    if smallest <= 0.0:
        raise GiniSafeError(f"non-positive uncertainty deficit {smallest}; numerical fault")
    return smallest
