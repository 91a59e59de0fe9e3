"""Probability-vector analytics: Lorenz values, Gini indices, majorization.

Probability vectors are plain 1-D float arrays.  All orderings used here are
ascending and stable: ties are broken by the original index, so every result
is deterministic.  :func:`gini_index` prices a single vector or each row of a
matrix by :func:`_gini_kernel`, the one Gini kernel, which :mod:`eta` binds
too; :func:`gini_mean_abs_diff` computes the same index through the mean
absolute difference and is the oracle it is tested against.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
    ValidationError,
    admit_array,
    admit_int,
    admit_tol,
)

#: Default tolerance for validating file-sourced probabilities.
DEFAULT_TOL = 1e-9

#: Per-component tolerance for comparing Lorenz curves (sums of <= d doubles).
MAJORIZATION_TOL = 1e-12


class Majorization(enum.Enum):
    """Outcome of a majorization comparison between two probability vectors."""

    X_MAJORIZES_Y = "x_majorizes_y"
    Y_MAJORIZES_X = "y_majorizes_x"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def validate_prob_vector(raw, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate, clamp to [0, 1] and exactly renormalize a probability vector.

    Entries may undershoot 0 or overshoot 1 by at most ``tol`` (rounding noise
    from serialized input); anything worse raises.

    Raises:
        NegativeEntryError: some entry is below ``-tol``.
        NotNormalizedError: entries do not sum to 1 within ``tol`` (or an
            entry exceeds ``1 + tol``).
        ValidationError: input is no array :func:`errors.admit_array` admits, or not finite, or ``tol`` is not in [0, 1).
    """
    tol = admit_tol(tol)
    x = admit_array(raw, "probability vector", float, 1)
    if _failing(x, tol):
        raise _failure(x, tol)
    return _renormalized(x)


def _failing(x: np.ndarray, tol: float):
    """Which vectors along the last axis of ``x`` break the tolerance rule of :func:`validate_prob_vector`.

    A vector fails if it has a non-finite entry, an entry below ``-tol`` or
    above ``1 + tol``, or a sum off 1 by more than ``tol``.  All vectors are
    tested at once; a 1-D ``x`` gives one numpy bool.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # a sum that warns is flagged by the entry tests
        bad = ~np.isfinite(x).all(axis=-1) | (x < -tol).any(axis=-1) | (x > 1.0 + tol).any(axis=-1)
        return bad | (np.abs(x.sum(axis=-1) - 1.0) > tol)


def _failure(x: np.ndarray, tol: float) -> ValidationError:
    """The error of a 1-D vector that :func:`_failing` flags: its first failed test, in the order listed there."""
    if not np.all(np.isfinite(x)):
        return ValidationError("probability vector contains non-finite entries")
    if np.any(x < -tol):
        i = int(np.argmin(x))
        return NegativeEntryError(f"entry {i} = {x[i]:.6g} is negative beyond tolerance {tol:g}")
    if np.any(x > 1.0 + tol):
        i = int(np.argmax(x))
        return NotNormalizedError(f"entry {i} = {x[i]:.6g} exceeds 1 beyond tolerance {tol:g}")
    return NotNormalizedError(f"entries sum to {float(x.sum()):.12g}, not 1 within tolerance {tol:g}")


def _renormalized(x: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of ``x``, clipped to [0, 1] and divided by its sum."""
    x = np.clip(x, 0.0, 1.0)
    return x / x.sum(axis=-1, keepdims=True)


def ordering_permutation(x) -> np.ndarray:
    """Indices that sort ``x`` ascending, ties broken by ascending index."""
    return np.argsort(admit_array(x, "probability vector", float, 1), kind="stable")


def lorenz_values(x) -> np.ndarray:
    """Cumulative probabilities of ``x`` under the ascending stable ordering.

    The result is nondecreasing, bounded by (l + 1)/d componentwise, and its
    last value is 1 for a normalized input.
    """
    x = admit_array(x, "probability vector", float, 1)
    return np.cumsum(x[ordering_permutation(x)])


def gini_index(x):
    """Gini index of a probability vector, or of each row of a matrix or a batch of matrices.

    Equals ``1 - (2 / (d + 1)) * sum_l L(l)``, evaluated as the ascending sort
    dotted with the descending weights d, ..., 1 (the sum of the Lorenz
    values).  A 1-D input gives a float, a 2-D or 3-D input one value per row.  0 for
    the uniform vector, (d - 1)/(d + 1) for a vector with all mass on one entry.
    """
    p = admit_array(x, "probability vector", float, (1, 2, 3)).copy()
    return _gini_kernel(p.shape[-1])(p)


@functools.lru_cache(maxsize=16)
def _gini_kernel(n: int):
    """The unchecked :func:`gini_index` of n-entry vectors.

    It sorts a fresh float array in place and dots it with the weights n, ..., 1.
    """
    weights = np.arange(n, 0, -1, dtype=float)
    scale = 2.0 / (n + 1)

    def kernel(p: np.ndarray):
        p.sort()
        g = p.dot(weights)
        return 1.0 - scale * (float(g) if p.ndim == 1 else g)

    return kernel


def _additive_cap(n: int) -> float:
    """2 (n - 1)/(n + 1), twice the largest Gini index of n entries: the cap on an index plus its dual."""
    return 2.0 * (n - 1) / (n + 1)


def gini_mean_abs_diff(x) -> float:
    """Gini index computed as a normalized mean absolute difference.

    Evaluates ``sum_{r,s} |x(r) - x(s)| / (2 (d + 1))`` in O(d) memory and
    O(d log d) time from the ascending sort x_(0) <= ... <= x_(d-1), where the pair
    sum equals ``2 sum_k (2k - d + 1) x_(k)``.  It is an independent route to
    :func:`gini_index` and must agree with it to near machine precision.
    """
    x = np.sort(admit_array(x, "probability vector", float, 1))
    d = x.size
    weights = 2.0 * np.arange(d) - (d - 1)
    return float(weights @ x) / (d + 1)


def majorizes(x, y) -> Majorization:
    """Compare two probability vectors in the majorization preorder.

    ``x`` majorizes ``y`` ("x is more sparse") when every Lorenz value of
    ``x`` is <= the corresponding value of ``y`` (within ``MAJORIZATION_TOL``).
    A non-finite entry of either vector is a ValidationError that names it.
    """
    x = admit_array(x, "'x'", float, 1)
    y = admit_array(y, "'y'", float, 1)
    for what, v in (("'x'", x), ("'y'", y)):
        if not np.isfinite(v).all():  # every comparison with NaN is false
            raise ValidationError(f"{what} contains non-finite entries")
    if x.shape != y.shape:
        raise DimensionMismatchError(f"vectors have different dimensions {x.size} and {y.size}")
    lx = lorenz_values(x)
    ly = lorenz_values(y)
    x_over_y = bool(np.all(lx <= ly + MAJORIZATION_TOL))
    y_over_x = bool(np.all(ly <= lx + MAJORIZATION_TOL))
    if x_over_y and y_over_x:
        return Majorization.EQUAL
    if x_over_y:
        return Majorization.X_MAJORIZES_Y
    if y_over_x:
        return Majorization.Y_MAJORIZES_X
    return Majorization.INCOMPARABLE


def average_bounds(x) -> tuple[float, float]:
    """Interval that contains the mean of 0..d-1 under any relabeling.

    For a quantity taking values 0..d-1 with probabilities ``x`` the average
    depends on how the labels are assigned; for every permutation it lies in
    ``(d-1)/2 -+ ((d+1)/2) * gini_index(x)``.
    """
    x = admit_array(x, "probability vector", float, 1)
    d = x.size
    center = (d - 1) / 2.0
    half = ((d + 1) / 2.0) * gini_index(x)
    return (center - half, center + half)


def uniform_vector(d: int) -> np.ndarray:
    """The most uncertain probability vector (1/d, ..., 1/d)."""
    d = admit_int(d, "'d'", 1)
    return np.full(d, 1.0 / d)
