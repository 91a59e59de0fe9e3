"""Probability-vector analytics: Lorenz values, Gini indices, majorization.

Probability vectors are plain 1-D float arrays.  All orderings used here are
ascending and stable: ties are broken by the original index, so every result
is deterministic.  :func:`gini_index` is the one Gini kernel, for a single
vector or for each row of a matrix; :func:`gini_mean_abs_diff` computes the
same index through the mean absolute difference and is the oracle it is
tested against.
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
        ValidationError: input is empty, not 1-D, not numeric, or not finite.
    """
    try:
        x = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge ints
        raise ValidationError(
            "probability vector must be a non-empty 1-D sequence of numbers"
        ) from None
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("probability vector must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(x)):
        raise ValidationError("probability vector contains non-finite entries")
    if np.any(x < -tol):
        i = int(np.argmin(x))
        raise NegativeEntryError(
            f"entry {i} = {x[i]:.6g} is negative beyond tolerance {tol:g}"
        )
    if np.any(x > 1.0 + tol):
        i = int(np.argmax(x))
        raise NotNormalizedError(
            f"entry {i} = {x[i]:.6g} exceeds 1 beyond tolerance {tol:g}"
        )
    total = float(x.sum())
    if abs(total - 1.0) > tol:
        raise NotNormalizedError(
            f"entries sum to {total:.12g}, not 1 within tolerance {tol:g}"
        )
    x = np.clip(x, 0.0, 1.0)
    return x / x.sum()


def ordering_permutation(x) -> np.ndarray:
    """Indices that sort ``x`` ascending, ties broken by ascending index."""
    return np.argsort(np.asarray(x, dtype=float), kind="stable")


def lorenz_values(x) -> np.ndarray:
    """Cumulative probabilities of ``x`` under the ascending stable ordering.

    The result is nondecreasing, bounded by (l + 1)/d componentwise, and its
    last value is 1 for a normalized input.
    """
    x = np.asarray(x, dtype=float)
    return np.cumsum(x[ordering_permutation(x)])


def gini_index(x):
    """Gini index of a probability vector, or of each row of a matrix of them.

    Equals ``1 - (2 / (d + 1)) * sum_l L(l)``, evaluated as the ascending sort
    dotted with the descending weights d, ..., 1 (the sum of the Lorenz
    values).  A 1-D input gives a float, a 2-D input one value per row.  0 for
    the uniform vector, (d - 1)/(d + 1) for a vector with all mass on one entry.
    """
    p = np.array(x, dtype=float)
    p.sort()
    weights, scale = _gini_weights(p.shape[-1])
    g = 1.0 - scale * p.dot(weights)
    return float(g) if p.ndim == 1 else g


@functools.lru_cache(maxsize=16)
def _gini_weights(d: int) -> tuple[np.ndarray, float]:
    """The read-only weights d, ..., 1 of :func:`gini_index` and its factor 2/(d + 1)."""
    weights = np.arange(d, 0, -1, dtype=float)
    weights.setflags(write=False)
    return weights, 2.0 / (d + 1)


def gini_mean_abs_diff(x) -> float:
    """Gini index computed as a normalized mean absolute difference.

    Evaluates ``sum_{r,s} |x(r) - x(s)| / (2 (d + 1))`` in O(d) memory and
    O(d log d) time from the ascending sort x_(0) <= ... <= x_(d-1), where the pair
    sum equals ``2 sum_k (2k - d + 1) x_(k)``.  It is an independent route to
    :func:`gini_index` and must agree with it to near machine precision.
    """
    x = np.sort(np.asarray(x, dtype=float))
    d = x.size
    weights = 2.0 * np.arange(d) - (d - 1)
    return float(weights @ x) / (d + 1)


def majorizes(x, y, tol: float = MAJORIZATION_TOL) -> Majorization:
    """Compare two probability vectors in the majorization preorder.

    ``x`` majorizes ``y`` ("x is more sparse") when every Lorenz value of
    ``x`` is <= the corresponding value of ``y`` (within ``tol``).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"vectors have different dimensions {x.size} and {y.size}"
        )
    lx = lorenz_values(x)
    ly = lorenz_values(y)
    x_over_y = bool(np.all(lx <= ly + tol))
    y_over_x = bool(np.all(ly <= lx + tol))
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
    x = np.asarray(x, dtype=float)
    d = x.size
    center = (d - 1) / 2.0
    half = ((d + 1) / 2.0) * gini_index(x)
    return (center - half, center + half)


def uniform_vector(d: int) -> np.ndarray:
    """The most uncertain probability vector (1/d, ..., 1/d)."""
    if d < 1:
        raise ValidationError("dimension must be positive")
    return np.full(d, 1.0 / d)


def certain_vector(d: int, level: int = 0) -> np.ndarray:
    """A certain probability vector: all mass on one entry."""
    if d < 1:
        raise ValidationError("dimension must be positive")
    if not 0 <= level < d:
        raise ValidationError(f"level {level} outside [0, {d})")
    x = np.zeros(d)
    x[level] = 1.0
    return x
