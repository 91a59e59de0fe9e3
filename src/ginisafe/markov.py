"""Row Markov matrices, their expansions over permutations with repetitions, and the codec.

A map f: {0..d-1} -> {0..d-1} (a "permutation with repetitions", i.e. an
opening sequence of a safe) is encoded canonically as an integer
``code = sum_i f(i) * d**i`` (little-endian base d).  All d**d-length arrays
in this package (Markov tensors, correlation tensors) and every sampled
code are in this order, and the same encoding is the basis index map of the
multipartite quantum module.  The codec here is the only code that knows the
format: :func:`encode`, :func:`decode`, :func:`code_count` (d**d, with d
checked first against ``MAX_ENUMERATION_D``, the one cap of code-indexed
objects) and its inverse :func:`tensor_dimension`.

A row Markov matrix q has rows that are probability vectors: q(i, j) is the
probability that position i of the opening sequence holds the integer j.  It
expands over the 0/1 matrices M_f either with product weights (independent
positions) or with an arbitrary joint tensor (correlated positions); both
directions of that expansion live here, together with the scalar product
(the collision probability of two independent ensembles) and the local/total
Gini statistics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotProductFormError,
    ValidationError,
    admit_array,
    admit_index,
    admit_int,
    admit_square,
    admit_tol,
)
from .probvec import DEFAULT_TOL, _failing, _failure, _renormalized, gini_index, validate_prob_vector

#: Largest d of a code-indexed object: at most 6**6 = 46656 codes.
MAX_ENUMERATION_D = 6


def admit_code_d(d: int) -> int:
    """The d of a code-indexed object, admitted by :func:`errors.admit_int` against ``MAX_ENUMERATION_D``."""
    return admit_int(d, "code-indexed 'd'", 1, MAX_ENUMERATION_D)


def code_count(d: int) -> int:
    """The number of codes, d**d, for d admitted by :func:`admit_code_d`."""
    d = admit_code_d(d)
    return d**d


def encode(digits, d: int):
    """The code sum_i digits[i] * d**i; each digit is an int or a column of many codes' digits."""
    return sum(digit * d**i for i, digit in enumerate(digits))


def decode(code, d: int) -> list:
    """The d little-endian base-d digits of a code, or digit columns of a code array."""
    return [(code // d**i) % d for i in range(d)]


def tensor_dimension(size: int) -> int:
    """Invert size = d**d: the d of a flat code-indexed array, admitted by :func:`admit_code_d`."""
    size = admit_int(size, "array size", 1)
    d = 1
    while d**d < size:
        d += 1
    if d**d != size:
        raise ValidationError(f"array of length {size} is not d**d for any d")
    return admit_code_d(d)


@dataclass(frozen=True)
class FunctionMap:
    """A map f: {0..d-1} -> {0..d-1}, stored as its tuple of images.

    ``FunctionMap((1, 2, 1))`` is the map 0->1, 1->2, 2->1.  The dimension is
    the tuple length and the canonical integer code is little-endian base d.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if d == 0:
            raise ValidationError("function map must have at least one image")
        images = tuple(admit_index(v, f"image f({i})", d) for i, v in enumerate(self.images))
        object.__setattr__(self, "images", images)

    @property
    def d(self) -> int:
        return len(self.images)

    @property
    def code(self) -> int:
        """Canonical integer code, sum_i f(i) * d**i."""
        return encode(self.images, self.d)

    @classmethod
    def from_code(cls, code: int, d: int) -> "FunctionMap":
        """Decode a canonical integer code back into a map."""
        d = admit_code_d(d)
        return cls(tuple(decode(admit_index(code, "code", d**d), d)))


def function_table(d: int) -> np.ndarray:
    """All d**d image tuples as a read-only (d**d, d) array, in code order.

    Row ``c`` holds the images of ``FunctionMap.from_code(c, d)``.
    """
    return _function_table(admit_code_d(d))  # admitted before the cache: 2.0 and True hash as 2 and 1


@functools.lru_cache(maxsize=None)
def _function_table(d: int) -> np.ndarray:
    table = np.stack(decode(np.arange(d**d), d), axis=1)
    table.setflags(write=False)
    return table


def validate_row_markov(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a row Markov matrix: each row is checked, clipped and renormalized as a probability vector.

    All rows are checked at once by the rule of :func:`probvec.validate_prob_vector`;
    the first that fails raises that rule's error, prefixed ``row i: ``.
    """
    tol = admit_tol(tol)
    # C order, so that each row sums in the order of a 1-D row: an F-order sum along axis 1 rounds differently
    q = np.ascontiguousarray(admit_square(matrix, "row Markov matrix", float))
    failing = np.flatnonzero(_failing(q, tol))
    if failing.size:
        i = int(failing[0])
        exc = _failure(q[i], tol)
        raise type(exc)(f"row {i}: {exc}")
    return _renormalized(q)


def validate_markov_tensor(tensor, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a flat Markov tensor of d**d joint probabilities (code order)."""
    t = admit_array(tensor, "Markov tensor", float, 1)
    tensor_dimension(t.size)  # raises unless the length is d**d under the code cap
    return validate_prob_vector(t, tol)


def push_forward(x, q) -> np.ndarray:
    """The probability vector x @ q (row vector times row Markov matrix)."""
    x = admit_array(x, "probability vector", float, 1)
    q = admit_square(q, "row Markov matrix", float)
    if q.shape[0] != x.size:
        raise DimensionMismatchError(f"cannot push a {x.size}-vector through a {q.shape} matrix")
    return x @ q


def scalar_product(q, p) -> float:
    """Scalar product of two row Markov matrices.

    ``(q, p) = prod_i sum_j q(i, j) p(i, j)``: the probability that one safe
    drawn from each of two independent ensembles shares a full opening
    sequence.  Symmetric, in [0, 1], and (M_f, M_g) = delta(f, g).
    """
    q = admit_square(q, "'q'", float)
    p = admit_square(p, "'p'", float)
    if q.shape != p.shape:
        raise DimensionMismatchError(f"matrix shapes {q.shape} and {p.shape} differ")
    return float(np.prod((q * p).sum(axis=1)))


def product_probabilities(q) -> np.ndarray:
    """Product weights M_q(f) = prod_i q(i, f(i)) for all d**d maps, code order.

    For a row Markov matrix these are the joint sequence probabilities of an
    ensemble with independent positions, and they sum to 1.  The identity
    ``sum_f prod_i q(i, f(i)) = prod_i sum_j q(i, j)`` holds for arbitrary
    square matrices, so no validation is applied here.
    """
    q = admit_square(q, "row Markov matrix", float)
    d = q.shape[0]
    table = function_table(d)
    weights = np.ones(d**d)
    for i in range(d):
        weights *= q[i, table[:, i]]
    return weights


def tensor_to_matrix(t) -> np.ndarray:
    """Marginalize a Markov tensor into its row Markov matrix, or a (B, d**d) batch into (B, d, d).

    ``q(i, j) = sum over maps f with f(i) = j of t[f]``.  Together with
    :func:`product_probabilities` this realizes both directions of the
    expansion ``q = sum_f t(f) M_f``; the expansion is not unique, so this
    does not invert an arbitrary tensor back from its matrix.
    """
    t = admit_array(t, "Markov tensor", float, (1, 2))
    return _marginal_kernel(t.shape[-1])(t)


@functools.lru_cache(maxsize=None)
def _marginal_kernel(size: int):
    """The marginalization of :func:`tensor_to_matrix` for tensors of `size` weights, unchecked; one admission per length."""
    d = tensor_dimension(size)
    bins = (function_table(d) + d * np.arange(d)).ravel()

    def marginal(t: np.ndarray) -> np.ndarray:
        # one bincount with each t[f] repeated d times: bin b*d*d + i*d + f(i) adds its
        # weights in code order, so every row has the bits of d bincounts of its own;
        # each row's last bin, i = f(i) = d - 1, occurs, so no minlength is needed
        b = bins if t.ndim == 1 else (bins + d * d * np.arange(len(t))[:, None]).ravel()
        return np.bincount(b, weights=t.repeat(d)).reshape(t.shape[:-1] + (d, d))

    return marginal


def correlation_coefficients(t) -> np.ndarray:
    """Correlation coefficients C(f) = t[f] - prod_i q(i, f(i)), code order.

    ``q`` is the marginal matrix of ``t``; the coefficients lie in [-1, 1],
    sum to 0, and vanish identically when positions are independent.
    """
    t = admit_array(t, "Markov tensor", float, 1)
    return t - product_probabilities(tensor_to_matrix(t))


def scalar_product_via_tensors(
    tq, tp, verify_product_form: bool = False, tol: float = DEFAULT_TOL
) -> float:
    """Scalar product evaluated as sum_f tq[f] * tp[f].

    Equals :func:`scalar_product` of the underlying matrices whenever both
    tensors are product-form (built by :func:`product_probabilities`).  The
    quantity is still computable for correlated tensors but is then not the
    matrix scalar product; pass ``verify_product_form=True`` to check the
    assumption (costs a d**d scan per tensor).
    """
    tol = admit_tol(tol)
    tq = admit_array(tq, "'tq'", float, 1)
    tp = admit_array(tp, "'tp'", float, 1)
    if tq.shape != tp.shape:
        raise DimensionMismatchError(f"tensor sizes {tq.size} and {tp.size} differ")
    if verify_product_form:
        for name, t in (("first", tq), ("second", tp)):
            worst = float(np.abs(correlation_coefficients(t)).max())
            if worst > tol:
                raise NotProductFormError(f"{name} tensor carries correlations up to {worst:.3g} (> {tol:g})")
    return float(tq @ tp)


def local_gini_vector(q) -> np.ndarray:
    """Per-position Gini indices of the rows of a row Markov matrix."""
    return gini_index(admit_square(q, "row Markov matrix", float))


def total_gini(t) -> float:
    """Gini index of the d**d joint probabilities of a Markov tensor.

    Sensitive to correlations between positions, unlike the Gini vector.
    """
    return gini_index(admit_array(t, "Markov tensor", float, 1))
