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
    DimensionTooLargeError,
    NotProductFormError,
    ValidationError,
)
from .probvec import DEFAULT_TOL, gini_index, validate_prob_vector

#: Largest d of a code-indexed object: at most 6**6 = 46656 codes.
MAX_ENUMERATION_D = 6


def code_count(d: int) -> int:
    """The number of codes, d**d, once d is admitted against ``MAX_ENUMERATION_D``."""
    if not 1 <= d <= MAX_ENUMERATION_D:
        error = DimensionTooLargeError if d > MAX_ENUMERATION_D else ValidationError
        raise error(f"'d' = {d} outside [1, {MAX_ENUMERATION_D}] for a code-indexed object")
    return d**d


def encode(digits, d: int):
    """The code sum_i digits[i] * d**i; each digit is an int or a column of many codes' digits."""
    return sum(digit * d**i for i, digit in enumerate(digits))


def decode(code, d: int) -> list:
    """The d little-endian base-d digits of a code, or digit columns of a code array."""
    return [(code // d**i) % d for i in range(d)]


def tensor_dimension(size: int) -> int:
    """Invert size = d**d: the d of a flat code-indexed array, admitted by :func:`code_count`."""
    d = 1
    while d**d < size:
        d += 1
    if d**d != size:
        raise ValidationError(f"array of length {size} is not d**d for any d")
    code_count(d)
    return d


@dataclass(frozen=True)
class FunctionMap:
    """A map f: {0..d-1} -> {0..d-1}, stored as its tuple of images.

    ``FunctionMap((1, 2, 1))`` is the map 0->1, 1->2, 2->1.  The dimension is
    the tuple length and the canonical integer code is little-endian base d.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(v) for v in self.images)
        d = len(images)
        if d == 0:
            raise ValidationError("function map must have at least one image")
        for i, v in enumerate(images):
            if not 0 <= v < d:
                raise ValidationError(f"image f({i}) = {v} outside [0, {d})")
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
        if not 0 <= code < code_count(d):
            raise ValidationError(f"code {code} outside [0, {d}**{d})")
        return cls(tuple(decode(code, d)))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_permutation(self) -> bool:
        return len(set(self.images)) == self.d


def compose(f: FunctionMap, g: FunctionMap) -> FunctionMap:
    """The composition f o g, i.e. i -> f[g(i)].

    Satisfies ``function_to_matrix(g) @ function_to_matrix(f) ==
    function_to_matrix(compose(f, g))``.
    """
    if f.d != g.d:
        raise DimensionMismatchError(f"maps have dimensions {f.d} and {g.d}")
    return FunctionMap(tuple(f.images[v] for v in g.images))


def function_to_matrix(f: FunctionMap) -> np.ndarray:
    """The 0/1 matrix M_f with M_f(i, j) = 1 iff f(i) = j.

    Each row has exactly one 1; columns may hold several.  M_f is a
    permutation matrix exactly when f is bijective.
    """
    d = f.d
    m = np.zeros((d, d))
    m[np.arange(d), f.images] = 1.0
    return m


@functools.lru_cache(maxsize=None)
def function_table(d: int) -> np.ndarray:
    """All d**d image tuples as a read-only (d**d, d) array, in code order.

    Row ``c`` holds the images of ``FunctionMap.from_code(c, d)``.
    """
    table = np.stack(decode(np.arange(code_count(d)), d), axis=1)
    table.setflags(write=False)
    return table


def all_function_maps(d: int):
    """Iterate over all d**d maps in code order."""
    for code in range(code_count(d)):
        yield FunctionMap.from_code(code, d)


def validate_row_markov(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a row Markov matrix; each row is cleaned as a probability vector."""
    try:
        q = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge ints
        raise ValidationError("row Markov matrix must be a square array of numbers") from None
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
        raise ValidationError("row Markov matrix must be square and non-empty")
    rows = []
    for i, row in enumerate(q):
        try:
            rows.append(validate_prob_vector(row, tol))
        except ValidationError as exc:
            raise type(exc)(f"row {i}: {exc}") from None
    return np.vstack(rows)


def validate_markov_tensor(tensor, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a flat Markov tensor of d**d joint probabilities (code order)."""
    try:
        t = np.asarray(tensor, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or huge ints
        raise ValidationError("Markov tensor must be a flat 1-D array of numbers") from None
    if t.ndim != 1:
        raise ValidationError("Markov tensor must be a flat 1-D array")
    tensor_dimension(t.size)  # raises unless the length is d**d under the code cap
    return validate_prob_vector(t, tol)


def uniform_matrix(d: int) -> np.ndarray:
    """The rank-one doubly stochastic matrix with every entry 1/d."""
    if d < 1:
        raise ValidationError("dimension must be positive")
    return np.full((d, d), 1.0 / d)


def push_forward(x, q) -> np.ndarray:
    """The probability vector x @ q (row vector times row Markov matrix)."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    if x.ndim != 1 or q.ndim != 2 or q.shape[0] != x.size or q.shape[1] != x.size:
        raise DimensionMismatchError(
            f"cannot push a {x.size}-vector through a {q.shape} matrix"
        )
    return x @ q


def scalar_product(q, p) -> float:
    """Scalar product of two row Markov matrices.

    ``(q, p) = prod_i sum_j q(i, j) p(i, j)``: the probability that one safe
    drawn from each of two independent ensembles shares a full opening
    sequence.  Symmetric, in [0, 1], and (M_f, M_g) = delta(f, g).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
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
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError("expected a square matrix")
    d = q.shape[0]
    table = function_table(d)
    weights = np.ones(d**d)
    for i in range(d):
        weights *= q[i, table[:, i]]
    return weights


def tensor_to_matrix(t) -> np.ndarray:
    """Marginalize a Markov tensor into its row Markov matrix.

    ``q(i, j) = sum over maps f with f(i) = j of t[f]``.  Together with
    :func:`product_probabilities` this realizes both directions of the
    expansion ``q = sum_f t(f) M_f``; the expansion is not unique, so this
    does not invert an arbitrary tensor back from its matrix.
    """
    t = np.asarray(t, dtype=float)
    d = tensor_dimension(t.size)
    # one bincount with each t[f] repeated d times: bin i*d + j still adds
    # its weights in code order, so the bits are those of d bincounts
    return np.bincount(_marginal_bins(d), weights=t.repeat(d), minlength=d * d).reshape(d, d)


@functools.lru_cache(maxsize=None)
def _marginal_bins(d: int) -> np.ndarray:
    """Read-only bins i*d + f(i) of every code f (major) and position i (minor)."""
    bins = (function_table(d) + d * np.arange(d)).ravel()
    bins.setflags(write=False)
    return bins


def correlation_coefficients(t) -> np.ndarray:
    """Correlation coefficients C(f) = t[f] - prod_i q(i, f(i)), code order.

    ``q`` is the marginal matrix of ``t``; the coefficients lie in [-1, 1],
    sum to 0, and vanish identically when positions are independent.
    """
    t = np.asarray(t, dtype=float)
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
    tq = np.asarray(tq, dtype=float)
    tp = np.asarray(tp, dtype=float)
    if tq.shape != tp.shape:
        raise DimensionMismatchError(f"tensor sizes {tq.size} and {tp.size} differ")
    if verify_product_form:
        for name, t in (("first", tq), ("second", tp)):
            worst = float(np.abs(correlation_coefficients(t)).max())
            if worst > tol:
                raise NotProductFormError(
                    f"{name} tensor carries correlations up to {worst:.3g} (> {tol:g})"
                )
    return float(tq @ tp)


def local_gini_vector(q) -> np.ndarray:
    """Per-position Gini indices of the rows of a row Markov matrix."""
    return gini_index(q)


def total_gini(t) -> float:
    """Gini index of the d**d joint probabilities of a Markov tensor.

    Sensitive to correlations between positions, unlike the Gini vector.
    """
    return gini_index(t)
