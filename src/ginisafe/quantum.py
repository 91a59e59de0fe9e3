"""Multipartite qudit statistics under local and global Fourier transforms.

A d-partite system of qudits lives on a d**d-dimensional space.  Basis
ordering is fixed once for the whole package: the basis ket labelled by the
tuple (j_0, ..., j_{d-1}) sits at flat index ``j_0 + j_1 d + ... +
j_{d-1} d^{d-1}``; component 0 is the least significant digit.  This is the
same little-endian encoding used for opening-sequence codes in
:mod:`ginisafe.markov`, so one codec serves both the classical and the
quantum side.

Two inequivalent Fourier transforms act on that space:

* the local transform ``F_L = F tensor ... tensor F`` (one single-qudit DFT
  per component), and
* the global transform ``F_G``, the plain DFT of size d**d applied to the
  flat index; products of indices are reduced mod d**d with exact integer
  arithmetic before any phase is formed, never in floating point.

``F_L**2`` is the componentwise parity permutation (j_i -> -j_i mod d), while
``F_G**2`` is the flat parity permutation (m -> -m mod d**d).  These two
permutations are different whenever d >= 2 (mod-d**d negation carries across
digits), so F_L and F_G genuinely differ already at the level of their
squares.  Both transforms are unitary with fourth power 1.

Statistics of a state rho: measuring component i in the computational basis
gives a row Markov matrix q(i, j); measuring all components jointly gives a
Markov tensor over opening-sequence codes.  "Dual" statistics are the plain
statistics of F† rho F for the chosen transform.

Every dual goes through :func:`apply_dual`, which applies F† without forming
a d**d x d**d matrix: an FFT for F_G, and d passes of the d x d single-qudit
F† for F_L.  The dense builders (:func:`dft_unitary`,
:func:`local_fourier`, :func:`global_fourier`) are the oracles it is tested
against.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    IndexOutOfRangeError,
    ValidationError,
)
from .markov import (
    FunctionMap,
    function_table,
    local_gini_vector,
    product_probabilities,
    tensor_to_matrix,
    total_gini,
    validate_markov_tensor,
)

#: Largest number of qudit components supported (3125-dimensional space).
MAX_COMPONENTS = 5

#: Largest d for which the dense oracle F_L is materialized (256 x 256 at d = 4).
MAX_DENSE_LOCAL = 4

#: Distance above the eigenvalue floor at which a Cholesky factorization
#: certifies a density without an eigendecomposition.
_CHOLESKY_MARGIN = 1e-10

SINGLE = "single"
LOCAL = "local"
GLOBAL = "global"


# ---------------------------------------------------------------------------
# Index codec
# ---------------------------------------------------------------------------

def local_dimension(dim: int) -> int:
    """Invert dim = d**d; the per-component dimension of a multipartite space."""
    for d in range(1, MAX_COMPONENTS + 1):
        if d**d == dim:
            return d
    raise ValidationError(f"dimension {dim} is not d**d for any d <= {MAX_COMPONENTS}")


def tuple_to_index(components, d: int) -> int:
    """Flat index of a component tuple: sum_i (j_i mod d) * d**i, mod d**d."""
    comps = tuple(int(v) % d for v in components)
    if len(comps) != d:
        raise DimensionMismatchError(f"expected {d} components, got {len(comps)}")
    return sum(v * d**i for i, v in enumerate(comps)) % d**d


def index_to_tuple(index: int, d: int) -> tuple[int, ...]:
    """Component tuple of a flat index (little-endian base-d digits)."""
    index = int(index) % d**d
    return tuple((index // d**i) % d for i in range(d))


def index_product(j_components, k_components, d: int) -> int:
    """The product of two flat indices, reduced mod d**d exactly.

    This is integer arithmetic on the encoded indices; it is *not* the
    componentwise product (the two rings are not isomorphic).
    """
    return (tuple_to_index(j_components, d) * tuple_to_index(k_components, d)) % d**d


# ---------------------------------------------------------------------------
# Fourier transforms and parity permutations
# ---------------------------------------------------------------------------

def dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries omega_n(j k)/sqrt(n), omega_n = exp(2 pi i / n).

    The exponent j*k is reduced mod n in integer arithmetic so that the
    fourth-power identity survives at large n.
    """
    if n < 2:
        raise ValidationError("Fourier dimension must be >= 2")
    k = np.arange(n, dtype=np.int64)
    phases = np.outer(k, k) % n
    return np.exp(2j * np.pi * phases / n) / np.sqrt(n)


def fourier_single(d: int) -> np.ndarray:
    """Single-qudit Fourier matrix F on H_d; F F† = 1 and F**4 = 1."""
    return dft_unitary(d)


def _check_components(d: int, limit: int = MAX_COMPONENTS):
    if d < 2:
        raise ValidationError("number of components d must be >= 2")
    if d > limit:
        raise DimensionTooLargeError(
            f"d = {d} needs a {d**d}-dimensional space; supported up to d = {limit}"
        )


def kron_chain(ops) -> np.ndarray:
    """Tensor product of per-component operators under the package basis order.

    ``ops[i]`` acts on component i.  Component 0 is the least significant
    digit of the flat index, so the kron chain runs over ops in reverse.
    """
    ops = list(ops)
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = np.kron(out, op)
    return out


def local_fourier(d: int) -> np.ndarray:
    """Dense local Fourier transform F_L = F^(tensor d) on the d**d space.

    A test oracle for :func:`apply_dual`, which applies F_L† without this
    matrix; materialized only for d <= 4.
    """
    _check_components(d, limit=MAX_DENSE_LOCAL)
    f = fourier_single(d)
    return kron_chain([f] * d)


def global_fourier(d: int) -> np.ndarray:
    """Dense global Fourier transform F_G on the d**d space.

    The entry at (flat j, flat k) is omega_{d**d}(j k mod d**d)/sqrt(d**d);
    F_G has no tensor factorization over the components.  A test oracle for
    :func:`apply_dual`, which applies F_G† as an FFT; d = 5 allocates a
    3125 x 3125 complex matrix (~156 MB).
    """
    _check_components(d)
    return dft_unitary(d**d)


def parity_matrix(n: int) -> np.ndarray:
    """Flat parity permutation on H_n: |j> -> |-j mod n>.  Equals DFT**2."""
    p = np.zeros((n, n))
    j = np.arange(n)
    p[(-j) % n, j] = 1.0
    return p


def componentwise_parity(d: int) -> np.ndarray:
    """Componentwise parity on the d**d space: each j_i -> -j_i mod d.

    Equals F_L**2, and differs from the flat parity F_G**2 for every d >= 2.
    """
    _check_components(d)
    dim = d**d
    table = function_table(d)
    neg = ((d - table) % d * (d ** np.arange(d))).sum(axis=1)
    p = np.zeros((dim, dim))
    p[neg, np.arange(dim)] = 1.0
    return p


@functools.lru_cache(maxsize=8)
def _single_dagger(d: int) -> np.ndarray:
    f_dagger = fourier_single(d).conj().T
    f_dagger.setflags(write=False)
    return f_dagger


def apply_dual(x, d: int, mode: str) -> np.ndarray:
    """F† x along axis 0, for a vector, an (N, B) batch or an N x N matrix.

    ``mode`` is ``"single"`` (the single-qudit F, N = d, any d >= 2),
    ``"local"`` (F_L, N = d**d) or ``"global"`` (F_G, N = d**d).  Single
    mode multiplies by the d x d matrix F†.  F_G is the DFT with omega =
    exp(+2 pi i / N), so F_G† x = fft(x)/sqrt(N).  F_L† is d passes of the single-qudit F†
    over the leading base-d digit of the row index, each followed by rotating
    that digit to the least significant place; after d passes every digit is
    transformed and back in place.  No d**d x d**d matrix is formed.
    """
    x = np.asarray(x, dtype=complex)
    if mode == SINGLE:
        if d < 2:
            raise ValidationError("Fourier dimension must be >= 2")
        n = d
    elif mode in (LOCAL, GLOBAL):
        _check_components(d)
        n = d**d
    else:
        raise ValidationError(f"unknown transform mode {mode!r}")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatchError(
            f"a {mode} transform of size {n} cannot act on shape {x.shape}"
        )
    if mode == GLOBAL:
        return np.fft.fft(x, axis=0, norm="ortho")
    f_dagger = _single_dagger(d)
    if mode == SINGLE:
        return f_dagger @ x
    # two buffers reused across the passes keep the peak at three arrays
    product = np.empty((d, n // d, x.size // n), dtype=complex)
    rotated = np.empty((n // d, d, x.size // n), dtype=complex)
    y = x.reshape(d, -1)
    for _ in range(d):
        np.matmul(f_dagger, y, out=product.reshape(d, -1))
        rotated[...] = product.transpose(1, 0, 2)
        y = rotated.reshape(d, -1)
    return rotated.reshape(x.shape)


# ---------------------------------------------------------------------------
# States and projectors
# ---------------------------------------------------------------------------

def elementary_projector(j: int, d: int) -> np.ndarray:
    """Rank-one projector |j><j| on a single qudit."""
    if not 0 <= j < d:
        raise IndexOutOfRangeError(f"level {j} outside [0, {d})")
    p = np.zeros((d, d), dtype=complex)
    p[j, j] = 1.0
    return p


def projector_local(i: int, j: int, d: int) -> np.ndarray:
    """Projector onto level j of component i, identity elsewhere.

    Diagonal in the computational basis: the flat index m is kept when digit
    i of m equals j.  For each i the family sums to the identity over j, and
    all projectors of this family commute pairwise.
    """
    _check_components(d)
    if not 0 <= i < d:
        raise IndexOutOfRangeError(f"component {i} outside [0, {d})")
    if not 0 <= j < d:
        raise IndexOutOfRangeError(f"level {j} outside [0, {d})")
    mask = (function_table(d)[:, i] == j).astype(complex)
    return np.diag(mask)


def projector_function(f: FunctionMap) -> np.ndarray:
    """Rank-one projector onto the basis ket labelled by the map f.

    Equals the product over positions i of ``projector_local(i, f(i), d)``;
    the d**d projectors of this family resolve the identity.
    """
    d = f.d
    _check_components(d)
    p = np.zeros((d**d, d**d), dtype=complex)
    p[f.code, f.code] = 1.0
    return p


def basis_state(f: FunctionMap) -> np.ndarray:
    """The computational basis ket |f(0), ..., f(d-1)> as an amplitude vector."""
    psi = np.zeros(f.d ** f.d, dtype=complex)
    psi[f.code] = 1.0
    return psi


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def pure_density(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def validate_density_matrix(
    rho,
    tol_hermitian: float = 1e-10,
    tol_trace: float = 1e-10,
    eig_floor: float = -1e-8,
    repair: bool = False,
) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian, unit trace, eigenvalues >= floor.

    Positivity is first certified without an eigendecomposition: if the
    Hermitian part H admits a Cholesky factorization of
    ``H - (eig_floor + margin) I``, every eigenvalue of H lies above the floor
    and the matrix is returned unchanged.  The margin, 1e-10, is far above
    the rounding of either route, of order N eps |H| <= 7e-13 for a density
    at N = 3125.  When the factorization fails, ``np.linalg.eigh`` decides
    and names the smallest eigenvalue, so admission decisions and error
    texts are those of ``eigh``.

    With ``repair=True`` the spectrum is always computed: small negative
    eigenvalues are clipped to zero and the spectrum renormalized (useful
    after file round-trips); otherwise the validated matrix is returned
    unchanged.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix contains non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > tol_hermitian:
        raise ValidationError(f"not Hermitian: max |rho - rho†| = {herm:.3g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_trace:
        raise ValidationError(f"trace is {tr:.12g}, not 1 within {tol_trace:g}")
    hermitian_part = (rho + rho.conj().T) / 2.0
    if not repair:
        shifted = hermitian_part.copy()
        shifted.flat[:: rho.shape[0] + 1] -= eig_floor + _CHOLESKY_MARGIN
        try:
            np.linalg.cholesky(shifted)
            return rho
        except np.linalg.LinAlgError:
            pass  # not certified: eigh below decides
    eigvals, eigvecs = np.linalg.eigh(hermitian_part)
    if eigvals.min() < eig_floor:
        raise ValidationError(
            f"negative eigenvalue {eigvals.min():.3g} below floor {eig_floor:g}"
        )
    if repair:
        clipped = np.clip(eigvals, 0.0, None)
        clipped /= clipped.sum()
        return (eigvecs * clipped) @ eigvecs.conj().T
    return rho


def reduced_density(rho, i: int) -> np.ndarray:
    """Reduced density matrix of component i (partial trace over the rest)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    d = local_dimension(dim)
    if not 0 <= i < d:
        raise IndexOutOfRangeError(f"component {i} outside [0, {d})")
    t = rho.reshape((d,) * (2 * d))
    # C-order reshape puts component i at axis d - 1 - i (rows) and
    # 2d - 1 - i (columns); all other row/column axis pairs are traced.
    letters = string.ascii_lowercase
    row = list(letters[:d])
    col = list(letters[:d])
    row[d - 1 - i] = "y"
    col[d - 1 - i] = "z"
    spec = "".join(row) + "".join(col) + "->yz"
    return np.einsum(spec, t)


# ---------------------------------------------------------------------------
# State statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateStats:
    """Classical sequence statistics of a multipartite state.

    ``tensor`` holds the joint probabilities over opening-sequence codes (the
    diagonal of the state), ``markov`` the per-component measurement
    probabilities (the marginals of ``tensor``; row i is the diagonal of the
    reduced density of component i), ``products`` the independent-positions
    weights built from ``markov``, and ``correlations`` their difference.
    """

    d: int
    markov: np.ndarray
    tensor: np.ndarray
    products: np.ndarray
    correlations: np.ndarray
    gini_vector: np.ndarray
    total_gini: float


def _diagonal_tensor(rho: np.ndarray, d: int) -> np.ndarray:
    diag = np.real(np.diag(rho))
    return validate_markov_tensor(diag, tol=1e-8, d=d)


def state_stats(rho) -> StateStats:
    """Measurement statistics of a state on the d**d-dimensional space.

    The Markov tensor is the diagonal of rho; the Markov matrix holds its
    marginals, whose row i is the diagonal of the reduced density of
    component i.  Joint statistics are blind to off-diagonal elements of rho
    (only duals under the global transform can see those).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    d = local_dimension(rho.shape[0])
    tensor = _diagonal_tensor(rho, d)
    markov = tensor_to_matrix(tensor)
    products = product_probabilities(markov)
    return StateStats(
        d=d,
        markov=markov,
        tensor=tensor,
        products=products,
        correlations=tensor - products,
        gini_vector=local_gini_vector(markov),
        total_gini=total_gini(tensor),
    )


def dual_state(rho, mode: str) -> np.ndarray:
    """The Fourier-transformed state F† rho F for the chosen transform.

    ``mode`` is one of ``"single"`` (single-qudit F, any dimension >= 2),
    ``"local"`` (F_L on a d**d space) or ``"global"`` (F_G on a d**d space).
    Plain statistics of the returned state are the dual statistics of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    dim = rho.shape[0]
    d = dim if mode == SINGLE else local_dimension(dim)  # raises for non d**d dims
    # F† rho F = (F† (F† rho)†)†: both factors apply F† from the left.  The
    # C-order copy lets the local transform reshape its input without a copy.
    half = np.conjugate(apply_dual(rho, d, mode).T, order="C")
    return apply_dual(half, d, mode).conj().T


def state_scalar_product(rho, sigma) -> float:
    """Scalar product of the Markov matrices of two states.

    The probability that componentwise measurements on one system from each
    ensemble agree everywhere.  Basis kets give (q_f, q_g) = delta(f, g).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(
            f"state dimensions {rho.shape[0]} and {sigma.shape[0]} differ"
        )
    from .markov import scalar_product

    return scalar_product(state_stats(rho).markov, state_stats(sigma).markov)


@dataclass(frozen=True)
class UncertaintyDeficits:
    """Gini uncertainty deficits of a state under local and global duals.

    Component entries compare each local Gini index with its dual; totals
    compare the joint-tensor Gini indices.  All four quantities are strictly
    positive for every state; that positivity is the uncertainty relation.
    """

    local_components: np.ndarray
    local_total: float
    global_components: np.ndarray
    global_total: float


def uncertainty_deficits(rho) -> UncertaintyDeficits:
    """Compute the four Gini uncertainty deficits of a multipartite state."""
    rho = np.asarray(rho, dtype=complex)
    d = local_dimension(rho.shape[0])
    dim = d**d
    cap_comp = 2.0 * (d - 1) / (d + 1)
    cap_total = 2.0 * (dim - 1) / (dim + 1)
    plain = state_stats(rho)
    loc = state_stats(dual_state(rho, LOCAL))
    glo = state_stats(dual_state(rho, GLOBAL))
    return UncertaintyDeficits(
        local_components=cap_comp - (plain.gini_vector + loc.gini_vector),
        local_total=cap_total - (plain.total_gini + loc.total_gini),
        global_components=cap_comp - (plain.gini_vector + glo.gini_vector),
        global_total=cap_total - (plain.total_gini + glo.total_gini),
    )
