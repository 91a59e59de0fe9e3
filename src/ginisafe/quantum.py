"""Multipartite qudit statistics under local and global Fourier transforms.

A d-partite system of qudits lives on a d**d-dimensional space.  Basis
ordering is fixed once for the whole package: the basis ket labelled by the
tuple (j_0, ..., j_{d-1}) sits at flat index ``j_0 + j_1 d + ... +
j_{d-1} d^{d-1}``; component 0 is the least significant digit: the code of
the map i -> j_i in the package's one codec, that of :mod:`ginisafe.markov`.

Every state (density, amplitude vector, dual, searched pure state, basis
ket) has one cap, dimension 5**5 = 3125 or ``MAX_COMPONENTS`` = 5 components,
checked by :func:`check_state_dim`, :func:`admit_transform` or a basis ket's
d before any d**d is formed.

Two inequivalent Fourier transforms act on that space:

* the local transform ``F_L = F tensor ... tensor F`` (one single-qudit DFT
  per component), and
* the global transform ``F_G``, the plain DFT of size d**d applied to the
  flat index.

``F_L**2`` is the componentwise parity permutation (j_i -> -j_i mod d), while
``F_G**2`` is the flat parity permutation (m -> -m mod d**d).  These two
permutations are different whenever d >= 2 (mod-d**d negation carries across
digits), so F_L and F_G genuinely differ already at the level of their
squares.  Both transforms are unitary with fourth power 1.

Statistics of a state rho: measuring component i in the computational basis
gives a row Markov matrix q(i, j); measuring all components jointly gives a
Markov tensor over opening-sequence codes.  "Dual" statistics are the plain
statistics of F† rho F for the chosen transform.  The overlap (q_rho, q_sigma)
of two states is :func:`markov.scalar_product` of their ``StateStats.markov``.

Every dual goes through :func:`apply_dual`, which applies F† without forming
a d**d x d**d matrix: an FFT for F_G, and d passes of the d x d single-qudit
F† for F_L.  The single-qudit transform multiplies by F† for d <= 256 and
is an FFT above that.  A caller that applies several duals at one admitted
(d, mode), a search or :func:`dual_state`, binds the transform once,
unchecked, through ``_dual_transform``.  No dense F_L or F_G is built here:
the tests build them as their oracles.

A state is a density matrix or, for a pure state, a 1-D complex amplitude
vector psi, which no statistic expands into |psi><psi|.  Dual statistics
need only the diagonal of F† rho F: for a ket it is |F† psi|**2, and for a
density :func:`dual_probabilities` forms it from sums along rho's wrapped
diagonals without the dual state.  :func:`dual_state` serves the ``dual``
verb, which outputs the state, and is the oracle of the diagonal route.
Every diagonal, a state's or a dual's, ket or density, becomes
probabilities through ``_probabilities``: validated at ``PROBABILITY_TOL``,
then clipped to [0, 1] and renormalized.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ValidationError,
    admit_array,
    admit_int,
    admit_square,
)
from .markov import (
    FunctionMap,
    local_gini_vector,
    product_probabilities,
    tensor_dimension,
    tensor_to_matrix,
    total_gini,
)
from .probvec import _additive_cap, validate_prob_vector

#: Largest number of qudit components: every state has dimension at most 5**5 = 3125.
MAX_COMPONENTS = 5

#: A state's or a dual's diagonal must be a probability vector within this
#: tolerance; :func:`probvec.validate_prob_vector` then clips it to [0, 1]
#: and renormalizes it.
PROBABILITY_TOL = 1e-8

#: The smallest eigenvalue a density may have, and the distance above it at
#: which a Cholesky factorization certifies a density without an eigendecomposition.
_EIG_FLOOR = -1e-8
_CHOLESKY_MARGIN = 1e-10

#: Largest max |rho - rho†| and |tr rho - 1| a density may show.
_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10

SINGLE = "single"
LOCAL = "local"
GLOBAL = "global"


# ---------------------------------------------------------------------------
# State cap
# ---------------------------------------------------------------------------

def check_state_dim(dim: int) -> int:
    """The state cap: admit a state dimension in [1, 5**5] and return it."""
    return admit_int(dim, "state 'dim'", 1, MAX_COMPONENTS**MAX_COMPONENTS)


def local_dimension(dim: int) -> int:
    """Invert dim = d**d under the state cap; the per-component dimension."""
    return tensor_dimension(check_state_dim(dim))


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

def admit_transform(d: int, mode: str) -> tuple[int, int]:
    """The state cap on a transform's d, by :func:`errors.admit_int`, and the dimension of its space.

    ``"single"`` admits d <= 3125 on a space of dimension d, the other modes d <= 5 on one of d**d.
    """
    if mode not in (SINGLE, LOCAL, GLOBAL):
        raise ValidationError(f"unknown transform mode {mode!r}")
    if mode == SINGLE:
        d = admit_int(d, "Fourier dimension 'd'", 2, MAX_COMPONENTS**MAX_COMPONENTS)
        return d, d
    d = admit_int(d, f"{mode} transform's 'd'", 2, MAX_COMPONENTS)
    return d, d**d


#: The largest d at which single mode multiplies by F†; past it, an FFT is
#: cheaper per vector and needs no d x d matrix (156 MB at d = 3125).
_SMALL_DAGGER_D = 256


@functools.lru_cache(maxsize=8)
def _single_dagger(d: int) -> np.ndarray:
    """The read-only single-qudit F† for d <= _SMALL_DAGGER_D, kept for eight d.

    F has entries omega_d(j k)/sqrt(d), omega_d = exp(2 pi i / d); the
    exponent j k is reduced mod d in integer arithmetic before any phase is formed.
    """
    k = np.arange(d, dtype=np.int64)
    f_dagger = (np.exp(2j * np.pi * (np.outer(k, k) % d) / d) / np.sqrt(d)).conj().T
    f_dagger.setflags(write=False)
    return f_dagger


def _local_passes(f_dagger: np.ndarray, d: int, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    # two buffers reused across the passes keep the peak at three arrays
    product = np.empty((d, n // d, x.size // n), dtype=complex)
    rotated = np.empty((n // d, d, x.size // n), dtype=complex)
    y = x.reshape(d, -1)
    for _ in range(d):
        np.matmul(f_dagger, y, out=product.reshape(d, -1))
        rotated[...] = product.transpose(1, 0, 2)
        y = rotated.reshape(d, -1)
    return rotated.reshape(x.shape)


def _dual_transform(d: int, mode: str):
    """The unchecked map x -> F† x along axis 0 for an admitted (d, mode).

    F† is bound once, so a caller that applies many transforms at one
    (d, mode) pays for the lookup and the checks of :func:`apply_dual` once.
    """
    if mode == GLOBAL or d > _SMALL_DAGGER_D:  # local mode has d <= 5
        return functools.partial(np.fft.fft, axis=0, norm="ortho")
    f_dagger = _single_dagger(d)
    if mode == SINGLE:
        return functools.partial(np.matmul, f_dagger)
    return functools.partial(_local_passes, f_dagger, d)


def apply_dual(x, d: int, mode: str) -> np.ndarray:
    """F† x along axis 0, for a vector, an (N, B) batch or an N x N matrix.

    ``mode`` is ``"single"`` (the single-qudit F, N = d),
    ``"local"`` (F_L, N = d**d) or ``"global"`` (F_G, N = d**d).  Single
    mode multiplies by the d x d matrix F† for d <= 256 and applies the FFT
    above that.  F_G is the DFT with omega = exp(+2 pi i / N), so F_G† x =
    fft(x)/sqrt(N), and likewise F† x = fft(x)/sqrt(d).  F_L† is d passes of the single-qudit F†
    over the leading base-d digit of the row index, each followed by rotating
    that digit to the least significant place; after d passes every digit is
    transformed and back in place.  :func:`admit_transform` admits d, and no
    d**d x d**d matrix is formed.
    """
    x = admit_array(x, "'x'", complex, (1, 2))
    d, n = admit_transform(d, mode)
    if x.shape[0] != n:
        raise DimensionMismatchError(f"a {mode} transform of size {n} cannot act on shape {x.shape}")
    return _dual_transform(d, mode)(x)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def basis_state(f: FunctionMap) -> np.ndarray:
    """The computational basis ket |f(0), ..., f(d-1)> as an amplitude vector, for d <= MAX_COMPONENTS."""
    d = admit_int(f.d, "basis state's 'd'", 1, MAX_COMPONENTS)
    psi = np.zeros(d**d, dtype=complex)
    psi[f.code] = 1.0
    return psi


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    dim = check_state_dim(dim)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def pure_density(psi) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized amplitude vector."""
    psi = admit_array(psi, "amplitude vector", complex, 1)
    check_state_dim(psi.size)
    return np.outer(psi, psi.conj())


def validate_density_matrix(rho, repair: bool = False) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian and of unit trace to 1e-10, eigenvalues >= -1e-8.

    Positivity is first certified without an eigendecomposition: if the
    Hermitian part H admits a Cholesky factorization of
    ``H - (_EIG_FLOOR + margin) I``, every eigenvalue of H lies above the floor
    and the matrix is returned unchanged.  The margin, 1e-10, is far above
    the rounding of either route, of order N eps |H| <= 7e-13 for a density
    at N = 3125.  When the factorization fails, ``np.linalg.eigh`` decides
    and names the smallest eigenvalue, so admission decisions and error
    texts are those of ``eigh``.

    With ``repair=True`` the spectrum is always computed: small negative
    eigenvalues are clipped to zero and the spectrum renormalized (useful
    after file round-trips); otherwise the validated matrix is returned
    unchanged.  Up to the certificate the checks hold two N x N arrays besides
    ``rho``: one buffer (rho - rho†, then H shifted in place) and the Cholesky factor.
    The buffer is dropped once ``eigh`` returns, so the repair holds three:
    the eigenvectors, scaled in place, their adjoint and the product.
    """
    rho = admit_square(rho, "density matrix", complex)
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix contains non-finite entries")
    buf = np.conjugate(rho.T, out=np.empty_like(rho))
    herm = np.abs(np.subtract(rho, buf, out=buf)).max()
    if herm > _HERMITIAN_TOL:
        raise ValidationError(f"not Hermitian: max |rho - rho†| = {herm:.3g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValidationError(f"trace is {tr:.12g}, not 1 within {_TRACE_TOL:g}")
    hermitian_part = np.add(rho, np.conjugate(rho.T, out=buf), out=buf)
    hermitian_part /= 2.0
    if not repair:
        diagonal = hermitian_part.diagonal().copy()
        hermitian_part.flat[:: rho.shape[0] + 1] -= _EIG_FLOOR + _CHOLESKY_MARGIN
        try:
            np.linalg.cholesky(hermitian_part)
            return rho
        except np.linalg.LinAlgError:
            np.fill_diagonal(hermitian_part, diagonal)  # not certified: eigh below decides
    eigvals, eigvecs = np.linalg.eigh(hermitian_part)
    del buf, hermitian_part
    if eigvals.min() < _EIG_FLOOR:
        raise ValidationError(f"negative eigenvalue {eigvals.min():.3g} below floor {_EIG_FLOOR:g}")
    if repair:
        clipped = np.clip(eigvals, 0.0, None)
        clipped /= clipped.sum()
        adjoint = eigvecs.conj().T
        eigvecs *= clipped  # in place: the bits of eigvecs * clipped
        return eigvecs @ adjoint
    return rho


# ---------------------------------------------------------------------------
# State statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


def state_stats(rho) -> StateStats:
    """Measurement statistics of a density or an amplitude vector on the d**d-dimensional space.

    The Markov tensor is the diagonal of rho; the Markov matrix holds its
    marginals, whose row i is the diagonal of the reduced density of
    component i.  Joint statistics are blind to off-diagonal elements of rho
    (only duals under the global transform can see those).
    """
    return tensor_stats(_probabilities(*_admit_state(rho)))


def tensor_stats(tensor: np.ndarray) -> StateStats:
    """The statistics of a validated Markov tensor, such as the output of :func:`dual_probabilities`."""
    tensor = admit_array(tensor, "Markov tensor", float, 1)
    markov = tensor_to_matrix(tensor)
    products = product_probabilities(markov)
    return StateStats(
        d=markov.shape[0],
        markov=markov,
        tensor=tensor,
        products=products,
        correlations=tensor - products,
        gini_vector=local_gini_vector(markov),
        total_gini=total_gini(tensor),
    )


def diagonal_probabilities(rho) -> np.ndarray:
    """The computational-basis probabilities of a density or an amplitude vector of any dimension."""
    return _probabilities(*_admit_state(rho, any_dim=True))


def _admit_state(x, mode: str | None = None, *, any_dim: bool = False) -> tuple[np.ndarray, int | None]:
    """A state and its d: that of the `mode`'s transform, or d**d = dim for no mode.

    With `any_dim` the dim is neither checked nor capped and d is None: a
    plain diagonal needs no transform.  A 1-D complex ndarray is an amplitude
    vector, by :func:`errors.admit_array`; anything else, a real vector too,
    is a density matrix, by :func:`errors.admit_square`.
    """
    ket = type(x) is np.ndarray and x.ndim == 1 and x.dtype.kind == "c"
    x = admit_array(x, "amplitude vector", complex, 1) if ket else admit_square(x, "density matrix", complex)
    if any_dim:
        return x, None
    d = x.shape[0] if mode == SINGLE else local_dimension(x.shape[0])  # raises for non d**d dims
    return x, d if mode is None else admit_transform(d, mode)[0]


def _probabilities(x: np.ndarray, d: int | None, mode: str | None = None) -> np.ndarray:
    """The diagonal of a state admitted with its d by :func:`_admit_state`, or of its `mode` dual, as probabilities.

    A ket's diagonal is |psi|**2 and its dual's |F† psi|**2; a density's dual
    diagonal is :func:`dual_probabilities`' wrapped-diagonal or digit-pair route.
    """
    if x.ndim == 1 and mode is None:
        p = (x * x.conj()).real  # the bits of the diagonal of |psi><psi|
    elif x.ndim == 1:
        y = _dual_transform(d, mode)(x)
        p = y.real**2 + y.imag**2
    elif mode is None:
        p = np.real(np.diag(x))
    elif mode == LOCAL:
        p = _local_diagonal(x, d)
    else:
        p = np.fft.ifft(_wrapped_diagonal_sums(x)).real
    return validate_prob_vector(p, PROBABILITY_TOL)


def dual_state(rho, mode: str) -> np.ndarray:
    """The Fourier-transformed state F† rho F for the chosen transform.

    ``mode`` is one of ``"single"`` (single-qudit F, dimension 2 to 3125),
    ``"local"`` (F_L on a d**d space) or ``"global"`` (F_G on a d**d space).
    Plain statistics of the returned state are the dual statistics of rho.
    An amplitude vector psi is taken as the density |psi><psi|.
    """
    rho, d = _admit_state(rho, mode)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    dual = _dual_transform(d, mode)
    # F† rho F = (F† (F† rho)†)†: both factors apply F† from the left.  The
    # C-order copy lets the local transform reshape its input without a copy.
    half = np.conjugate(dual(rho).T, order="C")
    return dual(half).conj().T


def dual_probabilities(rho, mode: str) -> np.ndarray:
    """The diagonal of F† rho F as probabilities, without forming the dual state.

    For an amplitude vector psi it is |F† psi|**2.  For a density, with
    omega = exp(2 pi i / N), (F_G† rho F_G)_mm = (1/N) sum_s c_s omega^(s m)
    where c_s = sum_j rho[j, (j + s) mod N] sums rho along a wrapped
    diagonal: one pass over rho, then an inverse FFT (single mode is the same
    with N = d).  For F_L the offsets add digitwise mod d, and each digit
    pair of rho contracts to one digit of the diagonal (``_local_diagonal``).
    The diagonal is validated as :func:`diagonal_probabilities` validates
    it; it matches the diagonal of :func:`dual_state` to rounding.
    """
    return _probabilities(*_admit_state(rho, mode), mode)


def _wrapped_diagonal_sums(rho: np.ndarray) -> np.ndarray:
    """c_s = sum_j rho[j, (j + s) mod N] for s in [0, N), read through one strided view.

    Row a of the (N - 1) x (N + 1) view of rho's first N**2 - 1 entries holds
    rho[a, a + b] at column b while a + b < N (the upper part: diagonal b)
    and rho[a + 1, a + b - N] after it (the lower part: diagonal b - N - 1).
    So c_s is the upper part of column s plus the lower part of column
    s + 1, plus rho[N-1, N-1] for s = 0, the one entry the view leaves out.
    """
    n = rho.shape[0]
    flat = rho.reshape(-1)
    view = flat[:-1].reshape(n - 1, n + 1)
    upper = np.arange(n - 1)[:, None] < n - np.arange(n + 1)
    sums = np.add.reduce(view, axis=0, where=upper)[:n]
    sums += np.add.reduce(view, axis=0, where=~upper)[1:]
    sums[0] += flat[-1]
    return sums


@functools.lru_cache(maxsize=MAX_COMPONENTS)
def _pair_kernel(d: int) -> np.ndarray:
    """K[m, j d + k] = omega_d((k - j) m)/d: a row and a column digit to one digit of the diagonal."""
    j, k = divmod(np.arange(d * d), d)
    kernel = np.exp(2j * np.pi * ((k - j) * np.arange(d)[:, None] % d) / d) / d
    kernel.setflags(write=False)
    return kernel


def _local_diagonal(rho: np.ndarray, d: int) -> np.ndarray:
    """The diagonal of F_L† rho F_L, one digit pair of rho at a time.

    The entry m is (1/N) sum over j, k of rho[j, k] prod_i omega_d((k_i - j_i) m_i),
    a product over digits.  One copy puts row digit i next to column digit i
    (most significant pair first); each pass contracts the leading pair with
    the d x d**2 kernel and rotates the new digit to the end, so after d
    passes the digits are back in order.
    """
    pairs = [axis for i in range(d) for axis in (i, d + i)]
    x = rho.reshape((d,) * (2 * d)).transpose(pairs)
    kernel = _pair_kernel(d)
    for _ in range(d):
        x = (kernel @ x.reshape(d * d, -1)).T
    return x.real.ravel()


@dataclass(frozen=True, eq=False)
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
    """Compute the four Gini uncertainty deficits of a multipartite state.

    Each deficit needs only diagonals: that of rho and those of its two duals
    (:func:`dual_probabilities`).  No dual state and no product tensor is
    formed, and an amplitude vector is never expanded into a density.
    """
    x, d = _admit_state(rho, LOCAL)  # the d of the global transform too
    cap_comp, cap_total = _additive_cap(d), _additive_cap(d**d)
    p = _probabilities(x, d)
    plain_components, plain_total = local_gini_vector(tensor_to_matrix(p)), total_gini(p)
    loc = _probabilities(x, d, LOCAL)
    glo = _probabilities(x, d, GLOBAL)
    return UncertaintyDeficits(
        local_components=cap_comp - (plain_components + local_gini_vector(tensor_to_matrix(loc))),
        local_total=cap_total - (plain_total + total_gini(loc)),
        global_components=cap_comp - (plain_components + local_gini_vector(tensor_to_matrix(glo))),
        global_total=cap_total - (plain_total + total_gini(glo)),
    )
