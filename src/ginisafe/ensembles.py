"""Monte Carlo simulation of random-safe ensembles.

An ensemble is either INDEPENDENT (positions sampled independently from the
rows of a row Markov matrix) or CORRELATED (whole opening sequences sampled
from a joint Markov tensor).  Sampling is reproducible: the generator is a
seeded numpy PCG64, and categorical draws are inverse-CDF lookups, so
identical seeds give identical sample streams.

Every draw goes through one stream, ``_code_chunks``, which yields the codes
of n sequences in chunks of ``_CHUNK``.  Each chunk takes
``rng.random((m, d))`` (INDEPENDENT) or ``rng.random(m)`` (CORRELATED); PCG64
gives consecutive chunks exactly the numbers, and leaves the generator in
exactly the state, of one ``rng.random((n, d))`` or ``rng.random(n)``, so the
chunk size never shows in the codes.  An INDEPENDENT chunk is transposed once
so that each position's uniforms are contiguous, and the digit of position i
is the threshold count ``sum_k [u_i >= t_ik]`` over row i's cumulative sums,
which is ``searchsorted(t_i, u_i, side="right")`` without the search.  The
digits are counted in uint16 and the codec, :func:`markov.encode`, turns them
into uint16 codes: d**d <= 6**6 < 2**16, so a code and each of its terms fit
in 2 bytes (uint8 digits would not take ``digit * d**i``).  The CORRELATED CDF
has up to d**d entries and keeps ``searchsorted``, whose codes are yielded as
they come.  The stream reuses the INDEPENDENT chunk's uniforms, threshold tests
and digits and holds no n-sized array: :func:`sample_codes` copies it into its
intp array, :func:`empirical_tensor` adds one ``bincount`` per chunk, and
:func:`collision_probability_mc` keeps the first ensemble's codes as uint16
(2 bytes per sample) and compares each chunk of the second as it is drawn.

Samples are codes in [0, d**d), so ensembles share the cap of code-indexed
objects, ``markov.MAX_ENUMERATION_D``; a draw is capped at ``MAX_SAMPLES``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ECHO, CorrelatedSpecRejectedError, DimensionMismatchError, ValidationError, admit_int
from .markov import DEFAULT_TOL, code_count, encode, tensor_dimension, validate_markov_tensor, validate_row_markov

INDEPENDENT = "independent"
CORRELATED = "correlated"

#: Default sample count when the caller does not specify one.
DEFAULT_SAMPLES = 100_000

#: Largest sample count of one draw.
MAX_SAMPLES = 10**7

#: Sequences per chunk of a draw: at d = 6 one chunk's uniforms take 786 kB.
_CHUNK = 16_384


def make_rng(seed: int) -> np.random.Generator:
    """Seeded deterministic generator (PCG64) for all sampling; seeds are integers >= 0 (``admit_int``)."""
    return np.random.Generator(np.random.PCG64(admit_int(seed, "seed", 0)))


def shard_rng(seed: int, shard: int) -> np.random.Generator:
    """Independent substream derived from (seed, shard-index).

    Each (seed, shard) pair, both integers >= 0 under :func:`errors.admit_int`,
    seeds its own PCG64 stream through a SeedSequence; the eta search draws
    start k from ``shard_rng(seed, k)``.
    """
    entropy = (admit_int(seed, "seed", 0), admit_int(shard, "shard", 0))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """A random-safe ensemble: a row Markov matrix or a Markov tensor, validated once, at `tol`.

    The spec holds what :func:`markov.validate_row_markov` or
    :func:`markov.validate_markov_tensor` returns at `tol` (clipped,
    renormalized, C-contiguous), whether it is built directly or through a
    classmethod.  `tol` is init-only: it is not stored or compared.  A matrix
    is validated first, then capped, since its samples are codes in [0, d**d).
    """

    kind: str
    matrix: np.ndarray | None = None
    tensor: np.ndarray | None = None
    tol: InitVar[float] = DEFAULT_TOL

    @classmethod
    def independent(cls, matrix) -> "EnsembleSpec":
        return cls(kind=INDEPENDENT, matrix=matrix)

    @classmethod
    def correlated(cls, tensor) -> "EnsembleSpec":
        return cls(kind=CORRELATED, tensor=tensor)

    def __post_init__(self, tol: float):
        if self.kind == INDEPENDENT:
            object.__setattr__(self, "matrix", validate_row_markov(self.matrix, tol))
            code_count(self.matrix.shape[0])
        elif self.kind == CORRELATED:
            object.__setattr__(self, "tensor", validate_markov_tensor(self.tensor, tol))
        else:
            raise ValidationError(f"unknown ensemble kind {ECHO.repr(self.kind)}")

    @property
    def d(self) -> int:
        if self.kind == INDEPENDENT:
            return self.matrix.shape[0]
        return tensor_dimension(self.tensor.size)


def _thresholds(p: np.ndarray) -> np.ndarray:
    """Inverse-CDF thresholds of the distributions along the last axis of p.

    These are the cumulative sums, with +inf from each distribution's last
    positive entry on.  A uniform u in [0, 1) falls in category
    ``sum_k [u >= t_k]``, which is ``searchsorted(t, u, side="right")``.  When
    the rounded sums end below 1, a u at or above them goes to the last
    category of positive probability, never to a trailing zero-probability one.
    """
    cdf = np.cumsum(p, axis=-1)
    size = p.shape[-1]
    last = size - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cdf[np.arange(size) >= np.asarray(last)[..., None]] = np.inf
    return cdf


def _code_chunks(spec: EnsembleSpec, n: int, rng: np.random.Generator):
    """The stream of every draw: ``(window, codes)`` for n admitted sequences, chunk by chunk.

    ``codes`` holds the codes of the draws in ``window``, a slice of range(n):
    :func:`markov.encode`'s uint16 codes (INDEPENDENT) or ``searchsorted``'s
    intp codes (CORRELATED).
    """
    d, size = spec.d, min(n, _CHUNK)
    windows = (slice(start, min(start + size, n)) for start in range(0, n, size))
    if spec.kind == INDEPENDENT:
        # column k holds every row's k-th threshold; each row's last is +inf
        columns = _thresholds(spec.matrix)[:, :-1].T[:, :, None]
        # the chunk's uniforms by position, their threshold tests and digits
        buffers = (np.empty((d, size)), np.empty((d, size), dtype=bool), np.empty((d, size), dtype=np.uint16))
        for window in windows:
            u, above, digits = (b[:, :window.stop - window.start] for b in buffers)
            np.copyto(u, rng.random((u.shape[1], d)).T)  # row i: position i's uniforms
            digits.fill(0)
            for column in columns:
                digits += np.greater_equal(u, column, out=above)
            yield window, encode(digits, d)
    else:
        cdf = _thresholds(spec.tensor)
        for window in windows:
            yield window, np.searchsorted(cdf, rng.random(window.stop - window.start), side="right")


def _admit_samples(n) -> int:
    """A draw's sample count: an integer in [1, MAX_SAMPLES] by :func:`errors.admit_int`."""
    return admit_int(n, "sample count", 1, MAX_SAMPLES)


def sample_codes(spec: EnsembleSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n opening sequences, returned as canonical integer codes (intp).

    INDEPENDENT specs draw one uniform per position (row-major order);
    CORRELATED specs draw one uniform per sequence against the tensor CDF.
    """
    n = _admit_samples(n)
    codes = np.empty(n, dtype=np.intp)
    for window, chunk in _code_chunks(spec, n, rng):
        codes[window] = chunk
    return codes


def empirical_tensor(spec: EnsembleSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical joint distribution over n sampled sequences (a Markov tensor), counted chunk by chunk."""
    n = _admit_samples(n)
    counts = np.zeros(code_count(spec.d), dtype=np.intp)
    for _, chunk in _code_chunks(spec, n, rng):
        counts += np.bincount(chunk, minlength=counts.size)
    return counts / float(n)


@dataclass(frozen=True)
class McEstimate:
    """A Bernoulli Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    n: int


def collision_probability_mc(
    a: EnsembleSpec, b: EnsembleSpec, n: int, rng: np.random.Generator
) -> McEstimate:
    """Fraction of n paired draws whose opening sequences coincide.

    For independent ensembles this converges to
    ``scalar_product(a.matrix, b.matrix)``.  The collision interpretation of
    the scalar product assumes independent positions, so correlated specs are
    rejected.  Draw order is fixed: the full block for ``a``, then ``b`` in
    chunks, each matched against ``a``'s codes, so only ``a``'s are held, as uint16.
    """
    for name, spec in (("first", a), ("second", b)):
        if spec.kind != INDEPENDENT:
            raise CorrelatedSpecRejectedError(
                f"{name} ensemble is correlated; collision probability is "
                "defined for independent ensembles"
            )
    if a.d != b.d:
        raise DimensionMismatchError(f"ensembles have dimensions {a.d} and {b.d}")
    n = _admit_samples(n)
    codes_a = np.empty(n, dtype=np.uint16)
    for window, chunk in _code_chunks(a, n, rng):
        codes_a[window] = chunk
    matches = sum(np.count_nonzero(chunk == codes_a[window]) for window, chunk in _code_chunks(b, n, rng))
    p_hat = matches / n
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return McEstimate(value=p_hat, stderr=stderr, n=n)
