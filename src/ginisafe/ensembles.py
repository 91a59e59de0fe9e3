"""Monte Carlo simulation of random-safe ensembles.

An ensemble is either INDEPENDENT (positions sampled independently from the
rows of a row Markov matrix) or CORRELATED (whole opening sequences sampled
from a joint Markov tensor).  Sampling is reproducible: the generator is a
seeded numpy PCG64, and categorical draws are inverse-CDF lookups, so
identical seeds give identical sample streams.

A draw of n sequences runs in chunks of ``_CHUNK`` sequences.  Each chunk
takes ``rng.random((m, d))`` (INDEPENDENT) or ``rng.random(m)`` (CORRELATED);
PCG64 gives consecutive chunks exactly the numbers, and leaves the generator
in exactly the state, of one ``rng.random((n, d))`` or ``rng.random(n)``, so
the chunk size never shows in the codes.  An INDEPENDENT chunk is transposed
once so that each position's uniforms are contiguous, and the digit of
position i is the threshold count ``sum_k [u_i >= t_ik]`` over row i's
cumulative sums, which is ``searchsorted(t_i, u_i, side="right")`` without
the search.  The CORRELATED CDF has up to d**d entries and keeps
``searchsorted``.  A draw holds its n codes and a few chunk-sized buffers,
never n * d uniforms.

Samples are codes in [0, d**d), so ensembles share the cap of code-indexed
objects, ``markov.MAX_ENUMERATION_D``; a draw is capped at ``MAX_SAMPLES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CorrelatedSpecRejectedError,
    DimensionMismatchError,
    DimensionTooLargeError,
    ValidationError,
)
from .markov import (
    FunctionMap,
    code_count,
    encode,
    product_probabilities,
    tensor_dimension,
    validate_markov_tensor,
    validate_row_markov,
)

INDEPENDENT = "independent"
CORRELATED = "correlated"

#: Default sample count when the caller does not specify one.
DEFAULT_SAMPLES = 100_000

#: Largest sample count of one draw.
MAX_SAMPLES = 10**7

#: Sequences per chunk of a draw: at d = 6 one chunk's uniforms take 786 kB.
_CHUNK = 16_384


def _seed(seed: int) -> int:
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative; seeds are integers >= 0")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded deterministic generator (PCG64) for all sampling in this module."""
    return np.random.Generator(np.random.PCG64(_seed(seed)))


def shard_rng(seed: int, shard: int) -> np.random.Generator:
    """Independent substream derived from (seed, shard-index).

    Each (seed, shard) pair seeds its own PCG64 stream through a
    SeedSequence; the eta search draws start k from ``shard_rng(seed, k)``.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((_seed(seed), int(shard)))))


@dataclass(frozen=True)
class EnsembleSpec:
    """A random-safe ensemble: independent rows or a correlated joint tensor."""

    kind: str
    matrix: np.ndarray | None = None
    tensor: np.ndarray | None = None

    @classmethod
    def independent(cls, matrix) -> "EnsembleSpec":
        return cls(kind=INDEPENDENT, matrix=validate_row_markov(matrix))

    @classmethod
    def correlated(cls, tensor) -> "EnsembleSpec":
        return cls(kind=CORRELATED, tensor=validate_markov_tensor(tensor))

    def __post_init__(self):
        if self.kind == INDEPENDENT:
            if self.matrix is None:
                raise ValidationError("independent ensemble requires a matrix")
            code_count(self.matrix.shape[0])  # its samples are codes in [0, d**d)
        elif self.kind == CORRELATED:
            if self.tensor is None:
                raise ValidationError("correlated ensemble requires a tensor")
        else:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")

    @property
    def d(self) -> int:
        if self.kind == INDEPENDENT:
            return self.matrix.shape[0]
        return tensor_dimension(self.tensor.size)

    def exact_tensor(self) -> np.ndarray:
        """The exact joint distribution over opening sequences, code order."""
        if self.kind == INDEPENDENT:
            return product_probabilities(self.matrix)
        return np.array(self.tensor)


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


def sample_codes(spec: EnsembleSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n opening sequences, returned as canonical integer codes.

    INDEPENDENT specs draw one uniform per position (row-major order);
    CORRELATED specs draw one uniform per sequence against the tensor CDF.
    """
    if not 1 <= n <= MAX_SAMPLES:
        error = DimensionTooLargeError if n > MAX_SAMPLES else ValidationError
        raise error(f"sample count {n} outside [1, {MAX_SAMPLES}]")
    d = spec.d
    codes = np.empty(n, dtype=np.intp)
    chunks = (codes[start:start + _CHUNK] for start in range(0, n, _CHUNK))
    if spec.kind == INDEPENDENT:
        # column k holds every row's k-th threshold; each row's last is +inf
        columns = _thresholds(spec.matrix)[:, :-1].T[:, :, None]
        for chunk in chunks:
            u = rng.random((chunk.size, d)).T.copy()  # row i: position i's uniforms
            digits = np.zeros(u.shape, dtype=np.uint8)
            for column in columns:
                digits += u >= column
            # intp before the place values: a uint8 digit times 625 overflows
            chunk[:] = encode(digits.astype(np.intp), d)
    else:
        cdf = _thresholds(spec.tensor)
        for chunk in chunks:
            chunk[:] = np.searchsorted(cdf, rng.random(chunk.size), side="right")
    return codes


def sample_sequence(spec: EnsembleSpec, rng: np.random.Generator) -> FunctionMap:
    """Draw a single opening sequence from the ensemble."""
    code = int(sample_codes(spec, 1, rng)[0])
    return FunctionMap.from_code(code, spec.d)


def empirical_tensor(spec: EnsembleSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical joint distribution over n sampled sequences (a Markov tensor)."""
    counts = np.bincount(sample_codes(spec, n, rng), minlength=code_count(spec.d))
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
    rejected.  Draw order is fixed: the full block for ``a``, then ``b``.
    """
    for name, spec in (("first", a), ("second", b)):
        if spec.kind != INDEPENDENT:
            raise CorrelatedSpecRejectedError(
                f"{name} ensemble is correlated; collision probability is "
                "defined for independent ensembles"
            )
    if a.d != b.d:
        raise DimensionMismatchError(f"ensembles have dimensions {a.d} and {b.d}")
    codes_a = sample_codes(a, n, rng)
    codes_b = sample_codes(b, n, rng)
    p_hat = float(np.mean(codes_a == codes_b))
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return McEstimate(value=p_hat, stderr=stderr, n=int(n))


def merge(a: EnsembleSpec, b: EnsembleSpec, lam: float) -> EnsembleSpec:
    """Merge two ensembles: a fraction ``lam`` of safes from ``a``, rest from ``b``.

    Merging mixes the joint sequence distributions.  A mixture of two product
    distributions is generally not a product distribution, so merging two
    INDEPENDENT specs yields a CORRELATED spec (except at lam = 0 or 1, where
    the untouched input is returned).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"mixing weight {lam} outside [0, 1]")
    if a.d != b.d:
        raise DimensionMismatchError(f"ensembles have dimensions {a.d} and {b.d}")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    mixed = lam * a.exact_tensor() + (1.0 - lam) * b.exact_tensor()
    return EnsembleSpec.correlated(mixed)
