"""Shared generators for randomized tests (all seeded, all deterministic), and the memo reset."""

import itertools

import numpy as np
import pytest

from ginisafe import cli


@pytest.fixture(autouse=True)
def empty_read_memo():
    """Start every test with no objects kept by `cli._read`.

    A read that matches the one before it skips the decoder and the
    validators, so an entry left by an earlier test would skip a patched one.
    The memo's own tests warm it themselves.
    """
    cli._memo = None


def random_prob_vector(rng, d):
    x = rng.random(d)
    while x.sum() < 1e-3:
        x = rng.random(d)
    return x / x.sum()


def random_row_markov(rng, d):
    rows = rng.random((d, d))
    return rows / rows.sum(axis=1, keepdims=True)


def perm_matrix(perm):
    d = len(perm)
    m = np.zeros((d, d))
    m[np.arange(d), list(perm)] = 1.0
    return m


def random_doubly_stochastic(rng, d, n_perms=12):
    """Convex mixture of permutation matrices (doubly stochastic by construction)."""
    perms = [rng.permutation(d) for _ in range(n_perms)]
    weights = rng.random(n_perms)
    weights /= weights.sum()
    return sum(w * perm_matrix(p) for w, p in zip(weights, perms))


def all_permutations(d):
    return list(itertools.permutations(range(d)))


def random_complex_unit(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)
