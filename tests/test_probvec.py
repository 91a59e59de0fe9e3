"""Tests for probability-vector analytics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_permutations, perm_matrix, random_doubly_stochastic, random_prob_vector
from ginisafe import (
    DimensionMismatchError,
    Majorization,
    NegativeEntryError,
    NotNormalizedError,
    ValidationError,
    average_bounds,
    gini_index,
    gini_mean_abs_diff,
    lorenz_values,
    majorizes,
    ordering_permutation,
    uniform_vector,
    validate_prob_vector,
)


def pairwise_gini(x):
    """The defining pair sum sum_{r,s} |x(r) - x(s)| / (2 (d + 1)); O(d**2) memory."""
    x = np.asarray(x, dtype=float)
    return float(np.abs(x[:, None] - x[None, :]).sum()) / (2.0 * (x.size + 1))


def prob_vectors(min_d=2, max_d=8):
    def build(d):
        return st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d
        ).filter(lambda xs: sum(xs) > 1e-2).map(lambda xs: np.array(xs) / sum(xs))

    return st.integers(min_d, max_d).flatmap(build)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidate:
    def test_already_valid(self):
        x = validate_prob_vector((0.5, 0.5), tol=1e-9)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=0)

    def test_sixths(self):
        x = validate_prob_vector((1 / 6, 1 / 2, 1 / 3))
        assert abs(x.sum() - 1.0) < 1e-15

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            validate_prob_vector((0.5, 0.6))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_prob_vector((1.2, -0.2))

    def test_small_noise_is_repaired(self):
        x = validate_prob_vector((0.5 + 1e-12, 0.5 - 2e-12, -1e-13))
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValidationError):
            validate_prob_vector(())
        with pytest.raises(ValidationError):
            validate_prob_vector([[0.5, 0.5]])

    @pytest.mark.parametrize("raw", ["abc", [0.5, "x"], [[0.5], [0.25, 0.25]], [10**400], {}])
    def test_rejects_non_numeric(self, raw):
        with pytest.raises(ValidationError, match="probability vector must be a non-empty 1-D array of real numbers"):
            validate_prob_vector(raw)


# ---------------------------------------------------------------------------
# Lorenz values and ordering
# ---------------------------------------------------------------------------

class TestLorenz:
    def test_uniform(self):
        np.testing.assert_allclose(lorenz_values(uniform_vector(3)), [1 / 3, 2 / 3, 1.0], atol=1e-15)

    def test_certain(self):
        np.testing.assert_allclose(lorenz_values(np.eye(3)[0]), [0.0, 0.0, 1.0], atol=0)

    def test_sixths(self):
        np.testing.assert_allclose(
            lorenz_values([1 / 6, 1 / 2, 1 / 3]), [1 / 6, 1 / 2, 1.0], atol=1e-15
        )

    def test_ordering_is_stable_on_ties(self):
        np.testing.assert_array_equal(ordering_permutation([0.25, 0.25, 0.5]), [0, 1, 2])
        np.testing.assert_array_equal(ordering_permutation([0.5, 0.25, 0.25]), [1, 2, 0])

    @given(prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_lorenz_bounds(self, x):
        lv = lorenz_values(x)
        d = x.size
        assert np.all(lv >= -1e-12)
        assert np.all(lv <= (np.arange(1, d + 1) / d) + 1e-12)
        assert lv[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lv) >= -1e-15)


# ---------------------------------------------------------------------------
# Gini index, both routes
# ---------------------------------------------------------------------------

@st.composite
def gini_kernel_inputs(draw):
    """A (rows, n) array of probability vectors, n in 2..3125: random, sparse,
    tied, point-mass and uniform rows."""
    n = draw(st.one_of(st.integers(2, 40), st.sampled_from([256, 1000, 3125])))
    kinds = draw(
        st.lists(st.sampled_from(["random", "sparse", "ties", "point", "uniform"]), min_size=1, max_size=4)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "random":
            x = rng.dirichlet(np.ones(n))
        elif kind == "sparse":
            x = rng.dirichlet(np.full(n, 0.05))
        elif kind == "ties":
            x = rng.integers(0, 3, n).astype(float)
            x[0] += 1.0
        elif kind == "point":
            x = np.zeros(n)
            x[rng.integers(n)] = 1.0
        else:
            x = np.ones(n)
        rows.append(x / x.sum())
    return np.array(rows)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_index(uniform_vector(3)) == pytest.approx(0.0, abs=1e-15)
        assert gini_mean_abs_diff(uniform_vector(3)) == 0.0

    def test_certain_is_maximal(self):
        assert gini_index(np.eye(3)[0]) == pytest.approx(0.5, abs=1e-15)
        assert gini_mean_abs_diff(np.eye(3)[0]) == pytest.approx(0.5, abs=1e-15)

    def test_sixths(self):
        assert gini_index([1 / 6, 1 / 2, 1 / 3]) == pytest.approx(1 / 6, abs=1e-15)
        assert gini_mean_abs_diff([1 / 6, 1 / 2, 1 / 3]) == pytest.approx(1 / 6, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 27, 256, 2000])
    def test_sorted_sum_matches_pair_sum(self, d):
        rng = np.random.default_rng(d)
        for x in (random_prob_vector(rng, d), rng.dirichlet(np.full(d, 0.1))):
            assert abs(gini_mean_abs_diff(x) - pairwise_gini(x)) < 1e-12

    @pytest.mark.parametrize("shape", [(7,), (3, 7), (2, 3, 7)])
    def test_the_input_is_not_sorted(self, shape):
        # the kernel sorts in place, so gini_index must hand it a copy
        x = np.random.default_rng(len(shape)).dirichlet(np.ones(7), size=shape[:-1])
        before = x.copy()
        gini_index(x)
        assert x.dtype == np.float64 and not np.array_equal(x, np.sort(x))
        np.testing.assert_array_equal(x, before)

    @given(prob_vectors())
    @settings(max_examples=300, deadline=None)
    def test_routes_agree_and_bounds(self, x):
        d = x.size
        g = gini_index(x)
        assert abs(g - gini_mean_abs_diff(x)) < 1e-12
        assert -1e-12 <= g <= (d - 1) / (d + 1) + 1e-12

    @given(gini_kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_kernel_rows_and_vectors_match_oracle(self, rows):
        batched = gini_index(rows)
        assert batched.shape == (rows.shape[0],)
        for x, g_row in zip(rows, batched):
            g = gini_index(x)
            assert isinstance(g, float)
            assert abs(g - gini_mean_abs_diff(x)) <= 4e-15
            # a batched matrix-vector product sums in another order than the
            # 1-D dot: up to 3.0e-15 apart on tied rows of length 1000
            assert abs(g_row - g) <= 1e-14

    @given(prob_vectors(max_d=6), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, x, rnd):
        perm = list(range(x.size))
        rnd.shuffle(perm)
        assert gini_index(x @ perm_matrix(perm)) == pytest.approx(gini_index(x), abs=1e-12)

    def test_convexity_and_comonotone_equality(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            x = random_prob_vector(rng, d)
            y = random_prob_vector(rng, d)
            lam = float(rng.random())
            mix = lam * x + (1 - lam) * y
            assert gini_index(mix) <= lam * gini_index(x) + (1 - lam) * gini_index(y) + 1e-12
            # comonotone pair: reorder y's sorted values along x's ordering
            order = ordering_permutation(x)
            y_sorted = np.sort(y)
            y_co = np.empty(d)
            y_co[order] = y_sorted
            mix_co = lam * x + (1 - lam) * y_co
            lhs = gini_index(mix_co)
            rhs = lam * gini_index(x) + (1 - lam) * gini_index(y_co)
            assert abs(lhs - rhs) < 1e-12

    def test_lorenz_superadditivity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            x = random_prob_vector(rng, d)
            y = random_prob_vector(rng, d)
            lam = float(rng.random())
            mix = lorenz_values(lam * x + (1 - lam) * y)
            assert np.all(mix >= lam * lorenz_values(x) + (1 - lam) * lorenz_values(y) - 1e-12)

    def test_doubly_stochastic_contraction(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            x = random_prob_vector(rng, d)
            ds = random_doubly_stochastic(rng, d)
            pushed = x @ ds
            assert gini_index(pushed) <= gini_index(x) + 1e-12
            assert majorizes(x, pushed) != Majorization.Y_MAJORIZES_X

    def test_variance_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            x = random_prob_vector(rng, d)
            var = np.square(x[:, None] - x[None, :]).sum() / (2 * d**2)
            assert d**2 * var <= (d + 1) * gini_index(x) + 1e-12

    def test_general_row_markov_push_can_raise_gini(self):
        # contraction holds for doubly stochastic matrices only: pushing the
        # uniform vector through the banded demo matrix raises the Gini index
        from ginisafe.reference import demo_matrix

        pushed = uniform_vector(3) @ demo_matrix(0.5, 0.5)
        assert gini_index(uniform_vector(3)) == pytest.approx(0.0, abs=1e-15)
        assert gini_index(pushed) == pytest.approx(1 / 6, abs=1e-12)


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------

class TestMajorization:
    def test_everything_majorizes_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            x = random_prob_vector(rng, d)
            assert majorizes(x, uniform_vector(d)) in (
                Majorization.X_MAJORIZES_Y,
                Majorization.EQUAL,
            )
            assert majorizes(np.eye(d)[0], x) in (
                Majorization.X_MAJORIZES_Y,
                Majorization.EQUAL,
            )

    def test_incomparable_pair(self):
        assert majorizes([0.5, 0.4, 0.1], [0.6, 0.2, 0.2]) == Majorization.INCOMPARABLE

    def test_equal_under_permutation(self):
        assert majorizes([0.2, 0.5, 0.3], [0.5, 0.3, 0.2]) == Majorization.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            majorizes([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])

    @pytest.mark.parametrize("x, y, what", [
        ([np.nan, 1.0], [0.5, 0.5], "'x'"),  # read INCOMPARABLE: every comparison with NaN is false
        ([np.nan, 1.0], [np.nan, 1.0], "'x'"),  # a vector read incomparable with itself
        ([0.5, 0.5], [np.nan, 1.0], "'y'"),
        ([np.inf, 0.0], [0.5, 0.5], "'x'"),
        ([0.5, 0.5], [1.0, -np.inf], "'y'"),
    ])
    def test_a_non_finite_entry_is_rejected_by_name(self, x, y, what):
        with pytest.raises(ValidationError, match=f"^{what} contains non-finite entries$"):
            majorizes(x, y)

    def test_preorder_transitive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = 4
            x = random_prob_vector(rng, d)
            ds1 = random_doubly_stochastic(rng, d)
            ds2 = random_doubly_stochastic(rng, d)
            y = x @ ds1
            z = y @ ds2
            # x majorizes y majorizes z, so x majorizes z
            assert majorizes(x, z) in (Majorization.X_MAJORIZES_Y, Majorization.EQUAL)


# ---------------------------------------------------------------------------
# average bounds
# ---------------------------------------------------------------------------

class TestAverageBounds:
    def test_uniform_pins_the_mean(self):
        lo, hi = average_bounds(uniform_vector(3))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_certain_full_range(self):
        lo, hi = average_bounds(np.eye(3)[0])
        assert (lo, hi) == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))

    def test_sixths(self):
        lo, hi = average_bounds([1 / 6, 1 / 2, 1 / 3])
        assert lo == pytest.approx(2 / 3, abs=1e-12)
        assert hi == pytest.approx(4 / 3, abs=1e-12)

    def test_all_permuted_means_inside(self):
        rng = np.random.default_rng(17)
        for d in range(2, 6):
            for _ in range(20):
                x = random_prob_vector(rng, d)
                lo, hi = average_bounds(x)
                for perm in all_permutations(d):
                    mean = sum(level * x[perm[level]] for level in range(d))
                    assert lo - 1e-12 <= mean <= hi + 1e-12
