import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevratio import (Dataset, INTERCEPT_NAME, NonIdentifiableError, RankDeficientError,
                       fit_glm, spd_inverse, spd_solve, weighted_cross_product)


def loop_cholesky_bad_column(A):
    """Column at which a column-by-column Cholesky meets a bad pivot, or None."""
    n = A.shape[0]
    threshold = 1e-12 * max(float(np.max(np.diag(A))), 0.0)
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= threshold:
            return j
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return None


def degenerate_design(kind):
    """Intercept, exposure, two covariates, and one broken column at index 3."""
    rng = np.random.default_rng(17)
    n = 60
    x = (rng.random(n) < 0.5).astype(float)
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    broken = {
        "zero": np.zeros(n),
        "duplicate": z1.copy(),
        "near-collinear": z1 + 1e-7 * rng.standard_normal(n),
    }[kind]
    X = np.column_stack([np.ones(n), x, z1, broken, z2])
    y = (rng.random(n) < 0.4).astype(float)
    return Dataset(y=y, X=X, column_names=(INTERCEPT_NAME, "x", "z1", "bad", "z2"))


class TestWeightedCrossProduct:
    def test_identity_weights_is_gram_matrix(self):
        X = np.array([[1.0, 2.0], [1.0, -1.0], [1.0, 0.5]])
        got = weighted_cross_product(X, np.ones(3))
        assert np.allclose(got, X.T @ X, atol=1e-14)

    def test_weighted_mean_example(self):
        # weights (1, 3) on values (0, 4): X'WX = [[4, 12], [12, 48]]
        X = np.array([[1.0, 0.0], [1.0, 4.0]])
        got = weighted_cross_product(X, np.array([1.0, 3.0]))
        assert np.allclose(got, [[4.0, 12.0], [12.0, 48.0]], atol=1e-14)
        # implied weighted mean of the second column
        assert got[0, 1] / got[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4))
        A = weighted_cross_product(X, rng.uniform(0.1, 2.0, 50))
        assert np.array_equal(A, A.T)

    def test_rejects_negative_weights(self):
        X = np.ones((2, 1))
        with pytest.raises(ValueError):
            weighted_cross_product(X, np.array([1.0, -0.5]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cross_product(np.ones((3, 2)), np.ones(2))


class TestSpdSolve:
    def test_two_by_two_hand_example(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        got = spd_solve(A, np.array([2.0, 1.0]))
        assert got == pytest.approx([0.5, 0.0], abs=1e-14)

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        assert spd_solve(np.eye(3), b) == pytest.approx(b, abs=0)

    def test_matches_general_solver(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((6, 6))
        A = M @ M.T + 6 * np.eye(6)
        b = rng.standard_normal(6)
        assert spd_solve(A, b) == pytest.approx(np.linalg.solve(A, b), rel=1e-10)

    def test_rank_deficient_names_column(self):
        # column 2 duplicates column 1
        X = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
        A = X.T @ X
        with pytest.raises(RankDeficientError) as err:
            spd_solve(A, np.ones(3))
        assert err.value.column == 2

    def test_rejects_asymmetric(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            spd_solve(A, np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_spd_systems(self, p, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((p, p + 2))
        A = M @ M.T + p * np.eye(p)
        b = rng.standard_normal(p)
        x = spd_solve(A, b)
        assert A @ x == pytest.approx(b, rel=1e-8, abs=1e-8)


class TestSpdInverse:
    def test_inverse_times_matrix_is_identity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5))
        A = M @ M.T + 5 * np.eye(5)
        assert A @ spd_inverse(A) == pytest.approx(np.eye(5), abs=1e-10)

    def test_inverse_is_symmetric(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        A = M @ M.T + 4 * np.eye(4)
        inv = spd_inverse(A)
        assert np.allclose(inv, inv.T, atol=1e-14)

    def test_singular_matrix_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(RankDeficientError):
            spd_inverse(A)


@pytest.mark.parametrize("kind", ["zero", "duplicate", "near-collinear"])
class TestRankDeficiencyMatchesLoop:
    def test_same_column_as_loop(self, kind):
        ds = degenerate_design(kind)
        A = weighted_cross_product(ds.X, np.full(ds.n, 0.2))
        assert loop_cholesky_bad_column(A) == 3
        with pytest.raises(RankDeficientError) as err:
            spd_solve(A, np.ones(A.shape[0]))
        assert err.value.column == 3
        with pytest.raises(RankDeficientError) as err:
            spd_inverse(A)
        assert err.value.column == 3

    def test_fit_names_the_column(self, kind):
        with pytest.raises(NonIdentifiableError) as err:
            fit_glm(degenerate_design(kind), "binomial-logit")
        assert str(err.value) == "design matrix is collinear (column 3, 'bad')"


def test_non_finite_right_hand_side_is_value_error():
    with pytest.raises(ValueError, match="infs or NaNs"):
        spd_solve(np.eye(2), np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        spd_solve(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
