import numpy as np
import pytest

from xfwi import dense_spd_solve
from xfwi.errors import IllConditionedError, NotPositiveDefiniteError


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T / n + np.eye(n)


class TestDenseSpdSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0])
        assert np.array_equal(dense_spd_solve(np.eye(2), b), b)

    def test_diagonal(self):
        x = dense_spd_solve(np.diag([4.0, 9.0]), np.array([4.0, 9.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_cross_check_with_lsqr(self):
        M = random_spd(50, seed=3)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(50)
        x_chol = dense_spd_solve(M, b)
        x_ref = np.linalg.lstsq(M, b, rcond=None)[0]
        assert np.linalg.norm(x_chol - x_ref) <= 1e-9 * np.linalg.norm(x_chol)

    def test_residual_within_conditioning(self):
        M = random_spd(40, seed=5)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(40)
        x = dense_spd_solve(M, b)
        relres = np.linalg.norm(M @ x - b) / np.linalg.norm(b)
        assert relres <= 1e-12 * np.linalg.cond(M)

    def test_leaves_the_callers_arrays_alone(self):
        # a Fortran-ordered M (and a 1 x 1 one) is what a factor in place
        # would overwrite
        for M in (np.asfortranarray(random_spd(6, seed=4)), np.array([[4.0]])):
            b = np.ones(M.shape[0])
            before = M.copy(), b.copy()
            x = dense_spd_solve(M, b)
            assert np.array_equal(M, before[0]) and np.array_equal(b, before[1])
            assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_spd_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_rejects_ill_conditioned(self):
        # positive definite, so Cholesky succeeds; cond_1 = 1e15
        with pytest.raises(IllConditionedError) as excinfo:
            dense_spd_solve(np.diag([1.0, 1e-15]), np.ones(2))
        assert excinfo.value.condition == pytest.approx(1e15)

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan"),
            pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
            # finite mirror: the asymmetry and the norm are both infinite
            pytest.param([[1.0, np.inf], [0.0, 1.0]], id="inf-off-diagonal"),
        ],
    )
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            dense_spd_solve(np.array(bad), np.ones(2))
