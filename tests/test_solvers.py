import numpy as np
import pytest

from xfwi import DenseOperator, IdentityOperator, cg, dense_spd_solve, lsqr
from xfwi.errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RejectedInputError,
)


def random_spd(n, seed, complex_entries=False):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    if complex_entries:
        B = B + 1j * rng.standard_normal((n, n))
    return B @ B.conj().T / n + np.eye(n)


class TestLsqr:
    def test_identity_two_iterations(self):
        b = np.array([1.0, -2.0, 3.0])
        rep = lsqr(IdentityOperator(3), b)
        assert rep.converged and rep.iterations <= 2
        assert np.allclose(rep.solution, b, atol=1e-14)

    def test_matches_direct_solve(self):
        M = random_spd(10, seed=0)
        b = np.arange(1.0, 11.0)
        rep = lsqr(DenseOperator(M), b, tol=1e-12)
        x_direct = np.linalg.solve(M, b)
        assert rep.converged
        assert np.linalg.norm(rep.solution - x_direct) <= 1e-7 * np.linalg.norm(x_direct)

    def test_damped_identity_closed_form(self):
        # min |x - b|^2 + |x|^2 has minimizer b/2
        rep = lsqr(IdentityOperator(2), np.array([2.0, 2.0]), damp=1.0)
        assert rep.converged
        assert np.allclose(rep.solution, [1.0, 1.0], atol=1e-12)

    def test_residual_history_monotone(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 12))
        b = rng.standard_normal(30)
        rep = lsqr(DenseOperator(A), b, tol=1e-14)
        hist = np.asarray(rep.residual_history)
        assert np.all(np.diff(hist) <= 1e-12 * hist[0])

    def test_complex_least_squares(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rep = lsqr(DenseOperator(A), b, tol=1e-13)
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(rep.solution - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    def test_zero_rhs(self):
        rep = lsqr(IdentityOperator(4), np.zeros(4))
        assert rep.converged and np.array_equal(rep.solution, np.zeros(4))

    def test_bad_inputs(self):
        with pytest.raises(DimensionMismatchError):
            lsqr(IdentityOperator(3), np.zeros(2))
        with pytest.raises(RejectedInputError):
            lsqr(IdentityOperator(3), np.zeros(3), tol=0.0)
        with pytest.raises(RejectedInputError):
            lsqr(IdentityOperator(3), np.zeros(3), damp=-1.0)


class TestCg:
    def test_matches_direct(self):
        M = random_spd(12, seed=1, complex_entries=True)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rep = cg(M, b, tol=1e-12)
        assert rep.converged
        assert np.allclose(rep.solution, np.linalg.solve(M, b), atol=1e-9)


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
        x_lsqr = lsqr(DenseOperator(M), b, tol=1e-13).solution
        assert np.linalg.norm(x_chol - x_lsqr) <= 1e-9 * np.linalg.norm(x_chol)

    def test_residual_within_conditioning(self):
        M = random_spd(40, seed=5)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(40)
        x = dense_spd_solve(M, b)
        relres = np.linalg.norm(M @ x - b) / np.linalg.norm(b)
        assert relres <= 1e-12 * np.linalg.cond(M)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_spd_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            dense_spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
