import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from conftest import DenseOperator, dot_test, operator_pair
from xfwi.cli import random_covariance
from xfwi import (
    CovarianceSpec,
    HelmholtzModel1D,
    SamplingOperator,
    assemble_A,
)
from scipy.linalg.lapack import zgttrf

from xfwi.linops import (
    TridiagonalOperator,
    _check_hermitian,
    _potrs,
    _spd_factor,
    _spd_solve,
    spd_condition,
)
from xfwi.errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    RejectedInputError,
)


class TestApply:
    def test_sampling_selects(self):
        P = SamplingOperator([2], state_dim=3)
        assert np.array_equal(P.matvec([5.0, 7.0, 9.0]), [9.0])

    def test_dense_column_matches_matrix(self):
        model = HelmholtzModel1D(n=6, h=0.1, omega=5.0)
        m = np.full(6, 0.3)
        op = assemble_A(model, m)
        for k in (0, 3, 5):
            e = np.zeros(6)
            e[k] = 1.0
            assert np.allclose(op.matvec(e), op.to_dense()[:, k])


class TestDotTest:
    def test_identity_is_exact(self):
        assert dot_test(DenseOperator(np.eye(5)), trials=3, seed=0) < 1e-15

    def test_detects_missing_conjugate(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # transpose without conjugation is the classic wrong adjoint
        bad = operator_pair(4, 4, lambda x: M @ x, lambda y: M.T @ y)
        assert dot_test(bad, trials=5, seed=2) > 1e-3

    def test_helmholtz_dense_adjoint(self):
        model = HelmholtzModel1D(n=12, h=0.1, omega=8.0, boundary="sommerfeld")
        op = assemble_A(model, np.full(12, 0.25))
        assert dot_test(op, trials=10, seed=3) <= 1e-10
        # oracle: the adjoint of a dense matrix is its conjugate transpose
        y = np.arange(12) + 1j
        assert np.allclose(op.rmatvec(y), op.to_dense().conj().T @ y)

    def test_requires_at_least_one_trial(self):
        with pytest.raises(RejectedInputError):
            dot_test(DenseOperator(np.eye(2)), trials=0)


class TestSamplingOperator:
    def test_rows_scatter_back(self):
        P = SamplingOperator([1, 3], state_dim=5)
        assert np.array_equal(P.rmatvec([2.0, 4.0]), [0, 2, 0, 4, 0])

    def test_ppt_is_identity(self):
        P = SamplingOperator([4, 0, 2], state_dim=6)
        Pd = P.to_dense()
        assert np.array_equal(Pd @ Pd.T, np.eye(3))

    def test_rejects_duplicates_and_out_of_range(self):
        with pytest.raises(RejectedInputError):
            SamplingOperator([1, 1], state_dim=4)
        with pytest.raises(RejectedInputError):
            SamplingOperator([4], state_dim=4)

    @pytest.mark.parametrize(
        "indices",
        [[3.7, 9], [True, 5], [np.True_, 5], np.array([3.5, 9.0]), np.array([True, False]),
         3, [[3, 9]]],
        ids=["fraction", "bool", "numpy-bool", "float-array", "bool-array", "scalar", "nested"],
    )
    def test_rejects_indices_that_are_not_integers(self, indices):
        # np.array(..., dtype=int) would sample row 3 for 3.7 and row 1 for True
        with pytest.raises(RejectedInputError, match="must be an integer|one sequence"):
            SamplingOperator(indices, state_dim=20)

    def test_integral_indices_are_stored_as_ints(self):
        for indices in ([3.0, 9], np.array([3, 9], dtype=np.int32)):
            P = SamplingOperator(indices, state_dim=20)
            assert P.receiver_indices.dtype == int and P.receiver_indices.tolist() == [3, 9]

    def test_dense_adjoint_is_cached_and_read_only(self):
        P = SamplingOperator([4, 0, 2], state_dim=6)
        PH = P.dense_adjoint
        assert PH is P.dense_adjoint
        assert np.array_equal(PH, P.to_dense().T)
        # the layout the adjoint solves take, so they convert nothing
        assert PH.dtype == complex and PH.flags.f_contiguous
        with pytest.raises(ValueError):
            PH[0, 0] = 2.0


def spd_matrix(n, dtype, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        B += 1j * rng.standard_normal((n, n))
    return np.asfortranarray(B @ B.conj().T / n + np.eye(n))


class TestSpdHelpers:
    """``_spd_factor`` and ``_potrs`` call LAPACK directly; scipy's wrappers are the oracle."""

    @pytest.mark.parametrize("n", [1, 200])
    @pytest.mark.parametrize("rhs", ["vector", "matrix"])
    @pytest.mark.parametrize("b_dtype", [float, complex])
    @pytest.mark.parametrize("m_dtype", [float, complex])
    def test_bit_identical_to_scipy(self, m_dtype, b_dtype, rhs, n):
        M = spd_matrix(n, m_dtype, seed=n)
        rng = np.random.default_rng(7)
        shape = (n,) if rhs == "vector" else (n, 3)
        b = rng.standard_normal(shape).astype(b_dtype)
        if b_dtype is complex:
            b += 1j * rng.standard_normal(shape)
        expected_factor = cho_factor(M, lower=True)
        expected = cho_solve(expected_factor, b)
        factor = _spd_factor(M.copy(order="F"), "matrix")
        assert np.array_equal(factor, expected_factor[0])
        assert np.array_equal(_potrs(factor, b), expected)
        (x,) = _spd_solve(M.copy(order="F")[None], b[None], "matrix")
        assert np.array_equal(x, expected)
        # a real M with a complex b takes the complex routine, as scipy does
        assert expected.dtype == np.result_type(M, b)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_not_positive_definite_raises(self, dtype):
        M = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=dtype, order="F")
        with pytest.raises(NotPositiveDefiniteError, match="2-th leading minor"):
            _spd_factor(M, "matrix")

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_cond_is_the_cond_1_estimate(self, seed):
        # pocon's estimate of cond_1 from the factor, as _spd_solve gates it:
        # at most the exact cond_1 and, on these matrices, at least cond_2,
        # so the 1e14 gate is no looser than one on the eigenvalue ratio
        rng = np.random.default_rng(seed)
        dim = 40
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = B @ B.conj().T / dim + 0.05 * np.eye(dim)
        cond = spd_condition(_spd_factor(M.copy(order="F"), "matrix"), np.linalg.norm(M, 1))
        assert cond <= np.linalg.cond(M, 1) * (1 + 1e-12)
        assert cond >= np.linalg.cond(M, 2) * (1 - 1e-12)


class TestCovarianceSpec:
    def test_scaled_identity_is_a_diagonal_of_equal_entries(self):
        # the same IEEE multiply per entry as sigma2 * x
        rng = np.random.default_rng(17)
        cov = CovarianceSpec.scaled_identity(3.7, 6)
        x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        assert cov.kind == CovarianceSpec.DIAGONAL
        for v in (x, x[:, 0]):
            assert np.array_equal(cov.apply(v), 3.7 * v)
        assert np.array_equal(cov.to_dense(), 3.7 * np.eye(6))

    def test_rejects_bad_inputs(self):
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceSpec.scaled_identity(0.0, 3)
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceSpec.diagonal([1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceSpec.dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceSpec.dense(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan"),
            pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
            # finite mirror: the asymmetry and the norm are both infinite
            pytest.param([[1.0, np.inf], [0.0, 1.0]], id="inf-off-diagonal"),
        ],
    )
    def test_dense_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            CovarianceSpec.dense(np.array(bad))

    def test_dense_leaves_the_callers_array_alone(self):
        for M in (np.array([[2.0, 1.0], [1.0, 2.0]], order="F"), np.array([[4.0]])):
            before = M.copy()
            cov = CovarianceSpec.dense(M)
            assert np.array_equal(M, before)
            assert np.array_equal(cov.to_dense(), before)

    @pytest.mark.parametrize("kind", ["scaled", "diagonal", "dense"])
    def test_apply_to_a_stack_is_apply_per_matrix(self, kind):
        rng = np.random.default_rng(31)
        cov = random_covariance(kind, 6, 1.0, rng)
        X = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
        Y = cov.apply(X)
        assert Y.shape == X.shape
        for x, y in zip(X, Y):
            assert y.tobytes() == cov.apply(x).tobytes()
        with pytest.raises(DimensionMismatchError):
            cov.apply(np.ones((4, 5, 3)))

    def test_dim_mismatch(self):
        cov = CovarianceSpec.scaled_identity(1.0, 3)
        with pytest.raises(DimensionMismatchError):
            cov.apply([1.0, 2.0])


def test_dense_operator_singular_solve_raises_without_warning():
    # under filterwarnings = ["error"] a LinAlgWarning would surface instead
    op = DenseOperator(np.zeros((3, 3)))
    for adjoint in (False, True):
        with pytest.raises(IllConditionedError):
            op.solve(np.ones(3), adjoint=adjoint)


def test_dense_operator_roundtrip():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    op = DenseOperator(M)
    assert (op.range_dim, op.domain_dim) == (3, 5)
    assert np.allclose(op.to_dense(), M)
    assert dot_test(op, trials=5, seed=9) < 1e-14


class TestTridiagonalOperator:
    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_solve_matches_dense(self, boundary, adjoint):
        rng = np.random.default_rng(17)
        n = 40
        model = HelmholtzModel1D(n=n, h=0.05, omega=30.0, boundary=boundary)
        op = assemble_A(model, rng.uniform(0.2, 0.4, n))
        A = op.to_dense()
        M = A.conj().T if adjoint else A
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        for rhs in (b, B):
            x = op.solve(rhs, adjoint=adjoint)
            expected = np.linalg.solve(M, rhs)
            assert x.shape == rhs.shape
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        # the cached dense LU of the base class agrees as well
        x_dense = DenseOperator(A).solve(b, adjoint=adjoint)
        assert np.linalg.norm(x_dense - np.linalg.solve(M, b)) <= 1e-12 * np.linalg.norm(x_dense)

    def test_zero_pivot_raises(self):
        # rows 0 and 1 coincide, so elimination leaves a zero pivot
        op = TridiagonalOperator([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0])
        with pytest.raises(IllConditionedError):
            op.solve(np.ones(3))
        assert op.condition() == np.inf

    def test_products_match_dense(self):
        rng = np.random.default_rng(19)
        n = 7
        lower, upper = (rng.standard_normal((2, n - 1)) + 1j * rng.standard_normal((2, n - 1)))
        op = TridiagonalOperator(lower, rng.standard_normal(n) + 1j, upper)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(op.matvec(x), op.to_dense() @ x, rtol=1e-14)
        assert np.allclose(op.rmatvec(x), op.to_dense().conj().T @ x, rtol=1e-14)
        assert dot_test(op, trials=5, seed=20) <= 1e-14


def random_blocks(rng, b, nb):
    """``b`` random complex tridiagonal blocks of order ``nb``, far from dominant.

    The diagonal is small against the off-diagonals, so ``gttrf`` interchanges
    rows inside the blocks. Returns ``(lower, diag, upper)`` of shape
    ``(b, nb - 1)``, ``(b, nb)``, ``(b, nb - 1)``.
    """
    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return draw(b, nb - 1), 0.3 * draw(b, nb), draw(b, nb - 1)


def stacked(lower, diag, upper):
    """The block-diagonal operator of per-block diagonals, couplings exactly zero."""
    b = len(diag)
    pad = np.zeros((b, 1), dtype=complex)
    off_lower = np.hstack([lower, pad]).ravel()[:-1]
    off_upper = np.hstack([upper, pad]).ravel()[:-1]
    return TridiagonalOperator(off_lower, diag.ravel(), off_upper, blocks=b)


class TestStackedTridiagonal:
    """A stack of blocks with exact-zero couplings gives each block's own bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_factor_slices_are_the_blocks_own(self, seed):
        rng = np.random.default_rng(seed)
        b, nb = 5, 9
        lower, diag, upper = random_blocks(rng, b, nb)
        dl, d, du, du2, ipiv, info = stacked(lower, diag, upper)._lu()
        assert info == 0
        swaps = 0
        for i in range(b):
            s = i * nb
            own = zgttrf(lower[i], diag[i], upper[i])
            part = (dl[s:s + nb - 1], d[s:s + nb], du[s:s + nb - 1],
                    du2[s:s + nb - 2], ipiv[s:s + nb] - s)
            for x, y in zip(part, own[:5]):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            swaps += int(np.sum(own[4] != np.arange(1, nb + 1)))
        assert swaps > 0  # the blocks are not dominant: rows were interchanged

    @pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
    @pytest.mark.parametrize("rhs", [1, 3], ids=["one-rhs", "three-rhs"])
    @pytest.mark.parametrize("seed", range(4))
    def test_solves_are_the_blocks_own(self, seed, rhs, adjoint):
        rng = np.random.default_rng(100 + seed)
        b, nb = 4, 12
        lower, diag, upper = random_blocks(rng, b, nb)
        shape = (b * nb,) if rhs == 1 else (b * nb, rhs)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if rhs > 1:
            x = np.asfortranarray(x)
        y = stacked(lower, diag, upper).solve(x, adjoint=adjoint)
        for i in range(b):
            rows = slice(i * nb, (i + 1) * nb)
            own = TridiagonalOperator(lower[i], diag[i], upper[i])
            assert y[rows].tobytes() == own.solve(x[rows], adjoint=adjoint).tobytes()

    def test_block_condition_is_the_blocks_own(self):
        rng = np.random.default_rng(7)
        lower, diag, upper = random_blocks(rng, 3, 8)
        op = stacked(lower, diag, upper)
        for i in range(3):
            assert op.condition(i) == TridiagonalOperator(lower[i], diag[i], upper[i]).condition()

    def test_zero_pivot_in_one_block_raises(self):
        rng = np.random.default_rng(8)
        lower, diag, upper = random_blocks(rng, 3, 4)
        # block 1's first two rows coincide, so elimination leaves a zero pivot
        lower[1, 0], diag[1, :2], upper[1, 0], upper[1, 1] = 1.0, 1.0, 1.0, 0.0
        info = zgttrf(lower[1], diag[1], upper[1])[-1]
        assert info > 0
        op = stacked(lower, diag, upper)
        with pytest.raises(IllConditionedError, match=f"row {info} of block 1$"):
            op.solve(np.ones(12))
        assert op.condition(1) == np.inf
        assert np.isfinite(op.condition(0)) and np.isfinite(op.condition(2))

    def test_rejects_coupled_blocks_and_uneven_splits(self):
        off = np.ones(5)
        with pytest.raises(RejectedInputError):
            TridiagonalOperator(off, np.ones(6), off, blocks=2)
        with pytest.raises(DimensionMismatchError):
            TridiagonalOperator(off, np.ones(6), off, blocks=4)
        with pytest.raises(DimensionMismatchError):
            TridiagonalOperator(off, np.ones(6), off, blocks=0)


class TestHermitianCheck:
    # Two full 128-row blocks and a partial one of 7 rows.
    N = 2 * 128 + 7

    @staticmethod
    def accepted_by_oracle(M):
        # The unblocked rule: ||M - M^H||_F <= 1e-12 ||M||_F, NaN rejected.
        with np.errstate(invalid="ignore"):
            asym = np.linalg.norm(M - M.conj().T)
        return bool(asym <= 1e-12 * (np.linalg.norm(M) + 1e-300))

    @staticmethod
    def accepted(M):
        try:
            _check_hermitian(M, "matrix")
        except NotPositiveDefiniteError:
            return False
        return True

    def hermitian(self, dtype):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((self.N, self.N)).astype(dtype)
        if dtype is complex:
            B += 1j * rng.standard_normal((self.N, self.N))
        return B + B.conj().T

    def perturbed(self, dtype, at, size):
        M = self.hermitian(dtype)
        M[at] += size * np.linalg.norm(M)
        return M

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_hermitian_accepted(self, dtype):
        M = self.hermitian(dtype)
        assert self.accepted(M) and self.accepted_by_oracle(M)
        assert self.accepted(np.asfortranarray(M))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_asymmetry_in_last_partial_block(self, dtype):
        M = self.perturbed(dtype, (self.N - 5, self.N - 2), 1e-9)
        assert not self.accepted(M) and not self.accepted_by_oracle(M)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_in_last_column(self, dtype):
        M = self.hermitian(dtype)
        M[17, -1] = np.nan
        assert not self.accepted(M) and not self.accepted_by_oracle(M)

    @pytest.mark.parametrize("at", [(0, 1), (130, 3), (259, 261)])
    @pytest.mark.parametrize("factor, accept", [(0.99, True), (1.01, False)])
    def test_threshold_matches_unblocked_rule(self, at, factor, accept):
        # One off-diagonal entry moved by delta gives ||M - M^H|| = sqrt(2) delta.
        M = self.perturbed(float, at, factor * 1e-12 / np.sqrt(2.0))
        assert self.accepted(M) == self.accepted_by_oracle(M) == accept
