import numpy as np
import pytest

from xfwi import (
    CovarianceSpec,
    DenseOperator,
    FunctionOperator,
    HelmholtzModel1D,
    SamplingOperator,
    assemble_A,
    dot_test,
    weighted_norm_sq,
)
from xfwi.linops import TridiagonalOperator, _check_hermitian
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
        bad = FunctionOperator(4, 4, lambda x: M @ x, lambda y: M.T @ y)
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


class TestCovarianceSpec:
    def test_weighted_norm_identity(self):
        cov = CovarianceSpec.scaled_identity(1.0, 2)
        assert weighted_norm_sq(cov, [3.0, 4.0]) == pytest.approx(25.0)

    def test_weighted_norm_scaled(self):
        cov = CovarianceSpec.scaled_identity(4.0, 2)
        assert weighted_norm_sq(cov, [2.0, 0.0]) == pytest.approx(1.0)

    def test_weighted_norm_dense_2x2(self):
        cov = CovarianceSpec.dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
        # explicit inverse: [[2,-1],[-1,2]]/3, so r^T C^{-1} r = 2/3 at r=(1,1)
        assert weighted_norm_sq(cov, [1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["scaled", "diagonal", "dense"])
    def test_solve_inverts_apply(self, kind):
        rng = np.random.default_rng(7)
        dim = 6
        if kind == "scaled":
            cov = CovarianceSpec.scaled_identity(2.5, dim)
        elif kind == "diagonal":
            cov = CovarianceSpec.diagonal(0.5 + rng.random(dim))
        else:
            B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            cov = CovarianceSpec.dense(B @ B.conj().T / dim + np.eye(dim))
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        back = cov.solve(cov.apply(x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["scaled", "diagonal", "dense"])
    def test_quadratic_form_positive(self, kind):
        rng = np.random.default_rng(11)
        dim = 5
        if kind == "scaled":
            cov = CovarianceSpec.scaled_identity(0.7, dim)
        elif kind == "diagonal":
            cov = CovarianceSpec.diagonal(0.1 + rng.random(dim))
        else:
            B = rng.standard_normal((dim, dim))
            cov = CovarianceSpec.dense(B @ B.T / dim + np.eye(dim))
        for _ in range(5):
            r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert weighted_norm_sq(cov, r) > 0
        assert weighted_norm_sq(cov, np.zeros(dim)) == 0.0

    def test_scaled_identity_is_a_diagonal_of_equal_entries(self):
        # same IEEE multiply or divide per entry as sigma2 * x and x / sigma2
        rng = np.random.default_rng(17)
        cov = CovarianceSpec.scaled_identity(3.7, 6)
        x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        assert cov.kind == CovarianceSpec.DIAGONAL
        for v in (x, x[:, 0]):
            assert np.array_equal(cov.apply(v), 3.7 * v)
            assert np.array_equal(cov.solve(v), v / 3.7)
        assert np.array_equal(cov.to_dense(), 3.7 * np.eye(6))

    def test_scaled_matches_two_norm(self):
        rng = np.random.default_rng(13)
        r = rng.standard_normal(8)
        cov = CovarianceSpec.scaled_identity(3.7, 8)
        expected = np.dot(r, r) / 3.7
        assert weighted_norm_sq(cov, r) == pytest.approx(expected, rel=1e-12)

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

    def test_singular_to_tolerance_dense(self):
        cov = CovarianceSpec.dense(np.diag([1.0, 1e-15]))
        with pytest.raises(IllConditionedError):
            weighted_norm_sq(cov, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_cond_is_the_cond_1_estimate(self, seed):
        # pocon's estimate of cond_1 from the factor: at most the exact
        # cond_1 and, on these matrices, at least cond_2, so the 1e14 gate
        # is no looser than one on the eigenvalue ratio
        rng = np.random.default_rng(seed)
        dim = 40
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M = B @ B.conj().T / dim + 0.05 * np.eye(dim)
        cov = CovarianceSpec.dense(M)
        assert cov.cond <= np.linalg.cond(M, 1) * (1 + 1e-12)
        assert cov.cond >= np.linalg.cond(M, 2) * (1 - 1e-12)

    def test_dense_leaves_the_callers_array_alone(self):
        for M in (np.array([[2.0, 1.0], [1.0, 2.0]], order="F"), np.array([[4.0]])):
            before = M.copy()
            cov = CovarianceSpec.dense(M)
            assert np.array_equal(M, before)
            assert np.array_equal(cov.to_dense(), before)

    def test_dim_mismatch(self):
        cov = CovarianceSpec.scaled_identity(1.0, 3)
        with pytest.raises(DimensionMismatchError):
            weighted_norm_sq(cov, [1.0, 2.0])


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
    assert op.shape == (3, 5)
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
