import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DenseOperator,
    complex_operator_problems,
    cov_solve,
    dA_dm,
    dense_identity_sides,
    entrywise_err,
    fd_gradient_per_medium,
    joint_state,
    make_helmholtz_instance,
    minimize_phi_contrast_source,
    minimize_phi_extended_source,
    phi_contrast_source,
    phi_conventional,
    phi_equation_error,
    phi_extended_source,
    random_tridiagonal,
    scaled_problem,
)
from xfwi import (
    CovarianceSpec,
    HelmholtzModel1D,
    Problem,
    SamplingOperator,
    assemble_A,
    fd_gradient,
    grad_phi,
    helmholtz_problem,
    phi_joint,
    phi_reduced,
    verify_equivalence,
)
from xfwi import formulations
from xfwi.cli import COVARIANCE_KINDS, random_covariance
from xfwi import linops
from xfwi.errors import (
    DimensionMismatchError,
    IllConditionedError,
    RejectedInputError,
    XfwiError,
)
from xfwi.linops import TridiagonalOperator


def identity_problem(n, receivers, q, d, sigma_m, sigma_p):
    return Problem(
        A_builder=lambda m: TridiagonalOperator(np.zeros(n - 1), np.ones(n), np.zeros(n - 1)),
        dA_contract=lambda v, w: np.zeros(n),
        P=SamplingOperator(receivers, n),
        q=q,
        d=d,
        sigma_m=sigma_m,
        sigma_p=sigma_p,
    )


def grad_default_problem(n):
    from xfwi.cli import DEFAULT_CONFIG, gradient_problem

    return gradient_problem(DEFAULT_CONFIG["grad"], 3, n=n)


def dense_normal_oracle(prob, m):
    """Joint optimum and objective from the dense normal equations.

    ``N u = A^H Sp^{-1} q + P^H Sm^{-1} d`` with
    ``N = A^H Sp^{-1} A + P^H Sm^{-1} P``, solved by LU; for small n only.
    """
    A = prob.A_builder(m).to_dense()
    Pd = prob.P.to_dense().astype(complex)
    Sp, Sm = prob.sigma_p, prob.sigma_m
    N = A.conj().T @ cov_solve(Sp, A) + Pd.T @ cov_solve(Sm, Pd)
    rhs = A.conj().T @ cov_solve(Sp, prob.q) + Pd.T @ cov_solve(Sm, prob.d)
    u = np.linalg.solve(N, rhs)
    r_proc, r_data = A @ u - prob.q, Pd @ u - prob.d
    value = np.vdot(r_proc, cov_solve(Sp, r_proc)) + np.vdot(r_data, cov_solve(Sm, r_data))
    return u, value.real


def assert_joint_side_matches_dense_oracle(prob, m):
    u_ref, value_ref = dense_normal_oracle(prob, m)
    u = joint_state(prob, m)[2]
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    assert abs(phi_joint(prob, m).value - value_ref) <= 1e-12 * value_ref


def assert_identity_matches_dense_oracle(prob, m):
    # Both sides, from the joint LU and the reduced pass, against the dense
    # B and N. Worst measured over the oracle tests: 2.8e-14 for a side and
    # 2.5e-14 for the identity error, both on the complex operator problems.
    lhs_ref, rhs_ref = dense_identity_sides(prob, m)
    A, _, _, GH, K = formulations._reduced_at(prob, m)
    lhs, rhs = formulations._identity_sides(prob, formulations._joint_factor(prob, A), A, GH, K)
    assert entrywise_err(lhs, lhs_ref) <= 2e-13
    assert entrywise_err(rhs, rhs_ref) <= 2e-13
    assert verify_equivalence(prob, m).identity_max_err == entrywise_err(lhs, rhs) <= 1e-13


def dense_state_correction(prob, m):
    """``u - u0 = A^{-1} Sp A^{-H} P^H (K + Sm)^{-1} (d - P u0)`` from dense inverses.

    ``u0 = A^{-1} q`` and ``K = P A^{-1} Sp A^{-H} P^H``; for small n only.
    """
    A_inv = np.linalg.inv(prob.A_builder(m).to_dense())
    Pd = prob.P.to_dense()
    X = prob.sigma_p.to_dense() @ A_inv.conj().T @ Pd.T
    K = Pd @ A_inv @ X
    u0 = A_inv @ prob.q
    r = prob.d - Pd @ u0
    return u0, A_inv @ X @ np.linalg.solve(K + prob.sigma_m.to_dense(), r)


def max_split_err(rep):
    """The largest of an ``EquivalenceReport``'s three split errors."""
    return max(rep.state_split_err, rep.data_split_err, rep.process_split_err)


def nearly_singular_problem(eps):
    """Full sampling of ``A = [[1, 1], [1, 1 + eps]]`` and a decoupled ``A_33 = 1e-3``.

    ``Sp = I`` and ``Sm = 1e-300 I``. ``K + Sm`` is ``(A^H A)^{-1}`` to
    rounding, of condition ``~16 / eps^2``. The third unknown pads ``A`` to
    the smallest order ``gttrf`` takes; its ``K_33 = 1e6`` lies between the
    leading block's computed eigenvalues (128 and 4e18 at eps = 1e-9), so it
    moves neither end. The joint value is ``||q - A d||^2 = (1 + eps)^2``.
    """
    def stack(m):  # a stack of b media gets A once per medium down the diagonal
        b = len(np.atleast_2d(m))
        off = np.tile([1.0, 0.0, 0.0], b)[:-1]
        return TridiagonalOperator(off, np.tile([1.0, 1.0 + eps, 1e-3], b), off, blocks=b)

    return Problem(
        A_builder=stack,
        dA_contract=lambda v, w: np.zeros(3),
        P=SamplingOperator([0, 1, 2], 3),
        q=np.array([1.0, 0.0, 0.0]),
        d=np.array([0.0, 1.0, 0.0]),
        sigma_m=CovarianceSpec.scaled_identity(1e-300, 3),
        sigma_p=CovarianceSpec.scaled_identity(1.0, 3),
    )


def random_operator_problem(rng, q, d):
    """Problem with a random complex non-symmetric tridiagonal ``A`` and dense weights."""
    n = len(q)
    A = random_tridiagonal(rng, n)
    return Problem(
        A_builder=lambda m: A,
        dA_contract=lambda v, w: np.zeros(n),
        P=SamplingOperator([2, 7, 11], n),
        q=q,
        d=d,
        sigma_m=random_covariance("dense", 3, 1.0, rng),
        sigma_p=random_covariance("dense", n, 1.0, rng),
    )


def bmat_joint_matrix(prob, A):
    """The joint (KKT) matrix from ``scipy.sparse.bmat`` of its dense blocks."""
    from scipy import sparse

    def block(X):
        return sparse.csc_array(X)  # keeps the nonzeros only

    Ad = block(A.to_dense())
    P = block(prob.P.to_dense())
    return sparse.bmat(
        [[block(prob.sigma_p.to_dense()), None, Ad],
         [None, block(prob.sigma_m.to_dense()), P],
         [Ad.conj().T, P.T, None]],
        format="csc", dtype=complex,
    )


def assert_joint_matrix_matches_bmat(prob, A):
    M, ref = formulations._joint_matrix(prob, A), bmat_joint_matrix(prob, A)
    assert M.format == "csc" and M.shape == ref.shape
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert M.data.dtype == ref.data.dtype and M.data.tobytes() == ref.data.tobytes()


def banded_covariance(dim, rng):
    """A dense covariance whose entries beyond the first off-diagonal are exactly 0."""
    off = 0.3 * np.exp(2j * np.pi * rng.random(dim - 1))  # diagonally dominant
    M = np.diag(1.0 + rng.random(dim)) + np.diag(off, -1) + np.diag(off.conj(), 1)
    return CovarianceSpec.dense(M)


class TestJointMatrix:
    """The direct CSC build of the joint system, entry for entry against ``bmat``."""

    @pytest.mark.parametrize("boundary", ["sommerfeld", "dirichlet"])
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_helmholtz_operator(self, cov_kind, boundary):
        prob, m = make_helmholtz_instance(seed=60, cov_kind=cov_kind, boundary=boundary)
        assert_joint_matrix_matches_bmat(prob, prob.A_builder(m))

    def test_mixed_kinds_and_receivers_out_of_order(self):
        rng = np.random.default_rng(61)
        prob, m = make_helmholtz_instance(seed=61, receivers=(17, 0, 9, 19))
        prob = dataclasses.replace(
            prob, sigma_m=random_covariance("diagonal", 4, 1.0, rng)
        )
        assert_joint_matrix_matches_bmat(prob, prob.A_builder(m))

    def test_nonsymmetric_tridiagonal_operator(self):
        # distinct off-diagonals, one of them with an exact zero
        rng = np.random.default_rng(64)
        prob, _ = make_helmholtz_instance(seed=64)
        lower, diag, upper = (
            rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in (19, 20, 19)
        )
        lower[5] = 0.0
        assert_joint_matrix_matches_bmat(prob, TridiagonalOperator(lower, diag, upper))

    def test_random_tridiagonal_operator(self):
        rng = np.random.default_rng(62)
        prob = random_operator_problem(rng, np.zeros(15), np.zeros(3))
        assert_joint_matrix_matches_bmat(prob, prob.A_builder(np.ones(15)))

    def test_exact_zeros_are_dropped(self):
        # zeros off the diagonal of both weights, and an operator with a zero
        # column: none of them is stored
        rng = np.random.default_rng(63)
        prob, m = make_helmholtz_instance(seed=63)
        prob = dataclasses.replace(
            prob, sigma_p=banded_covariance(20, rng), sigma_m=banded_covariance(3, rng)
        )
        assert_joint_matrix_matches_bmat(prob, prob.A_builder(m))
        A = prob.A_builder(m)
        lower, diag, upper = A.lower.copy(), A.diag.copy(), A.upper.copy()
        upper[3] = diag[4] = lower[4] = 0.0  # column 4
        A = TridiagonalOperator(lower, diag, upper)
        assert_joint_matrix_matches_bmat(prob, A)
        n, k = 20, 3
        assert formulations._joint_matrix(prob, A).nnz == (
            (3 * n - 2) + (3 * k - 2) + 2 * (np.count_nonzero(A.to_dense()) + k)
        )


class TestJointState:
    def test_consistent_data_recovers_clean_state(self):
        prob, m = make_helmholtz_instance(seed=1, data="consistent")
        A = prob.A_builder(m).to_dense()
        u = joint_state(prob, m)[2]
        u_clean = np.linalg.solve(A, prob.q)
        assert np.linalg.norm(u - u_clean) <= 1e-8 * np.linalg.norm(u_clean)

    def test_vanishing_process_uncertainty_ignores_data(self):
        prob, m = make_helmholtz_instance(seed=2, cov_kind="scaled")
        tight = Problem(
            A_builder=prob.A_builder,
            dA_contract=prob.dA_contract,
            P=prob.P,
            q=prob.q,
            d=prob.d,
            sigma_m=prob.sigma_m,
            sigma_p=CovarianceSpec.scaled_identity(1e-16, prob.state_dim),
        )
        u = joint_state(tight, m)[2]
        u_clean = np.linalg.solve(prob.A_builder(m).to_dense(), prob.q)
        assert np.linalg.norm(u - u_clean) <= 1e-4 * np.linalg.norm(u_clean)

    def test_vanishing_data_uncertainty_with_full_sampling(self):
        rng = np.random.default_rng(3)
        n = 12
        model = HelmholtzModel1D(n=n, h=0.1, omega=10.0)
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        prob = helmholtz_problem(
            model,
            list(range(n)),
            q,
            d,
            sigma_m=CovarianceSpec.scaled_identity(1e-16, n),
            sigma_p=CovarianceSpec.scaled_identity(1.0, n),
        )
        u = joint_state(prob, np.full(n, 0.3))[2]
        assert np.linalg.norm(prob.P.matvec(u) - d) <= 1e-4 * np.linalg.norm(d)

    @pytest.mark.parametrize("n", [2048, 100_000])
    def test_equivalence_gap_at_scale(self, n):
        # The gap gate acts as an absolute bound here, where phi is ~1e-3, so
        # at n = 1e5 the relative gap is gated too (measured 2.4e-8). The
        # split errors are gated at both sizes; at n = 1e5 the process split
        # measured 1.6e-8 and the largest split (state) 4.3e-7.
        prob, m = grad_default_problem(n)
        pj = phi_joint(prob, m).value
        pr = phi_reduced(prob, m).value
        assert abs(pj - pr) <= 1e-9 * (1.0 + pj)
        if n == 100_000:
            assert abs(pj - pr) <= 1e-7 * pj
        rep = verify_equivalence(prob, m)
        assert rep.process_split_err <= 1e-7
        assert max_split_err(rep) <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_state_correction_matches_dense_closed_form(self, seed, cov_kind):
        prob, m = make_helmholtz_instance(seed=60 + seed, cov_kind=cov_kind)
        u0, expected = dense_state_correction(prob, m)
        got = joint_state(prob, m)[2] - u0
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_state_correction_matches_dense_closed_form_n200(self):
        from xfwi.cli import DEFAULT_CONFIG, make_equiv_instances

        settings = {**DEFAULT_CONFIG["equiv"], "n": 200, "instances": 2}
        for _, prob, m in make_equiv_instances(settings, 12):
            u0, expected = dense_state_correction(prob, m)
            got = joint_state(prob, m)[2] - u0
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_envelope_gradient_at_n1e5(self):
        # The joint objective is stationary in u, so its gradient is
        # -2 Re <lam, (dA/dm_k) u> with lam from the same augmented solve.
        prob, m = grad_default_problem(100_000)
        lam, _, u = joint_state(prob, m)
        g = grad_phi(prob, m)
        envelope = -2.0 * prob.dA_contract(lam, u)
        assert np.max(np.abs(envelope - g)) <= 1e-6 * np.max(np.abs(g))


class TestJointAndReduced:
    def test_zero_at_truth(self):
        prob, m = make_helmholtz_instance(seed=5, data="consistent")
        scale = np.linalg.norm(prob.d) ** 2
        assert phi_joint(prob, m).value <= 1e-20 * max(scale, 1.0)
        assert phi_reduced(prob, m).value <= 1e-20 * max(scale, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_equivalence_random_instances(self, seed, cov_kind):
        prob, m = make_helmholtz_instance(seed=seed, cov_kind=cov_kind)
        pj = phi_joint(prob, m).value
        pr = phi_reduced(prob, m).value
        assert abs(pj - pr) <= 1e-10 * (1.0 + pj)

    def test_dirichlet_boundary_too(self):
        prob, m = make_helmholtz_instance(seed=7, boundary="dirichlet")
        pj = phi_joint(prob, m).value
        pr = phi_reduced(prob, m).value
        assert abs(pj - pr) <= 1e-10 * (1.0 + pj)

    def test_covariance_scaling_homogeneity(self):
        prob, m = make_helmholtz_instance(seed=8)
        alpha = 3.5
        v1 = phi_joint(prob, m).value
        v2 = phi_joint(scaled_problem(prob, alpha), m).value
        assert v2 == pytest.approx(v1 / alpha, rel=1e-10)

    def test_report_invariant(self):
        prob, m = make_helmholtz_instance(seed=9)
        rep = phi_reduced(prob, m)
        inner = np.vdot(rep.residual, rep.weighted_residual).real
        assert rep.value == pytest.approx(inner, rel=1e-12)
        assert rep.value >= 0.0

    def test_reduced_tends_to_conventional(self):
        prob, m = make_helmholtz_instance(seed=10, cov_kind="scaled")
        conv = phi_conventional(prob, m).value
        floor = 1e-8 * np.linalg.norm(prob.d)
        loose = Problem(
            A_builder=prob.A_builder,
            dA_contract=prob.dA_contract,
            P=prob.P,
            q=prob.q,
            d=prob.d,
            sigma_m=prob.sigma_m,
            sigma_p=CovarianceSpec.scaled_identity(floor**2, prob.state_dim),
        )
        red = phi_reduced(loose, m).value
        assert abs(red - conv) <= 1e-6 * conv

    def test_monotone_limit_gaps(self):
        prob, m = make_helmholtz_instance(seed=11, cov_kind="scaled")
        conv = phi_conventional(prob, m).value
        gaps = []
        for sp in (1e-2, 1e-4, 1e-6, 1e-8):
            loose = Problem(
                A_builder=prob.A_builder,
                dA_contract=prob.dA_contract,
                P=prob.P,
                q=prob.q,
                d=prob.d,
                sigma_m=prob.sigma_m,
                sigma_p=CovarianceSpec.scaled_identity(sp**2, prob.state_dim),
            )
            gaps.append(abs(phi_reduced(loose, m).value - conv))
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_argmin_invariant_under_joint_scaling(self):
        prob, m = make_helmholtz_instance(seed=12)
        direction = np.cos(np.linspace(0, 3, len(m)))
        grid = [m + t * 0.02 * direction for t in range(-5, 6)]
        vals = [phi_reduced(prob, mk).value for mk in grid]
        scaled = scaled_problem(prob, 7.3)
        vals_scaled = [phi_reduced(scaled, mk).value for mk in grid]
        assert int(np.argmin(vals)) == int(np.argmin(vals_scaled))


class TestMediumCovariance:
    def test_identity_operator_identity_weight(self):
        n = 4
        prob = identity_problem(
            n,
            list(range(n)),
            q=np.zeros(n),
            d=np.zeros(n),
            sigma_m=CovarianceSpec.scaled_identity(1.0, n),
            sigma_p=CovarianceSpec.scaled_identity(1.0, n),
        )
        K = formulations._reduced_at(prob, np.ones(n))[4]
        assert np.allclose(K, np.eye(n), atol=1e-14)

    def test_identity_operator_subsampled(self):
        n, sp2 = 4, 2.5
        prob = identity_problem(
            n,
            [1, 3],
            q=np.zeros(n),
            d=np.zeros(2),
            sigma_m=CovarianceSpec.scaled_identity(1.0, 2),
            sigma_p=CovarianceSpec.scaled_identity(sp2, n),
        )
        K = formulations._reduced_at(prob, np.ones(n))[4]
        assert np.allclose(K, sp2 * np.eye(2), atol=1e-14)

    def test_dense_inverse_oracle(self):
        prob, m = make_helmholtz_instance(seed=13)
        A = prob.A_builder(m).to_dense()
        Pd = prob.P.to_dense()
        B = A.conj().T @ cov_solve(prob.sigma_p, A)
        K_oracle = Pd @ np.linalg.inv(B) @ Pd.T
        K = formulations._reduced_at(prob, m)[4]
        assert np.max(np.abs(K - K_oracle)) <= 1e-10 * np.max(np.abs(K_oracle))
        assert np.allclose(K, K.conj().T)


class TestGradient:
    def test_zero_gradient_at_truth(self):
        prob, m = make_helmholtz_instance(seed=14, data="consistent")
        g_truth = grad_phi(prob, m)
        g_wrong = grad_phi(prob, m * 1.05)
        assert np.linalg.norm(g_truth) <= 1e-10 * np.linalg.norm(g_wrong)

    def test_finite_difference_oracle(self):
        from xfwi.cli import DEFAULT_CONFIG, gradient_problem

        prob, m = gradient_problem(DEFAULT_CONFIG["grad"], seed=21)
        g = grad_phi(prob, m)
        fd = fd_gradient(prob, m)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-9 * (1 + np.abs(fd).max()))
        assert rel.max() <= 1e-5

    def test_fixed_step_resolves_the_n50_gradient(self):
        # criterion 3's worst case: 2.7e-9 at the step of 1e-3, 9.4e-8 at 1e-4
        from xfwi.cli import DEFAULT_CONFIG, gradient_problem

        prob, m = gradient_problem(DEFAULT_CONFIG["grad"], seed=42, n=50)
        g = grad_phi(prob, m)
        fd = fd_gradient(prob, m)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-9 * (1 + np.abs(fd).max()))
        assert rel.max() <= 1e-8

    def test_gradients_take_only_problem_and_medium(self):
        prob, m = make_helmholtz_instance(seed=16)
        with pytest.raises(TypeError):
            grad_phi(prob, m, variant="paper")
        with pytest.raises(TypeError):
            fd_gradient(prob, m, rel_step=1e-4)

    @pytest.mark.parametrize("cov_kind", ["diagonal", "dense"])
    def test_finite_difference_oracle_with_process_weight(self, cov_kind):
        # sigma_p != I, so the sigma_p in w0 = A^{-1} sigma_p v0 counts; every
        # cli.gradient_problem instance has sigma_p = I
        prob, m = make_helmholtz_instance(seed=60, cov_kind=cov_kind)
        assert not np.allclose(prob.sigma_p.to_dense(), np.eye(prob.state_dim))
        g = grad_phi(prob, m)
        fd = fd_gradient(prob, m)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_vanishing_process_limit_is_adjoint_state(self):
        prob, m = make_helmholtz_instance(seed=15, cov_kind="scaled")
        floor = 1e-8 * np.linalg.norm(prob.d)
        loose = Problem(
            A_builder=prob.A_builder,
            dA_contract=prob.dA_contract,
            P=prob.P,
            q=prob.q,
            d=prob.d,
            sigma_m=prob.sigma_m,
            sigma_p=CovarianceSpec.scaled_identity(floor**2, prob.state_dim),
        )
        g = grad_phi(loose, m)
        # independent conventional adjoint-state gradient, per-k dense dA_k
        # on the instance's grid (make_helmholtz_instance defaults)
        model = HelmholtzModel1D(n=20, h=0.05, omega=30.0, boundary="sommerfeld")
        A = prob.A_builder(m).to_dense()
        u0 = np.linalg.solve(A, prob.q)
        r = prob.P.matvec(u0) - prob.d
        v0 = np.linalg.solve(A.conj().T, prob.P.dense_adjoint @ cov_solve(prob.sigma_m, r))
        g_conv = np.array(
            [
                -2.0 * np.vdot(v0, dA_dm(model, k).matvec(u0)).real
                for k in range(prob.state_dim)
            ]
        )
        assert np.linalg.norm(g - g_conv) <= 1e-6 * np.linalg.norm(g_conv)

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    def test_contraction_matches_per_k_derivative(self, boundary):
        rng = np.random.default_rng(47)
        n = 9
        model = HelmholtzModel1D(n=n, h=0.1, omega=7.0, boundary=boundary)
        prob = helmholtz_problem(
            model,
            [2, 6],
            np.ones(n),
            np.zeros(2),
            CovarianceSpec.scaled_identity(1.0, 2),
            CovarianceSpec.scaled_identity(1.0, n),
        )
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = prob.dA_contract(v, w)
        expected = [np.vdot(v, dA_dm(model, k).matrix @ w).real for k in range(n)]
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_large_grid_stays_linear(self):
        # an n x n complex array here would need 160 GB
        from xfwi.cli import DEFAULT_CONFIG, gradient_problem

        n = 100_000
        prob, m = gradient_problem(DEFAULT_CONFIG["grad"], seed=5, n=n)
        g = grad_phi(prob, m)
        assert g.shape == (n,) and np.all(np.isfinite(g))
        v = m * np.sin(5 * np.pi * np.linspace(0.0, 1.0, n))

        def central(h):
            return (
                phi_reduced(prob, m + h * v).value - phi_reduced(prob, m - h * v).value
            ) / (2.0 * h)

        fd = (4.0 * central(0.5e-2) - central(1e-2)) / 3.0
        assert abs(g @ v - fd) <= 1e-4 * abs(fd)


class TestConventionalAndEquationError:
    def test_conventional_zero_at_truth(self):
        prob, m = make_helmholtz_instance(seed=17, data="consistent")
        assert phi_conventional(prob, m).value <= 1e-20

    def test_conventional_dense_oracle(self):
        prob, m = make_helmholtz_instance(seed=18)
        A = prob.A_builder(m).to_dense()
        r = prob.P.matvec(np.linalg.solve(A, prob.q)) - prob.d
        expected = (r.conj() @ np.linalg.solve(prob.sigma_m.to_dense(), r)).real
        assert phi_conventional(prob, m).value == pytest.approx(expected, rel=1e-10)

    def full_sampling_problem(self, seed, sigma_m):
        rng = np.random.default_rng(seed)
        n = 12
        model = HelmholtzModel1D(n=n, h=0.08, omega=12.0, boundary="sommerfeld")
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        from xfwi.cli import random_covariance

        return (
            helmholtz_problem(
                model,
                list(range(n)),
                q,
                d,
                sigma_m=sigma_m,
                sigma_p=random_covariance("dense", n, 1.0, rng),
            ),
            rng.uniform(0.2, 0.4, n),
        )

    def test_equation_error_consistent(self):
        prob, m = make_helmholtz_instance(
            seed=19, receivers=range(20), data="consistent"
        )
        assert phi_equation_error(prob, m).value <= 1e-18

    def test_equation_error_is_sigma_m_limit(self):
        sm = CovarianceSpec.scaled_identity(1e-16, 12)
        prob, m = self.full_sampling_problem(20, sm)
        ee = phi_equation_error(prob, m).value
        red = phi_reduced(prob, m).value
        assert abs(red - ee) <= 1e-6 * ee

    def test_equation_error_quadratic_along_line(self):
        sm = CovarianceSpec.scaled_identity(1.0, 12)
        prob, m = self.full_sampling_problem(23, sm)
        rng = np.random.default_rng(24)
        direction = rng.standard_normal(len(m)) * 0.02
        f = lambda t: phi_equation_error(prob, m + t * direction).value
        # fit on three points, predict a fourth
        coeffs = np.polyfit([0.0, 1.0, 2.0], [f(0.0), f(1.0), f(2.0)], 2)
        assert np.polyval(coeffs, 3.5) == pytest.approx(f(3.5), rel=1e-8)

    def test_rejects_partial_sampling(self):
        prob, m = make_helmholtz_instance(seed=25)
        with pytest.raises(DimensionMismatchError):
            phi_equation_error(prob, m)


class TestAppendixForms:
    def test_zero_extension_is_conventional(self):
        prob, m = make_helmholtz_instance(seed=26)
        zero_f = np.zeros(prob.state_dim)
        assert phi_extended_source(prob, m, zero_f) == pytest.approx(
            phi_conventional(prob, m).value, rel=1e-12
        )

    def test_extension_minimum_equals_joint(self):
        prob, m = make_helmholtz_instance(seed=27)
        _, val = minimize_phi_extended_source(prob, m)
        pj = phi_joint(prob, m).value
        assert abs(val - pj) <= 1e-10 * (1.0 + pj)

    def test_state_residual_extension_equals_joint(self):
        prob, m = make_helmholtz_instance(seed=28)
        A = prob.A_builder(m).to_dense()
        u = joint_state(prob, m)[2]
        f = A @ u - prob.q
        pj = phi_joint(prob, m).value
        assert phi_extended_source(prob, m, f) == pytest.approx(pj, rel=1e-10)

    def test_contrast_zero_at_background_truth(self):
        prob, m = make_helmholtz_instance(seed=29, data="consistent")
        w = np.zeros(prob.state_dim)
        assert phi_contrast_source(prob, m, w, m) <= 1e-18

    def test_contrast_minimum_equals_joint(self):
        prob, m = make_helmholtz_instance(seed=30)
        m0 = m * 1.03
        _, val = minimize_phi_contrast_source(prob, m, m0)
        pj = phi_joint(prob, m).value
        assert abs(val - pj) <= 1e-10 * (1.0 + pj)

    def test_contrast_scaling_homogeneity(self):
        prob, m = make_helmholtz_instance(seed=31)
        m0 = m * 0.97
        rng = np.random.default_rng(32)
        w = rng.standard_normal(prob.state_dim) + 1j * rng.standard_normal(
            prob.state_dim
        )
        alpha = 2.25
        v1 = phi_contrast_source(prob, m, w, m0)
        v2 = phi_contrast_source(scaled_problem(prob, alpha), m, w, m0)
        assert v2 == pytest.approx(v1 / alpha, rel=1e-10)

    def test_objectives_never_materialize_A(self, monkeypatch):
        # only the dense minimizers form A
        def refuse(self):
            raise AssertionError("an objective materialized A")

        prob, m = make_helmholtz_instance(seed=37, receivers=range(20))
        w = np.random.default_rng(38).standard_normal(prob.state_dim) + 0j
        monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)
        values = [
            phi_equation_error(prob, m).value,
            phi_extended_source(prob, m, w),
            phi_contrast_source(prob, m, w, 1.03 * m),
        ]
        assert np.all(np.isfinite(values))


class TestVerifiers:
    def test_identity_case_both_sides_half(self):
        n = 3
        prob = identity_problem(
            n,
            [0, 1, 2],
            q=np.zeros(n),
            d=np.zeros(n),
            sigma_m=CovarianceSpec.scaled_identity(1.0, n),
            sigma_p=CovarianceSpec.scaled_identity(1.0, n),
        )
        # hand evaluation: (I + I)^{-1} I = I/2 on both sides
        lhs = np.linalg.solve(np.eye(n) + np.eye(n), np.eye(n))
        assert np.allclose(lhs, 0.5 * np.eye(n))
        assert verify_equivalence(prob, np.ones(n)).identity_max_err <= 1e-14

    def test_rel_gap_is_relative_to_one_plus_phi_joint(self):
        # Some instances give the two objectives bit for bit; the others carry
        # a rounding gap, which a wrong denominator would change.
        gaps = 0
        for seed in range(8):
            rep = verify_equivalence(*make_helmholtz_instance(seed=seed))
            gap = abs(rep.phi_joint - rep.phi_reduced) / (1.0 + rep.phi_joint)
            assert rep.rel_gap == gap, seed
            gaps += gap > 0.0
        assert gaps >= 2

    @pytest.mark.parametrize("ratio, ok", [(1e-8, False), (1e-11, True)])
    def test_report_refuses_an_imaginary_part_above_1e10_of_the_real(self, ratio, ok):
        r, r_tilde = np.array([1.0 + 0j]), np.array([2.0 + 2.0j * ratio])
        if ok:
            assert formulations._report(r, r_tilde).value == 2.0
            return
        with pytest.raises(IllConditionedError, match="imaginary part"):
            formulations._report(r, r_tilde)

    def test_helmholtz_identity(self):
        prob, m = make_helmholtz_instance(seed=33)
        assert verify_equivalence(prob, m).identity_max_err <= 1e-10

    def test_random_complex_operator_identity(self):
        rng = np.random.default_rng(34)
        prob = random_operator_problem(rng, np.zeros(15), np.zeros(3))
        assert verify_equivalence(prob, np.ones(15)).identity_max_err <= 1e-9

    @pytest.mark.parametrize("boundary", ["sommerfeld", "dirichlet"])
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    @pytest.mark.parametrize("n", [20, 200])
    def test_identity_sides_match_dense_oracle(self, n, cov_kind, boundary):
        from xfwi.cli import DEFAULT_CONFIG, make_equiv_instances

        settings = {**DEFAULT_CONFIG["equiv"], "n": n, "instances": 2, "boundary": boundary,
                    "sigma_m_kind": cov_kind, "sigma_p_kind": cov_kind}
        for _, prob, m in make_equiv_instances(settings, 7):
            assert_identity_matches_dense_oracle(prob, m)

    def test_operator_identity_sides_match_dense_oracle(self):
        for prob, m in complex_operator_problems():
            assert_identity_matches_dense_oracle(prob, m)

    @pytest.mark.parametrize("boundary", ["sommerfeld", "dirichlet"])
    def test_identity_at_n2e4(self, boundary):
        # No dense B or N, so no size limit. With h = 1/n and diagonal
        # weights the errors read 2.1e-12 to 6.3e-12 (1.2e-11 with scaled
        # identities); n = 200 reads 1e-15.
        from xfwi.cli import DEFAULT_CONFIG, make_equiv_instances

        n = 20_000
        settings = {**DEFAULT_CONFIG["equiv"], "n": n, "h": 1.0 / n, "instances": 2,
                    "boundary": boundary, "sigma_m_kind": "diagonal",
                    "sigma_p_kind": "diagonal"}
        for _, prob, m in make_equiv_instances(settings, 42):
            rep = verify_equivalence(prob, m)
            assert rep.rel_gap <= 1e-9
            assert rep.identity_max_err <= 5e-11

    def test_random_complex_operator_equivalence(self):
        rng = np.random.default_rng(35)
        q = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rep = verify_equivalence(random_operator_problem(rng, q, d), np.ones(15))
        assert rep.phi_joint > 0
        assert rep.rel_gap <= 1e-10
        assert max_split_err(rep) <= 1e-10

    @pytest.mark.parametrize(
        "check", [verify_equivalence, phi_joint], ids=lambda f: f.__name__
    )
    def test_joint_system_built_once(self, monkeypatch, check):
        # one sparse LU per call, and A is never materialized, even at n = 1e5
        import scipy.sparse.linalg

        def refuse(self):
            raise AssertionError("the joint side materialized A")

        real_splu = scipy.sparse.linalg.splu
        calls = []
        monkeypatch.setattr(
            scipy.sparse.linalg, "splu", lambda M: calls.append(M) or real_splu(M)
        )
        monkeypatch.setattr(TridiagonalOperator, "to_dense", refuse)
        prob, m = grad_default_problem(100_000)
        result = check(prob, m)
        assert len(calls) == 1
        if check is verify_equivalence:
            assert result.rel_gap <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_joint_side_matches_dense_normal_equations(self, seed, cov_kind):
        assert_joint_side_matches_dense_oracle(
            *make_helmholtz_instance(seed=50 + seed, cov_kind=cov_kind)
        )

    def test_joint_side_matches_dense_normal_equations_n200(self):
        from xfwi.cli import DEFAULT_CONFIG, make_equiv_instances

        settings = {**DEFAULT_CONFIG["equiv"], "n": 200, "instances": 2}
        for _, prob, m in make_equiv_instances(settings, 11):
            assert_joint_side_matches_dense_oracle(prob, m)

    def test_random_operator_joint_side(self):
        rng = np.random.default_rng(36)
        q = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert_joint_side_matches_dense_oracle(
            random_operator_problem(rng, q, d), np.ones(15)
        )

    @pytest.mark.parametrize("check", [verify_equivalence, phi_joint], ids=lambda f: f.__name__)
    def test_joint_side_refuses_other_operators(self, monkeypatch, check):
        # the reduced side needs only range_dim and solve; the joint side
        # takes the tridiagonal operator alone, refused before any LU
        import scipy.sparse.linalg

        rng = np.random.default_rng(39)
        q = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prob = random_operator_problem(rng, q, d)
        dense = dataclasses.replace(
            prob, A_builder=lambda m: DenseOperator(prob.A_builder(m).to_dense())
        )
        m = np.ones(15)
        assert phi_reduced(dense, m).value == pytest.approx(phi_reduced(prob, m).value, rel=1e-12)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", None)
        with pytest.raises(RejectedInputError, match="takes a TridiagonalOperator"):
            check(dense, m)

    @pytest.mark.parametrize(
        "check", [joint_state, phi_joint, verify_equivalence], ids=lambda f: f.__name__
    )
    def test_singular_joint_system(self, check):
        # A = 0 with one receiver: the joint normal matrix P^H Sm^{-1} P has rank 1
        prob = Problem(
            A_builder=lambda m: TridiagonalOperator(np.zeros(2), np.zeros(3), np.zeros(2)),
            dA_contract=lambda v, w: np.zeros(3),
            P=SamplingOperator([1], 3),
            q=np.ones(3),
            d=np.ones(1),
            sigma_m=CovarianceSpec.scaled_identity(1.0, 1),
            sigma_p=CovarianceSpec.scaled_identity(1.0, 3),
        )
        with pytest.raises(IllConditionedError):
            check(prob, np.ones(3))

    @pytest.mark.parametrize("receivers", [[1], [0, 1, 2]], ids=["one", "all"])
    @pytest.mark.parametrize(
        "order",
        [(phi_reduced, verify_equivalence), (verify_equivalence, phi_reduced)],
        ids=["reduced-first", "equivalence-first"],
    )
    def test_singular_operator(self, receivers, order):
        # A = 0 has an exactly zero LU pivot. With one receiver the joint
        # system is singular too; with all three it is regular, so
        # verify_equivalence reaches the reduced pass. One operator serves
        # every call, so a factor cached by the first would reach the second.
        A = TridiagonalOperator(np.zeros(2), np.zeros(3), np.zeros(2))
        prob = Problem(
            A_builder=lambda m: A,
            dA_contract=lambda v, w: np.zeros(3),
            P=SamplingOperator(receivers, 3),
            q=np.ones(3),
            d=np.ones(len(receivers)),
            sigma_m=CovarianceSpec.scaled_identity(1.0, len(receivers)),
            sigma_p=CovarianceSpec.scaled_identity(1.0, 3),
        )
        for check in order:
            with pytest.raises(IllConditionedError):
                check(prob, np.ones(3))

    @pytest.mark.parametrize("check", [phi_reduced, grad_phi], ids=lambda f: f.__name__)
    def test_reduced_guards_shared_by_gradient(self, check):
        # K + Sm is numerically indefinite at eps = 1e-8: the gradient fails
        # the way the objective does, through the same reduced pass
        with pytest.raises(IllConditionedError):
            check(nearly_singular_problem(1e-8), np.ones(3))

    @pytest.mark.parametrize(
        "check",
        [phi_reduced, grad_phi, verify_equivalence, fd_gradient],
        ids=lambda f: f.__name__,
    )
    def test_weight_condition_is_checked(self, check):
        # cond_1(A) = 4e9 passes, but K + Sm has about cond(A)^2 (pocon: 1.6e16);
        # unchecked, the reduced value read 0.5005 against the exact 1 + 2e-9.
        # sigma_m = 1e-300 I gives no free bound, so pocon reports it.
        prob = nearly_singular_problem(1e-9)
        with pytest.raises(IllConditionedError) as excinfo:
            check(prob, np.ones(3))
        assert excinfo.value.condition == pytest.approx(1.5625e16, rel=1e-6)
        assert abs(phi_joint(prob, np.ones(3)).value - (1.0 + 1e-9) ** 2) <= 1e-8

    def test_equivalence_report(self):
        for seed in range(5):
            prob, m = make_helmholtz_instance(seed=40 + seed)
            rep = verify_equivalence(prob, m)
            assert rep.rel_gap <= 1e-10
            assert max_split_err(rep) <= 1e-10

    def test_equivalence_consistent_data(self):
        prob, m = make_helmholtz_instance(seed=45, data="consistent")
        rep = verify_equivalence(prob, m)
        assert rep.phi_joint <= 1e-18 and rep.phi_reduced <= 1e-18


class TestFactorizationInputs:
    """The internal Cholesky sites skip the Hermitian check; pin why that holds."""

    @pytest.fixture
    def hermitian_inputs(self, monkeypatch):
        # Records, per call of linops._spd_factor, whether the array it
        # receives equals its conjugate transpose bit for bit.
        real = linops._spd_factor
        seen = []

        def spy(M, what):
            seen.append(np.array_equal(M, M.conj().T))
            return real(M, what)

        monkeypatch.setattr(linops, "_spd_factor", spy)
        return seen

    @pytest.mark.parametrize("cov_kind", ["diagonal", "dense"])
    @pytest.mark.parametrize(
        "call, sites",
        [
            (phi_reduced, 1),
            (grad_phi, 1),
            (fd_gradient, 80),  # one K + sigma_m per medium, 4 n media at n = 20
            (verify_equivalence, 2),  # the reduced pass and the identity's right side
        ],
        ids=["phi_reduced", "grad_adjoint", "fd_gradient", "verify_equivalence"],
    )
    def test_sites_receive_exactly_hermitian_arrays(
        self, hermitian_inputs, cov_kind, call, sites
    ):
        prob, m = make_helmholtz_instance(seed=70, cov_kind=cov_kind)
        hermitian_inputs.clear()  # a dense covariance factors on construction
        call(prob, m)
        assert hermitian_inputs == [True] * sites

    @pytest.mark.parametrize(
        "i, j, value",
        [(0, 0, np.nan), (1, 1, np.inf), (2, 2, -np.inf), (0, 2, np.nan), (0, 1, np.inf)],
        ids=["nan-diagonal", "inf-diagonal", "-inf-diagonal", "nan-pair", "inf-pair"],
    )
    @pytest.mark.parametrize(
        "check",
        [phi_reduced, grad_phi, fd_gradient, verify_equivalence],
        ids=["phi_reduced", "grad_adjoint", "fd_gradient", "verify_equivalence"],
    )
    def test_non_finite_weight_matrix_is_rejected(self, monkeypatch, i, j, value, check):
        # K + sigma_m is factored unchecked; a non-finite entry, placed so the
        # matrix stays Hermitian, must still end in an error, never a value
        real = formulations._sensitivity

        def poisoned(prob, A, b=1):
            GH, K = real(prob, A, b)
            K = K.copy()
            K[..., i, j] = value
            K[..., j, i] = np.conj(value)
            return GH, K

        monkeypatch.setattr(formulations, "_sensitivity", poisoned)
        prob, m = make_helmholtz_instance(seed=71)
        with pytest.raises(XfwiError):
            check(prob, m)


class TestStackedFiniteDifferences:
    """fd_gradient's media run as stacks and give the per-medium loop's bits."""

    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_bit_identical_to_one_pass_per_medium(self, cov_kind, boundary, n):
        prob, m = make_helmholtz_instance(
            seed=90, n=n, h=1.0 / n, omega=6.0, boundary=boundary,
            receivers=(n // 6, n // 2, (5 * n) // 6), cov_kind=cov_kind,
        )
        assert fd_gradient(prob, m).tobytes() == fd_gradient_per_medium(prob, m).tobytes()

    @pytest.mark.parametrize("per_group", [1, 7, 33])
    def test_groups_of_any_size_give_the_same_bits(self, monkeypatch, per_group):
        prob, m = grad_default_problem(20)
        monkeypatch.setattr(formulations, "_FD_GROUP_ENTRIES", per_group * 20 * 4)
        assert fd_gradient(prob, m).tobytes() == fd_gradient_per_medium(prob, m).tobytes()

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_group_sizes_give_the_same_bits(self, data):
        n = data.draw(st.integers(5, 40), label="n")
        receivers = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                                       unique=True), label="receivers")
        prob, m = make_helmholtz_instance(
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"), n=n, h=1.0 / n,
            omega=6.0, boundary=data.draw(st.sampled_from(["dirichlet", "sommerfeld"])),
            receivers=receivers, cov_kind=data.draw(st.sampled_from(COVARIANCE_KINDS)),
        )
        # group size = _FD_GROUP_ENTRIES // entries per medium, from 1 to all 4 n media
        per_medium = n * (len(receivers) + 1)
        entries = (data.draw(st.integers(1, 4 * n), label="media per group") * per_medium
                   + data.draw(st.integers(0, per_medium - 1), label="spare entries"))
        expected = fd_gradient_per_medium(prob, m).tobytes()
        # patched here, not by monkeypatch: Hypothesis refuses function-scoped fixtures
        saved = formulations._FD_GROUP_ENTRIES
        formulations._FD_GROUP_ENTRIES = entries
        try:
            assert fd_gradient(prob, m).tobytes() == expected
        finally:
            formulations._FD_GROUP_ENTRIES = saved

    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_each_block_of_a_stack_is_its_own_pass(self, cov_kind):
        prob, m = make_helmholtz_instance(seed=91, cov_kind=cov_kind)
        media = m * (1.0 + 0.01 * np.arange(5)[:, None])
        reports, u0, GH, K = formulations._reduced(prob, prob.A_builder(media), 5)
        assert (u0.shape, GH.shape, K.shape) == ((5, 20), (5, 20, 3), (5, 3, 3))
        for i, medium in enumerate(media):
            (own,), u0_i, GH_i, K_i = formulations._reduced(prob, prob.A_builder(medium))
            mine = [reports[i].value, reports[i].residual, reports[i].weighted_residual,
                    u0[i], GH[i], K[i]]
            theirs = [own.value, own.residual, own.weighted_residual, u0_i[0], GH_i[0], K_i[0]]
            assert [np.asarray(x).tobytes() for x in mine] == [
                np.asarray(x).tobytes() for x in theirs
            ]

    def test_gttrf_runs_once_per_group(self, monkeypatch):
        prob, m = grad_default_problem(20)
        calls = []
        real = linops.zgttrf
        monkeypatch.setattr(linops, "zgttrf", lambda *a: calls.append(1) or real(*a))
        fd_gradient_per_medium(prob, m)
        assert len(calls) == 80
        calls.clear()
        fd_gradient(prob, m)  # the 80 media fit one group
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(formulations, "_FD_GROUP_ENTRIES", 7 * 20 * 4)
        fd_gradient(prob, m)
        assert len(calls) == 12  # 11 groups of 7 and one of 3

    def test_builder_ignoring_the_stack_is_rejected(self):
        rng = np.random.default_rng(37)
        q = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        prob = random_operator_problem(rng, q, d)  # one 15 x 15 operator for any m
        phi_reduced(prob, np.ones(15))  # one medium is fine
        with pytest.raises(DimensionMismatchError):
            fd_gradient(prob, np.ones(15))

    def test_takes_one_medium_only(self):
        prob, m = grad_default_problem(20)
        with pytest.raises(RejectedInputError):
            fd_gradient(prob, np.stack([m, m]))


def real_embedding(W, shift=0.0):
    """``W - shift I`` as the exact rational ``[[Re, -Im], [Im, Re]]``, whose spectrum is W's, doubled."""
    k = len(W)
    A = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            re, im = Fraction(W[i, j].real), Fraction(W[i, j].imag)
            re -= Fraction(shift) if i == j else 0
            A[i][j] = A[i + k][j + k] = re
            A[i + k][j], A[i][j + k] = im, -im
    return A


def exactly_positive_semidefinite(W, shift):
    """Whether ``W - shift I`` has no negative eigenvalue, by exact elimination."""
    A = real_embedding(W, shift)
    for p in range(len(A)):
        if A[p][p] < 0 or (A[p][p] == 0 and any(A[p][p + 1:])):
            return False
        for i in range(p + 1, len(A)) if A[p][p] else ():
            f = A[i][p] / A[p][p]
            A[i] = [a - f * b for a, b in zip(A[i], A[p])]
    return True


def condition_1_above(W):
    """An upper bound on ``cond_1(W)`` within a few ulps: the exact inverse, moduli rounded up."""
    k = len(W)
    A = [row + [Fraction(int(i == j)) for j in range(2 * k)]
         for i, row in enumerate(real_embedding(W))]
    for p in range(2 * k):  # Gauss-Jordan with the first nonzero pivot
        q = next(i for i in range(p, 2 * k) if A[i][p] != 0)
        A[p], A[q] = A[q], A[p]
        A[p] = [a / A[p][p] for a in A[p]]
        for i in range(2 * k):
            if i != p and A[i][p] != 0:
                f = A[i][p]
                A[i] = [a - f * b for a, b in zip(A[i], A[p])]

    def modulus_above(re, im):
        return Fraction(math.sqrt(float(re * re + im * im))) * (1 + Fraction(1, 2**50))

    def norm_1_above(entry):
        return max(sum(modulus_above(*entry(i, j)) for i in range(k)) for j in range(k))

    W_norm = norm_1_above(lambda i, j: (Fraction(W[i, j].real), Fraction(W[i, j].imag)))
    inv_norm = norm_1_above(lambda i, j: (A[i][2 * k + j], A[i + k][2 * k + j]))
    return W_norm * inv_norm


class TestGramBound:
    """The free bound on ``cond_1`` of ``K + sigma_m`` and the ``pocon`` estimate behind it."""

    @pytest.mark.parametrize("kind_p", COVARIANCE_KINDS)
    @pytest.mark.parametrize("kind_m", COVARIANCE_KINDS)
    def test_floor_and_bound_hold_exactly(self, kind_m, kind_p):
        # random stacks of perturbed media and sigma_m from 1e-300 to 1e2, half
        # of the draws a little above the rounding level of K's trace
        rng = np.random.default_rng([COVARIANCE_KINDS.index(kind_m), COVARIANCE_KINDS.index(kind_p)])
        bounded = 0
        for _ in range(16):
            n = int(rng.integers(8, 60))
            k = int(rng.integers(1, 6))
            receivers = rng.choice(n, k, replace=False)
            model = HelmholtzModel1D(n=n, h=1.0 / n, omega=float(np.exp(rng.uniform(-1, 4))),
                                     boundary=str(rng.choice(["dirichlet", "sommerfeld"])))
            media = 0.25 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, (int(rng.integers(1, 5)), n)))
            if kind_p == "diagonal" and rng.random() < 0.5:
                # spread over 300 decades, K has fewer than k directions above
                # rounding and its computed eigenvalues straddle zero
                sigma_p = CovarianceSpec.diagonal(10 ** rng.uniform(-300, 0, n))
            else:
                sigma_p = random_covariance(kind_p, n, float(10 ** rng.uniform(-3, 3)), rng)
            probe = helmholtz_problem(model, receivers, np.ones(n), np.ones(k),
                                      random_covariance("scaled", k, 1.0, rng), sigma_p)
            try:
                _, K = formulations._sensitivity(probe, probe.A_builder(media), len(media))
            except XfwiError:
                continue
            trace = np.trace(K, axis1=1, axis2=2).real.max() / k
            exponent = (rng.uniform(-300, 2) if rng.random() < 0.5
                        else np.log10(trace) + rng.uniform(-16, -10))
            sigma_m = random_covariance(kind_m, k, float(10 ** (exponent / 2)), rng)
            prob = dataclasses.replace(probe, sigma_m=sigma_m)
            W = K + prob._gram_shift
            floor = prob._gram_floor
            if floor is None:
                assert "dense" in (kind_m, kind_p)  # these blocks get pocon
                continue
            norms = np.abs(W).sum(axis=1).max(axis=1)
            lam = floor[0] - floor[1] * norms
            for W_i, norm_i, lam_i in zip(W, norms, lam):
                assert exactly_positive_semidefinite(W_i, lam_i)
                if lam_i > 0:
                    bounded += 1
                    assert Fraction(np.sqrt(k) * norm_i / lam_i) >= condition_1_above(W_i)
        assert bounded > 0 or "dense" in (kind_m, kind_p)

    def test_pocon_runs_for_the_blocks_that_fail_the_bound_only(self, monkeypatch):
        prob, _ = make_helmholtz_instance(seed=92, cov_kind="scaled")  # sigma_m = I
        # blocks 1 and 3 have cond_1 = 1 + 7e13, whose bound is not below
        # 1e14, though the estimate is; the others are the identity
        spike = np.diag([7e13, 0.0, 0.0]).astype(complex)
        K = np.stack([0 * spike, spike, 0 * spike, spike, 0 * spike])
        R = np.ones((5, 3), dtype=complex)
        seen = []
        real = linops.spd_condition
        monkeypatch.setattr(
            linops, "spd_condition", lambda factor, norm_1: seen.append(norm_1) or real(factor, norm_1)
        )
        x = formulations._weight_solve(prob, K, R)
        assert seen == [1.0 + 7e13] * 2
        for K_i, x_i in zip(K, x):
            np.testing.assert_allclose(x_i, np.linalg.solve(K_i + np.eye(3), R[0]), rtol=1e-15)

    def test_dense_weights_estimate_every_block(self, monkeypatch):
        prob, m = make_helmholtz_instance(seed=93, cov_kind="dense")
        calls = []
        real = linops.spd_condition
        monkeypatch.setattr(
            linops, "spd_condition", lambda *args: calls.append(1) or real(*args)
        )
        fd_gradient(prob, m)
        assert prob._gram_floor is None and len(calls) == 4 * len(m)


def test_lapack_calls_of_one_reduced_objective(monkeypatch):
    # A deterministic guard on the per-call overhead of a one-medium reduced
    # evaluation: one tridiagonal factor, no gtcon (the free
    # bound settles the check), and one Cholesky factor and solve of
    # K + sigma_m, with no pocon (its free bound settles that check too).
    prob, m = grad_default_problem(100)
    calls = {"gttrf": 0, "gtcon": 0, "potrf": 0, "pocon": 0, "potrs": 0}

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    real_lapack = linops._lapack
    monkeypatch.setattr(linops, "zgttrf", counting("gttrf", linops.zgttrf))
    monkeypatch.setattr(linops, "zgtcon", counting("gtcon", linops.zgtcon))
    monkeypatch.setattr(
        linops, "_lapack", lambda name, *dtypes: counting(name, real_lapack(name, *dtypes))
    )
    phi_reduced(prob, m)
    assert calls == {"gttrf": 1, "gtcon": 0, "potrf": 1, "pocon": 0, "potrs": 1}


def evaluations(prob, m):
    """Every reduced-side result at ``m`` as bytes, in the order an iterate takes them."""
    rep = phi_reduced(prob, m)
    parts = [rep.value, rep.residual, rep.weighted_residual, grad_phi(prob, m)]
    eq = verify_equivalence(prob, m)
    parts += [eq.phi_reduced, eq.state_split_err, eq.data_split_err, eq.process_split_err]
    return [np.asarray(p).tobytes() for p in parts]


def fresh(prob):
    """The same problem with nothing kept from earlier evaluations."""
    return dataclasses.replace(prob)


def mutable_instance(n=40, receivers=(5, 20, 33)):
    """A Helmholtz problem built from arrays the test keeps and may change later."""
    rng = np.random.default_rng(5)
    model = HelmholtzModel1D(n=n, h=1.0 / n, omega=6.0, boundary="sommerfeld")
    arrays = {
        "m": 0.25 + 0.05 * rng.random(n),
        "q": rng.standard_normal(n) + 1j * rng.standard_normal(n),
        "d": rng.standard_normal(len(receivers)) + 1j * rng.standard_normal(len(receivers)),
        "diag": 0.5 + rng.random(len(receivers)),
        "receivers": np.array(receivers),
    }
    prob = helmholtz_problem(
        model, arrays["receivers"], arrays["q"], arrays["d"],
        CovarianceSpec.diagonal(arrays["diag"]), CovarianceSpec.scaled_identity(1.0, n),
    )
    return prob, arrays


class TestReducedPassCache:
    """The problem keeps its last reduced pass; a hit must be indistinguishable."""

    @pytest.mark.parametrize("cov_kind", ["scaled", "diagonal", "dense"])
    def test_hits_are_bit_identical_to_a_fresh_problem(self, cov_kind):
        prob, m = make_helmholtz_instance(seed=81, cov_kind=cov_kind)
        first = evaluations(prob, m)
        assert evaluations(prob, m) == first
        assert evaluations(fresh(prob), m) == first
        # and each entry point alone, from an empty problem
        rep = phi_reduced(fresh(prob), m)
        assert rep.value == np.frombuffer(first[0])[0]
        g = grad_phi(fresh(prob), m)
        assert g.tobytes() == first[3]

    def test_gradient_after_objective_reuses_its_pass(self):
        prob, m = grad_default_problem(100)
        builds = []

        def counting(mk):
            builds.append(1)
            return prob.A_builder(mk)

        counted = dataclasses.replace(prob, A_builder=counting)
        phi_reduced(counted, m)
        grad_phi(counted, m)
        verify_equivalence(counted, m)
        assert len(builds) == 1

    def test_one_entry_only(self):
        prob, m = grad_default_problem(100)
        m2 = m * 1.01
        builds = []

        def counting(mk):
            builds.append(1)
            return prob.A_builder(mk)

        counted = dataclasses.replace(prob, A_builder=counting)
        phi_reduced(counted, m)
        phi_reduced(counted, m2)
        g = grad_phi(counted, m)  # m2 replaced the pass at m
        assert len(builds) == 3
        assert g.tobytes() == grad_phi(fresh(prob), m).tobytes()

    def test_finite_differences_leave_the_kept_pass(self):
        prob, m = grad_default_problem(20)
        phi_reduced(prob, m)
        kept = prob._last_pass
        fd_gradient(prob, m)
        assert prob._last_pass is kept

    def test_replace_starts_empty_and_repr_hides_the_pass(self):
        prob, m = grad_default_problem(20)
        phi_reduced(prob, m)
        assert prob._last_pass is not None
        assert fresh(prob)._last_pass is None
        assert "_last_pass" not in repr(prob)
        slot = {f.name: f for f in dataclasses.fields(Problem)}["_last_pass"]
        assert not (slot.init or slot.repr or slot.compare)

    def test_same_bytes_other_shape_is_a_miss(self):
        prob, m = grad_default_problem(20)
        phi_reduced(prob, m)
        with pytest.raises(RejectedInputError):
            phi_reduced(prob, m.reshape(4, 5))

    def test_report_arrays_are_read_only_and_reports_fresh(self):
        prob, m = grad_default_problem(20)
        rep = phi_reduced(prob, m)
        value = rep.value
        for a in (rep.residual, rep.weighted_residual):
            with pytest.raises(ValueError):
                a[0] = 0.0
        rep.value = -1.0
        rep.residual = np.zeros(3)
        again = phi_reduced(prob, m)
        assert again is not rep
        assert again.value == value
        assert again.residual.tobytes() == phi_reduced(fresh(prob), m).residual.tobytes()

    def test_one_receiver_pass_stays_intact(self):
        # K is 1 x 1, so Fortran-ordered; potrf would factor it in place
        # through the read-only flag if a kept K were handed to it directly
        prob, arrays = mutable_instance(receivers=(17,))
        m = arrays["m"]
        results = [grad_phi(prob, m), grad_phi(prob, m), phi_reduced(prob, m).residual]
        expected = [grad_phi(fresh(prob), m), grad_phi(fresh(prob), m),
                    phi_reduced(fresh(prob), m).residual]
        assert [g.tobytes() for g in results] == [g.tobytes() for g in expected]

    @pytest.mark.parametrize("name", ["m", "q", "d", "diag", "receivers"])
    def test_callers_arrays_cannot_reach_a_later_result(self, name):
        prob, arrays = mutable_instance()
        m = arrays["m"]
        before = evaluations(prob, m)
        clean, _ = mutable_instance()
        if name == "receivers":
            arrays[name][0] = 7
        else:
            arrays[name][0] *= 1.5
        if name == "m":
            # a changed medium is a new medium: a miss, computed afresh
            assert evaluations(prob, m) == evaluations(clean, m)
            assert evaluations(prob, m) != before
        else:
            assert evaluations(prob, m) == before
            assert evaluations(prob, m) == evaluations(clean, m)
        assert not np.shares_memory(clean.q, arrays["q"])

    def test_rejected_medium_raises_on_every_call(self):
        prob, m = grad_default_problem(20)
        bad = m.copy()
        bad[3] = -0.25
        for check in (phi_reduced, grad_phi, phi_reduced, verify_equivalence, grad_phi):
            with pytest.raises(RejectedInputError):
                check(prob, bad)
        phi_reduced(prob, m)
        with pytest.raises(RejectedInputError):
            grad_phi(prob, bad)
        assert prob._last_pass is not None  # the pass at m is kept

    def test_ill_conditioned_weight_raises_on_every_call(self):
        prob = nearly_singular_problem(1e-9)
        for check in (phi_reduced, phi_reduced, grad_phi, verify_equivalence, grad_phi):
            with pytest.raises(IllConditionedError):
                check(prob, np.ones(3))
        assert prob._last_pass is None
