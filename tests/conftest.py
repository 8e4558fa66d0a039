from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_solve, solve_triangular, toeplitz
from scipy.linalg.blas import zherk

from xfwi import (
    CovarianceSpec,
    DimensionMismatchError,
    HelmholtzModel1D,
    IllConditionedError,
    ObjectiveReport,
    Problem,
    RejectedInputError,
    SamplingOperator,
    adjoint_F,
    forward_F,
    helmholtz_problem,
)
from xfwi import formulations, linops
from xfwi.linops import TridiagonalOperator
from xfwi.cli import random_covariance
from xfwi.wavemodel import _check_velocity, medium_values


def spd_solve(M, b, what):
    """``M^{-1} b`` for one Hermitian ``M`` the caller drops, by ``linops._spd_solve``."""
    return linops._spd_solve(M[None], np.asarray(b)[None], what)[0]


def make_helmholtz_instance(
    seed=0,
    n=20,
    h=0.05,
    omega=30.0,
    boundary="sommerfeld",
    receivers=(3, 9, 15),
    cov_kind="dense",
    data="random",
):
    """One random inversion instance on the 1-D grid.

    Returns (problem, m). ``data="consistent"`` synthesizes d from m so the
    objectives vanish there.
    """
    rng = np.random.default_rng(seed)
    model = HelmholtzModel1D(n=n, h=h, omega=omega, boundary=boundary)
    receivers = [int(i) for i in receivers]
    m = rng.uniform(0.2, 0.4, size=n)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if data == "consistent":
        from xfwi import assemble_A

        d = np.linalg.solve(assemble_A(model, m).to_dense(), q)[receivers]
    else:
        nr = len(receivers)
        d = rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
    sigma_m = random_covariance(cov_kind, len(receivers), 1.0, rng)
    sigma_p = random_covariance(cov_kind, n, 1.0, rng)
    return helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p), m


def scaled_problem(prob, alpha):
    """Same instance with both covariances multiplied by alpha."""
    return Problem(
        A_builder=prob.A_builder,
        dA_contract=prob.dA_contract,
        P=prob.P,
        q=prob.q,
        d=prob.d,
        sigma_m=CovarianceSpec.dense(alpha * prob.sigma_m.to_dense()),
        sigma_p=CovarianceSpec.dense(alpha * prob.sigma_p.to_dense()),
    )


def random_tridiagonal(rng, n):
    """A random complex non-symmetric tridiagonal operator of order ``n``.

    Its entries are standard complex normals, with 3 added to the diagonal.
    """
    lower, diag, upper = (
        rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in (n - 1, n, n - 1)
    )
    return TridiagonalOperator(lower, diag + 3, upper)


def complex_operator_problems(count=3, n=16, seed=99):
    """Problems with random complex non-symmetric tridiagonal ``A`` and dense weights.

    Returns ``(problem, medium)`` pairs: the general case of the push-through
    identity that acceptance criterion 2 checks, three receivers, zero data.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        A = random_tridiagonal(rng, n)
        prob = Problem(
            A_builder=lambda m, A=A: A,
            dA_contract=lambda v, w: np.zeros(n),
            P=SamplingOperator([1, 7, 13], n),
            q=np.zeros(n),
            d=np.zeros(3),
            sigma_m=random_covariance("dense", 3, 1.0, rng),
            sigma_p=random_covariance("dense", n, 1.0, rng),
        )
        cases.append((prob, np.ones(n)))
    return cases


# ---------------------------------------------------------------------------
# test-side operators, solves and the adjoint check


class DenseOperator:
    """Operator backed by an explicit 2-D array, with its adjoint for :func:`dot_test`.

    It meets the reduced side's contract of ``Problem`` (``range_dim`` and
    ``solve``); the joint side refuses it.
    """

    def __init__(self, matrix):
        matrix = np.atleast_2d(np.asarray(matrix))
        if matrix.ndim != 2:
            raise RejectedInputError("dense operator needs a 2-D array")
        self.range_dim, self.domain_dim = matrix.shape
        self.matrix = matrix
        self._adjoint = None
        self._factor = None

    def matvec(self, x):
        return self.matrix @ x

    def rmatvec(self, y):
        if self._adjoint is None:
            self._adjoint = self.matrix.conj().T
        return self._adjoint @ y

    def to_dense(self):
        return self.matrix

    def solve(self, b, adjoint=False):
        """Solve ``A x = b`` (``A^H x = b`` with ``adjoint``) for square ``A``.

        The LU of the matrix (LAPACK ``getrf``) is computed on the first call
        and cached; an exactly zero pivot raises :class:`IllConditionedError`.
        ``b`` may hold one right-hand side per column.
        """
        if self._factor is None:
            lu, piv, info = linops._lapack("getrf", self.matrix.dtype)(self.matrix)
            if info > 0:
                raise IllConditionedError(
                    f"operator is singular: zero pivot at row {info} of its LU"
                )
            self._factor = (lu, piv)
        return lu_solve(self._factor, b, trans=2 if adjoint else 0, check_finite=False)


def dot_test(op, trials=10, seed=0):
    """Maximum relative adjoint mismatch over random complex probes.

    For each trial draws x, y and evaluates
    ``|<Ax, y> - <x, A^H y>| / (||Ax|| ||y|| + ||x|| ||A^H y||)``.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise RejectedInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.domain_dim) + 1j * rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.range_dim) + 1j * rng.standard_normal(op.range_dim)
        ax = np.asarray(op.matvec(x)).ravel()
        aty = np.asarray(op.rmatvec(y)).ravel()
        lhs = np.vdot(ax, y.ravel())
        rhs = np.vdot(x, aty)
        scale = (
            np.linalg.norm(ax) * np.linalg.norm(y)
            + np.linalg.norm(x) * np.linalg.norm(aty)
            + 1e-300
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def cov_solve(cov, x):
    """``cov^{-1} x`` for a vector or a matrix of columns.

    A diagonal weight divides by its diagonal; a dense one is Cholesky
    factored (``potrf``, on a Fortran copy) and solved (``potrs``), the
    routines the package's dense solve uses.
    """
    x = np.asarray(x)
    if cov.kind == cov.DIAGONAL:
        return x / cov._diag if x.ndim == 1 else x / cov._diag[:, None]
    factor = linops._spd_factor(np.array(cov.to_dense(), order="F"), "covariance")
    return linops._potrs(factor, x)


def joint_state(prob, m):
    """The joint optimum ``(lam, mu, u)`` at ``m``, from one LU of the augmented system."""
    A = prob.A_builder(m)
    return formulations._joint_optimum(prob, formulations._joint_factor(prob, A))


# ---------------------------------------------------------------------------
# the limits and the appendix forms, checked against the reduced and joint
# objectives


def phi_conventional(prob, m):
    """Data misfit with the state eliminated exactly: ``||r||^2_sigma_m``.

    This is the vanishing-process-uncertainty limit of the reduced
    objective, implemented analytically (no floor).
    """
    r = prob.P.matvec(prob.A_builder(m).solve(prob.q)) - prob.d
    w = cov_solve(prob.sigma_m, r)
    return ObjectiveReport(value=np.vdot(r, w).real, residual=r, weighted_residual=w)


def phi_equation_error(prob, m):
    """Process misfit with the state read off the data: ``||A P^{-1} d - q||^2_sigma_p``.

    Requires a square, invertible sampling operator (full-state
    measurement); the selection structure makes P a permutation, so
    ``P^{-1} = P^T``.
    """
    if prob.P.n_receivers != prob.state_dim:
        raise DimensionMismatchError(
            "equation-error form needs a square, invertible sampling operator"
        )
    r = prob.A_builder(m).matvec(prob.P.dense_adjoint @ prob.d) - prob.q
    w = cov_solve(prob.sigma_p, r)
    return ObjectiveReport(value=np.vdot(r, w).real, residual=r, weighted_residual=w)


def phi_extended_source(prob, m, f):
    """Joint objective re-parameterized by the source extension ``f = A u - q``.

    ``||P A^{-1} (q + f) - d||^2_sigma_m + ||f||^2_sigma_p``.
    """
    f = np.asarray(f)
    if len(f) != prob.state_dim:
        raise DimensionMismatchError(f"extension must have length {prob.state_dim}")
    r = prob.P.matvec(prob.A_builder(m).solve(prob.q + f)) - prob.d
    return (np.vdot(r, cov_solve(prob.sigma_m, r)) + np.vdot(f, cov_solve(prob.sigma_p, f))).real


def minimize_phi_extended_source(prob, m):
    """Dense normal-equation minimizer of the extended-source objective.

    Returns ``(f_opt, value)``; the minimum value equals the joint
    objective, which is the change-of-variables identity the tests verify.
    """
    A = prob.A_builder(m).to_dense()
    Pd = prob.P.to_dense()
    G = np.linalg.solve(A.T, Pd.T.astype(complex)).T  # G = P A^{-1}
    r = G @ prob.q - prob.d
    N = G.conj().T @ cov_solve(prob.sigma_m, G) + cov_solve(
        prob.sigma_p, np.eye(prob.state_dim, dtype=complex)
    )
    N = 0.5 * (N + N.conj().T)
    f = spd_solve(N, -(G.conj().T @ cov_solve(prob.sigma_m, r)), "normal matrix")
    return f, phi_extended_source(prob, m, f)


def phi_contrast_source(prob, m, w, m0):
    """Joint objective re-parameterized by a contrast source ``w``.

    With background ``A0 = A(m0)`` and contrast ``dA = A0 - A(m)``:
    ``||P A0^{-1} (w + q) - d||^2_sigma_m
      + ||dA A0^{-1} (w + q) - w||^2_sigma_p``.
    The substitution ``u = A0^{-1} (w + q)`` maps this bijectively onto the
    joint objective, so minimizing over ``w`` recovers it exactly. (With
    the contrast oriented model-minus-background the same expression would
    instead target the medium reflected about the background.)
    """
    w = np.asarray(w)
    if len(w) != prob.state_dim:
        raise DimensionMismatchError(f"contrast source must have length {prob.state_dim}")
    A0 = prob.A_builder(m0)
    u = A0.solve(w + prob.q)
    r_data = prob.P.matvec(u) - prob.d
    r_proc = A0.matvec(u) - prob.A_builder(m).matvec(u) - w
    return (
        np.vdot(r_data, cov_solve(prob.sigma_m, r_data))
        + np.vdot(r_proc, cov_solve(prob.sigma_p, r_proc))
    ).real


def minimize_phi_contrast_source(prob, m, m0):
    """Dense normal-equation minimizer over the contrast source."""
    A = prob.A_builder(m).to_dense()
    A0 = prob.A_builder(m0).to_dense()
    dA = A0 - A
    A0_inv = np.linalg.inv(A0)
    H = prob.P.to_dense() @ A0_inv
    C = dA @ A0_inv - np.eye(prob.state_dim)
    r0 = H @ prob.q - prob.d
    c0 = dA @ (A0_inv @ prob.q)
    N = H.conj().T @ cov_solve(prob.sigma_m, H) + C.conj().T @ cov_solve(prob.sigma_p, C)
    N = 0.5 * (N + N.conj().T)
    rhs = -(
        H.conj().T @ cov_solve(prob.sigma_m, r0) + C.conj().T @ cov_solve(prob.sigma_p, c0)
    )
    w = spd_solve(N, rhs, "normal matrix")
    return w, phi_contrast_source(prob, m, w, m0)


# ---------------------------------------------------------------------------
# dense oracles of the operators the package only applies


def dA_dm(model, k):
    """Derivative of the assembled operator w.r.t. ``m_k``: ``omega^2 e_k e_k^T``.

    A dense per-k reference for the tests; the gradient contracts all k at
    once instead (``Problem.dA_contract``).
    """
    if not 0 <= k < model.n:
        raise RejectedInputError(f"index {k} out of range for n = {model.n}")
    D = np.zeros((model.n, model.n))
    D[k, k] = model.omega**2
    return DenseOperator(D)


def full_spectrum_symbols(c, acq):
    """Delay-and-scale symbols ``exp(-i omega r_i / c) / r_i`` on all ``2 nt`` FFT bins.

    Built from ``c``, the distances and ``dt`` alone, independently of the
    program's half-spectrum table, for the dense oracles below. Returns
    ``(symbols, N)`` with ``N = 2 nt`` the padded length.
    """
    _check_velocity(c)
    N = 2 * acq.nt
    omega = 2.0 * np.pi * np.fft.fftfreq(N, acq.dt)
    r = acq.distances()
    return np.exp(-1j * omega[None, :] * (r / c)[:, None]) / r[:, None], N


def dense_forward_matrix(c, acq):
    """Materialize the propagator as a real ``(n_rec * nt, nt)`` matrix.

    Each receiver block is the leading ``nt x nt`` crop of the circulant
    delay kernel on the padded grid, so assembly costs one FFT per receiver
    instead of one per column. Identical to applying :func:`forward_F` to
    basis vectors, to roundoff. It has no production caller: the toy applies
    F matrix-free and builds blocks of ``F^T F`` with ``_normal_matrix``; this
    dense form is the tests' oracle for both and for the adjoint dot test.
    """
    symbols, N = full_spectrum_symbols(c, acq)
    nt = acq.nt
    F = np.empty((acq.n_receivers * nt, nt))
    row_idx = (-np.arange(nt)) % N
    for i in range(acq.n_receivers):
        ker = np.fft.ifft(symbols[i]).real
        F[i * nt : (i + 1) * nt, :] = toeplitz(ker[:nt], ker[row_idx])
    return F


def whiten(cov, x):
    """``L^{-1} x`` for the Cholesky factor of a weight, ``cov = L L^H``.

    So ``whiten(cov, x)^H whiten(cov, x) = x^H cov^{-1} x``. A diagonal
    weight divides by its square root; a dense one solves with its lower
    Cholesky factor.
    """
    if cov.kind == cov.DIAGONAL:
        return x / np.sqrt(cov._diag)[:, None]
    factor = linops._spd_factor(np.array(cov.to_dense(), order="F"), "covariance")
    return solve_triangular(factor, x, lower=True)


def dense_identity_sides(prob, m):
    """Both sides of the push-through identity, with ``B`` and ``N`` formed densely.

    Returns the ``n x n_rec`` arrays

        LHS = (P^H Sm^{-1} P + B)^{-1} P^H Sm^{-1}
        RHS = B^{-1} P^H (P B^{-1} P^H + Sm)^{-1},

    with ``B = A^H Sp^{-1} A``: the oracle of
    :func:`xfwi.formulations._identity_sides`, which forms neither ``B`` nor
    ``N``. ``B = C^H C`` is formed from the whitened operator ``C = L^{-1} A``,
    ``Sp = L L^H`` (BLAS ``herk``), so it is Hermitian by construction. Dense
    in ``n``: for ``n <= 200``.
    """
    A = prob.A_builder(m).to_dense()
    Pd = prob.P.to_dense().astype(complex)
    B = zherk(1.0, whiten(prob.sigma_p, A), trans=2, lower=1)  # lower triangle only
    B += B.conj().T  # the mirror image doubles the real diagonal, halved below
    B.flat[:: len(B) + 1] *= 0.5
    N = B + Pd.conj().T @ cov_solve(prob.sigma_m, Pd)
    N = 0.5 * (N + N.conj().T)
    Sm_inv = cov_solve(prob.sigma_m, np.eye(prob.data_dim, dtype=complex))
    lhs = spd_solve(N, Pd.conj().T @ Sm_inv, "normal matrix")
    BinvPH = spd_solve(B, Pd.conj().T, "Gram matrix")
    K = Pd @ BinvPH
    rhs = BinvPH @ np.linalg.inv(0.5 * (K + K.conj().T) + prob.sigma_m.to_dense())
    return lhs, rhs


def entrywise_err(x, ref):
    """``max|x - ref| / max|ref|``, the identity's error measure."""
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def fd_gradient_per_medium(prob, m):
    """:func:`xfwi.fd_gradient` with one reduced pass per perturbed medium.

    The loop the stacked evaluation replaced, kept as the reference it must
    match bit for bit: each of the ``4 n`` media builds its own operator and
    runs :func:`xfwi.formulations._reduced` as its one block.
    """
    v = medium_values(m).copy()

    def value_at(vec):
        (report,), *_ = formulations._reduced(prob, prob.A_builder(vec))
        return report.value

    def central(k, step):
        vp = v.copy()
        vm = v.copy()
        vp[k] += step
        vm[k] -= step
        return (value_at(vp) - value_at(vm)) / (2.0 * step)

    g = np.empty(len(v))
    for k in range(len(v)):
        step = formulations._FD_STEP * (abs(v[k]) + 1e-2)
        g[k] = (4.0 * central(k, step / 2.0) - central(k, step)) / 3.0
    return g


def operator_pair(range_dim, domain_dim, matvec, rmatvec):
    """A map and its claimed adjoint, as :func:`dot_test` reads them."""
    return SimpleNamespace(
        range_dim=range_dim, domain_dim=domain_dim, matvec=matvec, rmatvec=rmatvec
    )


def solve_pair(A):
    """The solves with ``A`` and with ``A^H`` of a square operator, for dot tests."""
    n = A.range_dim
    return operator_pair(n, n, A.solve, lambda y: A.solve(y, adjoint=True))


def propagator(c, acq):
    """:func:`forward_F` and :func:`adjoint_F` on flattened traces, for dot tests."""
    shape = (acq.n_receivers, acq.nt)
    return operator_pair(
        shape[0] * shape[1],
        acq.nt,
        lambda q: forward_F(c, acq, q).values.ravel(),
        lambda y: adjoint_F(c, acq, y.reshape(shape)),
    )


@pytest.fixture
def small_toy_config():
    # Record long enough that the slowest scanned arrival stays in-window.
    from xfwi import ToyConfig

    return ToyConfig(nt=160, dt=0.008, f0=8.0, t0=0.2, scan=(1.5, 2.5, 21))
