"""Direct and iterative linear solvers used by the formulations and the toy.

All solvers are deterministic (zero starting vectors, no randomization) so
experiment outputs reproduce bit-identically.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    RejectedInputError,
)
from .linops import DenseOperator, LinearOperator

_HERMITIAN_RTOL = 1e-12


@dataclass
class SolveReport:
    """Outcome of an iterative solve.

    ``converged`` implies ``relative_residual <= tolerance``.
    """

    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool
    tolerance: float = 0.0
    residual_history: list = field(default_factory=list)


def _as_operator(op):
    if isinstance(op, LinearOperator):
        return op
    return DenseOperator(np.asarray(op))


def lsqr(op, b, damp=0.0, tol=1e-10, maxit=None):
    """Least-squares solve of ``min ||op x - b||^2 + damp^2 ||x||^2``.

    Golub-Kahan bidiagonalization with the plane-rotation recurrences of
    Paige and Saunders. Stops when the residual estimate drops below
    ``tol * ||b||`` or the normal-equation residual stagnates at the
    relative level ``tol``; otherwise runs to ``maxit`` (default
    ``10 * domain_dim``) and returns the best iterate with
    ``converged = False``.

    The reported ``relative_residual`` is the smaller of the direct ratio
    ``||b - op x|| / ||b||`` and the least-squares optimality ratio
    ``||op^H (b - op x) - damp^2 x|| / (||op|| ||b - op x|| + damp^2 ||x||)``;
    for inconsistent or damped problems only the latter can reach the
    tolerance. ``residual_history`` tracks ``||b - op x_k||``, which is
    non-increasing for ``damp = 0``.
    """
    op = _as_operator(op)
    b = np.asarray(b).ravel()
    if len(b) != op.range_dim:
        raise DimensionMismatchError(
            f"rhs length {len(b)} does not match operator range {op.range_dim}"
        )
    if not tol > 0:
        raise RejectedInputError("tol must be positive")
    if damp < 0:
        raise RejectedInputError("damp must be nonnegative")
    n = op.domain_dim
    if maxit is None:
        maxit = 10 * n

    dtype = np.result_type(b.dtype, complex)
    x = np.zeros(n, dtype=dtype)
    history = []

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(x, 0, 0.0, True, tolerance=tol)

    beta = bnorm
    u = b / beta
    v = np.asarray(op.rmatvec(u)).ravel().astype(dtype)
    alfa = np.linalg.norm(v)
    if alfa == 0.0:
        # b is orthogonal to the range; x = 0 is the least-squares solution.
        return SolveReport(x, 0, 1.0, True, tolerance=tol)
    v /= alfa
    w = v.copy()

    phibar = beta
    rhobar = alfa
    anorm2 = alfa**2
    itn = 0
    converged = False

    for itn in range(1, maxit + 1):
        u = np.asarray(op.matvec(v)).ravel() - alfa * u
        beta = np.linalg.norm(u)
        if beta > 0:
            u /= beta
        anorm2 += beta**2 + damp**2
        v = np.asarray(op.rmatvec(u)).ravel() - beta * v
        alfa = np.linalg.norm(v)
        if alfa > 0:
            v /= alfa
        anorm2 += alfa**2

        # Eliminate the damping entry, then the subdiagonal.
        if damp > 0:
            rhobar1 = math.hypot(rhobar, damp)
            phibar = (rhobar / rhobar1) * phibar
            rhobar = rhobar1
        rho = math.hypot(rhobar, beta)
        c = rhobar / rho
        s = beta / rho
        theta = s * alfa
        rhobar = -c * alfa
        phi = c * phibar
        phibar = s * phibar

        x += (phi / rho) * w
        w = v - (theta / rho) * w

        history.append(phibar)
        arnorm = phibar * alfa * abs(c)
        if phibar <= tol * bnorm:
            converged = True
            break
        if arnorm <= tol * math.sqrt(anorm2) * phibar:
            converged = True
            break

    res = b - np.asarray(op.matvec(x)).ravel()
    rel_direct = float(np.linalg.norm(res) / bnorm)
    grad = np.asarray(op.rmatvec(res)).ravel() - damp**2 * x
    rel_opt = float(
        np.linalg.norm(grad)
        / (
            math.sqrt(anorm2) * np.linalg.norm(res)
            + damp**2 * np.linalg.norm(x)
            + 1e-300
        )
    )
    return SolveReport(x, itn, min(rel_direct, rel_opt), converged, tolerance=tol,
                       residual_history=history)


def cg(M, b, tol=1e-10, maxit=None):
    """Conjugate gradients on a Hermitian positive definite system."""
    op = _as_operator(M)
    b = np.asarray(b).ravel()
    if op.range_dim != op.domain_dim or len(b) != op.range_dim:
        raise DimensionMismatchError("cg needs a square operator matching b")
    n = len(b)
    if maxit is None:
        maxit = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(np.zeros(n, dtype=complex), 0, 0.0, True, tolerance=tol)
    x = np.zeros(n, dtype=np.result_type(b.dtype, complex))
    r = b.astype(x.dtype)
    p = r.copy()
    rs = np.vdot(r, r).real
    history = []
    converged = False
    itn = 0
    for itn in range(1, maxit + 1):
        Ap = np.asarray(op.matvec(p)).ravel()
        alpha = rs / np.vdot(p, Ap).real
        x += alpha * p
        r -= alpha * Ap
        rs_new = np.vdot(r, r).real
        history.append(math.sqrt(rs_new))
        if math.sqrt(rs_new) <= tol * bnorm:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    relres = float(np.linalg.norm(b - np.asarray(op.matvec(x)).ravel()) / bnorm)
    return SolveReport(x, itn, relres, converged, tolerance=tol,
                       residual_history=history)


def _check_hermitian(M, name):
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.conj().T) > _HERMITIAN_RTOL * (scale + 1e-300):
        raise NotPositiveDefiniteError(f"{name} is not Hermitian to 1e-12")


def dense_spd_solve(M, b):
    """Cholesky solve of a Hermitian positive definite system.

    Accepts vector or matrix right-hand sides. The residual satisfies
    ``||M x - b|| / ||b|| <= O(eps) * cond(M)`` by backward stability of
    the factorization.
    """
    M = np.asarray(M)
    b = np.asarray(b)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise RejectedInputError("matrix must be square")
    if b.shape[0] != M.shape[0]:
        raise DimensionMismatchError(
            f"rhs leading dim {b.shape[0]} does not match matrix dim {M.shape[0]}"
        )
    _check_hermitian(M, "matrix")
    try:
        factor = cho_factor(M, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed: {exc}"
        ) from exc
    return cho_solve(factor, b, check_finite=False)
