"""Objective functions for inversion with uncertain physics and data.

The measurement/process model is

    A(m) u = q + process noise,   cov sigma_p
    P u    = d + data noise,      cov sigma_m

and the central objects are the joint least-squares objective over (m, u),
its reduced form after eliminating the state, and the equivalent weighted
formulation

    phi(m) = r^H (K(m) + sigma_m)^{-1} r,    r = P A(m)^{-1} q - d,

where ``K(m) = P A^{-1} sigma_p A^{-H} P^H`` plays the role of a
medium-dependent residual covariance (correlations of receiver-side
responses). Numerical verifiers for the equivalence and for the underlying
matrix identity live here alongside the gradient and the related
extended-source and contrast-source forms.

Sign convention: the residual is ``r = P A^{-1} q - d`` throughout; the
opposite sign appears in some derivations and cancels in every quadratic
form.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotPositiveDefiniteError,
    RejectedInputError,
    UnsupportedGeometryError,
)
from .linops import (
    CovarianceSpec,
    SamplingOperator,
    TridiagonalOperator,
    _read_only,
    _spd_solve,
    weighted_norm_sq,
)
from .wavemodel import medium_values

IDENTITY_MAX_N = 200  # largest n of the dense, entrywise identity check


@dataclass(frozen=True)
class Problem:
    """One inversion instance: operator builder, geometry, data, weights.

    ``A_builder(m)`` returns the square operator ``A(m)`` (a LinearOperator
    with ``solve``) and must be a pure function of ``m``: the problem keeps
    its last reduced pass, keyed on the medium, and reuses it for the same
    medium (see :func:`_reduced_at`). ``dA_contract(v, w)`` returns the real
    vector ``(Re <v, (dA/dm_k) w>)_k`` over all medium parameters at once.
    ``q`` and ``d`` are kept as read-only complex copies.
    """

    A_builder: Callable
    dA_contract: Callable
    P: SamplingOperator
    q: np.ndarray
    d: np.ndarray
    sigma_m: CovarianceSpec
    sigma_p: CovarianceSpec
    _last_pass: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _read_only(np.array(self.q, dtype=complex))
        d = _read_only(np.array(self.d, dtype=complex))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        if self.P.state_dim != len(q):
            raise DimensionMismatchError(
                f"sampling state dim {self.P.state_dim} != source length {len(q)}"
            )
        if self.P.n_receivers != len(d):
            raise DimensionMismatchError(
                f"{self.P.n_receivers} receivers but data length {len(d)}"
            )
        if self.sigma_m.dim != len(d):
            raise DimensionMismatchError("sigma_m dim must equal data dim")
        if self.sigma_p.dim != len(q):
            raise DimensionMismatchError("sigma_p dim must equal state dim")

    @property
    def state_dim(self):
        return len(self.q)

    @property
    def data_dim(self):
        return len(self.d)


@dataclass
class ObjectiveReport:
    """Objective value with the residual pair.

    For the reduced objective, ``value = Re <residual, weighted_residual>``
    with ``residual = P A^{-1} q - d`` and ``weighted_residual`` the solve
    of ``(K + sigma_m)`` against it.
    """

    value: float
    residual: np.ndarray
    weighted_residual: np.ndarray


@dataclass
class EquivalenceReport:
    """Joint against reduced objective at one medium, with the split errors.

    ``rel_gap = |phi_joint - phi_reduced| / (1 + phi_joint)``. The split
    errors compare ``u - u0``, ``P (u - u0)`` and ``sigma_p lam`` at the joint
    optimum with their reduced-side closed forms (see :func:`verify_equivalence`).
    """

    phi_joint: float
    phi_reduced: float
    rel_gap: float
    state_split_err: float
    data_split_err: float
    process_split_err: float

    @property
    def max_intermediate_err(self):
        return max(self.state_split_err, self.data_split_err, self.process_split_err)


def helmholtz_problem(model, receiver_indices, q, d, sigma_m, sigma_p):
    """Wire a 1-D Helmholtz model into a Problem."""
    from . import wavemodel

    P = SamplingOperator(receiver_indices, model.n)
    omega2 = model.omega**2
    return Problem(
        A_builder=lambda m: wavemodel.assemble_A(model, m),
        # dA/dm_k = omega^2 e_k e_k^T, so the contraction is elementwise
        dA_contract=lambda v, w: omega2 * np.real(np.conj(v) * w),
        P=P,
        q=q,
        d=d,
        sigma_m=sigma_m,
        sigma_p=sigma_p,
    )


# ---------------------------------------------------------------------------
# shared pieces: the reduced side works on the factored operator, the joint
# side on one sparse LU of its augmented (KKT) system; neither forms
# B = A^H sigma_p^{-1} A or N = B + P^H sigma_m^{-1} P


def _sensitivity(prob, A):
    """``G^H = A^{-H} P^H`` and ``K = G sigma_p G^H`` from one factored ``A``.

    One adjoint solve per receiver; ``K`` is returned symmetrised.
    """
    GH = A.solve(prob.P.dense_adjoint, adjoint=True)
    K = GH.conj().T @ prob.sigma_p.apply(GH)
    return GH, 0.5 * (K + K.conj().T)


def _joint_solve(prob, A):
    """Solve the augmented system of the joint objective; return ``(lam, mu, u)``.

    The system, of size ``2 n + n_rec``, holds the covariances as blocks and
    inverts none of them::

        [[sigma_p, 0,       A],    [lam]   [q]
         [0,       sigma_m, P],  @ [mu ] = [d]
         [A^H,     P^H,     0]]    [u  ]   [0]

    Its solution holds the joint optimum ``u``, ``lam = sigma_p^{-1} (q - A u)``
    and ``mu = sigma_m^{-1} (d - P u)``. The blocks come from the operators' own
    data: the diagonals of a tridiagonal ``A`` (a dense ``A`` otherwise), the
    receiver indices, each covariance's diagonal or matrix. One sparse LU
    and one step of iterative refinement from it give the solution.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    def block(cov):
        if cov.kind == cov.DIAGONAL:
            return sparse.diags_array(cov._diag)
        return sparse.csc_array(cov.to_dense())

    n, k = prob.state_dim, prob.data_dim
    if isinstance(A, TridiagonalOperator):
        A = sparse.diags_array([A.lower, A.diag, A.upper], offsets=[-1, 0, 1])
    else:
        A = sparse.csc_array(A.to_dense())
    P = sparse.coo_array((np.ones(k), (np.arange(k), prob.P.receiver_indices)), (k, n))
    M = sparse.bmat(
        [[block(prob.sigma_p), None, A], [None, block(prob.sigma_m), P],
         [A.conj().T, P.T, None]],
        format="csc", dtype=complex,
    )
    try:
        lu = splu(M)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise IllConditionedError(f"joint system is singular: {exc}") from exc
    b = np.concatenate([prob.q, prob.d, np.zeros(n, dtype=complex)])
    x = lu.solve(b)
    x += lu.solve(b - M @ x)  # without it phi loses 4 digits at n = 1e5
    return x[:n], x[n:n + k], x[n + k:]


def _rel_diff(x, y):
    num = np.linalg.norm(x - y)
    den = max(np.linalg.norm(x), np.linalg.norm(y), 1e-300)
    return float(num / den)


# ---------------------------------------------------------------------------
# state solve and objectives


def solve_state(prob, m):
    """State estimate: the minimizer over ``u`` of the joint objective.

    ``u(m)`` solves the normal equations
    ``(A^H sigma_p^{-1} A + P^H sigma_m^{-1} P) u = A^H sigma_p^{-1} q + P^H sigma_m^{-1} d``;
    it is read off the ``u`` block of the augmented system (see
    :func:`_joint_solve`), which never forms that normal matrix.
    """
    return _joint_solve(prob, prob.A_builder(m))[2]


def _joint_value(prob, lam, mu):
    """``lam^H sigma_p lam + mu^H sigma_m mu``: the joint objective at its optimum."""
    z = np.vdot(lam, prob.sigma_p.apply(lam)) + np.vdot(mu, prob.sigma_m.apply(mu))
    return float(z.real)


def phi_joint(prob, m):
    """Joint objective at its optimal state.

    ``||P u(m) - d||^2_sigma_m + ||A(m) u(m) - q||^2_sigma_p`` with ``u(m)``
    from :func:`solve_state`, evaluated as ``lam^H sigma_p lam + mu^H sigma_m mu``
    from the same solve of the augmented system, so no covariance is
    inverted. The report holds ``residual = P u - d`` and
    ``weighted_residual = sigma_m^{-1} (P u - d) = -mu``. This is the
    oracle the reduced objective is checked against.
    """
    lam, mu, u = _joint_solve(prob, prob.A_builder(m))
    return ObjectiveReport(_joint_value(prob, lam, mu), prob.P.matvec(u) - prob.d, -mu)


def sigma_of_m(prob, m):
    """Medium-dependent residual covariance ``K = P A^{-1} sigma_p A^{-H} P^H``.

    ``A`` is factored once and solved adjointly against one basis vector
    per receiver, so the cost is one adjoint simulation per receiver.
    Returns a dense Hermitian ``data_dim x data_dim`` array.
    """
    return _sensitivity(prob, prob.A_builder(m))[1]


def _reduced(prob, A):
    """The one reduced pass at ``A``: ``(report, u0 = A^{-1} q, G^H, K)``."""
    u0 = A.solve(prob.q)
    r = prob.P.matvec(u0) - prob.d
    GH, K = _sensitivity(prob, A)
    sigma_m = prob.sigma_m
    if sigma_m.kind == sigma_m.DIAGONAL:
        W = K.copy()  # C order, so its ravel is a view and the diagonal a stride
        W.ravel()[:: len(W) + 1] += sigma_m._diag
    else:
        W = K + sigma_m.to_dense()
    try:
        r_tilde = _spd_solve(W, r, "K + sigma_m")
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            f"weight matrix K + sigma_m is singular to tolerance: {exc}"
        ) from exc
    z = np.vdot(r, r_tilde)
    if abs(z.imag) > 1e-10 * abs(z.real) + 1e-300:
        raise IllConditionedError(
            f"reduced objective has imaginary part {z.imag:.3e}"
        )
    return ObjectiveReport(max(float(z.real), 0.0), r, r_tilde), u0, GH, K


def _reduced_at(prob, m):
    """The reduced pass at ``m``, ``(A, report, u0, G^H, K)``, kept on ``prob``.

    ``prob`` keeps one pass, keyed on the shape and bytes of ``m`` as
    float64; a call at the same medium returns it. Any other medium builds
    (and so validates and checks) ``A`` and runs :func:`_reduced`, and only
    then replaces the kept pass, so a failure is never kept and a hit always
    follows a checked miss. The report's residual arrays, which callers get,
    are made read-only; no caller writes to ``u0``, ``G^H`` or ``K``, and a
    read-only flag would not stop LAPACK from doing so (see :func:`grad_phi`).
    """
    v = np.asarray(m, dtype=float)
    key = (v.shape, v.tobytes())
    last = prob._last_pass
    if last is not None and last[0] == key:
        return last[1]
    A = prob.A_builder(m)
    report, u0, GH, K = _reduced(prob, A)
    _read_only(report.residual)
    _read_only(report.weighted_residual)
    entry = (A, report, u0, GH, K)
    object.__setattr__(prob, "_last_pass", (key, entry))
    return entry


def phi_reduced(prob, m):
    """Reduced objective ``r^H (K + sigma_m)^{-1} r``.

    Evaluates the residual ``r = P A^{-1} q - d``, solves
    ``(K + sigma_m) r_tilde = r`` by dense Cholesky, and returns
    ``Re <r, r_tilde>`` in a new report with both residual vectors, which
    are read-only.
    """
    rep = _reduced_at(prob, m)[1]
    return ObjectiveReport(rep.value, rep.residual, rep.weighted_residual)


def phi_conventional(prob, m):
    """Data misfit with the state eliminated exactly: ``||r||^2_sigma_m``.

    This is the vanishing-process-uncertainty limit of the reduced
    objective, implemented analytically (no floor).
    """
    r = prob.P.matvec(prob.A_builder(m).solve(prob.q)) - prob.d
    return ObjectiveReport(
        value=weighted_norm_sq(prob.sigma_m, r),
        residual=r,
        weighted_residual=prob.sigma_m.solve(r),
    )


def phi_equation_error(prob, m):
    """Process misfit with the state read off the data: ``||A P^{-1} d - q||^2_sigma_p``.

    Requires a square, invertible sampling operator (full-state
    measurement); the selection structure makes P a permutation, so
    ``P^{-1} = P^T``.
    """
    if prob.P.n_receivers != prob.state_dim:
        raise UnsupportedGeometryError(
            "equation-error form needs a square, invertible sampling operator"
        )
    r = prob.A_builder(m).matvec(prob.P.rmatvec(prob.d)) - prob.q
    return ObjectiveReport(
        value=weighted_norm_sq(prob.sigma_p, r),
        residual=r,
        weighted_residual=prob.sigma_p.solve(r),
    )


def phi_extended_source(prob, m, f):
    """Joint objective re-parameterized by the source extension ``f = A u - q``.

    ``||P A^{-1} (q + f) - d||^2_sigma_m + ||f||^2_sigma_p``.
    """
    f = np.asarray(f)
    if len(f) != prob.state_dim:
        raise DimensionMismatchError(f"extension must have length {prob.state_dim}")
    r = prob.P.matvec(prob.A_builder(m).solve(prob.q + f)) - prob.d
    return weighted_norm_sq(prob.sigma_m, r) + weighted_norm_sq(prob.sigma_p, f)


def minimize_phi_extended_source(prob, m):
    """Dense normal-equation minimizer of the extended-source objective.

    Returns ``(f_opt, value)``; the minimum value equals the joint
    objective, which is the change-of-variables identity the tests verify.
    """
    A = prob.A_builder(m).to_dense()
    Pd = prob.P.to_dense()
    G = np.linalg.solve(A.T, Pd.T.astype(complex)).T  # G = P A^{-1}
    r = G @ prob.q - prob.d
    N = G.conj().T @ prob.sigma_m.solve(G) + prob.sigma_p.solve(
        np.eye(prob.state_dim, dtype=complex)
    )
    N = 0.5 * (N + N.conj().T)
    f = _spd_solve(N, -(G.conj().T @ prob.sigma_m.solve(r)), "normal matrix")
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
    return weighted_norm_sq(prob.sigma_m, r_data) + weighted_norm_sq(
        prob.sigma_p, r_proc
    )


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
    N = H.conj().T @ prob.sigma_m.solve(H) + C.conj().T @ prob.sigma_p.solve(C)
    N = 0.5 * (N + N.conj().T)
    rhs = -(H.conj().T @ prob.sigma_m.solve(r0) + C.conj().T @ prob.sigma_p.solve(c0))
    w = _spd_solve(N, rhs, "normal matrix")
    return w, phi_contrast_source(prob, m, w, m0)


# ---------------------------------------------------------------------------
# gradient


def grad_phi(prob, m, variant="adjoint"):
    """Gradient of the reduced objective w.r.t. the medium parameters.

    Both variants read ``A``, ``u0``, ``r``, ``G^H`` and ``K`` from the reduced
    pass of :func:`phi_reduced`, so they fail where it fails, and after
    :func:`phi_reduced` at the same medium they reuse its pass. The default
    ``"adjoint"`` variant differentiates ``phi = r^H (K + sigma_m)^{-1} r``
    exactly, using three auxiliary fields from one factorization of ``A``:

        u0 = A^{-1} q
        v0 = G^H r_tilde = A^{-H} P^H (K + sigma_m)^{-1} (P u0 - d)
        w0 = A^{-1} sigma_p v0
        d phi / d m_k = 2 Re < v0, (dA/dm_k) (w0 - u0) >

    so only one forward solve beyond the reduced pass is needed, and all k
    are taken in one ``prob.dA_contract``.
    ``variant="paper"`` evaluates an alternative form that
    weights the data residual by ``(K^{-1} + sigma_m^{-1})`` and takes
    ``w0 = A^{-1} sigma_p^{-1} v0``; it feeds the ``paper_variant``
    comparison column of gradient reports and does not match finite
    differences.
    """
    if variant not in ("adjoint", "paper"):
        raise RejectedInputError(f"unknown gradient variant {variant!r}")
    A, reduced, u0, GH, K = _reduced_at(prob, m)
    r = reduced.residual

    if variant == "adjoint":
        v0 = GH @ reduced.weighted_residual
        return 2.0 * prob.dA_contract(v0, A.solve(prob.sigma_p.apply(v0)) - u0)

    # potrf overwrites a Fortran-ordered K (any 1 x 1 one), read-only or not
    weighted = _spd_solve(np.array(K, order="F"), r, "K") + prob.sigma_m.solve(r)
    v0 = GH @ weighted
    w0 = A.solve(prob.sigma_p.solve(v0))
    return -2.0 * prob.dA_contract(u0, v0) + 2.0 * prob.dA_contract(v0, w0)


def fd_gradient(prob, m, rel_step=1e-4):
    """Central finite differences of the reduced objective, per component.

    The step is scaled per component, and the two-step Richardson
    extrapolation ``(4 g(h/2) - g(h)) / 3`` cancels the leading truncation
    term, which the verification harness relies on. Each of the ``4 n``
    perturbed media is evaluated once, by the reduced pass itself, so they
    neither pay for the kept pass of :func:`_reduced_at` nor replace it.
    """
    v = medium_values(m).copy()

    def value_at(vec):
        return _reduced(prob, prob.A_builder(vec))[0].value

    def central(k, step):
        vp = v.copy()
        vm = v.copy()
        vp[k] += step
        vm[k] -= step
        return (value_at(vp) - value_at(vm)) / (2.0 * step)

    g = np.empty(len(v))
    for k in range(len(v)):
        step = rel_step * (abs(v[k]) + 1e-2)
        g[k] = (4.0 * central(k, step / 2.0) - central(k, step)) / 3.0
    return g


# ---------------------------------------------------------------------------
# verification


def verify_matrix_identity(prob, m):
    """Entrywise check of the push-through identity behind the reduction.

    Builds both sides of

        (P^H Sm^{-1} P + B)^{-1} P^H Sm^{-1}
            = B^{-1} P^H (P B^{-1} P^H + Sm)^{-1},

    with ``B = A^H Sp^{-1} A``, densely, and returns
    ``max|LHS - RHS| / max|RHS|``. This is the one place the Gram ``B`` and
    the normal matrix ``N = B + P^H Sm^{-1} P`` are formed, so it accepts
    only ``n <= IDENTITY_MAX_N``.
    """
    if prob.state_dim > IDENTITY_MAX_N:
        raise RejectedInputError(
            f"identity check is a dense-regime verifier (n <= {IDENTITY_MAX_N})"
        )
    A = prob.A_builder(m).to_dense()
    Pd = prob.P.to_dense().astype(complex)
    G = A.conj().T @ prob.sigma_p.solve(A)
    N = G + Pd.conj().T @ prob.sigma_m.solve(Pd)
    N = 0.5 * (N + N.conj().T)
    Sm_inv = prob.sigma_m.solve(np.eye(prob.data_dim, dtype=complex))
    lhs = _spd_solve(N, Pd.conj().T @ Sm_inv, "normal matrix")
    BinvPH = _spd_solve(0.5 * (G + G.conj().T), Pd.conj().T, "Gram matrix")
    K = Pd @ BinvPH
    rhs = BinvPH @ np.linalg.inv(0.5 * (K + K.conj().T) + prob.sigma_m.to_dense())
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def verify_equivalence(prob, m):
    """Compare the joint and reduced objectives at ``m``, with the split identities.

    One reduced pass (the kept one, at the same medium) and one augmented
    solve at ``A(m)``. With ``v0 = G^H r_tilde`` from the reduced pass, the
    splits check ``u - u0 = -A^{-1} sigma_p v0``, ``P (u - u0) = -K r_tilde``
    and the multiplier ``sigma_p lam = sigma_p v0``, not ``A (u - u0)``, whose
    cancellation ``A`` would multiply by ``||A|| ~ 4/h^2``.
    """
    A, reduced, u0, GH, K = _reduced_at(prob, m)
    lam, mu, u = _joint_solve(prob, A)
    pj, pr = _joint_value(prob, lam, mu), reduced.value
    v = u - u0
    r_tilde = reduced.weighted_residual
    sp_v0 = prob.sigma_p.apply(GH @ r_tilde)
    return EquivalenceReport(
        phi_joint=pj,
        phi_reduced=pr,
        rel_gap=abs(pj - pr) / (1.0 + pj),
        state_split_err=_rel_diff(v, -A.solve(sp_v0)),
        data_split_err=_rel_diff(prob.P.matvec(v), -(K @ r_tilde)),
        process_split_err=_rel_diff(prob.sigma_p.apply(lam), sp_v0),
    )
