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
responses). The reduced pass, its gradient and the joint (KKT) solve that
verifies them live here; the joint formulation is that of van Leeuwen and
Herrmann (GJI 2013).

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
)
from .linops import (
    CovarianceSpec,
    SamplingOperator,
    TridiagonalOperator,
    _UNIT_ROUNDOFF,
    _read_only,
    _spd_solve,
)
from .wavemodel import medium_values

_FD_STEP = 1e-3  # relative step of fd_gradient, scaled per component
_ETA = float(np.finfo(float).smallest_subnormal)  # the most an underflowing product loses
# Entries (rows of the stacked operator times its receivers plus one) per
# group of fd_gradient's media: 32 media at n = 100 with 3 receivers.
_FD_GROUP_ENTRIES = 12800


@dataclass(frozen=True)
class Problem:
    """One inversion instance: operator builder, geometry, data, weights.

    ``A_builder(m)`` returns the square operator ``A(m)`` and must be a pure
    function of ``m``. The reduced side needs only its ``range_dim``, its
    order, and ``solve(b, adjoint=False)``, which solves with ``A`` (``A^H``
    with ``adjoint``) against one right-hand side or one per column. The
    joint side assembles its system from the three diagonals of a
    :class:`~xfwi.linops.TridiagonalOperator`, the operator
    :func:`~xfwi.wavemodel.assemble_A` builds, and refuses any other (see
    :func:`_operator_slots`). The problem keeps its last reduced pass, keyed
    on the medium, and reuses it for the same medium (see
    :func:`_reduced_at`), and the array it adds to ``K`` and the eigenvalue
    floor of ``K + sigma_m`` (see :func:`_gram_shift` and
    :func:`_gram_floor`). Given a stack of ``b`` media, one per row, the
    builder returns the block-diagonal operator of their ``b`` operators, of
    order ``b * state_dim``; :func:`fd_gradient` evaluates its media so, and
    rejects an operator of any other order. ``dA_contract(v, w)`` returns
    the real vector ``(Re <v, (dA/dm_k) w>)_k`` over all medium parameters
    at once. ``q`` and ``d`` are kept as read-only complex copies.
    """

    A_builder: Callable
    dA_contract: Callable
    P: SamplingOperator
    q: np.ndarray
    d: np.ndarray
    sigma_m: CovarianceSpec
    sigma_p: CovarianceSpec
    _last_pass: tuple = field(default=None, init=False, repr=False, compare=False)
    _gram_shift: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _gram_floor: tuple = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_gram_shift", _gram_shift(self.sigma_m))
        object.__setattr__(self, "_gram_floor", _gram_floor(self))

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
    optimum with their reduced-side closed forms, and ``identity_max_err``
    the two sides of the push-through identity (see :func:`verify_equivalence`).
    """

    phi_joint: float
    phi_reduced: float
    rel_gap: float
    state_split_err: float
    data_split_err: float
    process_split_err: float
    identity_max_err: float


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


def _tiled(x, b):
    """``x`` repeated ``b`` times down its first axis, in Fortran order; ``x`` itself for b = 1."""
    return x if b == 1 else np.tile(x.T, b).T


def _sensitivity(prob, A, b=1):
    """``G^H = A^{-H} P^H`` and ``K = G sigma_p G^H`` for the ``b`` blocks of a factored ``A``.

    One adjoint solve of ``A`` against ``P^H`` tiled over its blocks, then
    one stacked product for every block's ``K``. Returns ``G^H`` of shape
    ``(b, n, n_rec)`` and ``K`` of shape ``(b, n_rec, n_rec)``, symmetrised;
    each block's slice is what the block alone would give, bit for bit.
    """
    GH = A.solve(_tiled(prob.P.dense_adjoint, b), adjoint=True)
    GH = GH.reshape(b, prob.state_dim, prob.data_dim)
    K = GH.conj().transpose(0, 2, 1) @ prob.sigma_p.apply(GH)
    return GH, 0.5 * (K + K.conj().transpose(0, 2, 1))


def _gram_shift(sigma_m):
    """``sigma_m`` as the ``n_rec x n_rec`` array that is added to ``K``.

    A diagonal ``sigma_m`` has -0.0 off its diagonal: ``x + (-0.0)`` is
    ``x`` bit for bit, where ``x + 0.0`` turns -0.0 into +0.0, so the sum is
    ``K`` with ``sigma_m`` added to its diagonal, entry for entry.
    """
    if sigma_m.kind != sigma_m.DIAGONAL:
        return sigma_m.to_dense()
    shift = np.full((sigma_m.dim, sigma_m.dim), complex(-0.0, -0.0))
    np.fill_diagonal(shift, sigma_m._diag)
    return _read_only(shift)


def _gram_floor(prob):
    """``(low, slope)``: no block of ``K + sigma_m`` has an eigenvalue below ``low - slope ||.||_1``.

    The floor :func:`~xfwi.linops._spd_solve` takes, or None where none is
    derived: a dense ``sigma_m`` or ``sigma_p``. For diagonal ones, ``K`` as
    :func:`_sensitivity` computes it is ``G sigma_p G^H``, exactly positive
    semidefinite for the computed ``G``, plus rounding: one product per
    entry of ``sigma_p G^H``, a complex dot product of length ``n`` and the
    symmetrisation. Each entry of that error is at most
    ``(sqrt(2) (n + 2) + 2) u sqrt(K_aa K_bb)`` (``u`` the unit roundoff),
    so its 2-norm is at most that multiple of ``tr K <= k ||W||_1`` for
    ``W = K + sigma_m`` with ``k`` receivers, and adding ``sigma_m`` rounds
    each diagonal entry of ``W`` once more. Underflow adds at most ``eta``,
    the smallest subnormal, per product, and
    ``sum_j |G_ja| <= sqrt(n K_aa / min sigma_p)``. So the smallest
    eigenvalue of the computed ``W`` is at least::

        min sigma_m - 2 k (n + k + 8) u ||W||_1
                    - 2 k (n + 1) eta (1 + n ||W||_1 / min sigma_p)

    whose margins over that sum also cover the rounding of the bound.
    """
    sigma_m, sigma_p = prob.sigma_m, prob.sigma_p
    if sigma_m.kind != sigma_m.DIAGONAL or sigma_p.kind != sigma_p.DIAGONAL:
        return None
    n, k = prob.state_dim, prob.data_dim
    underflow = 2.0 * k * (n + 1) * _ETA
    low = float(sigma_m._diag.min()) - underflow
    slope = 2.0 * k * (n + k + 8) * _UNIT_ROUNDOFF + underflow * n / float(sigma_p._diag.min())
    return low, slope


def _operator_slots(A, adjoint=False):
    """The columns of a tridiagonal ``A`` (of ``A^H`` with ``adjoint``) as slot arrays.

    Returns ``(rows, values)``: line ``j`` of ``values`` holds the three
    candidate entries of column ``j``, at the rows ``j - 1, j, j + 1`` in
    line ``j`` of ``rows``; the two that fall off the grid hold exact zeros.
    An operator that is not a :class:`~xfwi.linops.TridiagonalOperator`
    raises :class:`RejectedInputError`, so the joint system is never
    assembled or factored for it.
    """
    if not isinstance(A, TridiagonalOperator):
        raise RejectedInputError(
            f"the joint system takes a TridiagonalOperator, got {type(A).__name__}"
        )
    n = A.range_dim
    rows = np.arange(-1, n - 1, dtype=np.int32)[:, None] + np.arange(3, dtype=np.int32)
    # column j of A^H is conj(A[j, :]): the diagonals swap, then conjugate
    above, below = (A.lower, A.upper) if adjoint else (A.upper, A.lower)
    vals = np.zeros((n, 3), dtype=complex)
    vals[1:, 0] = above
    vals[:, 1] = A.diag
    vals[:-1, 2] = below
    return rows, np.conjugate(vals, out=vals) if adjoint else vals


def _covariance_slots(cov):
    """The columns of a covariance as slot arrays, as in :func:`_operator_slots`.

    A dense one's row indices are one line, broadcast over its columns.
    """
    idx = np.arange(cov.dim, dtype=np.int32)
    if cov.kind == cov.DIAGONAL:
        return idx[:, None], cov._diag[:, None]
    return idx, cov._matrix.T


def _joint_matrix(prob, A):
    """The augmented (KKT) matrix of :func:`_joint_factor` as a ``csc_array``.

    Built in one step from int32 indices and the operators' own arrays. Each
    block column lines up the slot arrays of its blocks from the top down,
    so its lines, read in order with the exact zeros dropped, are the sorted
    CSC arrays of its columns; all lines share one buffer, so one gather
    gives the matrix's data and indices. The matrix holds what
    ``scipy.sparse.bmat`` of the blocks would, entry for entry and in the
    same order.
    """
    from scipy.sparse import csc_array

    n, k = prob.state_dim, prob.data_dim
    rec = prob.P.receiver_indices.astype(np.int32)
    # P has a 1 at row n + j of column rec[j] and nothing in the other columns
    sel_rows = np.zeros((n, 1), dtype=np.int32)
    sel_rows[rec, 0] = np.arange(n, n + k, dtype=np.int32)
    a_rows, a_vals = _operator_slots(A)
    ah_rows, ah_vals = _operator_slots(A, adjoint=True)
    p_rows, p_vals = _covariance_slots(prob.sigma_p)
    m_rows, m_vals = _covariance_slots(prob.sigma_m)
    groups = [  # the blocks of each block column, from the top down
        [(p_rows, p_vals), (ah_rows + (n + k), ah_vals)],  # lam
        [(m_rows + n, m_vals), (rec[:, None] + (n + k), np.ones((k, 1)))],  # mu
        [(a_rows, a_vals), (sel_rows, sel_rows > 0)],  # u
    ]
    # the slot lines of the three block columns, end to end in one buffer
    depths = [sum(v.shape[1] for _, v in blocks) for blocks in groups]
    total = n * depths[0] + k * depths[1] + n * depths[2]
    vals = np.empty(total, dtype=complex)
    rows = np.empty(total, dtype=np.int32)
    keep = np.empty(total, dtype=bool)
    counts, start = [], 0
    for blocks, width, depth in zip(groups, (n, k, n), depths):
        stop = start + width * depth
        V, R, nz = (x[start:stop].reshape(width, depth) for x in (vals, rows, keep))
        col = 0
        for r, v in blocks:
            V[:, col:col + v.shape[1]] = v
            R[:, col:col + v.shape[1]] = r
            col += v.shape[1]
        np.not_equal(V, 0, out=nz)
        # counted down a transposed copy: numpy sums along short lines slowly
        counts.append(np.ascontiguousarray(nz.T).sum(axis=0, dtype=np.int32))
        start = stop
    size = 2 * n + k
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return csc_array((vals[keep], rows[keep], indptr), (size, size))


def _joint_factor(prob, A):
    """The solve of the augmented system of the joint objective, from one sparse LU.

    The system, of size ``2 n + n_rec``, holds the covariances as blocks and
    inverts none of them::

        [[sigma_p, 0,       A],    [lam]   [q]
         [0,       sigma_m, P],  @ [mu ] = [d]
         [A^H,     P^H,     0]]    [u  ]   [0]

    Its solution holds the joint optimum ``u``, ``lam = sigma_p^{-1} (q - A u)``
    and ``mu = sigma_m^{-1} (d - P u)``. :func:`_joint_matrix` assembles it
    directly in CSC from the operators' own data: the three diagonals of
    the tridiagonal ``A`` (any other operator is refused, see
    :func:`_operator_slots`), the receiver indices, each covariance's
    diagonal or matrix. The solve takes one right-hand side or one per
    column, and adds one step of iterative refinement from the LU.
    """
    from scipy.sparse.linalg import splu

    M = _joint_matrix(prob, A)
    try:
        lu = splu(M)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise IllConditionedError(f"joint system is singular: {exc}") from exc

    def solve(b):
        x = lu.solve(b)
        x += lu.solve(b - M @ x)  # without it phi loses 4 digits at n = 1e5
        return x

    return solve


def _joint_optimum(prob, solve):
    """The joint optimum ``(lam, mu, u)``, from ``solve`` against ``[q; d; 0]``."""
    n, k = prob.state_dim, prob.data_dim
    x = solve(np.concatenate([prob.q, prob.d, np.zeros(n, dtype=complex)]))
    return x[:n], x[n:n + k], x[n + k:]


def _rel_diff(x, y):
    num = np.linalg.norm(x - y)
    den = max(np.linalg.norm(x), np.linalg.norm(y), 1e-300)
    return float(num / den)


# ---------------------------------------------------------------------------
# objectives


def _joint_value(prob, lam, mu):
    """``lam^H sigma_p lam + mu^H sigma_m mu``: the joint objective at its optimum."""
    z = np.vdot(lam, prob.sigma_p.apply(lam)) + np.vdot(mu, prob.sigma_m.apply(mu))
    return float(z.real)


def phi_joint(prob, m):
    """Joint objective at its optimal state.

    ``||P u(m) - d||^2_sigma_m + ||A(m) u(m) - q||^2_sigma_p`` with ``u(m)``
    the minimizer over ``u``, the ``u`` block of the augmented system's
    solution (see :func:`_joint_factor`), evaluated as
    ``lam^H sigma_p lam + mu^H sigma_m mu`` from the same solve, so no
    covariance is inverted and the normal matrix is never formed. The
    report holds ``residual = P u - d`` and
    ``weighted_residual = sigma_m^{-1} (P u - d) = -mu``. This is the
    oracle the reduced objective is checked against.
    """
    lam, mu, u = _joint_optimum(prob, _joint_factor(prob, prob.A_builder(m)))
    return ObjectiveReport(_joint_value(prob, lam, mu), prob.P.matvec(u) - prob.d, -mu)


def _reduced(prob, A, b=1):
    """The reduced passes at the ``b`` media of a block-diagonal ``A``.

    Returns ``(reports, u0, G^H, K)``: one report per block, and
    ``u0 = A^{-1} q``, ``G^H`` and ``K`` (see :func:`_sensitivity`) stacked
    along a leading axis of length ``b``. ``A`` is solved once forward,
    against ``q`` tiled over its blocks, and once adjoint; the blocks of
    ``K + sigma_m`` are then formed, normed and bounded together by
    :func:`_weight_solve`, and only their factors, solves and the value's
    checks run per block. One medium is the case ``b = 1``. An ``A`` whose
    order is not ``b n`` raises :class:`DimensionMismatchError`.
    """
    n = prob.state_dim
    if A.range_dim != b * n:
        raise DimensionMismatchError(
            f"operator of order {A.range_dim} for {b} media of state dim {n}"
        )
    u0 = A.solve(_tiled(prob.q, b)).reshape(b, n)
    r = u0.take(prob.P.receiver_indices, axis=1) - prob.d
    GH, K = _sensitivity(prob, A, b)
    return [_report(r_i, x) for r_i, x in zip(r, _weight_solve(prob, K, r))], u0, GH, K


def _weight_solve(prob, K, R):
    """``(K_i + sigma_m)^{-1} R_i`` for each block of a stack of ``K``, by :func:`_spd_solve`.

    Every block of ``K + sigma_m`` is formed in one array operation, and
    gated by the free bound from the problem's :func:`_gram_floor` where
    there is one.
    A ``NotPositiveDefiniteError`` of a block is raised as an
    :class:`IllConditionedError`.
    """
    try:
        return _spd_solve(K + prob._gram_shift, R, "K + sigma_m", prob._gram_floor)
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            f"weight matrix K + sigma_m is singular to tolerance: {exc}"
        ) from exc


def _report(r, r_tilde):
    """The report ``Re <r, r_tilde>`` of one medium, with its imaginary part checked."""
    z = np.vdot(r, r_tilde)
    if abs(z.imag) > 1e-10 * abs(z.real) + 1e-300:
        raise IllConditionedError(
            f"reduced objective has imaginary part {z.imag:.3e}"
        )
    return ObjectiveReport(max(float(z.real), 0.0), r, r_tilde)


def _reduced_at(prob, m):
    """The reduced pass at ``m``, ``(A, report, u0, G^H, K)``, kept on ``prob``.

    ``prob`` keeps one pass, keyed on the shape and bytes of ``m`` as
    float64; a call at the same medium returns it. Any other medium builds
    (and so validates and checks) ``A`` and runs :func:`_reduced` on its one
    block, and only then replaces the kept pass, so a failure is never kept
    and a hit always follows a checked miss. The report's residual arrays,
    which callers get, are made read-only; no caller writes to ``u0``,
    ``G^H`` or ``K``.
    """
    v = np.asarray(m, dtype=float)
    key = (v.shape, v.tobytes())
    last = prob._last_pass
    if last is not None and last[0] == key:
        return last[1]
    A = prob.A_builder(m)
    (report,), u0, GH, K = _reduced(prob, A)
    _read_only(report.residual)
    _read_only(report.weighted_residual)
    entry = (A, report, u0[0], GH[0], K[0])
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


# ---------------------------------------------------------------------------
# gradient


def grad_phi(prob, m):
    """Gradient of the reduced objective w.r.t. the medium parameters.

    Reads ``A``, ``u0``, ``r``, ``G^H`` and ``K`` from the reduced pass of
    :func:`phi_reduced`, so it fails where that fails, and after
    :func:`phi_reduced` at the same medium it reuses its pass. It
    differentiates ``phi = r^H (K + sigma_m)^{-1} r`` exactly, using three
    auxiliary fields from one factorization of ``A``:

        u0 = A^{-1} q
        v0 = G^H r_tilde = A^{-H} P^H (K + sigma_m)^{-1} (P u0 - d)
        w0 = A^{-1} sigma_p v0
        d phi / d m_k = 2 Re < v0, (dA/dm_k) (w0 - u0) >

    so only one forward solve beyond the reduced pass is needed, and all k
    are taken in one ``prob.dA_contract``.
    """
    A, reduced, u0, GH, _ = _reduced_at(prob, m)
    v0 = GH @ reduced.weighted_residual
    return 2.0 * prob.dA_contract(v0, A.solve(prob.sigma_p.apply(v0)) - u0)


def fd_gradient(prob, m):
    """Central finite differences of the reduced objective, per component.

    The step is ``_FD_STEP = 1e-3`` scaled per component, and the two-step
    Richardson extrapolation ``(4 g(h/2) - g(h)) / 3`` cancels the leading
    truncation term, which the verification harness relies on. Each of the
    ``4 n`` perturbed media is evaluated once, by the reduced pass itself, so
    they neither pay for the kept pass of :func:`_reduced_at` nor replace it.

    The media go through :func:`_reduced` in groups of up to
    ``_FD_GROUP_ENTRIES / (n (n_rec + 1))``, as stacks: ``prob.A_builder``
    gets a ``(b, n)`` stack and must return the block-diagonal operator of
    its ``b`` media (of order ``b n``, else :class:`DimensionMismatchError`).
    A group's ``K + sigma_m`` blocks are formed, normed and bounded at once;
    only their Cholesky factors and solves, the ``pocon`` estimate of a
    block that fails the free bound, and each value's checks run per
    medium. Every medium's value is bit for bit the one its own pass would
    give, and every medium's checks still run; the first group with a
    failing medium raises.
    """
    v = medium_values(m)
    if v.ndim != 1:
        raise RejectedInputError("fd_gradient takes one medium, not a stack")
    n = len(v)
    steps = _FD_STEP * (np.abs(v) + 1e-2)
    half = steps / 2.0
    # the media in order: m + h/2 e_k, m - h/2 e_k, m + h e_k, m - h e_k, per k
    deltas = np.stack([half, -half, steps, -steps], axis=1).ravel()
    group = max(1, _FD_GROUP_ENTRIES // (prob.state_dim * (prob.data_dim + 1)))
    values = np.empty(4 * n)
    for start in range(0, 4 * n, group):
        rows = np.arange(start, min(start + group, 4 * n))
        media = np.tile(v, (len(rows), 1))
        media[np.arange(len(rows)), rows // 4] += deltas[rows]
        reports = _reduced(prob, prob.A_builder(media), len(rows))[0]
        values[rows] = [rep.value for rep in reports]
    fp_half, fm_half, fp, fm = values.reshape(n, 4).T
    central_half = (fp_half - fm_half) / (2.0 * half)
    central = (fp - fm) / (2.0 * steps)
    return (4.0 * central_half - central) / 3.0


# ---------------------------------------------------------------------------
# verification


def _identity_sides(prob, solve, A, GH, K):
    """Both ``n x n_rec`` sides of ``N^{-1} P^H sigma_m^{-1} = B^{-1} P^H (K + sigma_m)^{-1}``.

    Column ``j`` of the left side is the ``u`` block of the joint ``solve``
    against ``[0; e_j; 0]``; the right side is
    ``A^{-1} sigma_p G^H (K + sigma_m)^{-1}`` from the reduced pass.
    """
    n, k = prob.state_dim, prob.data_dim
    unit = np.zeros((2 * n + k, k), dtype=complex)
    unit[n:n + k] = np.eye(k)
    GH_weighted = GH @ _weight_solve(prob, K[None], np.eye(k, dtype=complex)[None])[0]
    return solve(unit)[n + k:], A.solve(prob.sigma_p.apply(GH_weighted))


def verify_equivalence(prob, m):
    """Compare the joint and reduced objectives at ``m``, with the split identities.

    One reduced pass (the kept one, at the same medium) and one augmented
    LU at ``A(m)``. With ``v0 = G^H r_tilde`` from the reduced pass, the
    splits check ``u - u0 = -A^{-1} sigma_p v0``, ``P (u - u0) = -K r_tilde``
    and the multiplier ``sigma_p lam = sigma_p v0``, not ``A (u - u0)``, whose
    cancellation ``A`` would multiply by ``||A|| ~ 4/h^2``. The same two
    check the push-through identity behind the reduction entrywise (see
    :func:`_identity_sides`), forming neither ``B = A^H sigma_p^{-1} A`` nor
    ``N = B + P^H sigma_m^{-1} P``, so at any ``n``.
    """
    A, reduced, u0, GH, K = _reduced_at(prob, m)
    solve = _joint_factor(prob, A)
    lam, mu, u = _joint_optimum(prob, solve)
    pj, pr = _joint_value(prob, lam, mu), reduced.value
    v = u - u0
    r_tilde = reduced.weighted_residual
    sp_v0 = prob.sigma_p.apply(GH @ r_tilde)
    lhs, rhs = _identity_sides(prob, solve, A, GH, K)
    return EquivalenceReport(
        phi_joint=pj,
        phi_reduced=pr,
        rel_gap=abs(pj - pr) / (1.0 + pj),
        state_split_err=_rel_diff(v, -A.solve(sp_v0)),
        data_split_err=_rel_diff(prob.P.matvec(v), -(K @ r_tilde)),
        process_split_err=_rel_diff(prob.sigma_p.apply(lam), sp_v0),
        identity_max_err=float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))),
    )
