"""Concrete physics backing the inversion formulations.

Two models live here. A one-dimensional frequency-domain Helmholtz operator,
assembled as a tridiagonal operator that solves in O(n) and still
materializes densely so every algebraic claim can be checked against explicit
matrices, and the analytic constant-velocity propagator in three dimensions,
whose Green's function ``g(t, x) = delta(t - |x|/c) / |x|`` turns forward
modeling into per-receiver delay-and-scale convolutions evaluated with FFTs.

Delta pulses are represented band-limited: delays are applied as phase
factors on a zero-padded spectrum, which sinc-interpolates subsample shifts
without ad-hoc kernels. Traces are windowed back to the original record
length; the 2x padding keeps the convolution linear rather than circular.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    RejectedInputError,
    SingularGeometryError,
)
from .linops import (
    TridiagonalOperator,
    _COND_LIMIT,
    _integer,
    _read_only,
    check_condition,
)

BOUNDARY_DIRICHLET = "dirichlet"
BOUNDARY_SOMMERFELD = "sommerfeld"

# assemble_A checks the condition number up to this size only. At n = 800 the
# check would be the dominance bound alone on well-posed media (gtcon runs only
# where the bound fails): about 17 us of a 135-142 us reduced objective.
_COND_CHECK_MAX_N = 600
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class HelmholtzModel1D:
    """1-D grid for the operator ``A(m) = L + omega^2 diag(m)``.

    ``L`` is the 3-point Laplacian ``-(u_{k-1} - 2 u_k + u_{k+1}) / h^2``
    with either a Dirichlet closure or first-order Sommerfeld (absorbing)
    rows. The absorbing impedance uses the reference squared slowness
    ``boundary_m0``, frozen at construction so that A stays linear in m and
    ``dA/dm_k = omega^2 e_k e_k^T`` holds for every k, boundaries included.

    Parameters
    ----------
    n : int
        Grid-point count, at least 3; an integral float such as 20.0 is
        stored as the int.
    h : float
        Grid spacing in km.
    omega : float
        Angular frequency in rad/s.
    boundary : str
        ``"dirichlet"`` or ``"sommerfeld"``.
    boundary_m0 : float
        Reference squared slowness (s^2/km^2) for the absorbing rows.
    """

    n: int
    h: float
    omega: float
    boundary: str = BOUNDARY_DIRICHLET
    boundary_m0: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 3:
            raise RejectedInputError(f"need n >= 3 grid points, got {self.n}")
        if not (self.h > 0 and np.isfinite(self.h)):
            raise RejectedInputError(f"grid spacing must be positive, got {self.h}")
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise RejectedInputError(f"omega must be positive, got {self.omega}")
        if self.boundary not in (BOUNDARY_DIRICHLET, BOUNDARY_SOMMERFELD):
            raise RejectedInputError(f"unknown boundary {self.boundary!r}")
        if self.boundary == BOUNDARY_SOMMERFELD and not self.boundary_m0 > 0:
            raise RejectedInputError("boundary_m0 must be positive")


def medium_values(m):
    """Squared slowness (s^2/km^2) on the grid as a checked float array.

    One medium of shape ``(n,)``, or a stack of ``b`` media of shape
    ``(b, n)``: one bad value anywhere rejects the whole stack.
    """
    v = np.asarray(m, dtype=float)
    # min > 0 rejects zeros, negatives, -inf and NaN (which min propagates);
    # max < inf rejects +inf. An empty array has neither and passes.
    if v.ndim not in (1, 2) or (v.size and not (v.min() > 0 and v.max() < np.inf)):
        raise RejectedInputError("medium values must be finite and > 0")
    return v


@dataclass(frozen=True)
class Acquisition:
    """Source/receiver geometry and the time grid.

    Positions are in km; the analytic propagator only uses the Euclidean
    source-receiver distances. They are kept as read-only copies, so the
    geometry checks made on construction hold for the object's lifetime;
    ``nt`` is stored as an int (see :func:`~xfwi.linops._integer`). The
    source-receiver distances are computed once, on construction.
    """

    source_position: np.ndarray
    receiver_positions: np.ndarray
    nt: int
    dt: float
    _distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        src = _read_only(np.atleast_1d(np.array(self.source_position, dtype=float)))
        rec = _read_only(np.atleast_2d(np.array(self.receiver_positions, dtype=float)))
        object.__setattr__(self, "source_position", src)
        object.__setattr__(self, "receiver_positions", rec)
        object.__setattr__(self, "nt", _integer(self.nt, "nt"))
        if self.nt < 2:
            raise RejectedInputError(f"need nt >= 2 samples, got {self.nt}")
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise RejectedInputError(f"dt must be positive, got {self.dt}")
        if rec.shape[1] != src.shape[0]:
            raise DimensionMismatchError("receiver/source coordinate dims differ")
        for i in range(len(rec)):
            for j in range(i + 1, len(rec)):
                if np.allclose(rec[i], rec[j]):
                    raise RejectedInputError(f"receivers {i} and {j} coincide")
        dists = _read_only(np.linalg.norm(rec - src, axis=1))
        object.__setattr__(self, "_distances", dists)
        if np.any(dists <= 0):
            raise SingularGeometryError("a receiver coincides with the source")

    @property
    def n_receivers(self):
        return len(self.receiver_positions)

    def distances(self):
        """Source-receiver distances, as a read-only array."""
        return self._distances


@dataclass(frozen=True)
class Dataset:
    """Receiver-by-sample traces (observed or synthetic)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values))
        object.__setattr__(self, "values", v)

    @property
    def n_receivers(self):
        return self.values.shape[0]

    @property
    def nt(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelPanels:
    """Receiver-pair correlation kernels stored as lag-indexed traces.

    ``traces[i, j]`` samples the convolution kernel for receivers (i, j) on
    the lag grid ``lags``; the physical content is a single band-limited
    event at lag ``(r_i - r_j)/c`` with weight ``1/(r_i r_j)``.
    """

    lags: np.ndarray
    traces: np.ndarray
    c: float


# ---------------------------------------------------------------------------
# Helmholtz assembly


def assemble_A(model, m):
    """Assemble the tridiagonal Helmholtz operator ``A(m) = L + omega^2 diag(m)``.

    For a stack of ``b`` media, shape ``(b, n)``, it returns the
    block-diagonal operator of their ``b`` operators, in order, as one
    :class:`~xfwi.linops.TridiagonalOperator` of ``b`` blocks whose couplings
    are exact zeros; one medium, shape ``(n,)``, is the case ``b = 1``. The
    media are checked together (:func:`medium_values`), and each block is
    guarded on its own.

    For ``n <= 600`` each block's 1-norm condition number is checked
    against 1e14, in O(n) and in two steps. First a free upper bound from
    the three diagonals: when every column is strictly diagonally dominant,
    by at least ``alpha``, ``||A^{-1}||_1 <= 1 / alpha`` (Varah, LAA 1975),
    so ``cond_1 <= ||A||_1 / alpha``. A rounding allowance of a few ulps of
    the column sums keeps the computed bound above the true one. Only when
    some block's bound is not below 1e14 (or does not exist) is the
    operator factored (LAPACK ``gttrf``) and that block's ``cond_1``
    estimated from its slice of the factor with LAPACK ``gtcon``
    (Hager-Higham); then ``min(bound, estimate)`` not below 1e14 raises
    :class:`~xfwi.errors.IllConditionedError` carrying it. The estimate
    never exceeds ``cond_1``, which never exceeds the bound, so the bound
    rejects nothing the estimate would accept. A factor taken here is cached
    on the returned operator, so later solves do not factor again. Larger
    grids skip the check; at n = 800 its bound would take about 17 us of a
    135-142 us reduced objective (1 OpenBLAS thread, 2-core Xeon VM).

    Parameters
    ----------
    model : HelmholtzModel1D
    m : array
        Squared slowness per grid point, shape ``(model.n,)`` or
        ``(b, model.n)``.

    Returns
    -------
    TridiagonalOperator
    """
    v = medium_values(m)
    if v.shape[-1] != model.n:
        raise DimensionMismatchError(
            f"model has {model.n} grid points, medium has {v.shape[-1]}"
        )
    n, h, omega = model.n, model.h, model.omega
    b = v.size // n
    off = np.full(b * n - 1, -1.0 / h**2, dtype=complex)
    off[n - 1::n] = 0.0  # the couplings between blocks
    diag = (2.0 / h**2 + omega**2 * v).astype(complex)
    if model.boundary == BOUNDARY_SOMMERFELD:
        impedance = 1j * omega * np.sqrt(model.boundary_m0) / h
        ends = slice(None, None, n - 1)  # columns 0 and n - 1
        diag[..., ends] = 1.0 / h**2 + omega**2 * v[..., ends] - impedance
    A = TridiagonalOperator(off, diag.reshape(-1), off, blocks=b)
    if n <= _COND_CHECK_MAX_N:
        bounds = _dominance_bound(A)
        for i in np.flatnonzero(~(bounds < _COND_LIMIT)):
            check_condition(min(bounds[i], A.condition(i)), "assembled operator")
    return A


def _dominance_bound(A):
    """Upper bounds on ``cond_1`` of each block of a tridiagonal ``A`` from column dominance.

    ``||A||_1 / min_j (|d_j| - |u_{j-1}| - |l_j|)`` per block (Varah, LAA
    1975), or ``inf`` for a block with a column that is not dominant; an
    array of ``A.blocks`` bounds. Each margin is computed as ``2 |d_j| - s_j``
    with ``s_j`` the column's absolute sum, less ``8 eps s_j``, which covers
    the rounding of the absolute values, the sums and the subtraction, so no
    computed bound falls below the exact one. The couplings between blocks
    are exact zeros, so the sums run down the whole stack and each block's
    sums are its own. The absolute values of an off-diagonal that serves as
    both (as :func:`assemble_A` builds it) are taken once.
    """
    a = np.abs(A.diag)
    col = a.copy()
    upper = np.abs(A.upper)
    col[1:] += upper
    col[:-1] += upper if A.lower is A.upper else np.abs(A.lower)
    alpha = (2.0 * a - (1.0 + 8.0 * _EPS) * col).reshape(A.blocks, -1).min(axis=1)
    norm = col.reshape(A.blocks, -1).max(axis=1)
    return np.divide(norm, alpha, out=np.full(A.blocks, np.inf), where=alpha > 0)


# ---------------------------------------------------------------------------
# Analytic constant-velocity propagator


def _phase_factors(c, acq):
    """Per-receiver delay-and-scale symbols ``exp(-i omega r_i / c) / r_i``.

    Returns ``(table, N)`` with ``N = 2 nt`` the padded length, which keeps
    the delays from wrapping around, and the ``N/2 + 1`` frequencies of real
    FFTs (the full symbol is Hermitian but for the Nyquist bin, whose
    imaginary part they drop). The table is cached per (velocity, distances,
    nt, dt), the distances keyed by their bytes, and handed out read-only.
    """
    return _phase_table(float(c), acq.distances().tobytes(), acq.nt, acq.dt)


@lru_cache(maxsize=8)
def _phase_table(c, distances, nt, dt):
    N = 2 * nt
    omega = 2.0 * np.pi * np.fft.rfftfreq(N, dt)
    r = np.frombuffer(distances)
    table = np.exp(-1j * omega[None, :] * (r / c)[:, None]) / r[:, None]
    table.flags.writeable = False
    return table, N


# Rows of the displacement term formed per matrix product in _normal_matrix.
_GRAM_BLOCK = 64


def _normal_matrix(c, acq, b):
    """``(G[s:, s:], diag G)`` of ``G = F^T F`` at velocity ``c``, ``s = nt - b``, without F.

    Receiver block ``T_i`` of F is Toeplitz, ``T_i[j, k] = t_i(j - k)`` with
    generator ``t_i = irfft(phase_i)`` on the padded circle, so G obeys the
    displacement recurrence ``G[j+1, k+1] = G[j, k] + E[j, k]`` with
    ``E = sum_i (u_i u_i^T - v_i v_i^T)``, ``u_i(l) = t_i(-1-l)`` and
    ``v_i(l) = t_i(nt-1-l)`` (Kailath & Sayed, SIAM Rev. 37, 1995). The
    block's first column is ``(F^T F e_s)[s:]``; every later column is the
    previous one shifted down plus a column of E (a row, E being symmetric),
    formed a block at a time. It comes out in Fortran order and symmetric bit
    for bit, so LAPACK's Cholesky takes it in place. The diagonal is
    ``G[j, j] = sum_i (sum_{0 <= l < nt-j} t_i(l)^2 + sum_{0 < l <= j} t_i(-l)^2)``.
    """
    _check_velocity(c)
    table, N = _phase_factors(c, acq)
    nt = acq.nt
    s = nt - b
    t = np.fft.irfft(table, N, axis=1)
    squares = t**2
    diagonal = (np.cumsum(squares[:, :nt].sum(axis=0))[::-1]
                + np.cumsum(np.r_[0.0, squares[:, : N - nt : -1].sum(axis=0)]))
    G = np.empty((b, b), order="F")
    G[:, 0] = _shift_gather(c, acq, np.roll(t, s, axis=1)[:, :nt])[s:]  # F^T F e_s
    G[0, 1:] = G[1:, 0]
    uv = np.vstack([t[:, : nt - 1 : -1], t[:, nt - 1 :: -1]])[:, s : nt - 1]  # rows u_i, v_i
    signed = np.vstack([uv[: acq.n_receivers], -uv[acq.n_receivers :]])
    # no one-row block: BLAS rounds it otherwise, which broke symmetry at b = 66
    edges = [*range(0, max(b - 2, 1), _GRAM_BLOCK), b - 1]
    for j0, j1 in zip(edges, edges[1:]):
        E = uv[:, j0:j1].T @ signed
        for j in range(j0, j1):
            np.add(G[:-1, j], E[j - j0], out=G[1:, j + 1])
    return G, diagonal


def _check_velocity(c):
    # The geometry needs no check here: Acquisition owns it.
    if not (np.isfinite(c) and c > 0):
        raise RejectedInputError(f"velocity must be positive, got {c}")


def _shift_stack(c, acq, q):
    """Real kernel: delay q by r_i/c and scale by 1/r_i, per receiver."""
    table, N = _phase_factors(c, acq)
    return np.fft.irfft(np.fft.rfft(q, N) * table, N, axis=1)[:, : acq.nt]


def _shift_gather(c, acq, traces):
    """Real adjoint kernel: advance trace i by r_i/c, scale 1/r_i, sum."""
    table, N = _phase_factors(c, acq)
    spectrum = (np.fft.rfft(traces, N, axis=1) * table.conj()).sum(axis=0)
    return np.fft.irfft(spectrum, N)[: acq.nt]


def _complexified(kernel, x):
    # The FFT kernels are real-linear maps; complex inputs go through the
    # canonical complexification so operators stay complex-linear.
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return kernel(x.real) + 1j * kernel(x.imag)
    return kernel(x.astype(float, copy=False))


def forward_F(c, acq, q):
    """Model receiver traces for a source time function.

    Each trace is ``q(t - r_i/c) / r_i`` with ``r_i`` the source-receiver
    distance, evaluated by multiplying the padded spectrum of ``q`` with
    ``exp(-i omega r_i / c) / r_i``.

    Parameters
    ----------
    c : float
        Velocity in km/s.
    acq : Acquisition
    q : array, shape (nt,)

    Returns
    -------
    Dataset
        ``n_receivers x nt`` traces.
    """
    _check_velocity(c)
    q = np.asarray(q)
    if q.ndim != 1 or len(q) != acq.nt:
        raise DimensionMismatchError(f"source must have length {acq.nt}")
    if not np.all(np.isfinite(q)):
        raise RejectedInputError("source time function has non-finite entries")
    return Dataset(_complexified(lambda x: _shift_stack(c, acq, x), q))


def adjoint_F(c, acq, data):
    """Adjoint of :func:`forward_F`: advance, scale, and stack traces."""
    _check_velocity(c)
    values = data.values if isinstance(data, Dataset) else np.atleast_2d(np.asarray(data))
    if values.shape != (acq.n_receivers, acq.nt):
        raise DimensionMismatchError(
            f"data must have shape {(acq.n_receivers, acq.nt)}, got {values.shape}"
        )
    return _complexified(
        lambda y: _shift_gather(c, acq, y.reshape(acq.n_receivers, acq.nt)),
        values.ravel(),
    )


def kernel_k(c, acq):
    """Receiver-pair kernels as lag traces.

    Panel (i, j) is the forward-adjoint round trip for the receiver pair,
    a spike pushed through the adjoint of receiver j and the forward of
    receiver i. The composition is evaluated on the padded circle (phase
    symbol ``ph_i * conj(ph_j)``), so each trace is the pure convolution
    kernel free of window-edge artifacts: one band-limited event at lag
    ``(r_i - r_j)/c`` with weight ``1/(r_i r_j)``, and panel (i, j) exactly
    the time reverse of panel (j, i).
    """
    _check_velocity(c)
    nt = acq.nt
    r = acq.distances()
    max_lag = (r.max() - r.min()) / c
    mid = nt // 2
    if max_lag > mid * acq.dt:
        raise RejectedInputError(
            f"record of {nt} samples at dt = {acq.dt} cannot hold the "
            f"kernel lag range +-{max_lag:.3f}s for c = {c}"
        )
    table, N = _phase_factors(c, acq)
    lags = (np.arange(nt) - mid) * acq.dt
    idx = (np.arange(nt) - mid) % N
    rings = np.fft.irfft(table[:, None, :] * table.conj()[None, :, :], N, axis=2)
    return KernelPanels(lags=lags, traces=rings[:, :, idx], c=float(c))
