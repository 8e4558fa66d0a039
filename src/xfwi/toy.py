"""Constant-velocity toy experiment.

A point source at the origin, three receivers at fixed distances, data
synthesized at the true velocity, and the reduced objective scanned over a
velocity grid in its two limiting regimes: vanishing process uncertainty
("conventional", the plain data misfit) and vanishing measurement
uncertainty ("extended", where a time-extended source absorbs what it can
of the residual and the misfit is what remains, equivalently the residual
measured through the correlation kernel).

Limits are realized with small positive floors scaled by the data norm, so
every solve stays well posed.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import DegenerateWeightsError, RejectedInputError, XfwiError
from .linops import _COND_LIMIT, _spd_factor, check_condition, spd_condition
from .wavemodel import Acquisition, Dataset, _normal_matrix, adjoint_F, forward_F

REGIMES = ("conventional", "extended", "general")


@dataclass(frozen=True)
class ToyConfig:
    """Experiment configuration; defaults use the three-offset reference geometry."""

    c_true: float = 2.0
    receiver_distances: tuple = (0.8, 1.0, 1.2)
    nt: int = 512
    dt: float = 0.004
    wavelet: str = "ricker"
    f0: float = 10.0
    t0: float = 0.15
    sigma_m: float = 1.0
    sigma_p: float = 1.0
    scan: tuple = (1.5, 2.5, 101)
    floor: float = 1e-6

    def __post_init__(self):
        dists = tuple(float(r) for r in self.receiver_distances)
        object.__setattr__(self, "receiver_distances", dists)
        numbers = (self.c_true, self.dt, self.f0, self.t0, self.sigma_m, self.sigma_p,
                   self.floor, *self.scan, *dists)
        if not np.all(np.isfinite(numbers)):
            raise RejectedInputError(f"config values must be finite, got {numbers}")
        if not self.c_true > 0:
            raise RejectedInputError("c_true must be positive")
        if any(r <= 0 for r in dists) or len(set(dists)) != len(dists):
            raise RejectedInputError("receiver distances must be positive and distinct")
        if self.nt < 2 or not self.dt > 0:
            raise RejectedInputError("need nt >= 2 and dt > 0")
        if self.wavelet not in ("ricker", "spike"):
            raise RejectedInputError(f"unknown wavelet {self.wavelet!r}")
        if self.wavelet == "ricker" and not self.f0 < 0.25 / self.dt:
            # Nyquist is 1/(2 dt); keep the peak frequency below half of it.
            raise RejectedInputError(
                f"f0 = {self.f0} Hz would alias at dt = {self.dt}"
            )
        c_min, c_max, n_points = self.scan
        if not (0 < c_min < c_max) or int(n_points) < 2:
            raise RejectedInputError("scan range must be positive and ordered")
        object.__setattr__(self, "scan", (float(c_min), float(c_max), int(n_points)))
        if self.sigma_m < 0 or self.sigma_p < 0 or self.sigma_m == self.sigma_p == 0:
            raise RejectedInputError("weights must be nonnegative, not both zero")
        if not self.floor > 0:
            raise RejectedInputError("limit floor must be positive")


def acquisition(cfg):
    """Source at the origin, receivers along the x axis at the set offsets."""
    rec = np.zeros((len(cfg.receiver_distances), 3))
    rec[:, 0] = cfg.receiver_distances
    return Acquisition(
        source_position=np.zeros(3),
        receiver_positions=rec,
        nt=cfg.nt,
        dt=cfg.dt,
    )


def make_wavelet(cfg):
    """Source time function: unit-peak Ricker or a single spike."""
    t = np.arange(cfg.nt) * cfg.dt
    if cfg.wavelet == "spike":
        q = np.zeros(cfg.nt)
        k = int(round(cfg.t0 / cfg.dt))
        if not 0 <= k < cfg.nt:
            raise RejectedInputError(f"spike time {cfg.t0} falls outside the record")
        q[k] = 1.0
        return q
    arg = (np.pi * cfg.f0 * (t - cfg.t0)) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def synthesize_data(cfg):
    """Noise-free data at the true velocity; the target of the inversion."""
    return forward_F(cfg.c_true, acquisition(cfg), make_wavelet(cfg))


def _regime_weights(cfg, regime, data_norm):
    if regime == "extended":
        return cfg.sigma_p, cfg.floor * data_norm
    if regime == "conventional":
        return cfg.floor * data_norm, cfg.sigma_m
    if regime == "general":
        return cfg.sigma_p, cfg.sigma_m
    raise RejectedInputError(f"unknown regime {regime!r}")


def _fit_extension(c, acq, r, sigma_p, sigma_m):
    """Weighted misfit of the residual ``r`` and the extension attaining it.

    The data-space form ``r^T (sigma_p^2 F F^T + sigma_m^2 I)^{-1} r`` equals
    ``min_f ||F f + r||^2 / sigma_m^2 + ||f||^2 / sigma_p^2`` with ``F = F(c)``,
    an ``nt x nt`` problem rather than an ``(n_rec nt) x (n_rec nt)`` one. Its
    minimizer is ``f = -f_hat`` with
    ``(F^T F + lam I) f_hat = F^T r``, ``lam = (sigma_m / sigma_p)^2``, solved
    by dense Cholesky of the Toeplitz-structured ``F^T F``
    (``wavemodel._normal_matrix``); F itself is only applied, never formed.
    One corrected semi-normal equations step (Bjorck, BIT 27, 1987),
    ``f_hat += (F^T F + lam I)^{-1} (F^T (r - F f_hat) - lam f_hat)`` from the
    same factor, recovers the digits the normal equations lose in the floored
    regimes. The objective is evaluated at the computed minimizer, where it
    is stationary, so solve errors enter only to second order.

    Returns ``(phi, f)``. ``sigma_p = 0`` leaves no extension (``phi =
    ||r||^2 / sigma_m^2``, ``f = 0``); ``sigma_m = 0`` makes the misfit
    undefined and raises DegenerateWeightsError. A normal matrix whose
    checked condition, ``min(bound, cond_1 estimate)`` (see below), reaches
    the library limit raises IllConditionedError; the estimate is taken only
    when the free bound reaches it. The normal matrix is built here,
    symmetric bit for bit, so it is factored in place without a Hermitian
    check.
    """
    if sigma_m == 0.0:
        raise DegenerateWeightsError("sigma_m is zero; the misfit is undefined")
    if sigma_p == 0.0:
        return float(r @ r) / sigma_m**2, np.zeros(acq.nt)
    lam = (sigma_m / sigma_p) ** 2
    # The accuracy of the normal equations is set by cond_2(F^T F + lam I).
    # Two upper bounds on it: ||F^T F|| <= sum_i r_i^-2, since receiver block
    # i of F crops a circulant whose symbol has modulus at most 1 / r_i; and
    # cond_1, which bounds cond_2 of a symmetric matrix and which LAPACK
    # estimates from the factor in O(nt^2). The first alone would refuse
    # well-conditioned F at tiny lam, the second alone overstates cond_2.
    # The first is free, so the second is taken only when the first fails.
    bound = (np.sum(acq.distances() ** -2.0) + lam) / lam
    normal = _normal_matrix(c, acq)  # fresh, Fortran-ordered, symmetric bit for bit
    normal[np.diag_indices_from(normal)] += lam
    # the 1-norm must be read before the factor overwrites the matrix
    norm_1 = None if bound < _COND_LIMIT else np.linalg.norm(normal, 1)
    factor = _spd_factor(normal, "toy normal matrix")
    if norm_1 is not None:
        check_condition(min(bound, spd_condition(factor, norm_1)), "toy normal matrix")
    shape = (acq.n_receivers, acq.nt)
    f_hat = cho_solve(factor, adjoint_F(c, acq, r.reshape(shape)), check_finite=False)
    misfit = r - forward_F(c, acq, f_hat).values.ravel()
    correction = adjoint_F(c, acq, misfit.reshape(shape)) - lam * f_hat
    f_hat += cho_solve(factor, correction, check_finite=False)
    misfit = r - forward_F(c, acq, f_hat).values.ravel()
    phi = float(misfit @ misfit) / sigma_m**2 + float(f_hat @ f_hat) / sigma_p**2
    return phi, -f_hat


@dataclass
class ExtendedSourceResult:
    c: float
    regime: str
    extension: np.ndarray
    q_plus_f: np.ndarray
    fitted: Dataset
    clean: Dataset
    observed: Dataset
    fit_rel: float
    extension_ratio: float


def estimate_extended_source(cfg, c, regime="extended"):
    """Best time-extended source at a trial velocity and the data it predicts.

    The extension ``f`` minimizes
    ``||F(c)(q + f) - d||^2 / sigma_m^2 + ||f||^2 / sigma_p^2`` with the
    regime's weights, found from the ``nt x nt`` normal equations of that
    least-squares problem (see ``_fit_extension``). Returns the extension
    together with the fitted data ``F(c)(q + f)``; the fit never degrades the
    plain misfit. Raises DegenerateWeightsError when the regime's
    ``sigma_m`` is zero.
    """
    if not c > 0:
        raise RejectedInputError("velocity must be positive")
    acq = acquisition(cfg)
    q = make_wavelet(cfg)
    observed = synthesize_data(cfg)
    clean = forward_F(c, acq, q)
    r = clean.values.ravel() - observed.values.ravel()
    d_norm = float(np.linalg.norm(observed.values))
    sigma_p, sigma_m = _regime_weights(cfg, regime, d_norm)
    _, f = _fit_extension(c, acq, r, sigma_p, sigma_m)
    fitted = forward_F(c, acq, q + f)
    fit_rel = float(np.linalg.norm(fitted.values - observed.values) / d_norm)
    return ExtendedSourceResult(
        c=float(c),
        regime=regime,
        extension=f,
        q_plus_f=q + f,
        fitted=fitted,
        clean=clean,
        observed=observed,
        fit_rel=fit_rel,
        extension_ratio=float(np.linalg.norm(f) / np.linalg.norm(q)),
    )


@dataclass
class ScanResult:
    """Objective values over the velocity grid, raw and max-normalized."""

    regime: str
    c_values: np.ndarray
    phi_raw: np.ndarray
    phi_norm: np.ndarray
    status: list = field(default_factory=list)

    @property
    def argmin_c(self):
        """Velocity of the smallest objective value; NaN when no point is ok."""
        if not np.isfinite(self.phi_raw).any():
            return float("nan")
        return float(self.c_values[int(np.nanargmin(self.phi_raw))])


def scan_objective(cfg, regime):
    """Evaluate the objective over the configured velocity grid.

    The conventional regime uses the analytic vanishing-process limit
    ``||r||^2 / sigma_m^2``; the extended regime (measurement floor) and the
    general regime (both configured weights) minimize the extended-source
    objective ``||F(c) f + r||^2 / sigma_m^2 + ||f||^2 / sigma_p^2`` over the
    extension ``f`` by an ``nt x nt`` Cholesky solve, which equals the
    kernel-weighted misfit ``r^T (sigma_p^2 K + sigma_m^2 I)^{-1} r``. A point
    that fails (for instance ``sigma_m = 0``) gets NaN and the exception's
    class name as its ``status``, and the scan continues. Curves are
    normalized by their maximum so regimes of incomparable scale can be
    overlaid.
    """
    if regime not in REGIMES:
        raise RejectedInputError(f"unknown regime {regime!r}")
    c_min, c_max, n_points = cfg.scan
    c_values = np.linspace(c_min, c_max, n_points)
    acq = acquisition(cfg)
    q = make_wavelet(cfg)
    observed = synthesize_data(cfg)
    d_flat = observed.values.ravel()
    if regime == "conventional":
        sigma_p, sigma_m = 0.0, cfg.sigma_m
    else:
        d_norm = float(np.linalg.norm(d_flat))
        sigma_p, sigma_m = _regime_weights(cfg, regime, d_norm)

    phi = np.full(n_points, np.nan)
    status = []
    for k, c in enumerate(c_values):
        try:
            r = forward_F(c, acq, q).values.ravel() - d_flat
            phi[k] = _fit_extension(c, acq, r, sigma_p, sigma_m)[0]
            status.append("ok")
        except XfwiError as exc:
            status.append(type(exc).__name__)
    top = np.nanmax(phi) if np.any(np.isfinite(phi)) else 1.0
    phi_norm = phi / (top if top > 0 else 1.0)
    return ScanResult(
        regime=regime,
        c_values=c_values,
        phi_raw=phi,
        phi_norm=phi_norm,
        status=status,
    )


def half_max_basin_width(c_values, phi_norm):
    """Width of the contiguous interval around the minimum with phi <= 1/2."""
    finite = np.where(np.isfinite(phi_norm), phi_norm, np.inf)
    i0 = int(np.argmin(finite))
    lo = i0
    while lo > 0 and finite[lo - 1] <= 0.5:
        lo -= 1
    hi = i0
    while hi < len(c_values) - 1 and finite[hi + 1] <= 0.5:
        hi += 1
    return float(c_values[hi] - c_values[lo])
