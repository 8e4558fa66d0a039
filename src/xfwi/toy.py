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

from .errors import (DegenerateWeightsError, IllConditionedError, NotPositiveDefiniteError,
                     RejectedInputError, XfwiError)
from .linops import (_COND_LIMIT, _UNIT_ROUNDOFF, _integer, _potrs, _spd_factor, check_condition,
                     spd_condition)
from .wavemodel import (
    Acquisition,
    Dataset,
    _normal_matrix,
    _shift_gather,
    _shift_stack,
    adjoint_F,
    forward_F,
)

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
        # coerced here, so a JSON config section can be passed as it is
        for name in ("c_true", "dt", "f0", "t0", "sigma_m", "sigma_p", "floor"):
            object.__setattr__(self, name, float(getattr(self, name)))
        dists = tuple(float(r) for r in self.receiver_distances)
        object.__setattr__(self, "receiver_distances", dists)
        c_min, c_max, n_points = self.scan
        c_min, c_max = float(c_min), float(c_max)
        n_points = _integer(n_points, "the point count of scan")
        numbers = (self.c_true, self.dt, self.f0, self.t0, self.sigma_m, self.sigma_p,
                   self.floor, c_min, c_max, *dists)
        if not np.all(np.isfinite(numbers)):
            raise RejectedInputError(f"config values must be finite, got {numbers}")
        object.__setattr__(self, "nt", _integer(self.nt, "nt"))
        object.__setattr__(self, "scan", (c_min, c_max, n_points))
        if not self.c_true > 0:
            raise RejectedInputError("c_true must be positive")
        if any(r <= 0 for r in dists) or len(set(dists)) != len(dists):
            raise RejectedInputError("receiver distances must be positive and distinct")
        if self.nt < 2 or not self.dt > 0:
            raise RejectedInputError("need nt >= 2 and dt > 0")
        if self.wavelet not in ("ricker", "spike"):
            raise RejectedInputError(f"unknown wavelet {self.wavelet!r}")
        if self.wavelet == "spike" and not 0 <= round(self.t0 / self.dt) < self.nt:
            raise RejectedInputError(f"spike time {self.t0} falls outside the record")
        if self.wavelet == "ricker" and not self.f0 < 0.25 / self.dt:
            # Nyquist is 1/(2 dt); keep the peak frequency below half of it.
            raise RejectedInputError(
                f"f0 = {self.f0} Hz would alias at dt = {self.dt}"
            )
        if not (0 < c_min < c_max) or self.scan[2] < 2:
            raise RejectedInputError("scan range must be positive and ordered")
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
        q[round(cfg.t0 / cfg.dt)] = 1.0  # ToyConfig keeps the spike in the record
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


# Below this free condition bound the fit takes no preconditioner. It is where
# the timings stopped, not a measured crossover: at kappa = 1003 plain conjugate
# gradients still won at nt = 512 (22.5 against 30.3 ms a 21-velocity scan) and
# tied at nt = 2048; no kappa between 1e3 and 3.6e3 was timed (README).
# The trailing block of the preconditioner covers _BLOCK_MARGIN samples past the
# largest delay. The step cap is about twice, and the bound on the true normal
# residual (in units of ||F^T r||) 80 times, the most measured.
_PRECONDITION_BOUND = 1e3
_BLOCK_MARGIN = 16
_PCG_STEPS = 40
_NORMAL_RESIDUAL_TOL = 1e-9


def _fit_extension(c, acq, r, sigma_p, sigma_m):
    """Weighted misfit of the residual ``r`` and the extension attaining it.

    The data-space form ``r^T (sigma_p^2 F F^T + sigma_m^2 I)^{-1} r`` equals
    ``min_f ||F f + r||^2 / sigma_m^2 + ||f||^2 / sigma_p^2`` with ``F = F(c)``,
    an ``nt x nt`` problem rather than an ``(n_rec nt) x (n_rec nt)`` one. Its
    minimizer is ``f = -f_hat`` with ``(F^T F + lam I) f_hat = F^T r``,
    ``lam = (sigma_m / sigma_p)^2``, solved by :func:`_pcg`; F is only
    applied, never formed. ``kappa = (sum_i r_i^-2 + lam) / lam`` bounds the
    condition number of ``F^T F + lam I``, since receiver block ``i`` of F
    crops a circulant whose symbol has modulus at most ``1 / r_i``. The solve
    takes no preconditioner when ``kappa < _PRECONDITION_BOUND`` and ``M`` of
    :func:`_block_preconditioner` otherwise; either way the true normal
    residual ``t = F^T (r - F f_hat) - lam f_hat`` must be at most
    ``_NORMAL_RESIDUAL_TOL ||F^T r||``, or IllConditionedError is raised.
    With ``M``, one corrected step ``f_hat += M^{-1} t`` (after Bjorck, BIT 27,
    1987) then brings ``f`` to the accuracy of a direct solve. The objective
    is evaluated at the computed minimizer, where it is stationary, so solve
    errors enter only to second order.

    Returns ``(phi, f)``. ``sigma_p = 0`` leaves no extension (``phi =
    ||r||^2 / sigma_m^2``, ``f = 0``); ``sigma_m = 0`` makes the misfit
    undefined and raises DegenerateWeightsError, as does a ``lam`` that
    underflows to 0 or overflows, or leaves ``kappa`` infinite.
    """
    if sigma_m == 0.0:
        raise DegenerateWeightsError("sigma_m is zero; the misfit is undefined")
    if sigma_p == 0.0:
        return float(r @ r) / sigma_m**2, np.zeros(acq.nt)
    with np.errstate(all="ignore"):  # a lam out of range is refused below
        lam = np.float64(sigma_m / sigma_p) ** 2
        bound = (np.sum(acq.distances() ** -2.0) + lam) / lam
    if not np.isfinite(bound):  # lam is 0, inf or NaN, or so small that kappa overflows
        raise DegenerateWeightsError(
            f"sigma_m = {sigma_m!r} and sigma_p = {sigma_p!r} give lam = "
            f"(sigma_m / sigma_p)^2 = {float(lam)!r}, out of range for the normal equations"
        )
    shape = (acq.n_receivers, acq.nt)
    rhs = adjoint_F(c, acq, r.reshape(shape))
    precondition = (None if bound < _PRECONDITION_BOUND
                    else _block_preconditioner(c, acq, lam, bound))
    f_hat = _pcg(c, acq, lam, rhs, precondition)
    misfit = r - forward_F(c, acq, f_hat).values.ravel()
    normal_residual = adjoint_F(c, acq, misfit.reshape(shape)) - lam * f_hat
    size, limit = np.linalg.norm(normal_residual), _NORMAL_RESIDUAL_TOL * np.linalg.norm(rhs)
    if not size <= limit:
        raise IllConditionedError(f"toy normal equations: true normal residual "
                                  f"{size:.3e} after conjugate gradients, above {limit:.3e}")
    if precondition is not None:
        f_hat += precondition(normal_residual)  # the corrected step
        misfit = r - forward_F(c, acq, f_hat).values.ravel()
    phi = float(misfit @ misfit) / sigma_m**2 + float(f_hat @ f_hat) / sigma_p**2
    return phi, -f_hat


def _block_preconditioner(c, acq, lam, bound):
    """``v -> M^{-1} v`` for a block preconditioner ``M`` of ``F^T F + lam I``.

    ``M`` is the diagonal of ``F^T F + lam I`` on the first ``nt - b``
    samples and its trailing ``b x b`` block, Cholesky-factored, on the rest
    (Concus, Golub & O'Leary 1976). Receiver ``i`` records the last
    ``r_i / (c dt)`` source samples only in part, so ``b = ceil(max_i r_i /
    (c dt)) + _BLOCK_MARGIN``, or ``nt`` when that reaches nt or ``bound``
    reaches the condition limit. In that last case the checked condition is
    ``min(bound, cond_1 estimate)`` (LAPACK ``pocon``). ``F^T F + lam I`` is
    positive definite, so a Cholesky breakdown is rounding past double
    precision and raises IllConditionedError with an infinite condition.
    """
    delay = int(np.ceil(acq.distances().max() / (c * acq.dt)))
    b = acq.nt if bound >= _COND_LIMIT else min(acq.nt, delay + _BLOCK_MARGIN)
    block, diagonal = _normal_matrix(c, acq, b)  # fresh, Fortran-ordered, symmetric bit for bit
    block[np.diag_indices_from(block)] += lam
    # the 1-norm must be read before the factor overwrites the block
    norm_1 = None if bound < _COND_LIMIT else np.linalg.norm(block, 1)
    try:
        factor = _spd_factor(block, "toy normal matrix")
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(f"toy normal matrix broke down: {exc}", condition=np.inf)
    if norm_1 is not None:
        check_condition(min(bound, spd_condition(factor, norm_1)), "toy normal matrix")
    s = acq.nt - b
    head = diagonal[:s] + lam
    return lambda v: np.concatenate([v[:s] / head, _potrs(factor, v[s:])])


def _pcg(c, acq, lam, rhs, precondition):
    """``(F^T F + lam I)^{-1} rhs`` by at most ``_PCG_STEPS`` conjugate-gradient steps.

    Hestenes & Stiefel (1952) from zero, preconditioned by ``precondition``
    (``v -> M^{-1} v``) unless None: the first iterate whose updated residual is
    at most ``50 u ||rhs||``, or IllConditionedError if the steps miss it.
    """
    rtol = 50 * _UNIT_ROUNDOFF
    x = np.zeros_like(rhs)
    res = rhs.copy()
    z = res if precondition is None else precondition(res)
    rr = rr_0 = float(res @ res)
    rz = float(res @ z)
    stop = rtol**2 * rr_0
    p = z.copy()
    for _ in range(_PCG_STEPS):
        if rr <= stop:
            return x
        q = _shift_gather(c, acq, _shift_stack(c, acq, p)) + lam * p
        alpha = rz / float(p @ q)
        x += alpha * p
        res -= alpha * q
        z = res if precondition is None else precondition(res)
        rr, rz, rz_old = float(res @ res), float(res @ z), rz
        p = z + (rz / rz_old) * p
    if rr <= stop:
        return x
    raise IllConditionedError(
        f"toy normal equations: conjugate gradients left the residual at "
        f"{np.sqrt(rr / rr_0):.3e} of ||F^T r|| after {_PCG_STEPS} steps, "
        f"above {rtol:.3e}"
    )


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
    extension ``f`` by an ``nt x nt`` solve (``_fit_extension``), which equals
    the kernel-weighted misfit ``r^T (sigma_p^2 K + sigma_m^2 I)^{-1} r``. A
    point that fails (for instance ``sigma_m = 0``, or a solve that cannot
    meet its accuracy) gets NaN and the exception's
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
