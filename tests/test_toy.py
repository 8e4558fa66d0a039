from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import qr, solve_triangular

import xfwi
from xfwi import (
    DegenerateWeightsError,
    IllConditionedError,
    ToyConfig,
    acquisition,
    estimate_extended_source,
    forward_F,
    half_max_basin_width,
    make_wavelet,
    scan_objective,
    synthesize_data,
)
from xfwi import toy, wavemodel
from xfwi.errors import NotPositiveDefiniteError, RejectedInputError
from xfwi.toy import REGIMES


class TestWavelet:
    def test_ricker_unit_peak_on_grid(self):
        cfg = ToyConfig(nt=128, dt=0.008, t0=0.16)  # t0 = 20 * dt exactly
        q = make_wavelet(cfg)
        assert q[20] == pytest.approx(1.0)
        assert np.max(q) == pytest.approx(1.0)

    def test_ricker_zero_mean(self):
        cfg = ToyConfig()
        q = make_wavelet(cfg)
        assert abs(np.sum(q) * cfg.dt) <= 1e-6

    def test_spike(self):
        cfg = ToyConfig(wavelet="spike", t0=0.1, nt=64, dt=0.01)
        q = make_wavelet(cfg)
        expected = np.zeros(64)
        expected[10] = 1.0
        assert np.array_equal(q, expected)

    @pytest.mark.parametrize("t0, ok", [(0.0, True), (0.63, True), (0.64, False),
                                         (-0.01, False), (5.0, False)])
    def test_spike_outside_the_record_is_rejected(self, t0, ok):
        # the config owns the check, so no command starts on a spike it cannot place
        if not ok:
            with pytest.raises(RejectedInputError, match="falls outside the record"):
                ToyConfig(wavelet="spike", t0=t0, nt=64, dt=0.01)
            return
        q = make_wavelet(ToyConfig(wavelet="spike", t0=t0, nt=64, dt=0.01))
        assert q[round(t0 / 0.01)] == 1.0 and q.sum() == 1.0

    def test_aliasing_rejected(self):
        with pytest.raises(RejectedInputError):
            ToyConfig(f0=80.0, dt=0.004)

    def test_bad_scan_rejected(self):
        with pytest.raises(RejectedInputError):
            ToyConfig(scan=(2.5, 1.5, 11))
        with pytest.raises(RejectedInputError):
            ToyConfig(receiver_distances=(0.8, 0.8, 1.2))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize(
        "field",
        ["c_true", "dt", "f0", "t0", "sigma_m", "sigma_p", "floor",
         "receiver_distances", "scan"],
    )
    def test_non_finite_value_rejected(self, field, value):
        # sigma_m = inf once scanned to all zeros with status ok
        kwargs = {
            "receiver_distances": {field: (0.8, 1.0, value)},
            "scan": {field: (1.5, 2.5, value)},
        }.get(field, {field: value})
        with pytest.raises(RejectedInputError):
            ToyConfig(**kwargs)


class TestSynthesis:
    def test_arrival_times(self):
        cfg = ToyConfig(wavelet="spike", t0=0.0, nt=256, dt=0.004)
        d = synthesize_data(cfg)
        peaks = np.argmax(np.abs(d.values), axis=1) * cfg.dt
        assert np.allclose(peaks, [0.4, 0.5, 0.6])

    def test_amplitude_follows_spreading(self):
        cfg = ToyConfig(wavelet="spike", t0=0.0, nt=256, dt=0.004)
        d = synthesize_data(cfg)
        peak_vals = np.max(np.abs(d.values), axis=1)
        expected = 1.0 / np.array([0.8, 1.0, 1.2])
        assert np.allclose(peak_vals / expected, 1.0, rtol=1e-10)

    def test_zero_source_zero_data(self):
        cfg = ToyConfig(nt=64, dt=0.008)
        out = forward_F(cfg.c_true, acquisition(cfg), np.zeros(64))
        assert np.array_equal(out.values, np.zeros((3, 64)))


class TestExtendedSource:
    def test_true_velocity_needs_no_extension(self, small_toy_config):
        res = estimate_extended_source(small_toy_config, small_toy_config.c_true)
        q = make_wavelet(small_toy_config)
        assert np.linalg.norm(res.extension) <= 1e-8 * np.linalg.norm(q)
        assert res.fit_rel <= 1e-8

    def test_extension_never_worsens_fit(self, small_toy_config):
        for c in (1.6, 1.8, 2.0, 2.2, 2.4):
            res = estimate_extended_source(small_toy_config, c, regime="extended")
            clean_misfit = np.linalg.norm(res.clean.values - res.observed.values)
            fitted_misfit = np.linalg.norm(res.fitted.values - res.observed.values)
            assert fitted_misfit <= clean_misfit + 1e-12

    @pytest.mark.parametrize("c", [1.8, 2.2])
    def test_extension_improves_fit_off_truth(self, small_toy_config, c):
        res = estimate_extended_source(small_toy_config, c, regime="extended")
        clean_rel = np.linalg.norm(
            res.clean.values - res.observed.values
        ) / np.linalg.norm(res.observed.values)
        assert res.fit_rel < 0.5 * clean_rel
        assert res.extension_ratio > 0.1

    def test_conventional_regime_keeps_source(self, small_toy_config):
        res = estimate_extended_source(small_toy_config, 1.8, regime="conventional")
        assert res.extension_ratio <= 1e-8

    def test_general_regime_between_limits(self, small_toy_config):
        ext = estimate_extended_source(small_toy_config, 1.8, "extended")
        gen = estimate_extended_source(small_toy_config, 1.8, "general")
        conv = estimate_extended_source(small_toy_config, 1.8, "conventional")
        assert ext.fit_rel <= gen.fit_rel <= conv.fit_rel + 1e-12

    def test_unknown_regime(self, small_toy_config):
        with pytest.raises(RejectedInputError):
            estimate_extended_source(small_toy_config, 1.8, regime="other")


class TestScan:
    def test_both_regimes_recover_truth(self, small_toy_config):
        for regime in ("conventional", "extended"):
            result = scan_objective(small_toy_config, regime)
            assert result.argmin_c == pytest.approx(2.0)
            assert np.nanmin(result.phi_raw) <= 1e-12 * np.nanmax(result.phi_raw)
            assert all(s == "ok" for s in result.status)
            assert np.all(result.phi_raw[np.isfinite(result.phi_raw)] >= 0.0)

    def test_extended_basin_wider(self, small_toy_config):
        conv = scan_objective(small_toy_config, "conventional")
        ext = scan_objective(small_toy_config, "extended")
        w_conv = half_max_basin_width(conv.c_values, conv.phi_norm)
        w_ext = half_max_basin_width(ext.c_values, ext.phi_norm)
        assert w_ext > w_conv

    def test_determinism(self, small_toy_config):
        a = scan_objective(small_toy_config, "extended")
        b = scan_objective(small_toy_config, "extended")
        assert np.array_equal(a.phi_raw, b.phi_raw)
        assert np.array_equal(a.phi_norm, b.phi_norm)

    def test_general_regime_runs(self, small_toy_config):
        result = scan_objective(small_toy_config, "general")
        assert result.argmin_c == pytest.approx(2.0)


def test_production_path_never_materializes_F(small_toy_config):
    # the dense propagator is a test oracle only (conftest.dense_forward_matrix)
    for namespace in (xfwi, wavemodel, toy):
        assert not hasattr(namespace, "dense_forward_matrix")
    for regime in ("extended", "general"):
        assert scan_objective(small_toy_config, regime).status == ["ok"] * 21
        estimate_extended_source(small_toy_config, 1.8, regime)


def test_half_max_width_synthetic():
    c = np.linspace(0.0, 1.0, 11)
    phi = np.abs(c - 0.5) * 2.0  # half max at 0.25 and 0.75
    assert half_max_basin_width(c, phi) == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# Source-space oracle: the toy objective from forward_F and a QR solve alone.


def forward_columns(c, acq):
    """F(c) as a dense matrix, built by applying forward_F to unit vectors."""
    return np.column_stack(
        [forward_F(c, acq, e).values.ravel() for e in np.eye(acq.nt)]
    )


def extended_objective(F, r, f, sigma_p, sigma_m):
    """``||F f + r||^2 / sigma_m^2 + ||f||^2 / sigma_p^2``."""
    res = F @ f + r
    return float(res @ res) / sigma_m**2 + float(f @ f) / sigma_p**2


def qr_minimizer(F, r, sigma_p, sigma_m):
    """``f_hat``, with ``-f_hat`` the minimizer of :func:`extended_objective`, by QR of ``[F; (sm/sp) I]``.

    The stacked least-squares matrix has the square root of the condition
    number of the normal equations, so it serves as the independent reference.
    """
    nt = F.shape[1]
    Q, R = qr(np.vstack([F, (sigma_m / sigma_p) * np.eye(nt)]), mode="economic")
    return solve_triangular(R, Q.T @ np.concatenate([r, np.zeros(nt)]))


def qr_oracle(F, r, sigma_p, sigma_m):
    """Minimum of :func:`extended_objective` over f, at :func:`qr_minimizer`."""
    return extended_objective(F, r, -qr_minimizer(F, r, sigma_p, sigma_m), sigma_p, sigma_m)


def residual(cfg, c):
    acq = acquisition(cfg)
    clean = forward_F(c, acq, make_wavelet(cfg))
    return (clean.values - synthesize_data(cfg).values).ravel()


def scan_weights(cfg, regime):
    """(sigma_p, sigma_m) of the scan; its conventional regime is the exact limit."""
    d_norm = float(np.linalg.norm(synthesize_data(cfg).values))
    if regime == "conventional":
        return 0.0, cfg.sigma_m
    if regime == "extended":
        return cfg.sigma_p, cfg.floor * d_norm
    return cfg.sigma_p, cfg.sigma_m


def extsrc_weights(cfg, regime):
    """(sigma_p, sigma_m) of extsrc; its conventional regime keeps a floored sigma_p."""
    if regime == "conventional":
        d_norm = float(np.linalg.norm(synthesize_data(cfg).values))
        return cfg.floor * d_norm, cfg.sigma_m
    return scan_weights(cfg, regime)


@pytest.mark.parametrize(
    "cfg",
    [
        ToyConfig(nt=1024, f0=15.0, scan=(1.6, 2.2, 4)),  # the README config
        ToyConfig(nt=512, scan=(1.6, 2.2, 4)),
    ],
    ids=["nt1024", "nt512"],
)
def test_extended_regime_matches_qr_oracle(cfg):
    # The floored extended regime gives the data-space system a condition
    # number near 1e11; the objective must still agree with the oracle to
    # 1e-10 at every off-truth velocity, and every point must be ok.
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["ok"] * 4
    sigma_p, sigma_m = scan_weights(cfg, "extended")
    acq = acquisition(cfg)
    for k in (0, 1, 3):  # c = 1.6, 1.8, 2.2; the truth c = 2.0 has phi ~ 0
        c = scan.c_values[k]
        F = forward_columns(c, acq)
        r = residual(cfg, c)
        expected = qr_oracle(F, r, sigma_p, sigma_m)
        assert abs(scan.phi_raw[k] - expected) <= 1e-10 * expected, c
        ext = estimate_extended_source(cfg, c, regime="extended")
        attained = extended_objective(F, r, ext.extension, sigma_p, sigma_m)
        assert abs(attained - expected) <= 1e-10 * expected, c


def test_floored_hypothesis_draw_matches_qr_oracle():
    # A draw of the sweep below. At nt = 33 the preconditioner is the whole
    # Cholesky factor; one solve with it alone misses the oracle by 2.7e-8 at
    # c = 2.4, and the conjugate-gradient steps from it bring that to 3.3e-12.
    cfg = ToyConfig(
        receiver_distances=(0.5, 0.75),
        nt=33,
        dt=0.008,
        f0=8.0,
        t0=0.2,
        sigma_p=3.0,
        scan=(1.7, 2.4, 2),
    )
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["ok", "ok"]
    sigma_p, sigma_m = scan_weights(cfg, "extended")
    acq = acquisition(cfg)
    for c, phi in zip(scan.c_values, scan.phi_raw):
        F = forward_columns(c, acq)
        r = residual(cfg, c)
        expected = qr_oracle(F, r, sigma_p, sigma_m)
        assert abs(phi - expected) <= 1e-10 * expected, c
        ext = estimate_extended_source(cfg, c, regime="extended")
        attained = extended_objective(F, r, ext.extension, sigma_p, sigma_m)
        assert abs(attained - expected) <= 1e-10 * expected, c


def test_normal_matrix_past_double_precision_is_flagged():
    # sigma_p = 10 at nt = 32: cond(F^T F + lam I) is about 5e16, past 1/eps,
    # where the normal equations missed the QR oracle by 1e-4 at c = 1.7 and
    # 3e-2 at c = 2.4. The points get a status and no value instead.
    cfg = ToyConfig(
        receiver_distances=(0.3, 0.5),
        nt=32,
        dt=0.008,
        f0=8.0,
        t0=0.2,
        sigma_p=10.0,
        scan=(1.7, 2.4, 2),
    )
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["IllConditionedError"] * 2
    assert np.all(np.isnan(scan.phi_raw))
    with pytest.raises(IllConditionedError) as info:
        estimate_extended_source(cfg, 1.7, regime="extended")
    assert info.value.condition > 1e16


@pytest.mark.parametrize(
    "sigma_p, sigma_m, lam",
    [(1.0, 1e-300, "0.0"), (1.0, 1e-155, "1e-310"), (1e-300, 1.0, "inf")],
    ids=["lam-underflows", "kappa-overflows", "lam-overflows"],
)
def test_weight_ratio_out_of_range_is_degenerate(sigma_p, sigma_m, lam):
    # Unchecked, these divide kappa by zero, overflow it, or raise a bare
    # OverflowError squaring the ratio; the error names both weights.
    cfg = ToyConfig(nt=128, scan=(1.6, 2.4, 2))
    acq, r = acquisition(cfg), residual(cfg, 1.8)
    with pytest.raises(DegenerateWeightsError, match=rf"sigma_m = {sigma_m!r} and "
                       rf"sigma_p = {sigma_p!r} give lam = .* = {lam}"):
        toy._fit_extension(1.8, acq, r, sigma_p, sigma_m)


def test_tiny_lambda_is_not_flagged_when_f_is_well_conditioned():
    # Receivers closer than one sample of travel time leave F^T F itself well
    # conditioned, so a floor that makes lam / ||F^T F|| about 5e-20 still
    # gives an exact answer and must not be refused.
    cfg = ToyConfig(
        receiver_distances=(0.01, 0.02),
        nt=48,
        dt=0.008,
        f0=8.0,
        t0=0.2,
        floor=1e-10,
        scan=(1.7, 2.4, 2),
    )
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["ok", "ok"]
    sigma_p, sigma_m = scan_weights(cfg, "extended")
    acq = acquisition(cfg)
    lam_rel = (sigma_m / sigma_p) ** 2 / np.sum(acq.distances() ** -2.0)
    assert lam_rel < 1e-19
    for c, phi in zip(scan.c_values, scan.phi_raw):
        F = forward_columns(c, acq)
        r = residual(cfg, c)
        expected = qr_oracle(F, r, sigma_p, sigma_m)
        assert abs(phi - expected) <= 1e-10 * expected, c


@pytest.fixture
def toy_guards(monkeypatch):
    # Counts the condition estimates and the Cholesky breakdowns and records,
    # per factorization, whether the normal matrix block is Fortran-ordered
    # and symmetric bit for bit, which is what factoring it in place without
    # a Hermitian check relies on.
    real_condition, real_factor = toy.spd_condition, toy._spd_factor
    guards = {"estimates": 0, "factored": [], "breakdowns": 0}

    def condition(factor, norm_1):
        guards["estimates"] += 1
        return real_condition(factor, norm_1)

    def factor(M, what):
        guards["factored"].append(M.flags.f_contiguous and np.array_equal(M, M.T))
        try:
            return real_factor(M, what)
        except NotPositiveDefiniteError:
            guards["breakdowns"] += 1
            raise

    monkeypatch.setattr(toy, "spd_condition", condition)
    monkeypatch.setattr(toy, "_spd_factor", factor)
    return guards


@pytest.mark.parametrize("overrides", [{}, {"nt": 1024, "f0": 15.0}], ids=["default", "readme"])
def test_condition_estimate_skipped_while_the_bound_passes(toy_guards, overrides):
    # The free bound (sum_i r_i^-2 + lam) / lam does not depend on c, so two
    # points per regime stand for the full scans of both configs.
    cfg = ToyConfig(**overrides, scan=(1.6, 2.4, 2))
    for regime in REGIMES:
        assert scan_objective(cfg, regime).status == ["ok", "ok"]
        estimate_extended_source(cfg, 1.8, regime)
    assert toy_guards["estimates"] == 0
    # The conventional scan has no extension; the floored conventional extsrc
    # fit (kappa = 1) and the general fits (kappa = 4.3) take plain conjugate
    # gradients. Only the floored extended fits (2 scan points and extsrc)
    # factor a trailing block.
    assert toy_guards["factored"] == [True] * 3


@pytest.mark.parametrize(
    "check",
    [
        test_normal_matrix_past_double_precision_is_flagged,
        test_tiny_lambda_is_not_flagged_when_f_is_well_conditioned,
    ],
    ids=lambda f: f.__name__,
)
def test_condition_estimate_taken_when_the_bound_fails(toy_guards, check):
    # A factorization that breaks down leaves no factor to estimate from.
    check()
    factored = len(toy_guards["factored"])
    assert toy_guards["estimates"] == factored - toy_guards["breakdowns"]
    assert factored >= 2
    assert all(toy_guards["factored"])


def test_cholesky_breakdown_is_ill_conditioning(toy_guards):
    # sigma_p = 20 at nt = 32: F^T F + lam I is positive definite, but past
    # double precision potrf can break down before pocon can flag it, as it
    # did at 6 of these 8 velocities. Either way the point is ill conditioned,
    # never NotPositiveDefiniteError.
    cfg = ToyConfig(receiver_distances=(0.3, 0.5), nt=32, dt=0.008, f0=8.0, t0=0.2,
                    sigma_p=20.0, scan=(1.7, 2.4, 8))
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["IllConditionedError"] * 8
    assert np.all(np.isnan(scan.phi_raw))
    assert toy_guards["breakdowns"] >= 1
    with pytest.raises(IllConditionedError) as info:
        estimate_extended_source(cfg, 1.7, regime="extended")
    assert info.value.condition > 1e14


def test_breakdown_reports_an_infinite_condition(monkeypatch):
    def breakdown(M, what):
        raise NotPositiveDefiniteError("leading minor 3 is not positive definite")

    monkeypatch.setattr(toy, "_spd_factor", breakdown)
    cfg = ToyConfig(nt=128, scan=(1.6, 2.4, 2))
    with pytest.raises(IllConditionedError, match="broke down") as info:
        estimate_extended_source(cfg, 1.8, regime="extended")
    assert info.value.condition == np.inf


WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def toy_configs(draw):
    sigma_m, sigma_p = draw(WEIGHTS), draw(WEIGHTS)
    assume(sigma_m > 0 or sigma_p > 0)
    distances = draw(
        st.lists(st.floats(0.3, 1.5), min_size=2, max_size=4, unique=True)
    )
    return ToyConfig(
        receiver_distances=tuple(distances),
        nt=draw(st.integers(32, 200)),
        dt=0.008,
        f0=8.0,
        t0=0.2,
        sigma_m=sigma_m,
        sigma_p=sigma_p,
        scan=(1.7, 2.4, 2),
    )


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=9, deadline=None, derandomize=True)
@given(cfg=toy_configs())
def test_scan_and_extsrc_match_qr_oracle(regime, cfg):
    acq = acquisition(cfg)
    scan = scan_objective(cfg, regime)
    sigma_p, sigma_m = scan_weights(cfg, regime)
    for c, phi, status in zip(scan.c_values, scan.phi_raw, scan.status):
        r = residual(cfg, c)
        if sigma_m == 0.0:
            assert status == "DegenerateWeightsError" and np.isnan(phi)
        elif sigma_p == 0.0:
            assert status == "ok" and phi == float(r @ r) / sigma_m**2
        else:
            assert status == "ok"
            expected = qr_oracle(forward_columns(c, acq), r, sigma_p, sigma_m)
            assert abs(phi - expected) <= 1e-8 * expected

    c = scan.c_values[0]
    sigma_p, sigma_m = extsrc_weights(cfg, regime)
    if sigma_m == 0.0:
        with pytest.raises(DegenerateWeightsError):
            estimate_extended_source(cfg, c, regime)
        return
    ext = estimate_extended_source(cfg, c, regime)
    if sigma_p == 0.0:
        assert np.array_equal(ext.extension, np.zeros(cfg.nt))
    else:
        F = forward_columns(c, acq)
        r = residual(cfg, c)
        expected = qr_oracle(F, r, sigma_p, sigma_m)
        attained = extended_objective(F, r, ext.extension, sigma_p, sigma_m)
        assert abs(attained - expected) <= 1e-8 * expected


# ---------------------------------------------------------------------------
# The conjugate-gradient solve of _fit_extension, plain and block-preconditioned.


def normal_bound(cfg, sigma_p, sigma_m):
    """``kappa = (sum_i r_i^-2 + lam) / lam``, the free condition bound of the fit."""
    lam = (sigma_m / sigma_p) ** 2
    return (np.sum(acquisition(cfg).distances() ** -2.0) + lam) / lam


# The general regime at the default offsets (sigma_m = sigma_p = 1) has kappa
# = 4.3 at every nt, far below the bound where the block preconditioner starts.
CG_CONFIGS = {
    "nt64": ToyConfig(nt=64, dt=0.016, scan=(1.6, 2.4, 2)),
    "nt512": ToyConfig(nt=512, scan=(1.6, 2.4, 2)),
    "nt1024": ToyConfig(nt=1024, f0=15.0, scan=(1.6, 2.4, 2)),
    "nt2048": ToyConfig(nt=2048, scan=(1.6, 2.4, 2)),
}


def refuse(*args):
    raise AssertionError("the normal matrix was formed or factored")


@pytest.mark.parametrize("name", CG_CONFIGS)
def test_well_conditioned_general_fit_takes_conjugate_gradients(monkeypatch, name):
    # Which path a fit takes depends on kappa alone, not on nt.
    cfg = CG_CONFIGS[name]
    assert normal_bound(cfg, cfg.sigma_p, cfg.sigma_m) < toy._PRECONDITION_BOUND
    monkeypatch.setattr(toy, "_normal_matrix", refuse)
    monkeypatch.setattr(toy, "_spd_factor", refuse)
    assert scan_objective(cfg, "general").status == ["ok", "ok"]
    estimate_extended_source(cfg, 1.8, "general")


@pytest.mark.parametrize("sigma_m, blocks", [(0.058, 0), (0.057, 3)], ids=["below", "above"])
def test_block_preconditioner_starts_at_the_bound(monkeypatch, sigma_m, blocks):
    # kappa = 969 and 1003 on either side of the bound; both match the oracle.
    cfg = ToyConfig(nt=128, sigma_m=sigma_m, scan=(1.6, 2.4, 2))
    kappa = normal_bound(cfg, cfg.sigma_p, cfg.sigma_m)
    assert (kappa >= toy._PRECONDITION_BOUND) == (blocks > 0)
    assert abs(kappa - toy._PRECONDITION_BOUND) <= 0.04 * toy._PRECONDITION_BOUND
    built = []
    real = toy._normal_matrix
    monkeypatch.setattr(toy, "_normal_matrix", lambda *args: built.append(args) or real(*args))
    scan = scan_objective(cfg, "general")
    assert scan.status == ["ok", "ok"]
    estimate_extended_source(cfg, 1.8, "general")
    assert len(built) == blocks
    acq = acquisition(cfg)
    for c, phi in zip(scan.c_values, scan.phi_raw):
        expected = qr_oracle(forward_columns(c, acq), residual(cfg, c), cfg.sigma_p, cfg.sigma_m)
        assert abs(phi - expected) <= 1e-13 * expected, c


def test_floored_conventional_fits_converge_at_a_bound_of_one():
    # floor = 1e-10 makes lam ~ 1e18 and the computed bound exactly 1. One
    # step, which is all exact arithmetic needs, meets the stop of 50 u; its
    # own rounding, about u ||F^T r||, left 13 to 29 of 41 velocities short of
    # a stop at u.
    cfg = ToyConfig(nt=128, floor=1e-10)
    sigma_p, sigma_m = extsrc_weights(cfg, "conventional")
    assert normal_bound(cfg, sigma_p, sigma_m) == 1.0
    acq = acquisition(cfg)
    for c in np.linspace(1.5, 2.5, 41):
        ext = estimate_extended_source(cfg, c, "conventional")
        if c in (1.5, 2.5):
            F = forward_columns(c, acq)
            r = residual(cfg, c)
            expected = qr_oracle(F, r, sigma_p, sigma_m)
            attained = extended_objective(F, r, ext.extension, sigma_p, sigma_m)
            assert abs(attained - expected) <= 1e-13 * expected, c


@pytest.mark.parametrize("name", ["nt512", "nt1024"])
def test_conjugate_gradients_match_cholesky_and_qr_oracle(monkeypatch, name):
    # Measured with sigma_m = sigma_p = 1 over 21 velocities in [1.5, 2.5],
    # CG forced at nt = 512: phi within 3.3e-16 of the Cholesky path, f 6.5e-16.
    # The block preconditioner now stands in for that Cholesky path.
    cfg = CG_CONFIGS[name]
    acq = acquisition(cfg)
    sigma_p, sigma_m = cfg.sigma_p, cfg.sigma_m
    for c in (1.6, 2.2):
        r = residual(cfg, c)
        phi, f = toy._fit_extension(c, acq, r, sigma_p, sigma_m)
        with monkeypatch.context() as m:
            m.setattr(toy, "_PRECONDITION_BOUND", 0.0)  # forces the block
            phi_chol, f_chol = toy._fit_extension(c, acq, r, sigma_p, sigma_m)
        assert abs(phi - phi_chol) <= 4e-15 * phi_chol, c
        assert np.linalg.norm(f - f_chol) <= 1e-14 * np.linalg.norm(f_chol), c
        expected = qr_oracle(forward_columns(c, acq), r, sigma_p, sigma_m)
        assert abs(phi - expected) <= 1e-13 * expected, c


def test_conjugate_gradients_short_of_the_tolerance_raise(monkeypatch):
    # From c = 1.9 on, the README config's F^T r lies where F^T F acts as a
    # scalar, and one step meets the stop; at c = 1.6 and 1.8 a fit takes 12
    # and 8.
    cfg = replace(CG_CONFIGS["nt1024"], scan=(1.6, 1.8, 2))
    monkeypatch.setattr(toy, "_PCG_STEPS", 1)
    scan = scan_objective(cfg, "general")
    assert scan.status == ["IllConditionedError"] * 2
    assert np.all(np.isnan(scan.phi_raw))
    with pytest.raises(IllConditionedError, match="conjugate gradients"):
        estimate_extended_source(cfg, 1.8, "general")


# The README config and the default one, both in the floored extended regime,
# where every fit takes the block preconditioner.
BLOCK_CONFIGS = {
    "nt512": ToyConfig(nt=512, scan=(1.6, 2.4, 2)),
    "nt1024": ToyConfig(nt=1024, f0=15.0, scan=(1.6, 2.4, 2)),
}


@pytest.mark.parametrize("name", BLOCK_CONFIGS)
def test_block_fit_past_its_step_cap_raises(monkeypatch, name):
    cfg = BLOCK_CONFIGS[name]
    monkeypatch.setattr(toy, "_PCG_STEPS", 1)
    scan = scan_objective(cfg, "extended")
    assert scan.status == ["IllConditionedError"] * 2
    assert np.all(np.isnan(scan.phi_raw))
    with pytest.raises(IllConditionedError, match="conjugate gradients left the residual"):
        estimate_extended_source(cfg, 1.8, "extended")


@pytest.mark.parametrize(
    "cfg, regime",
    [(CG_CONFIGS["nt1024"], "general"), (BLOCK_CONFIGS["nt512"], "extended")],
    ids=["plain", "block"],
)
def test_fit_short_of_its_true_residual_bound_raises(monkeypatch, cfg, regime):
    # The recursively updated residual met its stop; the true normal residual
    # F^T (r - F f_hat) - lam f_hat is checked on its own, with or without the
    # preconditioner.
    monkeypatch.setattr(toy, "_NORMAL_RESIDUAL_TOL", 0.0)
    with pytest.raises(IllConditionedError, match="true normal residual"):
        estimate_extended_source(cfg, 1.8, regime)


@pytest.mark.parametrize("regime", ["extended", "general"])
@pytest.mark.parametrize("name", BLOCK_CONFIGS)
def test_fit_at_the_true_velocity_is_zero(name, regime):
    # r = 0 exactly, so F^T r = 0: no step, no division (the suite turns
    # warnings into errors), and the true residual bound 0 <= tol * 0 holds.
    cfg = BLOCK_CONFIGS[name]
    acq = acquisition(cfg)
    r = residual(cfg, cfg.c_true)
    assert not r.any()
    sigma_p, sigma_m = scan_weights(cfg, regime)
    phi, f = toy._fit_extension(cfg.c_true, acq, r, sigma_p, sigma_m)
    assert phi == 0.0 and not f.any()


@pytest.mark.parametrize("name", BLOCK_CONFIGS)
def test_block_fit_extension_matches_qr_oracle(name):
    # extsrc writes f itself, where the objective's stationarity does not
    # help. Against the oracle's minimizer, at c = 1.5, 1.8 and 2.5, the
    # extension was off by 3.2e-8, 1.7e-6 and 4.2e-6 (nt = 512) and 9.0e-8,
    # 4.8e-6 and 4.3e-6 (nt = 1024), with the corrected step through the
    # preconditioner; without it, by up to 4.8e-5. The gate is 4 times the
    # worst measured value.
    cfg = BLOCK_CONFIGS[name]
    acq = acquisition(cfg)
    sigma_p, sigma_m = scan_weights(cfg, "extended")
    for c in (1.5, 1.8, 2.5):
        f_hat = qr_minimizer(forward_columns(c, acq), residual(cfg, c), sigma_p, sigma_m)
        f = estimate_extended_source(cfg, c, "extended").extension
        assert np.linalg.norm(f + f_hat) <= 2e-5 * np.linalg.norm(f_hat), c
