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
from xfwi.errors import RejectedInputError
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


def test_production_path_never_materializes_F(monkeypatch, small_toy_config):
    def refuse(c, acq):
        raise AssertionError("the production path materialized F")

    for namespace in (xfwi, wavemodel, toy):
        if hasattr(namespace, "dense_forward_matrix"):
            monkeypatch.setattr(namespace, "dense_forward_matrix", refuse)
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


def qr_oracle(F, r, sigma_p, sigma_m):
    """Minimum of :func:`extended_objective` over f, by QR of ``[F; (sm/sp) I]``.

    The stacked least-squares matrix has the square root of the condition
    number of the normal equations, so it serves as the independent reference.
    """
    nt = F.shape[1]
    Q, R = qr(np.vstack([F, (sigma_m / sigma_p) * np.eye(nt)]), mode="economic")
    f_hat = solve_triangular(R, Q.T @ np.concatenate([r, np.zeros(nt)]))
    return extended_objective(F, r, -f_hat, sigma_p, sigma_m)


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
    # A draw of the sweep below; from the normal equations alone, without the
    # correction step, the objective misses the oracle by 1.2e-8 at c = 2.4.
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
    # sigma_p = 10 at nt = 32: cond(F^T F + lam I) is about 5e16, past 1/eps, where the normal equations, correction step included,
    # miss the QR oracle by 1e-4 at c = 1.7 and 3e-2 at c = 2.4. The points
    # get a status and no value instead.
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
    # Counts the condition estimates and records, per factorization, whether
    # the normal matrix is Fortran-ordered and symmetric bit for bit, which
    # is what factoring it in place without a Hermitian check relies on.
    real_condition, real_factor = toy.spd_condition, toy._spd_factor
    guards = {"estimates": 0, "factored": []}

    def condition(factor, norm_1):
        guards["estimates"] += 1
        return real_condition(factor, norm_1)

    def factor(M, what):
        guards["factored"].append(M.flags.f_contiguous and np.array_equal(M, M.T))
        return real_factor(M, what)

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
    # the conventional scan has no extension and factors nothing
    assert toy_guards["factored"] == [True] * 7


@pytest.mark.parametrize(
    "check",
    [
        test_normal_matrix_past_double_precision_is_flagged,
        test_tiny_lambda_is_not_flagged_when_f_is_well_conditioned,
    ],
    ids=lambda f: f.__name__,
)
def test_condition_estimate_taken_when_the_bound_fails(toy_guards, check):
    check()
    assert toy_guards["estimates"] == len(toy_guards["factored"]) >= 2
    assert all(toy_guards["factored"])


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
