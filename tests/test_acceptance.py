"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
quantities (run pytest with ``-s`` to see the lines for passing tests) and
then asserts the stated thresholds.

Criterion 6 is expected to fail on its extended-regime fit threshold: the
fitted residual equals the component of the observed data orthogonal to the
range of the trial-velocity propagator, which is an O(1) fraction at this
geometry for any weighting (a time-extended source at a single point spans
a rank-nt subspace of the 3*nt-dimensional data space). The measured values
are printed; the conventional-regime half of the criterion holds. See
README for the full analysis.
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    DenseOperator,
    complex_operator_problems,
    dA_dm,
    dense_forward_matrix,
    dot_test,
    make_helmholtz_instance,
    minimize_phi_contrast_source,
    minimize_phi_extended_source,
    phi_conventional,
    phi_equation_error,
    operator_pair,
    propagator,
    solve_pair,
)
from xfwi import (
    CovarianceSpec,
    HelmholtzModel1D,
    Problem,
    SamplingOperator,
    ToyConfig,
    acquisition,
    assemble_A,
    estimate_extended_source,
    fd_gradient,
    grad_phi,
    half_max_basin_width,
    helmholtz_problem,
    kernel_k,
    make_wavelet,
    phi_joint,
    phi_reduced,
    scan_objective,
    verify_equivalence,
)
from xfwi.cli import (
    DEFAULT_CONFIG,
    gradient_problem,
    main,
    make_equiv_instances,
    random_covariance,
)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_equivalence():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for _, prob, m in make_equiv_instances(DEFAULT_CONFIG["equiv"], seed=42):
        rep = verify_equivalence(prob, m)
        worst = max(worst, rep.rel_gap)
        count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 20 and worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"{count} instances, worst rel gap {worst:.3e}, {elapsed:.2f}s")
    assert count >= 20
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_matrix_identity():
    worst = 0.0
    for _, prob, m in make_equiv_instances(DEFAULT_CONFIG["equiv"], seed=42):
        worst = max(worst, verify_equivalence(prob, m).identity_max_err)
    # complex non-symmetric operators exercise the general case
    for prob, m in complex_operator_problems():
        worst = max(worst, verify_equivalence(prob, m).identity_max_err)
    ok = worst <= 1e-9
    report(2, ok, f"worst entrywise rel err {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_3_gradient():
    worst = 0.0
    for n in (10, 20, 50):
        prob, m = gradient_problem(DEFAULT_CONFIG["grad"], seed=42, n=n)
        analytic = grad_phi(prob, m)
        fd = fd_gradient(prob, m)
        floor = 1e-9 * (1.0 + np.max(np.abs(fd)))
        rel = np.abs(analytic - fd) / (np.abs(fd) + floor)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-4
    report(3, ok, f"max rel err {worst:.3e} over n in (10, 20, 50)")
    assert worst <= 1e-4


def test_criterion_4_limits():
    # vanishing process uncertainty -> conventional data misfit
    prob, m = make_helmholtz_instance(seed=50, cov_kind="scaled")
    conv = phi_conventional(prob, m).value
    floor_p = 1e-8 * np.linalg.norm(prob.d)
    loose = Problem(
        A_builder=prob.A_builder,
        dA_contract=prob.dA_contract,
        P=prob.P,
        q=prob.q,
        d=prob.d,
        sigma_m=prob.sigma_m,
        sigma_p=CovarianceSpec.scaled_identity(floor_p**2, prob.state_dim),
    )
    gap_conv = abs(phi_reduced(loose, m).value - conv) / conv

    # vanishing measurement uncertainty with full sampling -> equation error
    rng = np.random.default_rng(51)
    n = 12
    model = HelmholtzModel1D(n=n, h=0.08, omega=12.0, boundary="sommerfeld")
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    floor_m = 1e-8 * np.linalg.norm(d)
    prob_full = helmholtz_problem(
        model,
        list(range(n)),
        q,
        d,
        sigma_m=CovarianceSpec.scaled_identity(floor_m**2, n),
        sigma_p=random_covariance("dense", n, 1.0, rng),
    )
    m_full = rng.uniform(0.2, 0.4, n)
    ee = phi_equation_error(prob_full, m_full).value
    gap_ee = abs(phi_reduced(prob_full, m_full).value - ee) / ee

    ok = gap_conv <= 1e-5 and gap_ee <= 1e-5
    report(4, ok, f"conventional-limit gap {gap_conv:.3e}, equation-error gap {gap_ee:.3e}")
    assert gap_conv <= 1e-5
    assert gap_ee <= 1e-5


def test_criterion_5_kernel_events():
    start = time.perf_counter()
    cfg = ToyConfig()
    acq = acquisition(cfg)
    panels = kernel_k(cfg.c_true, acq)
    dists = acq.distances()
    worst = 0.0
    expected_set = set()
    for i in range(3):
        for j in range(3):
            expected = (dists[i] - dists[j]) / cfg.c_true
            expected_set.add(round(expected, 6))
            measured = panels.lags[int(np.argmax(np.abs(panels.traces[i, j])))]
            worst = max(worst, abs(measured - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= cfg.dt and elapsed < 5.0
    report(
        5,
        ok,
        f"9 panels, worst lag error {worst:.4f}s (dt {cfg.dt}), "
        f"lags {sorted(float(v) for v in expected_set)}, {elapsed:.2f}s",
    )
    assert expected_set == {-0.2, -0.1, 0.0, 0.1, 0.2}
    assert worst <= cfg.dt
    assert elapsed < 5.0


def test_criterion_6_extended_source_fit():
    cfg = ToyConfig()
    q = make_wavelet(cfg)
    fit_errors = {}
    conv_ratios = {}
    for c in (1.8, 2.2):
        ext = estimate_extended_source(cfg, c, regime="extended")
        conv = estimate_extended_source(cfg, c, regime="conventional")
        fit_errors[c] = ext.fit_rel
        conv_ratios[c] = conv.extension_ratio
    conv_ok = all(v <= 1e-8 for v in conv_ratios.values())
    fit_ok = all(v <= 1e-3 for v in fit_errors.values())
    report(
        6,
        fit_ok and conv_ok,
        f"extended fit rel {fit_errors[1.8]:.3e} (c=1.8), "
        f"{fit_errors[2.2]:.3e} (c=2.2) vs threshold 1e-3; "
        f"conventional |f|/|q| {max(conv_ratios.values()):.3e} vs 1e-8",
    )
    assert conv_ok, f"conventional regime modified the source: {conv_ratios}"
    assert fit_ok, (
        "extended-regime fit is bounded below by the out-of-range component "
        f"of the data (irreducible for any weights): {fit_errors}"
    )


def test_criterion_7_objective_scan():
    start = time.perf_counter()
    cfg = ToyConfig()
    conv = scan_objective(cfg, "conventional")
    ext = scan_objective(cfg, "extended")
    elapsed = time.perf_counter() - start
    w_conv = half_max_basin_width(conv.c_values, conv.phi_norm)
    w_ext = half_max_basin_width(ext.c_values, ext.phi_norm)
    ok = (
        conv.argmin_c == pytest.approx(2.0)
        and ext.argmin_c == pytest.approx(2.0)
        and w_ext > w_conv
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"argmin ({conv.argmin_c}, {ext.argmin_c}), basin widths "
        f"conventional {w_conv:.3f} < extended {w_ext:.3f}, {elapsed:.1f}s",
    )
    assert conv.argmin_c == pytest.approx(2.0)
    assert ext.argmin_c == pytest.approx(2.0)
    assert w_ext > w_conv
    assert elapsed < 60.0


def test_criterion_8_appendix_forms():
    worst_ext = 0.0
    worst_cs = 0.0
    for seed in (60, 61, 62):
        prob, m = make_helmholtz_instance(seed=seed)
        pj = phi_joint(prob, m).value
        _, val_ext = minimize_phi_extended_source(prob, m)
        _, val_cs = minimize_phi_contrast_source(prob, m, m * 1.02)
        worst_ext = max(worst_ext, abs(val_ext - pj) / (1.0 + pj))
        worst_cs = max(worst_cs, abs(val_cs - pj) / (1.0 + pj))
    ok = worst_ext <= 1e-9 and worst_cs <= 1e-9
    report(
        8,
        ok,
        f"extension-minimum gap {worst_ext:.3e}, contrast-minimum gap {worst_cs:.3e}",
    )
    assert worst_ext <= 1e-9
    assert worst_cs <= 1e-9


def test_criterion_9_infrastructure(tmp_path):
    # adjoint dot tests of every adjoint the package applies: the adjoint solve
    # of A, the dense adjoint of P, and F^T
    worst = 0.0
    m = np.full(20, 0.3)
    for boundary in ("dirichlet", "sommerfeld"):
        model = HelmholtzModel1D(n=20, h=0.05, omega=30.0, boundary=boundary)
        worst = max(worst, dot_test(solve_pair(assemble_A(model, m)), trials=10, seed=1))
        worst = max(worst, dot_test(dA_dm(model, 7), trials=5, seed=2))
    P = SamplingOperator([3, 9, 15], 20)
    P_pair = operator_pair(3, 20, P.matvec, lambda y: P.dense_adjoint @ y)
    worst = max(worst, dot_test(P_pair, trials=5, seed=3))
    cfg = ToyConfig(nt=160, dt=0.008, f0=8.0, t0=0.2)
    acq = acquisition(cfg)
    worst = max(worst, dot_test(propagator(2.1, acq), trials=10, seed=4))
    worst = max(
        worst, dot_test(DenseOperator(dense_forward_matrix(1.9, acq)), trials=5, seed=5)
    )

    # deterministic outputs: identical config and seed, byte-identical CSVs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "toy": {"nt": 160, "dt": 0.008, "f0": 8.0, "t0": 0.2, "scan": [1.5, 2.5, 21]},
                "equiv": {"instances": 3, "n": 10, "receivers": [2, 5, 8]},
            }
        )
    )
    pairs = []
    for command, artifact in (("scan", "scan.csv"), ("equiv-check", "equivalence.csv")):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            assert main([command, "--config", str(cfg_path), "--out", str(out), "--seed", "11"]) == 0
            runs.append((out / artifact).read_bytes())
        pairs.append(runs[0] == runs[1])
    identical = all(pairs)
    ok = worst <= 1e-10 and identical
    report(
        9,
        ok,
        f"worst dot-test mismatch {worst:.3e}, byte-identical reruns {identical}",
    )
    assert worst <= 1e-10
    assert identical
