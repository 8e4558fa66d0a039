"""Experiment command line: verification suites and the toy pipeline.

Commands consume a strict JSON config (unknown keys rejected) and write CSV
data plus a ``manifest.json`` per run. Plots are left to external tools;
everything emitted here is plain data at full precision so reruns with the
same config and seed are byte-identical.

Exit codes: 0 success, 1 check failure, 2 usage or config error.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import XfwiError
from .formulations import (
    IDENTITY_MAX_N,
    fd_gradient,
    grad_phi,
    helmholtz_problem,
    verify_equivalence,
    verify_matrix_identity,
)
from .linops import CovarianceSpec, SamplingOperator
from .toy import (
    ToyConfig,
    acquisition,
    estimate_extended_source,
    half_max_basin_width,
    make_wavelet,
    scan_objective,
)
from .wavemodel import HelmholtzModel1D, assemble_A, kernel_k


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "toy": {
        "c_true": 2.0,
        "receiver_distances": [0.8, 1.0, 1.2],
        "nt": 512,
        "dt": 0.004,
        "wavelet": "ricker",
        "f0": 10.0,
        "t0": 0.15,
        "sigma_m": 1.0,
        "sigma_p": 1.0,
        "scan": [1.5, 2.5, 101],
        "floor": 1e-6,
    },
    "equiv": {
        "instances": 20,
        "n": 20,
        "h": 0.05,
        "omega": 30.0,
        "boundary": "sommerfeld",
        "receivers": [3, 9, 15],
        "sigma_m": 1.0,
        "sigma_p": 1.0,
        "sigma_m_kind": "dense",
        "sigma_p_kind": "dense",
        "m_min": 0.2,
        "m_max": 0.4,
        "data": "random",
    },
    "grad": {
        "n": 20,
        "omega": 6.0,
        "boundary": "sommerfeld",
        "sigma_m_rel": 0.1,
        "data": "perturbed",
        "fd_step": 1e-3,
    },
}


def load_config(path):
    """Merge a JSON config over the defaults, rejecting unknown keys."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG)), _digest_bytes(
            _canonical_bytes(DEFAULT_CONFIG)
        )
    try:
        raw = Path(path).read_bytes()
        user = json.loads(raw)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot load config: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for section, values in user.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key, val in values.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            merged[section][key] = val
    _validate_weights(merged)
    _check_equiv(merged["equiv"])
    _check_grad(merged["grad"])
    return merged, _digest_bytes(raw)


def _canonical_bytes(cfg):
    return json.dumps(cfg, sort_keys=True).encode()


def _digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _validate_weights(cfg):
    for section in ("toy", "equiv"):
        sec = cfg[section]
        if sec["sigma_m"] == 0 and sec["sigma_p"] == 0:
            raise ConfigError("degenerate weights: sigma_m and sigma_p are both zero")


def _check_choice(section, sec, key, allowed):
    if sec[key] not in allowed:
        raise ConfigError(f"{section}.{key} must be one of {allowed}, got {sec[key]!r}")


def _check_positive(section, values):
    for key, value in values.items():
        if not (value > 0 and np.isfinite(value)):
            raise ConfigError(f"{section}.{key} must be positive and finite, got {value}")


def _check_equiv(sec):
    """Reject an equiv section the suite cannot run, before any output."""
    try:
        n = int(sec["n"])
        HelmholtzModel1D(
            n=n, h=float(sec["h"]), omega=float(sec["omega"]), boundary=sec["boundary"]
        )
        SamplingOperator([int(i) for i in sec["receivers"]], n)
        instances = int(sec["instances"])
        m_min, m_max = float(sec["m_min"]), float(sec["m_max"])
        positive = {key: float(sec[key]) for key in ("sigma_m", "sigma_p")}
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"equiv: {exc}") from exc
    if n > IDENTITY_MAX_N:
        raise ConfigError(
            f"equiv.n must be at most {IDENTITY_MAX_N} for the dense identity check, "
            f"got {n}"
        )
    if instances < 1:
        raise ConfigError(f"equiv.instances must be at least 1, got {instances}")
    _check_positive("equiv", positive)
    if not 0 < m_min <= m_max:
        raise ConfigError(f"equiv: need 0 < m_min <= m_max, got {m_min}, {m_max}")
    for key in ("sigma_m_kind", "sigma_p_kind"):
        _check_choice("equiv", sec, key, COVARIANCE_KINDS)
    _check_choice("equiv", sec, "data", ("random", "consistent"))


def _check_grad(sec):
    """Reject a grad section the check cannot run, before any output."""
    try:
        n = int(sec["n"])
        HelmholtzModel1D(
            n=n, h=1.0 / n, omega=float(sec["omega"]), boundary=sec["boundary"]
        )
        positive = {key: float(sec[key]) for key in ("sigma_m_rel", "fd_step")}
    except (TypeError, ValueError, ArithmeticError) as exc:  # n = 0 or int(inf)
        raise ConfigError(f"grad: {exc}") from exc
    _check_positive("grad", positive)
    _check_choice("grad", sec, "data", ("perturbed", "consistent"))


@dataclass
class RunManifest:
    """Provenance record written once per run as ``manifest.json``."""

    command: str
    config_path: str | None
    output_dir: str
    timestamp: str
    tool_version: str
    config_digest: str
    seed: int
    status: str = "running"


def _start_manifest(command, args, digest):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=command,
        config_path=args.config,
        output_dir=str(out),
        timestamp=datetime.now(timezone.utc).isoformat(),
        tool_version=__version__,
        config_digest=digest,
        seed=args.seed,
    )
    _write_manifest(out, manifest)
    return out, manifest


def _write_manifest(out, manifest):
    (out / "manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    )


# One printf spec per column dtype kind; anything else is written with str().
_CSV_SPECS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(path, header, columns):
    """Write equal-length columns under a header line.

    '.' decimals, '\n' line endings, integers and booleans as integers,
    floats at 17 significant digits; the body is formatted in one call.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError("CSV columns differ in length")
    row = ",".join(_CSV_SPECS.get(col.dtype.kind, "%s") for col in columns) + "\n"
    cells = tuple(chain.from_iterable(zip(*(col.tolist() for col in columns))))
    Path(path).write_text(",".join(header) + "\n" + (row * n) % cells)


# ---------------------------------------------------------------------------
# instance builders (shared with the test suite)


COVARIANCE_KINDS = ("scaled", "diagonal", "dense")


def random_covariance(kind, dim, scale, rng):
    """Random SPD weight of the requested kind at the requested scale."""
    if kind == "scaled":
        return CovarianceSpec.scaled_identity(scale**2, dim)
    if kind == "diagonal":
        return CovarianceSpec.diagonal(scale**2 * (0.5 + rng.random(dim)))
    if kind == "dense":
        B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return CovarianceSpec.dense(scale**2 * (B @ B.conj().T / dim + np.eye(dim)))
    raise ConfigError(f"unknown covariance kind {kind!r}")


def make_equiv_instances(settings, seed):
    """Yield (instance_id, problem, medium) tuples for the equivalence suite."""
    rng = np.random.default_rng(seed)
    n = int(settings["n"])
    model = HelmholtzModel1D(
        n=n,
        h=float(settings["h"]),
        omega=float(settings["omega"]),
        boundary=settings["boundary"],
    )
    receivers = [int(i) for i in settings["receivers"]]
    for instance_id in range(int(settings["instances"])):
        m = rng.uniform(settings["m_min"], settings["m_max"], size=n)
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if settings["data"] == "consistent":
            d = assemble_A(model, m).solve(q)[receivers]
        else:
            d = rng.standard_normal(len(receivers)) + 1j * rng.standard_normal(
                len(receivers)
            )
        sigma_m = random_covariance(
            settings["sigma_m_kind"], len(receivers), float(settings["sigma_m"]), rng
        )
        sigma_p = random_covariance(
            settings["sigma_p_kind"], n, float(settings["sigma_p"]), rng
        )
        yield instance_id, helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p), m


def gradient_problem(settings, seed, n=None):
    """A smooth, well-scaled instance for gradient verification.

    Data are synthesized from a smooth true medium and the objective is
    evaluated at a smoothly perturbed one, so every component of the
    gradient is driven well above the finite-difference noise floor. With
    ``data = "consistent"`` the evaluation point is the true medium and the
    gradient vanishes.
    """
    rng = np.random.default_rng(seed)
    n = int(settings["n"]) if n is None else int(n)
    model = HelmholtzModel1D(
        n=n, h=1.0 / n, omega=float(settings["omega"]), boundary=settings["boundary"]
    )
    receivers = [n // 6, n // 2, (5 * n) // 6]
    x = np.linspace(0.0, 1.0, n)
    bump = np.exp(-((x - 0.5) ** 2) / 0.1)
    m_true = 0.25 * (1.0 + 0.2 * np.sin(2 * np.pi * x) * bump)
    q = np.exp(-((x - 0.35) ** 2) / (2 * 0.05**2)) * (
        1.0 + 0.1 * rng.standard_normal(n)
    ) + 0j
    d = assemble_A(model, m_true).solve(q)[receivers]
    sigma_m = CovarianceSpec.scaled_identity(
        (float(settings["sigma_m_rel"]) * np.linalg.norm(d)) ** 2, len(receivers)
    )
    sigma_p = CovarianceSpec.scaled_identity(1.0, n)
    prob = helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p)
    if settings["data"] == "consistent":
        return prob, m_true
    m_eval = m_true * (1.0 + 0.04 * np.cos(3 * np.pi * x))
    return prob, m_eval


# ---------------------------------------------------------------------------
# commands


def cmd_equiv_check(args, cfg, out, manifest):
    rows = []
    worst = 0.0
    for instance_id, prob, m in make_equiv_instances(cfg["equiv"], args.seed):
        rep = verify_equivalence(prob, m)
        ident = verify_matrix_identity(prob, m)
        worst = max(worst, rep.rel_gap)
        rows.append((instance_id, rep.phi_joint, rep.phi_reduced, rep.rel_gap, ident))
    write_csv(
        out / "equivalence.csv",
        ["instance_id", "phi_joint", "phi_reduced", "rel_gap", "identity_max_err"],
        zip(*rows),
    )
    ok = worst <= 1e-9
    manifest.status = "ok" if ok else "failed"
    print(f"equiv-check: {len(rows)} instances, worst rel gap {worst:.3e}")
    return 0 if ok else 1


def cmd_grad_check(args, cfg, out, manifest):
    prob, m = gradient_problem(cfg["grad"], args.seed)
    analytic = grad_phi(prob, m)
    fd = fd_gradient(prob, m, rel_step=float(cfg["grad"]["fd_step"]))
    paper = grad_phi(prob, m, variant="paper")
    floor = 1e-9 * (1.0 + np.max(np.abs(fd)))
    rel = np.abs(analytic - fd) / (np.abs(fd) + floor)
    rel_paper = np.abs(paper - fd) / (np.abs(fd) + floor)
    write_csv(
        out / "gradient.csv",
        [
            "component_k",
            "analytic",
            "fd_central",
            "rel_err",
            "paper_variant",
            "paper_variant_rel_err",
        ],
        [np.arange(len(analytic)), analytic, fd, rel, paper, rel_paper],
    )
    ok = bool(np.all(rel <= 1e-4))
    manifest.status = "ok" if ok else "failed"
    print(
        f"grad-check: n={len(analytic)}, max rel err {rel.max():.3e}, "
        f"paper-variant max rel err {rel_paper.max():.3e}"
    )
    return 0 if ok else 1


def _toy_config(cfg):
    """The toy section as a ToyConfig; a value it rejects is a config error."""
    t = cfg["toy"]
    try:
        return ToyConfig(
            c_true=float(t["c_true"]),
            receiver_distances=tuple(t["receiver_distances"]),
            nt=int(t["nt"]),
            dt=float(t["dt"]),
            wavelet=t["wavelet"],
            f0=float(t["f0"]),
            t0=float(t["t0"]),
            sigma_m=float(t["sigma_m"]),
            sigma_p=float(t["sigma_p"]),
            scan=tuple(t["scan"]),
            floor=float(t["floor"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"toy: {exc}") from exc


def cmd_kernel(args, cfg, out, manifest):
    toy_cfg = _toy_config(cfg)
    acq = acquisition(toy_cfg)
    panels = kernel_k(toy_cfg.c_true, acq)
    nrec = acq.n_receivers
    for i in range(nrec):
        for j in range(nrec):
            write_csv(
                out / f"kernel_{i + 1}{j + 1}.csv",
                ["lag", "value"],
                [panels.lags, panels.traces[i, j]],
            )
    dists = acq.distances()
    expected = (dists[:, None] - dists[None, :]) / toy_cfg.c_true
    measured = panels.lags[np.argmax(np.abs(panels.traces), axis=2)]
    delta = np.abs(measured - expected)
    ok = bool(np.all(delta <= toy_cfg.dt))
    pair = np.arange(1, nrec + 1)
    write_csv(
        out / "kernel_peaks.csv",
        ["i", "j", "expected_lag", "measured_lag", "abs_delta"],
        [np.repeat(pair, nrec), np.tile(pair, nrec), expected.ravel(),
         measured.ravel(), delta.ravel()],
    )
    manifest.status = "ok" if ok else "failed"
    print(f"kernel: {delta.size} panels written")
    return 0 if ok else 1


def cmd_scan(args, cfg, out, manifest):
    toy_cfg = _toy_config(cfg)
    conv = scan_objective(toy_cfg, "conventional")
    ext = scan_objective(toy_cfg, "extended")
    status = [
        "ok" if sc == se == "ok" else f"{sc}/{se}"
        for sc, se in zip(conv.status, ext.status)
    ]
    write_csv(
        out / "scan.csv",
        [
            "c",
            "phi_conventional_norm",
            "phi_extended_norm",
            "phi_conventional_raw",
            "phi_extended_raw",
            "status",
        ],
        [conv.c_values, conv.phi_norm, ext.phi_norm, conv.phi_raw, ext.phi_raw, status],
    )
    summary = {
        "argmin": {"conventional": conv.argmin_c, "extended": ext.argmin_c},
        "basin_width_half_max": {
            "conventional": half_max_basin_width(conv.c_values, conv.phi_norm),
            "extended": half_max_basin_width(ext.c_values, ext.phi_norm),
        },
        "phi_min_raw": {
            "conventional": float(np.fmin.reduce(conv.phi_raw)),
            "extended": float(np.fmin.reduce(ext.phi_raw)),
        },
        "points_ok": sum(1 for s in status if s == "ok"),
        "points_total": len(status),
    }
    (out / "scan_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    ok = summary["points_ok"] >= 0.95 * summary["points_total"]
    manifest.status = "ok" if ok else "failed"
    print(
        f"scan: argmin conventional {conv.argmin_c}, extended {ext.argmin_c}; "
        f"basins {summary['basin_width_half_max']}"
    )
    return 0 if ok else 1


def cmd_extsrc(args, cfg, out, manifest):
    toy_cfg = _toy_config(cfg)
    times = np.arange(toy_cfg.nt) * toy_cfg.dt
    q = make_wavelet(toy_cfg)
    velocities = args.c if args.c else [1.8, 2.2]
    for c in velocities:
        res = estimate_extended_source(toy_cfg, c, regime=args.regime)
        write_csv(
            out / f"extsrc_c{c:g}.csv",
            ["t", "q", "f", "q_plus_f"],
            [times, q, res.extension, res.q_plus_f],
        )
        n_rec = res.observed.n_receivers
        write_csv(
            out / f"extdata_c{c:g}.csv",
            ["t", "receiver_id", "observed", "clean_model", "fitted"],
            [
                np.tile(times, n_rec),
                np.repeat(np.arange(1, n_rec + 1), toy_cfg.nt),
                res.observed.values.ravel(),
                res.clean.values.ravel(),
                res.fitted.values.ravel(),
            ],
        )
        print(
            f"extsrc c={c:g} ({args.regime}): fit rel {res.fit_rel:.3e}, "
            f"|f|/|q| {res.extension_ratio:.3e}"
        )
    manifest.status = "ok"
    return 0


def _velocity(text):
    c = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < c < np.inf:
        raise argparse.ArgumentTypeError(
            f"velocity must be positive and finite, got {text!r}"
        )
    return c


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xfwi",
        description="Extended/weighted waveform-inversion experiments and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "equiv-check": (cmd_equiv_check, "verify joint/reduced equivalence"),
        "grad-check": (cmd_grad_check, "verify the gradient against differences"),
        "kernel": (cmd_kernel, "write receiver-pair kernel panels"),
        "scan": (cmd_scan, "scan the objective over velocity"),
        "extsrc": (cmd_extsrc, "estimate extended sources at trial velocities"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default="xfwi_out", help="output directory")
        p.add_argument("--seed", type=int, default=42)
        if name == "extsrc":
            p.add_argument(
                "--regime",
                choices=["conventional", "extended", "general"],
                default="extended",
            )
            p.add_argument(
                "--c",
                type=_velocity,
                action="append",
                help="trial velocity in km/s (repeatable; default 1.8 and 2.2)",
            )
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    run = None
    try:
        cfg, digest = load_config(args.config)
        run = _start_manifest(args.command, args, digest)
        return args.func(args, cfg, *run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except XfwiError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # A command sets its final status; one that raised is recorded as such.
        if run is not None:
            out, manifest = run
            if manifest.status == "running":
                manifest.status = "error"
            _write_manifest(out, manifest)


if __name__ == "__main__":
    sys.exit(main())
