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
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import XfwiError
from .formulations import fd_gradient, grad_phi, helmholtz_problem, verify_equivalence
from .linops import CovarianceSpec, SamplingOperator, _integer
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


COVARIANCE_KINDS = ("scaled", "diagonal", "dense")
# A dense sigma_p is the one n x n array the suite builds: 160 GB at n = 1e5.
DENSE_SIGMA_P_MAX_N = 200


@dataclass(frozen=True)
class EquivConfig:
    """The equiv section: random dense-Helmholtz instances for ``equiv-check``.

    The field defaults are the config defaults. Each value is coerced and
    checked here, so :func:`load_config` and :func:`make_equiv_instances`
    refuse the same sections.
    """

    instances: int = 20
    n: int = 20
    h: float = 0.05
    omega: float = 30.0
    boundary: str = "sommerfeld"
    receivers: tuple = (3, 9, 15)
    sigma_m: float = 1.0
    sigma_p: float = 1.0
    sigma_m_kind: str = "dense"
    sigma_p_kind: str = "dense"
    m_min: float = 0.2
    m_max: float = 0.4
    data: str = "random"

    def __post_init__(self):
        # coerced here, so a JSON config section can be passed as it is
        object.__setattr__(self, "n", _integer(self.n, "n"))
        for key in ("h", "omega", "m_min", "m_max", "sigma_m", "sigma_p"):
            object.__setattr__(self, key, float(getattr(self, key)))
        self.model()  # checks n, h, omega and boundary
        receivers = SamplingOperator(self.receivers, self.n).receiver_indices
        object.__setattr__(self, "receivers", tuple(receivers.tolist()))
        object.__setattr__(self, "instances", _integer(self.instances, "instances"))
        if self.sigma_p_kind == "dense" and self.n > DENSE_SIGMA_P_MAX_N:
            raise ConfigError(
                f"equiv.sigma_p_kind 'dense' holds an n x n array; it needs "
                f"equiv.n <= {DENSE_SIGMA_P_MAX_N}, got {self.n}"
            )
        if self.instances < 1:
            raise ConfigError(f"equiv.instances must be at least 1, got {self.instances}")
        for key in ("sigma_m", "sigma_p"):
            value = getattr(self, key)
            if not 0 < value < np.inf:
                raise ConfigError(f"equiv.{key} must be positive and finite, got {value}")
        if not 0 < self.m_min <= self.m_max < np.inf:
            raise ConfigError(
                f"equiv: need 0 < m_min <= m_max < inf, got {self.m_min}, {self.m_max}"
            )
        choices = {"sigma_m_kind": COVARIANCE_KINDS, "sigma_p_kind": COVARIANCE_KINDS,
                   "data": ("random", "consistent")}
        for key, allowed in choices.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"equiv.{key} must be one of {allowed}, got {value!r}")

    def model(self):
        return HelmholtzModel1D(n=self.n, h=self.h, omega=self.omega, boundary=self.boundary)


@dataclass(frozen=True)
class GradConfig:
    """The grad section, at ``h = 1 / n``; defaults and checks as for :class:`EquivConfig`."""

    n: int = 20
    omega: float = 6.0
    boundary: str = "sommerfeld"
    sigma_m_rel: float = 0.1
    data: str = "perturbed"

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "omega", float(self.omega))
        self.model()  # checks n, omega and boundary
        object.__setattr__(self, "sigma_m_rel", float(self.sigma_m_rel))
        if not 0 < self.sigma_m_rel < np.inf:
            raise ConfigError(
                f"grad.sigma_m_rel must be positive and finite, got {self.sigma_m_rel}"
            )
        if self.data not in ("perturbed", "consistent"):
            raise ConfigError(
                f"grad.data must be one of ('perturbed', 'consistent'), got {self.data!r}"
            )

    def model(self):
        return HelmholtzModel1D(n=self.n, h=1.0 / self.n, omega=self.omega, boundary=self.boundary)


_SECTIONS = {"toy": ToyConfig, "equiv": EquivConfig, "grad": GradConfig}
DEFAULT_CONFIG = {name: asdict(section()) for name, section in _SECTIONS.items()}


def load_config(path):
    """Merge a JSON config over the defaults and check every section.

    An unknown key, or a value some command could not run, is a ConfigError
    here, before any output.
    """
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
    for section in _SECTIONS:
        _config_section(merged, section)
    return merged, _digest_bytes(raw)


def _canonical_bytes(cfg):
    return json.dumps(cfg, sort_keys=True).encode()


def _digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _config_section(cfg, name):
    """Section ``name`` of ``cfg`` as its checked type; a value it rejects is a ConfigError."""
    try:
        return _SECTIONS[name](**cfg[name])
    except ConfigError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:  # float(10**400), 1 / n at n = 0
        raise ConfigError(f"{name}: {exc}") from exc


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
    """Yield (instance_id, problem, medium) tuples for the equivalence suite.

    ``settings`` is an equiv section, checked as an :class:`EquivConfig`
    before the first instance is built.
    """
    cfg = EquivConfig(**settings)
    rng = np.random.default_rng(seed)
    model = cfg.model()
    receivers = list(cfg.receivers)
    for instance_id in range(cfg.instances):
        m = rng.uniform(cfg.m_min, cfg.m_max, size=cfg.n)
        q = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        if cfg.data == "consistent":
            d = assemble_A(model, m).solve(q)[receivers]
        else:
            d = rng.standard_normal(len(receivers)) + 1j * rng.standard_normal(
                len(receivers)
            )
        sigma_m = random_covariance(cfg.sigma_m_kind, len(receivers), cfg.sigma_m, rng)
        sigma_p = random_covariance(cfg.sigma_p_kind, cfg.n, cfg.sigma_p, rng)
        yield instance_id, helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p), m


def gradient_problem(settings, seed, n=None):
    """A smooth, well-scaled instance for gradient verification.

    ``settings`` is a grad section, checked as a :class:`GradConfig`, with
    ``n`` in place of its own when given. Data are synthesized from a smooth
    true medium and the objective is evaluated at a smoothly perturbed one,
    so every component of the gradient is driven well above the
    finite-difference noise floor. With ``data = "consistent"`` the
    evaluation point is the true medium and the gradient vanishes.
    """
    cfg = GradConfig(**(settings if n is None else {**settings, "n": n}))
    rng = np.random.default_rng(seed)
    n = cfg.n
    model = cfg.model()
    receivers = [n // 6, n // 2, (5 * n) // 6]
    x = np.linspace(0.0, 1.0, n)
    bump = np.exp(-((x - 0.5) ** 2) / 0.1)
    m_true = 0.25 * (1.0 + 0.2 * np.sin(2 * np.pi * x) * bump)
    q = np.exp(-((x - 0.35) ** 2) / (2 * 0.05**2)) * (
        1.0 + 0.1 * rng.standard_normal(n)
    ) + 0j
    d = assemble_A(model, m_true).solve(q)[receivers]
    sigma_m = CovarianceSpec.scaled_identity(
        (cfg.sigma_m_rel * np.linalg.norm(d)) ** 2, len(receivers)
    )
    sigma_p = CovarianceSpec.scaled_identity(1.0, n)
    prob = helmholtz_problem(model, receivers, q, d, sigma_m, sigma_p)
    if cfg.data == "consistent":
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
        worst = max(worst, rep.rel_gap)
        rows.append((instance_id, rep.phi_joint, rep.phi_reduced, rep.rel_gap,
                     rep.identity_max_err))
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
    fd = fd_gradient(prob, m)
    floor = 1e-9 * (1.0 + np.max(np.abs(fd)))
    rel = np.abs(analytic - fd) / (np.abs(fd) + floor)
    write_csv(
        out / "gradient.csv",
        ["component_k", "analytic", "fd_central", "rel_err"],
        [np.arange(len(analytic)), analytic, fd, rel],
    )
    ok = bool(np.all(rel <= 1e-4))
    manifest.status = "ok" if ok else "failed"
    print(f"grad-check: n={len(analytic)}, max rel err {rel.max():.3e}")
    return 0 if ok else 1


def cmd_kernel(args, cfg, out, manifest):
    toy_cfg = _config_section(cfg, "toy")
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
    toy_cfg = _config_section(cfg, "toy")
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
    toy_cfg = _config_section(cfg, "toy")
    times = np.arange(toy_cfg.nt) * toy_cfg.dt
    q = make_wavelet(toy_cfg)
    velocities = args.c if args.c else [1.8, 2.2]
    for c in velocities:
        res = estimate_extended_source(toy_cfg, c, regime=args.regime)
        tag = _velocity_tag(c)
        write_csv(
            out / f"extsrc_c{tag}.csv",
            ["t", "q", "f", "q_plus_f"],
            [times, q, res.extension, res.q_plus_f],
        )
        n_rec = res.observed.n_receivers
        write_csv(
            out / f"extdata_c{tag}.csv",
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
            f"extsrc c={tag} ({args.regime}): fit rel {res.fit_rel:.3e}, "
            f"|f|/|q| {res.extension_ratio:.3e}"
        )
    manifest.status = "ok"
    return 0


def _velocity_tag(c):
    """Velocity ``c`` as it appears in the extsrc file names and output."""
    return f"{c:g}"


class _AppendVelocity(argparse.Action):
    """Append a ``--c`` velocity; one whose file tag repeats another's is a usage error.

    The error is raised while the ``extsrc`` subparser parses, so its usage
    line is the one printed.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        velocities = [*(getattr(namespace, self.dest) or ()), values]
        tags = [_velocity_tag(c) for c in velocities]
        if len(set(tags)) < len(tags):  # one velocity's files would overwrite another's
            raise argparse.ArgumentError(
                self, f"velocities {velocities} repeat a file tag: {tags}"
            )
        setattr(namespace, self.dest, velocities)


def _velocity(text):
    c = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < c < np.inf:
        raise argparse.ArgumentTypeError(
            f"velocity must be positive and finite, got {text!r}"
        )
    return c


# Cached for repeated in-process main calls, which build it once; each
# parse_args fills a fresh namespace.
@cache
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
                action=_AppendVelocity,
                help="trial velocity in km/s (repeatable, each distinct to 6 "
                "significant digits, which name its files; default 1.8 and 2.2)",
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
