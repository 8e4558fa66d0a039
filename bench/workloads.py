"""The benchmark's four workloads: seeded inputs, one timed pass, and the oracle.

Each workload turns its seed into plain inputs (``make_inputs``), builds what a
pass needs from them (``prepare``, part of set-up), runs one pass of the xfwi
entry points it measures (``run_pass``, the timed region) and checks the pass's
outputs against an independent oracle (``check``, outside the timed region).

Every workload times two steps per pass, reported as ``cmd1_s`` and ``cmd2_s``:

===============  ==========================================  ===========================
workload         cmd1                                        cmd2
===============  ==========================================  ===========================
toy-default      ``xfwi scan``                               ``xfwi extsrc``
toy-nt1024       ``toy.scan_objective`` conventional+general ``xfwi extsrc --regime general``
helm-inversion   ``formulations.phi_reduced``                ``formulations.grad_phi``
helm-verify      ``xfwi equiv-check``                        ``xfwi grad-check``
===============  ==========================================  ===========================

Oracles call only ``wavemodel.forward_F``, ``formulations.phi_joint`` and the
numpy/scipy code in this file. ``kernel_matrix``, the ``mdd_solve`` branches and
``dA_dm`` are slated for removal, so no oracle may depend on them.
"""

import csv
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import scipy.linalg

WORKLOAD_NAMES = ("toy-default", "toy-nt1024", "helm-inversion", "helm-verify")

# Relative tolerances of the oracle checks, with the reason for each.
# Conventional regime: phi = ||F(c) q - d||^2 / sigma_m^2 involves no solve, so the
# program and the oracle differ only by FFT rounding.
TOL_CONVENTIONAL = 1e-10
# General regime (sigma_m = sigma_p = 1): the data-space system sigma_p^2 K + sigma_m^2 I
# is well conditioned, so a converged solve agrees with the source-space QR to
# many digits; 1e-8 allows for the 1e-10 solver tolerance times the conditioning.
TOL_GENERAL = 1e-8
# Extended regime: sigma_m is floored at 1e-6 * ||d||, which gives the data-space
# system a condition number near 1e11. A backward-stable solve then guarantees
# only about cond * eps = 1e-5 relative accuracy (2.8e-5 measured at c = 1.8);
# 1e-3 leaves margin for that while staying far below a wrong solve.
TOL_EXTENDED = 1e-3
# Equivalence gap |phi_reduced - phi_joint| / (1 + phi_joint), ROADMAP criterion.
TOL_EQUIVALENCE = 1e-9
# Gradient against Richardson central differences, ROADMAP criterion.
TOL_GRADIENT = 1e-4

HELM_INVERSION_N = 800
HELM_INVERSION_MEDIA = 2
EQUIV_N = 200  # the largest size verify_matrix_identity accepts
EQUIV_INSTANCES = 6
GRAD_CHECK_N = 100
GRADIENT_DIRECTIONS = 2


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload, seed):
    """Plain, JSON-serialisable inputs of one workload, a function of the seed only."""
    if workload not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), WORKLOAD_NAMES.index(workload)])
    if workload == "toy-default":
        # Trial velocities on both sides of c_true = 2.0; 4 decimals so the values
        # pass through the command line and file names unchanged.
        return {
            "scan": [_velocity(rng, 1.50, 1.70), _velocity(rng, 2.30, 2.50), 5],
            "extsrc_c": [_velocity(rng, 1.60, 1.90), _velocity(rng, 2.10, 2.40)],
            "cli_seed": int(rng.integers(2**31)),
        }
    if workload == "toy-nt1024":
        # Each LSQR solve here costs about 0.26 s per iteration, and the iteration
        # count depends on the velocity: 11-13 below 1.7, 2 between 2.05 and 2.45.
        # Drawing each velocity inside one of these windows keeps the work of a
        # pass nearly the same for every seed.
        return {
            "scan": [_velocity(rng, 1.50, 1.70), _velocity(rng, 2.10, 2.45), 2],
            "extsrc_c": [_velocity(rng, 2.10, 2.40)],
            "cli_seed": int(rng.integers(2**31)),
        }
    if workload == "helm-inversion":
        # Smooth relative perturbations of the evaluation medium: four sine modes.
        return {
            "problem_seed": int(rng.integers(2**31)),
            "media_modes": rng.uniform(-0.01, 0.01, (HELM_INVERSION_MEDIA, 4)).tolist(),
        }
    return {
        "equiv_seed": int(rng.integers(2**31)),
        "grad_seed": int(rng.integers(2**31)),
    }


def _velocity(rng, low, high):
    return round(float(rng.uniform(low, high)), 4)


def _toy_overrides(workload, inputs):
    toy = {"scan": inputs["scan"]}
    if workload == "toy-nt1024":
        # The README's example config: kernel dimension 3 * 1024, above the
        # dense limit of mdd_solve, so the iterative branch runs.
        toy.update(nt=1024, f0=15.0)
    return toy


def prepare(workload, inputs, workdir):
    """Build what a pass needs from the inputs; counted as set-up."""
    from xfwi import cli, toy

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = {"workload": workload, "inputs": inputs, "dir": workdir}
    if workload.startswith("toy-"):
        overrides = _toy_overrides(workload, inputs)
        state["config"] = _write_config(workdir, {"toy": overrides})
        state["toy_cfg"] = toy.ToyConfig(**{**overrides, "scan": tuple(inputs["scan"])})
    elif workload == "helm-inversion":
        prob, m_eval = cli.gradient_problem(
            cli.DEFAULT_CONFIG["grad"], inputs["problem_seed"], n=HELM_INVERSION_N
        )
        x = np.linspace(0.0, 1.0, HELM_INVERSION_N)
        modes = np.array([np.sin((j + 1) * np.pi * x) for j in range(4)])
        state["problem"] = prob
        state["media"] = [
            m_eval * (1.0 + np.asarray(a) @ modes) for a in inputs["media_modes"]
        ]
    else:
        state["overrides"] = {
            "equiv": {"n": EQUIV_N, "instances": EQUIV_INSTANCES},
            "grad": {"n": GRAD_CHECK_N},
        }
        state["config"] = _write_config(workdir, state["overrides"])
    return state


def _write_config(workdir, overrides):
    path = workdir / "config.json"
    path.write_text(json.dumps(overrides, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# one pass


def run_pass(state):
    """Run one pass; return ``(cmd1_times, cmd2_times, exit_codes, digests)``."""
    from xfwi import cli, formulations, toy

    workload = state["workload"]
    inputs = state["inputs"]
    out = state["dir"]
    clock = time.perf_counter
    codes = {}
    memory = {}
    if workload.startswith("toy-"):
        velocities = [arg for c in inputs["extsrc_c"] for arg in ("--c", f"{c:g}")]
        common = ["--config", state["config"], "--seed", str(inputs["cli_seed"])]
        t0 = clock()
        if workload == "toy-default":
            codes["scan"] = cli.main(["scan", *common, "--out", str(out / "scan")])
        else:
            for regime in ("conventional", "general"):
                res = toy.scan_objective(state["toy_cfg"], regime)
                memory[f"scan_{regime}"] = (res.phi_raw, list(res.status))
        t1 = clock()
        extsrc = ["extsrc", *common, "--out", str(out / "extsrc"), *velocities]
        if workload == "toy-nt1024":
            extsrc += ["--regime", "general"]
        codes["extsrc"] = cli.main(extsrc)
        t2 = clock()
        times = ([t1 - t0], [t2 - t1])
    elif workload == "helm-inversion":
        prob = state["problem"]
        times = ([], [])
        for i, m in enumerate(state["media"]):
            t0 = clock()
            rep = formulations.phi_reduced(prob, m)
            t1 = clock()
            g = formulations.grad_phi(prob, m)
            t2 = clock()
            times[0].append(t1 - t0)
            times[1].append(t2 - t1)
            memory[f"medium_{i}"] = (rep.value, g)
    else:
        common = ["--config", state["config"]]
        t0 = clock()
        codes["equiv-check"] = cli.main(
            ["equiv-check", *common, "--seed", str(inputs["equiv_seed"]),
             "--out", str(out / "equiv")]
        )
        t1 = clock()
        codes["grad-check"] = cli.main(
            ["grad-check", *common, "--seed", str(inputs["grad_seed"]),
             "--out", str(out / "grad")]
        )
        t2 = clock()
        times = ([t1 - t0], [t2 - t1])
    state["memory"] = memory
    return times[0], times[1], codes, _digests(out, memory)


def _digests(out, memory):
    """SHA-256 of every output file but the timestamped manifests, and of in-memory results."""
    digests = {}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file() and path.name not in ("manifest.json", "config.json"):
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    for key, value in sorted(memory.items()):
        h = hashlib.sha256()
        for part in value:
            h.update(repr(part).encode() if isinstance(part, list) else np.asarray(part).tobytes())
        digests[key] = h.hexdigest()
    return digests


def ops_per_pass(workload, inputs):
    """How many ops one pass attempts; the base of ops_failed_frac."""
    if workload.startswith("toy-"):
        return 2 * inputs["scan"][2] + len(inputs["extsrc_c"])
    if workload == "helm-inversion":
        return len(inputs["media_modes"])
    return EQUIV_INSTANCES + GRAD_CHECK_N


# ---------------------------------------------------------------------------
# oracles


def check(state, codes):
    """Check the last pass's outputs against the oracle, one record per op.

    A record is ``{"op", "rel_err", "failed", "note"}``. ``rel_err`` is
    None where the program gave no value to compare (a refused point or a
    missing output); such an op fails.
    """
    workload = state["workload"]
    if workload.startswith("toy-"):
        return _check_toy(state, codes)
    if workload == "helm-inversion":
        return _check_inversion(state)
    return _check_verify(state, codes)


def _op(op, rel_err, tol, note=""):
    failed = rel_err is None or not rel_err <= tol
    return {"op": op, "rel_err": rel_err, "failed": failed, "note": f"{note} (tol {tol:g})"}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ricker(cfg):
    t = np.arange(cfg.nt) * cfg.dt
    arg = (np.pi * cfg.f0 * (t - cfg.t0)) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


class _ToyOracle:
    """Source-space reference for the toy objective, built from forward_F alone."""

    def __init__(self, cfg):
        from xfwi import wavemodel

        self.cfg = cfg
        self.forward_F = wavemodel.forward_F
        receivers = np.zeros((len(cfg.receiver_distances), 3))
        receivers[:, 0] = cfg.receiver_distances
        self.acq = wavemodel.Acquisition(
            source_position=np.zeros(3), receiver_positions=receivers, nt=cfg.nt, dt=cfg.dt
        )
        self.q = _ricker(cfg)
        self.d = self.forward_F(cfg.c_true, self.acq, self.q).values.ravel()
        self.d_norm = float(np.linalg.norm(self.d))
        self._matrices = {}

    def matrix(self, c):
        """F(c) as a dense matrix: forward_F applied to the unit vectors."""
        if c not in self._matrices:
            eye = np.eye(self.cfg.nt)
            self._matrices[c] = np.column_stack(
                [self.forward_F(c, self.acq, e).values.ravel() for e in eye]
            )
        return self._matrices[c]

    def weights(self, regime):
        cfg = self.cfg
        if regime == "extended":
            return cfg.sigma_p, cfg.floor * self.d_norm
        return cfg.sigma_p, cfg.sigma_m

    def phi(self, c, regime):
        """The reduced objective and the residual ``r = F(c) q - d``.

        phi = min_f (||F f - r||^2 + (sigma_m/sigma_p)^2 ||f||^2) / sigma_m^2, solved by
        QR of the stacked matrix [F; (sigma_m/sigma_p) I]; it equals
        r^T (sigma_p^2 F F^T + sigma_m^2 I)^{-1} r without forming F F^T.
        """
        F = self.matrix(c)
        r = F @ self.q - self.d
        if regime == "conventional":
            return float(r @ r) / self.cfg.sigma_m**2, F, r
        sigma_p, sigma_m = self.weights(regime)
        lam = sigma_m / sigma_p
        nt = self.cfg.nt
        stacked = np.vstack([F, lam * np.eye(nt)])
        Q, R = scipy.linalg.qr(stacked, mode="economic")
        f = scipy.linalg.solve_triangular(R, Q.T @ np.concatenate([r, np.zeros(nt)]))
        return self.objective(F, r, -f, regime), F, r

    def objective(self, F, r, f, regime):
        """Extended-source objective ||F (q + f) - d||^2 / sigma_m^2 + ||f||^2 / sigma_p^2."""
        sigma_p, sigma_m = self.weights(regime)
        res = F @ f + r
        return float(res @ res) / sigma_m**2 + float(f @ f) / sigma_p**2


def _rel(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _check_toy(state, codes):
    workload = state["workload"]
    inputs = state["inputs"]
    cfg = state["toy_cfg"]
    oracle = _ToyOracle(cfg)
    ext_regime = "extended" if workload == "toy-default" else "general"
    tols = {"conventional": TOL_CONVENTIONAL, "extended": TOL_EXTENDED, "general": TOL_GENERAL}
    records = []

    c_values = np.linspace(*inputs["scan"][:2], inputs["scan"][2])
    if workload == "toy-default":
        scan_file = state["dir"] / "scan" / "scan.csv"
        rows = _read_csv(scan_file) if codes.get("scan") == 0 and scan_file.exists() else None
        if rows is None or len(rows) != len(c_values):
            rows = [None] * len(c_values)
        results = {}
        for i, regime in enumerate(("conventional", "extended")):
            # status is "ok", or "<conventional>/<extended>" when either point failed
            results[regime] = [
                (None, False) if row is None else (
                    float(row[f"phi_{regime}_raw"]),
                    row["status"] == "ok" or row["status"].split("/")[i] == "ok",
                )
                for row in rows
            ]
    else:
        results = {
            regime: [(float(v), s == "ok") for v, s in zip(*state["memory"][f"scan_{regime}"])]
            for regime in ("conventional", "general")
        }
    for regime, values in results.items():
        for c, (value, ok) in zip(c_values, values):
            expected = oracle.phi(c, regime)[0]
            rel = _rel(value, expected) if ok and value is not None else None
            records.append(_op(f"scan {regime} c={c:.6g}", rel, tols[regime],
                               f"program {value!r}, oracle {expected:.10g}"))

    for c in inputs["extsrc_c"]:
        path = state["dir"] / "extsrc" / f"extsrc_c{c:g}.csv"
        expected, F, r = oracle.phi(c, ext_regime)
        rel = None
        note = f"exit code {codes.get('extsrc')}"
        if codes.get("extsrc") == 0 and path.exists():
            f = np.array([float(row["f"]) for row in _read_csv(path)])
            value = oracle.objective(F, r, f, ext_regime)
            rel = _rel(value, expected)
            note = f"objective at the returned source {value:.10g}, oracle minimum {expected:.10g}"
        records.append(_op(f"extsrc {ext_regime} c={c:g}", rel, tols[ext_regime], note))
    return records


def _richardson(fn, step):
    """Richardson-extrapolated central difference (4 D(h/2) - D(h)) / 3 of fn at 0."""

    def central(h):
        return (fn(h) - fn(-h)) / (2.0 * h)

    return (4.0 * central(step / 2.0) - central(step)) / 3.0


def _gradient_directions(prob, m, g, seed, directions=GRADIENT_DIRECTIONS):
    """Worst relative error of g . v against differences of phi_joint along seeded v."""
    from xfwi import formulations

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(directions):
        # Scaled per component by m, so the step is 1e-3 of each component.
        v = rng.standard_normal(len(m))
        v *= m * np.sqrt(len(m)) / np.linalg.norm(v)
        fd = _richardson(lambda h: formulations.phi_joint(prob, m + h * v).value, 1e-3)
        worst = max(worst, _rel(float(g @ v), fd))
    return worst


def _equivalence_gap(phi_reduced, phi_joint):
    return abs(phi_reduced - phi_joint) / (1.0 + phi_joint)


def _check_inversion(state):
    from xfwi import formulations

    prob = state["problem"]
    records = []
    for i, m in enumerate(state["media"]):
        value, g = state["memory"][f"medium_{i}"]
        pj = formulations.phi_joint(prob, m).value
        gap = _equivalence_gap(value, pj)
        grad_err = _gradient_directions(prob, m, g, [state["inputs"]["problem_seed"], i])
        # One op is one objective-plus-gradient evaluation; either check failing fails it.
        records.append({
            "op": f"evaluation medium {i}",
            "rel_err": max(gap, grad_err),
            "failed": not (gap <= TOL_EQUIVALENCE and grad_err <= TOL_GRADIENT),
            "note": f"equivalence gap {gap:.3e} (tol {TOL_EQUIVALENCE:g}), "
                    f"gradient rel err {grad_err:.3e} (tol {TOL_GRADIENT:g})",
        })
    return records


def _check_verify(state, codes):
    from xfwi import cli, formulations

    inputs = state["inputs"]
    records = []

    equiv_settings = {**cli.DEFAULT_CONFIG["equiv"], **state["overrides"]["equiv"]}
    path = state["dir"] / "equiv" / "equivalence.csv"
    rows = _read_csv(path) if codes.get("equiv-check") == 0 and path.exists() else []
    by_id = {int(row["instance_id"]): float(row["phi_reduced"]) for row in rows}
    for instance_id, prob, m in cli.make_equiv_instances(equiv_settings, inputs["equiv_seed"]):
        pj = formulations.phi_joint(prob, m).value
        pr = by_id.get(instance_id)
        gap = None if pr is None else _equivalence_gap(pr, pj)
        records.append(_op(f"equiv-check instance {instance_id}", gap, TOL_EQUIVALENCE))

    grad_settings = {**cli.DEFAULT_CONFIG["grad"], **state["overrides"]["grad"]}
    prob, m = cli.gradient_problem(grad_settings, inputs["grad_seed"])
    path = state["dir"] / "grad" / "gradient.csv"
    # grad-check exits 1 when its own per-component differences (at its fixed
    # 1e-4 step) disagree with the analytic gradient; the rows it flags are
    # judged here by the oracle instead, and the exit code is reported as is.
    rows = _read_csv(path) if codes.get("grad-check") in (0, 1) and path.exists() else []
    if len(rows) != len(m):
        return records + [_op(f"grad-check row {k}", None, TOL_GRADIENT) for k in range(len(m))]
    g = np.array([float(row["analytic"]) for row in rows])
    direction_err = _gradient_directions(prob, m, g, inputs["grad_seed"])
    for k, row in enumerate(rows):
        rel, note = direction_err, "directional differences"
        if float(row["rel_err"]) > TOL_GRADIENT:
            # A row the command flags: compare it with a per-component Richardson
            # difference of phi_joint at a step of 1e-2 * m_k, where rounding in
            # phi stays far below the component.
            e = np.zeros(len(m))
            e[k] = m[k]
            fd = _richardson(lambda h: formulations.phi_joint(prob, m + h * e).value, 1e-2) / m[k]
            rel = max(rel, _rel(g[k], fd))
            note = (f"flagged by grad-check (rel err {float(row['rel_err']):.3e} against "
                    f"its own differences); oracle component {fd:.10g}")
        records.append(_op(f"grad-check row {k}", rel, TOL_GRADIENT, note))
    return records
