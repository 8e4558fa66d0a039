"""Mutation check: does the test suite notice each of a fixed list of one-line breaks?

Each mutant names a file under ``src/xfwi``, one exact line of it (compared
without its indentation) and the line that replaces it. For each mutant the
repository is copied to a temporary directory (without ``.git``, caches,
outputs and ``BENCH_*.json``), the line is replaced there, and the suite runs
on the copy:

    OPENBLAS_NUM_THREADS=1 python -m pytest -v -p no:cacheprovider tests

(verbose, so that each failure is named as it happens, also when a failing
hypothesis test ends the run in an internal error). A mutant is killed when
a test other than criterion 6 fails; criterion 6 fails by design (see the
README, "Known limitation"). An unmutated copy runs first and must fail
nothing else. The script prints, per mutant, killed or
survived and the tests that killed it, then the counts.

Usage, from the repository root (every mutant, two at a time; about 20 s a
mutant on one core):

    python tools/mutants.py

Exit status 0 when every mutant run is killed, 1 when one survives, 2 on a
mutant whose line is not found exactly once or an unmutated copy that fails.
Standard library only; not part of the test suite.

Mutants that no longer apply, because their code is gone: the minimum of 2
steps of ``toy._cg_steps`` and the ``nt/8`` and ``(nt/64)^1.5`` path rules
(every fit now takes one step cap and stop, and its path follows the
condition bound alone); the corrected step of ``toy._cholesky_solve``, whose
successor is the ``no-corrected-step`` mutant below. Left out as equivalent:
a changed ``lam`` in the diagonal head of the block preconditioner. Fits
take that preconditioner only from ``kappa = 1e3``, where ``lam`` is about
1e-3 of that diagonal (``sum_i r_i^-2``) or less, so ``M`` moves by about
0.1% at most and only the step count can follow. Known survivor: ``sommerfeld-sign``, which no test of the
boundary's physics yet kills.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BY_DESIGN = "tests/test_acceptance.py::test_criterion_6_extended_source_fit"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", ".bench_out", "xfwi_out", "BENCH_*.json")
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/xfwi
    old: str  # the line as it stands, without indentation
    new: str  # its replacement, without indentation


MUTANTS = (
    # guards of the linear algebra
    Mutant("cond-limit-1e300", "linops.py", "_COND_LIMIT = 1e14", "_COND_LIMIT = 1e300"),
    Mutant("check-condition-never-raises", "linops.py",
           "if not cond < _COND_LIMIT:", "if False:"),
    # Helmholtz side
    Mutant("gram-floor-slope-0", "formulations.py",
           "slope = 2.0 * k * (n + k + 8) * _UNIT_ROUNDOFF + underflow * n / "
           "float(sigma_p._diag.min())", "slope = 0.0"),
    Mutant("fd-step-1e-4", "formulations.py",
           "_FD_STEP = 1e-3  # relative step of fd_gradient, scaled per component",
           "_FD_STEP = 1e-4"),
    Mutant("no-joint-refinement", "formulations.py",
           "x += lu.solve(b - M @ x)  # without it phi loses 4 digits at n = 1e5", "pass"),
    Mutant("report-imaginary-part-1e10", "formulations.py",
           "if abs(z.imag) > 1e-10 * abs(z.real) + 1e-300:",
           "if abs(z.imag) > 1e10 * abs(z.real) + 1e-300:"),
    Mutant("rel-gap-1e3", "formulations.py",
           "rel_gap=abs(pj - pr) / (1.0 + pj),", "rel_gap=abs(pj - pr) / (1e3 + pj),"),
    Mutant("medium-values-accept-zero", "wavemodel.py",
           "if v.ndim not in (1, 2) or (v.size and not (v.min() > 0 and v.max() < np.inf)):",
           "if v.ndim not in (1, 2) or (v.size and not (v.min() >= 0 and v.max() < np.inf)):"),
    Mutant("sommerfeld-sign", "wavemodel.py",
           "impedance = 1j * omega * np.sqrt(model.boundary_m0) / h",
           "impedance = -1j * omega * np.sqrt(model.boundary_m0) / h"),
    # command-line gates and config checks
    Mutant("equiv-check-gate-1e-6", "cli.py", "ok = worst <= 1e-9", "ok = worst <= 1e-6"),
    Mutant("grad-check-gate-1e-2", "cli.py",
           "ok = bool(np.all(rel <= 1e-4))", "ok = bool(np.all(rel <= 1e-2))"),
    Mutant("parser-built-per-call", "cli.py", "@cache", "pass"),
    Mutant("equiv-sigma-unchecked", "cli.py", "if not 0 < value < np.inf:", "if False:"),
    Mutant("spike-outside-record-accepted", "toy.py",
           'if self.wavelet == "spike" and not 0 <= round(self.t0 / self.dt) < self.nt:',
           "if False:"),
    # the toy weight solve
    Mutant("lam-unguarded", "toy.py",
           "if not np.isfinite(bound):  # lam is 0, inf or NaN, or so small that kappa overflows",
           "if False:"),
    Mutant("steepest-descent", "toy.py", "p = z + (rz / rz_old) * p", "p = z.copy()"),
    Mutant("stop-1e-6", "toy.py", "rtol = 50 * _UNIT_ROUNDOFF", "rtol = 1e-6"),
    Mutant("no-true-residual-check", "toy.py", "if not size <= limit:", "if False:"),
    Mutant("true-residual-checked-with-block-only", "toy.py", "if not size <= limit:",
           "if precondition is not None and not size <= limit:"),
    Mutant("no-corrected-step", "toy.py",
           "f_hat += precondition(normal_residual)  # the corrected step", "pass"),
    Mutant("block-never", "toy.py", "_PRECONDITION_BOUND = 1e3",
           "_PRECONDITION_BOUND = float('inf')"),
    Mutant("block-always", "toy.py", "_PRECONDITION_BOUND = 1e3", "_PRECONDITION_BOUND = 0.0"),
    Mutant("block-from-1e4", "toy.py", "_PRECONDITION_BOUND = 1e3", "_PRECONDITION_BOUND = 1e4"),
    Mutant("breakdown-not-caught", "toy.py", "except NotPositiveDefiniteError as exc:",
           "except ZeroDivisionError as exc:"),
    Mutant("preconditioner-head-ones", "toy.py", "head = diagonal[:s] + lam", "head = np.ones(s)"),
    Mutant("block-diagonal-without-lam", "toy.py",
           "block[np.diag_indices_from(block)] += lam", "pass"),
)


def mutate(text, old, new):
    """``text`` with the one line equal to ``old`` (indentation aside) replaced by ``new``."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} lines read {old!r}")
    line = lines[hits[0]]
    indent = line[: len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + new + "\n"
    return "".join(lines)


def run_suite(mutant=None):
    """Failing tests of the suite on a copy, ``mutant`` applied; ``["timeout"]`` on a hang."""
    with tempfile.TemporaryDirectory(prefix="xfwi-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if mutant is not None:
            target = copy / "src" / "xfwi" / mutant.path
            target.write_text(mutate(target.read_text(), mutant.old, mutant.new))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(copy / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "tests"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return ["timeout"]
    failed = re.findall(r"^(\S+::\S+) (?:FAILED|ERROR)", proc.stdout, flags=re.MULTILINE)
    if proc.returncode not in (0, 1) and not failed:  # the suite did not run at all
        failed = [f"pytest exit {proc.returncode}"]
    return [test for test in failed if test != BY_DESIGN]


def main():
    for m in MUTANTS:  # a stale line is an error in this list, not a survivor
        try:
            mutate((ROOT / "src" / "xfwi" / m.path).read_text(), m.old, m.new)
        except ValueError as exc:
            print(f"{m.name}: {m.path}: {exc}", file=sys.stderr)
            return 2
    baseline = run_suite()
    if baseline:
        print(f"the unmutated suite fails: {baseline}", file=sys.stderr)
        return 2
    survived = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for m, killers in zip(MUTANTS, pool.map(run_suite, MUTANTS)):
            survived += not killers
            verdict = f"killed by {len(killers)}: {', '.join(killers[:3])}" if killers else "SURVIVED"
            if len(killers) > 3:
                verdict += ", ..."
            print(f"{m.name:<40} {verdict}", flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived of {len(MUTANTS)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
