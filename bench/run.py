"""Benchmark of the xfwi commands on four seeded, oracle-checked workloads.

Run from the repository root:

    python3 bench/run.py --workload toy-default --seed 1 --seconds 20 --trace 0

Workloads: toy-default, toy-nt1024, helm-inversion, helm-verify (see README.md
here). Each runs single-process in fresh child processes (``child.py``) with
BLAS pinned to one thread and the checkout's ``src`` on the path.

``--trace 0`` runs three measuring children for a third of the time each and
prints the end-to-end metrics: ``setup_s`` (median of five child starts),
``peak_rss_mb``, ``cmd1_s`` and ``cmd2_s`` (median wall time of the workload's
two timed steps). ``--trace 1`` runs one untraced and one traced child for half
the time each and prints the per-layer metrics and the tracing overhead. In
both modes every pass must reproduce the first pass's outputs byte for byte,
traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it are
for people: the environment, each metric under its command's name, and the
oracle's verdict on every op that failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "cmd1_s": "s", "cmd2_s": "s"}
SETUP_PROBES = 2
MEASURE_CHILDREN = 3
CHILD_TIMEOUT_S = 150

# What cmd1 and cmd2 time on each workload, under the names users know them by.
COMMAND_NAMES = {
    "toy-default": (("scan_s", "xfwi scan"), ("extsrc_s", "xfwi extsrc")),
    "toy-nt1024": (("scan_s", "toy.scan_objective conventional + general"),
                   ("extsrc_s", "xfwi extsrc --regime general")),
    "helm-inversion": (("phi_s", "phi_reduced at n = 800"),
                       ("grad_s", "grad_phi at n = 800")),
    "helm-verify": (("equiv_check_s", "xfwi equiv-check at n = 200"),
                    ("grad_check_s", "xfwi grad-check at n = 100")),
}


class BenchError(RuntimeError):
    pass


def _child(args, out, mode, seconds=0.0, trace=False, check=False):
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out)]
    cmd += ["--trace"] * trace + ["--check"] * check
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = out / "child.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        try:
            code = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child timed out after {CHILD_TIMEOUT_S} s") from exc
    if code != 0:
        tail = "".join(log.read_text().splitlines(keepends=True)[-20:])
        raise BenchError(f"{mode} child exited {code}:\n{tail}")
    result = json.loads((out / "result.json").read_text())
    if Path(result["src"]).resolve() != (ROOT / "src" / "xfwi").resolve():
        raise BenchError(f"child imported xfwi from {result['src']}, not this checkout")
    result["setup_s"] = result["ready"] - start
    return result


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_untraced(args, scratch):
    """End-to-end metrics from MEASURE_CHILDREN children sharing --seconds."""
    setups = [_child(args, scratch / f"setup{i}", "setup")["setup_s"]
              for i in range(SETUP_PROBES)]
    children = [
        _child(args, scratch / f"run{i}", "run", args.seconds / MEASURE_CHILDREN,
               check=(i == MEASURE_CHILDREN - 1))
        for i in range(MEASURE_CHILDREN)
    ]
    setups += [child["setup_s"] for child in children]
    cmd1 = [t for child in children for p in child["passes"] for t in p["cmd1"]]
    cmd2 = [t for child in children for p in child["passes"] for t in p["cmd2"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
        "cmd1_s": statistics.median(cmd1),
        "cmd2_s": statistics.median(cmd2),
    }
    (alias1, what1), (alias2, what2) = COMMAND_NAMES[args.workload]
    notes = [
        f"setup_s: median of {len(setups)} child starts (import + input generation)",
        f"peak_rss_mb: median over {len(children)} measuring children",
        f"cmd1_s = {alias1}: median of {len(cmd1)} runs of {what1}",
        f"cmd2_s = {alias2}: median of {len(cmd2)} runs of {what2}",
    ]
    if args.workload == "helm-inversion":
        evals = [a + b for a, b in zip(cmd1, cmd2)]
        notes.append(f"eval_s (phi_reduced + grad_phi): median {statistics.median(evals):.6g} s"
                     f" of {len(evals)}")
    return children, metrics, notes


def run_traced(args, scratch):
    """Per-layer metrics from a traced child, against an untraced one."""
    half = args.seconds / 2.0
    plain = _child(args, scratch / "plain", "run", half, check=True)
    traced = _child(args, scratch / "traced", "run", half, trace=True)
    kept = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
    shutil.move(scratch / "traced" / "spans.csv", kept)
    n = len(traced["passes"])
    totals = traced["trace_totals"]
    metrics = {name: totals.get(name, 0.0) / n for name in spans.per_layer_metric_units()}
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s")) / n
    metrics["trace_overhead_frac"] = traced["pass_wall_median"] / plain["pass_wall_median"] - 1.0
    metrics["trace_self_sum_frac"] = self_sum / plain["pass_wall_median"]
    notes = [
        f"per-layer values are per pass, over {n} traced passes;"
        f" untraced pass {plain['pass_wall_median']:.6g} s,"
        f" traced pass {traced['pass_wall_median']:.6g} s",
        f"spans written to {kept.relative_to(ROOT)}",
    ]
    return [plain, traced], metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xfwi" / "__init__.py").is_file():
        print(f"no xfwi sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            children, metrics, notes = run_traced(args, scratch)
            units = spans.per_layer_metric_units()
        else:
            children, metrics, notes = run_untraced(args, scratch)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Every pass of every child, traced or not, must write the same outputs as
    # the first pass; all ops of a pass that does not, fail. The oracle judges
    # the outputs of the checked child's last pass.
    passes = [p for child in children for p in child["passes"]]
    reference = passes[0]["digests"]
    reproduced = sum(p["digests"] == reference for p in passes)
    checked = next(child for child in children if "oracle" in child)
    records = checked["oracle"]
    per_pass = checked["ops_per_pass"]
    attempted = per_pass * len(passes)
    failed = sum(r["failed"] for r in records) * reproduced + per_pass * (len(passes) - reproduced)
    errors = [r["rel_err"] for r in records if r["rel_err"] is not None and not r["failed"]]

    print(f"xfwi benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in checked["environment"].items()))
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        print(f"  {name:<44} {_fmt(value):>14} {units[name]}")
    print(f"  ops_failed_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted;"
          f" {reproduced} of {len(passes)} passes in {len(children)} processes reproduced the"
          f" first pass's outputs byte for byte)")
    print(f"  max_rel_err {max(errors, default=0.0):.3e} against the oracle, over ops that passed")
    for record in records:
        if record["failed"] or "flagged" in record["note"]:
            verdict = "FAILED" if record["failed"] else "ok"
            print(f"  {verdict}: {record['op']}: rel err {record['rel_err']}; {record['note']}")
    for command, code in sorted(checked["passes"][0]["codes"].items()):
        print(f"  exit code of xfwi {command}: {code}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
