"""One benchmark child process: set up a workload, run timed passes, check them.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; not meant
to be run by hand. Modes:

* ``setup``: import, generate the inputs, prepare, report the ready time, exit.
* ``run``: the same set-up, then passes for about ``--seconds`` (at least one;
  the last may end up to half a pass late), the peak RSS, then with ``--check``
  the oracle check of the outputs (outside the timed region).
* ``run --trace``: as ``run``, with every traced function wrapped (``spans.py``);
  ``run.py`` compares its outputs with an untraced child's.

The result goes to ``<out>/result.json``.
"""

import os

# One BLAS thread, set before numpy loads. With OpenBLAS's default of one thread
# per core on a 2-core shared machine, the n = 100 Gram-factor step measured
# 16-188 ms; at one thread it measured 0.46-0.90 ms. One thread keeps the load
# to this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
import xfwi  # noqa: E402
import xfwi.cli  # noqa: E402


def _blas_threads():
    """Thread count that each loaded OpenBLAS reports, by library file name."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment():
    """Versions, BLAS, cores, CPU model and thread counts of this process."""

    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "xfwi": xfwi.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true", help="run the oracle")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    inputs = workloads.make_inputs(args.workload, args.seed)
    state = workloads.prepare(args.workload, inputs, out / "work")
    result = {"ready": time.monotonic(), "src": str(Path(xfwi.__file__).parent)}
    if args.mode == "run":
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        passes = []
        start = time.perf_counter()
        # Start another pass only if, at the mean pass time so far, it would end
        # less than half a pass after --seconds.
        while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) <= args.seconds:
            if tracer is not None:
                tracer.run_id = len(passes)
            t0 = time.perf_counter()
            cmd1, cmd2, codes, digests = workloads.run_pass(state)
            passes.append({"cmd1": cmd1, "cmd2": cmd2, "wall": time.perf_counter() - t0,
                           "codes": codes, "digests": digests})
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["passes"] = passes
        result["environment"] = environment()
        result["ops_per_pass"] = workloads.ops_per_pass(args.workload, inputs)
        if tracer is not None:
            tracer.write(out / "spans.csv")
            result["trace_totals"] = dict(tracer.totals())
        if args.check:
            result["oracle"] = workloads.check(state, passes[-1]["codes"])
        result["pass_wall_median"] = statistics.median(p["wall"] for p in passes)
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
