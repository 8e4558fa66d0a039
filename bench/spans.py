"""Spans around the calls into each xfwi module's public functions.

``Tracer.install`` wraps the functions named in ``TARGETS`` and patches each
wrapper into every ``xfwi`` module namespace that holds the original, so
``toy.kernel_matrix`` is traced as well as ``wavemodel.kernel_matrix``. Each call
records a span: name, start, end, parent span, run id (the pass it belongs to)
and whether it raised. Spans stay in memory until ``write`` at the end of the
run. Self time is a span's duration minus the durations of its child spans;
calls nest, so the children never overlap.

A function missing from the program is skipped and reads 0, so the benchmark
keeps working when a later version removes one.
"""

import csv
import functools
import json
import os
import sys
import time
from collections import defaultdict

TARGETS = {
    "linops": ("CovarianceSpec.solve", "CovarianceSpec.apply"),
    "wavemodel": ("kernel_matrix", "dense_forward_matrix", "forward_F", "adjoint_F",
                  "assemble_A", "dA_dm"),
    "solvers": ("mdd_solve", "lsqr", "dense_spd_solve"),
    "formulations": ("phi_reduced", "grad_phi", "phi_joint", "solve_state",
                     "verify_equivalence", "verify_matrix_identity", "fd_gradient"),
    "toy": ("scan_objective", "estimate_extended_source", "synthesize_data"),
    "cli": ("main", "write_csv"),
}
QUANTITIES = (("calls", "count"), ("self_s", "s"), ("failed", "count"))


def _kernel_matrix_flops(args, kwargs, result):
    # K = F F^T with F of shape (n_rec * nt, nt): 2 (n_rec nt)^2 nt, computed.
    acq = args[1] if len(args) > 1 else kwargs["acq"]
    return {"flops": 2.0 * (acq.n_receivers * acq.nt) ** 2 * acq.nt}


def _mdd_solve_counts(args, kwargs, result):
    counts = {"unconverged": int(not result.converged)}
    sigma_p = args[1] if len(args) > 1 else kwargs["sigma_p"]
    if result.iterations == 0 and sigma_p != 0:
        # the Cholesky branch: (n_rec nt)^3 / 3 per factorisation, computed
        counts["flops"] = len(result.solution) ** 3 / 3.0
    return counts


def _lsqr_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _write_csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Extra quantities with their units: exact counts, or work computed from the
# arguments ("flops"). They are read from each call's arguments and result
# outside its span.
EXTRAS = {
    "wavemodel.kernel_matrix": ((("flops", "flop"),), _kernel_matrix_flops),
    "solvers.mdd_solve": ((("unconverged", "count"), ("flops", "flop")), _mdd_solve_counts),
    "solvers.lsqr": ((("iterations", "count"),), _lsqr_iterations),
    "cli.write_csv": ((("bytes", "B"),), _write_csv_bytes),
}


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for module, functions in TARGETS.items():
        for function in functions:
            name = f"{module}.{function}"
            for quantity, unit in QUANTITIES + EXTRAS.get(name, ((),))[0]:
                units[f"{name}.{quantity}"] = unit
    units["trace_overhead_frac"] = "1"
    units["trace_self_sum_frac"] = "1"
    return units


class Tracer:
    """Records spans in memory; ``run_id`` is set by the caller for each pass."""

    def __init__(self):
        # (span_id, name, start, end, parent_id, run_id, failed, extra quantities)
        self.spans = []
        self.run_id = 0
        self._stack = []

    def install(self):
        """Wrap every target present in the loaded xfwi modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "xfwi" or name.startswith("xfwi."))]
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(f"xfwi.{module_name}")
            if module is None:
                continue
            for function in functions:
                owner_name, _, attr = function.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{function}", original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name, (None, None))[1]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[span_id] = (span_id, name, start, clock(), parent, self.run_id, True, {})
                raise
            finally:
                stack.pop()
            end = clock()
            counts = extra(args, kwargs, result) if extra is not None else {}
            spans[span_id] = (span_id, name, start, end, parent, self.run_id, False, counts)
            return result

        return traced

    def write(self, path):
        """Write the spans as CSV, the extra quantities as JSON."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start", "end", "parent_id", "run_id",
                             "failed", "extra"])
            writer.writerows(span[:7] + (json.dumps(span[7]),) for span in self.spans)

    def totals(self):
        """Per-layer metric totals over all recorded spans."""
        spans = self.spans
        totals = defaultdict(float)
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _, failed, counts in spans:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += (end - start) - child_time[span_id]
            totals[f"{name}.failed"] += failed
            for key, value in counts.items():
                totals[f"{name}.{key}"] += value
        return totals
