"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: at run time every binding
of a wrapped package function, in every loaded ``bdfadjoint`` module, is
replaced by a wrapper, so no package code changes and a call is caught
whichever module makes it.  ``get_problem`` additionally returns the problem
with counting ``rhs``/``jacobian``.  A span is (name, start, end, parent,
pass id); spans stay in memory and are written out once, at the end.
A layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "bdfadjoint"

# (defining module, function name); lu_factor/lu_solve are SciPy functions as
# bound in bdf.
WRAPPED = (
    ("problems", "get_problem"),
    ("bdf", "integrate_nonadaptive"),
    ("bdf", "integrate_adaptive"),
    ("bdf", "tape_residuals"),
    ("bdf", "compute_coefficients"),
    ("bdf", "lu_factor"),
    ("bdf", "lu_solve"),
    ("adjoint", "adjoint_sweep"),
    ("adjoint", "assemble_weak_adjoint"),
    ("analysis", "verify_kkt"),
    ("analysis", "pointwise_error"),
    ("serialize", "save_tape"),
    ("serialize", "load_tape"),
    ("serialize", "save_adjoint_results"),
    ("serialize", "write_adjoint_csv"),
    ("serialize", "load_adjoint_results"),
    ("serialize", "save_kkt_report"),
    ("serialize", "write_convergence_csv"),
)
INTEGRATORS = ("bdf.integrate_nonadaptive", "bdf.integrate_adaptive")
# writers take the output path as their last positional argument
WRITERS = ("serialize.save_tape", "serialize.save_adjoint_results",
           "serialize.write_adjoint_csv", "serialize.save_kkt_report",
           "serialize.write_convergence_csv")

# Per-layer metrics: name -> unit.  analysis.pointwise_s is computed and
# printed but is 0 wherever no converge stage runs.
UNITS = {
    "cli.self_s": "s",
    "problems.rhs_calls": "count",
    "problems.jac_calls": "count",
    "problems.rhs_s": "s",
    "problems.jac_s": "s",
    "bdf.integrate_self_s": "s",
    "bdf.newton_iters": "count",
    "bdf.steps": "count",
    "bdf.attempts": "count",
    "bdf.accept_ratio": "ratio",
    "bdf.coeff_calls": "count",
    "bdf.coeff_s": "s",
    "bdf.jac_per_step": "ratio",
    "bdf.lu_factors": "count",
    "bdf.lu_factor_s": "s",
    "bdf.lu_solves": "count",
    "bdf.residuals_s": "s",
    "adjoint.sweep_self_s": "s",
    "adjoint.weak_s": "s",
    "analysis.verify_self_s": "s",
    "analysis.pointwise_s": "s",
    "serialize.save_tape_s": "s",
    "serialize.load_tape_s": "s",
    "serialize.save_adjoint_s": "s",
    "serialize.load_adjoint_s": "s",
    "serialize.bytes_written": "B",
}


class Tracer:
    """Records spans of wrapped calls, grouped by the current pass id."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, pass id]
        self.counters = defaultdict(Counter)   # pass id -> counts from results
        self.verify_peak_bytes = []
        self.pass_id = None
        self._stack = []
        self._undo = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            return self._observe(name, args, result)
        return wrapper

    def _observe(self, name, args, result):
        counts = self.counters[self.pass_id]
        if name in INTEGRATORS:
            counts["steps"] += int(result.n_steps)
            counts["newton_iters"] += int(result.newton_iterations.sum())
        elif name in WRITERS:
            counts["bytes_written"] += os.path.getsize(args[-1])
        elif name == "problems.get_problem":
            problem, *rest = result
            problem = dataclasses.replace(
                problem, rhs=self.wrap("problems.rhs", problem.rhs),
                jacobian=self.wrap("problems.jacobian", problem.jacobian))
            return (problem, *rest)
        return result

    def _peak_measured(self, fn):
        """Record the tracemalloc peak above the entry level while tracing."""
        def measured(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.verify_peak_bytes.append(tracemalloc.get_traced_memory()[1] - base)
        return measured

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner, fname in WRAPPED:
            original = getattr(sys.modules.get(f"{PACKAGE}.{owner}"), fname, None)
            if original is None:
                sys.stderr.write(f"spans: {PACKAGE}.{owner}.{fname} not found, "
                                 "its layer metrics read 0\n")
                continue
            inner = self._peak_measured(original) if fname == "verify_kkt" else original
            wrapper = self.wrap(f"{owner}.{fname}", inner)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def per_pass(self):
        """Per-layer metrics of every integer pass id, keyed by pass id."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_integrate = [False] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under_integrate[i] = (under_integrate[parent]
                                      or spans[parent][0] in INTEGRATORS)
        calls = defaultdict(Counter)
        total = defaultdict(Counter)
        self_time = defaultdict(Counter)
        for i, (name, start, end, _, pid) in enumerate(spans):
            if not isinstance(pid, int):
                continue
            calls[pid][name] += 1
            total[pid][name] += end - start
            self_time[pid][name] += end - start - child[i]
            if under_integrate[i]:
                calls[pid]["integrate/" + name] += 1
        out = {}
        for pid in sorted(calls):
            n, s, own, c = calls[pid], total[pid], self_time[pid], self.counters[pid]
            steps = c["steps"]
            attempts = n["integrate/bdf.compute_coefficients"]
            out[pid] = {
                "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
                "problems.rhs_calls": n["problems.rhs"],
                "problems.jac_calls": n["problems.jacobian"],
                "problems.rhs_s": s["problems.rhs"],
                "problems.jac_s": s["problems.jacobian"],
                "bdf.integrate_self_s": sum(own[k] for k in INTEGRATORS),
                "bdf.newton_iters": c["newton_iters"],
                "bdf.steps": steps,
                "bdf.attempts": attempts,
                "bdf.accept_ratio": steps / attempts if attempts else 0.0,
                "bdf.coeff_calls": n["bdf.compute_coefficients"],
                "bdf.coeff_s": s["bdf.compute_coefficients"],
                "bdf.jac_per_step": (n["integrate/problems.jacobian"] / steps
                                     if steps else 0.0),
                "bdf.lu_factors": n["bdf.lu_factor"],
                "bdf.lu_factor_s": s["bdf.lu_factor"],
                "bdf.lu_solves": n["bdf.lu_solve"],
                "bdf.residuals_s": s["bdf.tape_residuals"],
                "adjoint.sweep_self_s": own["adjoint.adjoint_sweep"],
                "adjoint.weak_s": s["adjoint.assemble_weak_adjoint"],
                "analysis.verify_self_s": own["analysis.verify_kkt"],
                "analysis.pointwise_s": s["analysis.pointwise_error"],
                "serialize.save_tape_s": s["serialize.save_tape"],
                "serialize.load_tape_s": s["serialize.load_tape"],
                "serialize.save_adjoint_s": (s["serialize.save_adjoint_results"]
                                             + s["serialize.write_adjoint_csv"]),
                "serialize.load_adjoint_s": s["serialize.load_adjoint_results"],
                "serialize.bytes_written": c["bytes_written"],
            }
        return out

    def write(self, path):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "pass"],
            "names": names,
            "spans": [[index[name], start, end, parent, pid]
                      for name, start, end, parent, pid in self.spans],
            "counters": {str(pid): dict(c) for pid, c in self.counters.items()},
            "verify_peak_bytes": self.verify_peak_bytes,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
