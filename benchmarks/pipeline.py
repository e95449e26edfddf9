"""One workload's passes, timed and checked, in the calling process.

The CLI stages run in-process through ``bdfadjoint.cli.main(argv)``, so
argument and config parsing, JSON/CSV I/O and printing are timed with the
computation; stdout and stderr of the stages are captured.  Load is a closed
loop: one client, the next pass starts when the last one ends.  A warm-up
pass comes first; its outputs get the full correctness gate, and every later
pass must return 0 from every stage, certify the KKT system and rewrite the
warm-up outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import sys
import time
import traceback
import tracemalloc

import numpy as np

MIN_PASSES = 11            # pipeline_tail_s needs 10 passes beyond its rank
MIN_PASSES_TRACED = 3      # of each kind in a traced run
FD_TOLERANCE = 1e-6        # acceptance criterion 1
FD_STEP = 1e-6
CROSS_CHECK_RTOL = 1e-12


class Gate:
    """Counts correctness checks; a failed check stops the measurement."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def run_stage(cli, argv, tracer=None, stage=None):
    """(exit code, seconds, stderr) of one CLI stage."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{stage}", cli.main, argv)
        except Exception:  # a traceback is a failed stage, reported below
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue()


def run_pass(cli, wl, gate, tracer=None, calibration=None):
    """Stage times of one pass, or None after a failed check."""
    times = {}
    for stage, argv in wl.stages:
        # each CLI stage normally starts in a fresh interpreter: leave it no
        # garbage from the stage before
        gc.collect()
        if calibration is not None:
            calibration.run()
        rc, times[stage], err = run_stage(cli, argv, tracer, stage)
        if not gate.check(rc == 0, f"{stage} exited {rc}: {err.strip()[-2000:]}"):
            return None
    report = json.loads(wl.kkt.read_text())
    if not gate.check(report.get("passed") is True, f"KKT report not passed: {report}"):
        return None
    return times


def digests(wl):
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in wl.outputs}


def measure(cli, wl, gate, seconds, min_passes, reference_digests, calibration,
            tracer=None):
    """Closed loop of passes for `seconds`, at least `min_passes` of each kind.

    With a tracer, untraced and traced passes alternate, so that both see
    the same machine state.  Returns (untraced, traced) lists of stage times.
    """
    passes = {False: [], True: []}
    kinds = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    traced = False
    while (min(len(passes[k]) for k in kinds) < min_passes
           or time.perf_counter() - start < seconds):
        if traced:
            tracer.pass_id = len(passes[True])
            tracer.install()
        try:
            times = run_pass(cli, wl, gate, tracer if traced else None, calibration)
        finally:
            if traced:
                tracer.uninstall()
        if times is None:
            break
        if not gate.check(digests(wl) == reference_digests,
                          "pass outputs differ from the checked warm-up pass"):
            break
        passes[traced].append(times)
        traced = tracer is not None and not traced
    return passes[False], passes[True]


def reference_errors(bdf, serialize, problems, wl, gate):
    """grad_err, weak_err_tf and the finite-difference error of the gradient.

    The gradient and jumps are read from the adjoint JSON with the json
    module, independently of the package's loaders.
    """
    doc = json.loads(wl.adjoint.read_text())
    grad = np.array(doc["gradient"], dtype=float)
    weak_h = np.cumsum(np.array(doc["jumps"]["sizes"], dtype=float), axis=0)[-1]

    tape = serialize.load_tape(wl.tape)
    problem, reference = problems.get_problem(tape.problem_name, **tape.problem_params)
    lam0 = np.asarray(reference.classical_adjoint(problem.initial_time), dtype=float)
    grad_err = float(np.linalg.norm(grad - lam0) / np.linalg.norm(lam0))
    if problem.name == "linear":
        # For y' = a y: a^T Lambda(t_f) = lambda(t_0) - lambda(t_f), exactly,
        # which avoids the reference's per-component quadrature at large d.
        a = problem.jacobian(problem.initial_time, problem.initial_state)
        weak = np.linalg.solve(a.T, lam0 - problem.criterion_gradient(tape.final_state))
    else:
        weak = np.asarray(reference.weak_adjoint(problem.final_time), dtype=float)
    weak_err = float(np.linalg.norm(weak - weak_h))

    y0 = tape.states[0]
    v = wl.fd_direction
    eps = FD_STEP * max(1.0, float(np.max(np.abs(y0))))
    j_plus = problem.criterion(bdf.replay_integration(problem, tape, y0 + eps * v)[-1])
    j_minus = problem.criterion(bdf.replay_integration(problem, tape, y0 - eps * v)[-1])
    fd_err = float(abs((j_plus - j_minus) / (2.0 * eps) - grad @ v)
                   / (np.linalg.norm(grad) * np.linalg.norm(v)))

    gate.check(np.isfinite(grad_err) and np.isfinite(weak_err),
               f"non-finite accuracy: grad_err={grad_err}, weak_err_tf={weak_err}")
    gate.check(fd_err <= FD_TOLERANCE,
               f"gradient disagrees with the finite difference through replay: "
               f"relative error {fd_err:.3e} > {FD_TOLERANCE}")

    if wl.ladder_csv is not None:
        with open(wl.ladder_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = {k: np.array([float(r[k]) for r in rows])
                  for k in rows[0] if k.startswith("error_")}
        gate.check(all(np.all(np.isfinite(e)) for e in errors.values()),
                   f"non-finite ladder rung: {errors}")
        tf_errors = errors["error_tf"]
        gate.check(tf_errors[-1] < tf_errors[0],
                   f"error_tf does not fall along the ladder: {tf_errors}")
        # the chain integrates the tightest rung again, so its weak adjoint
        # at t_f must carry the same error as the converge table reports
        gate.check(abs(weak_err - tf_errors[-1]) <= CROSS_CHECK_RTOL * tf_errors[-1],
                   f"chain weak_err_tf {weak_err!r} != ladder {tf_errors[-1]!r}")
        weak_err = float(tf_errors[-1])
    return {"grad_err": grad_err, "weak_err_tf": weak_err, "fd_err": fd_err}


def verify_under_tracemalloc(cli, wl, gate, tracer):
    """Run verify once more, outside the timed passes, for the memory peak
    inside verify_kkt (tracemalloc would slow the timed spans)."""
    tracer.pass_id = "memory"
    tracer.install()
    tracemalloc.start()
    try:
        rc, _, err = run_stage(cli, dict(wl.stages)["verify"], tracer, "verify")
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    gate.check(rc == 0, f"verify under tracemalloc exited {rc}: {err}")


def library_versions():
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}
