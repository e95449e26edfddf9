"""
Acceptance gate: every headline claim of the package, one test per
criterion, each at its stated tolerance, each emitting one summary line
``ACCEPTANCE n: PASS/FAIL — detail``.

The shared sweep is the catenary at order 2, h = 2^-4 .. 2^-9; adaptive
runs use rtol in {1e-4, 1e-6, 1e-9}.  Fitted orders come from
least-squares slopes in log-log (fit_order).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from bdfadjoint import (ConvergenceTable, adjoint_sweep,
                        coefficient_defects, compute_coefficients,
                        dual_norm_bound, fit_order,
                        get_problem, integrate_adaptive, integrate_nonadaptive,
                        pointwise_error, replay_integration, verify_kkt)

CATENARY, REF = get_problem("catenary")
T_FINAL = CATENARY.final_time
SWEEP_H = [2.0 ** -e for e in range(4, 10)]
JP = np.array([1.0, 0.0])                    # J'(y(2)) for J(y) = y_1
LAMBDA0 = REF.classical_adjoint(0.0)         # [1, (2/3) tanh 3]


def _fit(hs, errs):
    table = ConvergenceTable(parameter="h", values=np.asarray(hs),
                             errors={"e": np.asarray(errs)})
    return fit_order(table)


def _fd_gradient(problem, tape):
    """Central differences of J(y_N) through the frozen-grid replay."""
    y0 = problem.initial_state
    eps = 1e-6 * (1.0 + np.linalg.norm(y0))
    grad = np.zeros(problem.dimension)
    for j in range(problem.dimension):
        e = np.zeros(problem.dimension)
        e[j] = eps
        jp = problem.criterion(replay_integration(problem, tape, y_start=y0 + e)[-1])
        jm = problem.criterion(replay_integration(problem, tape, y_start=y0 - e)[-1])
        grad[j] = (jp - jm) / (2.0 * eps)
    return grad


@pytest.fixture(scope="module")
def sweep():
    """Nonadaptive k=2 h-sweep with adjoints, each its weak adjoint, timed."""
    t0 = time.perf_counter()
    runs = []
    for h in SWEEP_H:
        tape = integrate_nonadaptive(CATENARY, 2, h)
        runs.append(SimpleNamespace(h=h, tape=tape, adj=adjoint_sweep(CATENARY, tape)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def adaptive_runs():
    out = {}
    for rtol in (1e-4, 1e-6, 1e-9):
        tape = integrate_adaptive(CATENARY, rtol)
        out[rtol] = SimpleNamespace(tape=tape, adj=adjoint_sweep(CATENARY, tape))
    return out


def test_criterion_1_exact_derivative(acceptance_log):
    """Discrete-adjoint gradient == finite differences of the frozen scheme."""
    t0 = time.perf_counter()
    rels = {}
    for label, tape in (("nonadaptive", integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)),
                        ("adaptive", integrate_adaptive(CATENARY, 1e-6))):
        grad = adjoint_sweep(CATENARY, tape).gradient
        fd = _fd_gradient(CATENARY, tape)
        rels[label] = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
    elapsed = time.perf_counter() - t0
    ok = all(r <= 1e-6 for r in rels.values()) and elapsed < 1.0
    acceptance_log(
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — gradient vs FD rel err "
        f"{rels['nonadaptive']:.2e} (k=2 h=2^-6), {rels['adaptive']:.2e} "
        f"(rtol=1e-6); tol 1e-6; {elapsed:.2f} s (< 1 s)")
    assert ok


def test_criterion_2_nominal_convergence(sweep, acceptance_log):
    runs, elapsed = sweep
    errs = [np.linalg.norm(r.tape.states[-1] - REF.nominal(T_FINAL), 2)
            for r in runs]
    order = _fit(SWEEP_H, errs)
    ok = 1.8 <= order <= 2.2 and elapsed < 5.0
    acceptance_log(
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — nominal order {order:.3f} "
        f"in [1.8, 2.2]; sweep {elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_3_gradient_convergence(sweep, acceptance_log):
    runs, _ = sweep
    errs = [np.linalg.norm(r.adj.gradient - LAMBDA0) for r in runs]
    order = _fit(SWEEP_H, errs)
    ok = 1.7 <= order <= 2.3
    acceptance_log(
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — gradient-to-lambda(0) "
        f"order {order:.3f} in [1.7, 2.3]")
    assert ok


def test_criterion_4_interior_adjoint(sweep, acceptance_log):
    runs, _ = sweep
    errs = []
    for r in runs:
        times = r.tape.grid.nodes[1:]
        i = int(np.argmin(np.abs(times - 1.25)))
        errs.append(np.linalg.norm(r.adj.lambdas[i]
                                   - REF.classical_adjoint(times[i])))
    order = _fit(SWEEP_H, errs)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = order >= 0.8 and decreasing
    acceptance_log(
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — interior multiplier at "
        f"t=1.25: order {order:.3f} (>= 0.8), errors decreasing={decreasing}")
    assert ok


def test_criterion_5_boundary_inconsistency(sweep, acceptance_log):
    runs, _ = sweep
    gaps = [np.linalg.norm(r.adj.lambdas[-1] - JP) for r in runs]
    floor = np.linalg.norm(JP) / 30.0
    finest = runs[-1]
    assert finest.h == 2.0 ** -9
    approach = np.linalg.norm(finest.adj.lambdas[-1] - (2.0 / 3.0) * JP)
    within = 0.05 * np.linalg.norm((2.0 / 3.0) * JP)
    ok = min(gaps) >= floor and approach <= within
    acceptance_log(
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — min ||lambda_N - J'|| "
        f"{min(gaps):.3f} >= {floor:.3f}; ||lambda_N - (2/3)J'|| at h=2^-9 "
        f"{approach:.2e} <= {within:.2e}")
    assert ok


def test_criterion_6_weak_adjoint_convergence(sweep, acceptance_log):
    runs, elapsed = sweep
    err_tf = [pointwise_error(r.adj, REF, T_FINAL) for r in runs]
    err_in = [pointwise_error(r.adj, REF, 1.25) for r in runs]
    order_tf = _fit(SWEEP_H, err_tf)
    order_in = _fit(SWEEP_H, err_in)
    ok = order_tf >= 1.7 and 0.8 <= order_in <= 1.3 and elapsed < 5.0
    acceptance_log(
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — weak-adjoint orders: "
        f"{order_tf:.3f} at t=2 (>= 1.7), {order_in:.3f} at t=1.25 "
        f"(in [0.8, 1.3]); sweep {elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_7_dual_norm_bound(sweep, acceptance_log):
    runs, _ = sweep
    bounds = [dual_norm_bound(r.adj, REF) for r in runs]
    order = _fit(SWEEP_H, bounds)
    ok = order >= 0.8
    acceptance_log(
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — dual-norm bound O(h): "
        f"order {order:.3f} (>= 0.8), bounds {bounds[0]:.2e} -> {bounds[-1]:.2e}")
    assert ok


def test_criterion_8_kkt_equivalence(sweep, adaptive_runs, acceptance_log):
    runs, _ = sweep
    cases = [(f"h=2^{int(np.log2(r.h))}", r.tape, r.adj) for r in runs]
    cases += [(f"rtol={rtol:g}", a.tape, a.adj)
              for rtol, a in adaptive_runs.items() if rtol in (1e-4, 1e-9)]
    worst_nom = worst_adj = 0.0
    all_pass = True
    for label, tape, adj in cases:
        report = {c.name: c for c in verify_kkt(CATENARY, tape, adj)}
        nominal, adjoint = report["nominal_residual"], report["adjoint_residual"]
        worst_nom = max(worst_nom, nominal.value / nominal.threshold)
        worst_adj = max(worst_adj, adjoint.value / adjoint.threshold)
        all_pass = all_pass and all(c.passed for c in report.values())
    ok = all_pass and worst_nom <= 1.0 and worst_adj <= 1.0
    acceptance_log(
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — optimality residuals on "
        f"{len(cases)} runs: worst nominal {worst_nom:.2e} and adjoint "
        f"{worst_adj:.2e} of their thresholds")
    assert ok


def test_criterion_9_coefficient_properties(acceptance_log):
    rng = np.random.default_rng(12345)
    alphas = np.zeros((1000, 7))
    stencils = np.zeros((1000, 7))
    for row in range(1000):
        order = int(rng.integers(1, 7))
        gaps = rng.uniform(1e-3, 10.0, size=order + 1)
        nodes = np.cumsum(gaps) - gaps[0] + rng.uniform(-10.0, 10.0)
        alphas[row, :order + 1] = compute_coefficients(nodes, order)
        stencils[row, :order + 1] = nodes[::-1]
    worst = float(np.max(coefficient_defects(alphas, stencils)))
    bdf1 = compute_coefficients(np.array([0.0, 1.0]), 1)
    bdf2 = compute_coefficients(np.array([0.0, 1.0, 2.0]), 2)
    closed = max(np.max(np.abs(bdf1 - [1.0, -1.0])),
                 np.max(np.abs(bdf2 - [1.5, -2.0, 0.5])))
    ok = worst <= 1e-12 and closed <= 1e-14
    acceptance_log(
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} — 1000 random stencils: "
        f"worst scaled invariant {worst:.2e} (<= 1e-12); BDF1/BDF2 closed "
        f"forms within {closed:.2e} (<= 1e-14)")
    assert ok


def test_criterion_10_adaptive_sanity(adaptive_runs, acceptance_log):
    loose, tight = adaptive_runs[1e-4], adaptive_runs[1e-9]
    errs = {}
    for t_probe in (1.25, 2.0):
        errs[t_probe] = (pointwise_error(loose.adj, REF, t_probe),
                         pointwise_error(tight.adj, REF, t_probe))
    ok = all(tight_e < loose_e for loose_e, tight_e in errs.values())
    acceptance_log(
        f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} — weak adjoint closer at "
        f"rtol 1e-9 than 1e-4: t=1.25 {errs[1.25][1]:.2e} < {errs[1.25][0]:.2e}; "
        f"t=2.0 {errs[2.0][1]:.2e} < {errs[2.0][0]:.2e} "
        f"(N={loose.tape.n_steps} vs {tight.tape.n_steps} steps)")
    assert ok
