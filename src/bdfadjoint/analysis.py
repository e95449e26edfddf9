"""Verification and convergence analysis for BDF tapes and their adjoints.

`verify_kkt` certifies numerically that discretization and optimization
commute: the recorded states satisfy the block lower-triangular forward
system and the computed adjoints satisfy the transposed backward system, at
solver tolerance.  The remaining helpers measure errors against analytic
references and estimate observed convergence orders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adjoint import DiscreteAdjoints, WeakAdjoint, gradient_wrt_initial
from .bdf import (EPS, IntegrationTape, band_product, coefficient_band, stencil_table,
                  step_residuals)

__all__ = [
    "COEFFICIENT_TOL",
    "KktResidualReport",
    "ConvergenceTable",
    "coefficient_defects",
    "jacobian_defects",
    "verify_kkt",
    "pointwise_error",
    "dual_norm_bound",
    "fit_order",
]

COEFFICIENT_TOL = 1e-12
JACOBIAN_TOL = 1e-6        # scaled defect of f_y v against central differences of f
JACOBIAN_SAMPLES = 8       # tape states at which f_y is checked, evenly spaced
JACOBIAN_BLOCK = 2 ** 20   # Jacobian entries per stacked call in verify_kkt (d^2 at least)


@dataclass(frozen=True)
class KktResidualReport:
    """Residuals of the discretized optimality system evaluated at (Y, lambda, l),
    each worst one located by the step n of its row and that step's time t_n.
    Step n (1..N) produces y_n; adjoint step 0 is the y_0 (gradient) row.
    coefficient_defect is the worst scaled invariant defect of the grid's
    coefficients (see :func:`coefficient_defects`), held to COEFFICIENT_TOL;
    jacobian_defect the worst scaled defect of f_y against differences of f
    at sampled states (see :func:`jacobian_defects`), held to JACOBIAN_TOL."""

    nominal_residual: float
    adjoint_residual: float
    initial_residual: float
    coefficient_defect: float
    nominal_threshold: float
    adjoint_threshold: float
    initial_threshold: float
    nominal_worst_step: int
    nominal_worst_time: float
    adjoint_worst_step: int
    adjoint_worst_time: float
    jacobian_defect: float
    jacobian_worst_step: int
    jacobian_worst_time: float

    def __post_init__(self):
        for name, step in (("nominal_residual", self.nominal_worst_step),
                           ("adjoint_residual", self.adjoint_worst_step),
                           ("initial_residual", 0),
                           ("jacobian_defect", self.jacobian_worst_step)):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and "
                                 f"non-negative, got {v} at step {step}")

    @property
    def checks(self) -> dict:
        """Outcome of each check, in the order they are reported."""
        return {
            "nominal": self.nominal_residual <= self.nominal_threshold,
            "adjoint": self.adjoint_residual <= self.adjoint_threshold,
            "initial": self.initial_residual <= self.initial_threshold,
            "coefficients": self.coefficient_defect <= COEFFICIENT_TOL,
            "jacobian": self.jacobian_defect <= JACOBIAN_TOL,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _worst_row(rows):
    """(index, max-abs) of the row with the largest entry; NaN rows win."""
    row_max = np.max(np.abs(rows), axis=1)
    i = int(np.argmax(row_max))
    return i, float(row_max[i])


def verify_kkt(problem, tape: IntegrationTape, adjoints: DiscreteAdjoints) -> KktResidualReport:
    """Evaluate the optimality-system residuals at the recorded data.

    With the coefficient band (A, c) of :func:`coefficient_band` and the
    row-major states Y and multipliers L (both N x d), the Kronecker
    operators act as (A (x) I) vec(Y) = vec(A Y), so no block matrix is
    formed.  nominal_residual is the max-norm of A Y + c y_0 - h F.
    adjoint_residual is the max-norm of A^T L - h [J_n^T lambda_n] - e_N J'(y_N)
    together with the y_0 row l + c^T L, evaluated as the stored gradient l
    minus :func:`gradient_wrt_initial`; the Jacobians enter only through the
    per-step products f_y^T lambda, formed from one stacked jacobian call
    and one stacked product per block of at most JACOBIAN_BLOCK Jacobian
    entries, so no N d^2 array is built.  initial_residual compares y_0 with
    the problem's initial state, to 1e-12 (1 + max|y_0|).  jacobian_defect
    checks f_y itself, which no residual can see (the adjoint and this check
    share it), at JACOBIAN_SAMPLES states.  A problem whose rhs or jacobian
    does not take stacked states is refused with a ValueError.
    """
    n = tape.n_steps
    d = tape.dimension
    if adjoints.lambdas.shape != (n, d):
        raise ValueError(
            f"adjoints have shape {adjoints.lambdas.shape}, tape expects {(n, d)}"
        )
    band = coefficient_band(tape)
    nodes = tape.grid.nodes
    lam = adjoints.lambdas
    nominal_row, nominal = _worst_row(step_residuals(problem, tape, band))

    jt_lam = np.empty((n, d))
    block = max(1, JACOBIAN_BLOCK // (d * d))
    for s in range(0, n, block):   # the steps s.., which produce y_{s+1}..
        jac = problem.stacked_jacobian(nodes[s + 1:s + 1 + block],
                                       tape.states[s + 1:s + 1 + block])
        # row i: lambda_i^T J_i = (J_i^T lambda_i)^T; a (1, d, d) f_y broadcasts
        jt_lam[s:s + block] = np.matmul(lam[s:s + block, None, :], jac)[:, 0]
    adj_rows = (band_product(band[0], lam, transpose=True)
                - tape.grid.stepsizes[:, None] * jt_lam)
    adj_rows[-1] -= problem.criterion_gradient(tape.states[n])
    grad_row = adjoints.gradient - gradient_wrt_initial(tape, lam)
    adjoint_step, adjoint_res = _worst_row(np.vstack([grad_row, adj_rows]))

    samples = np.unique(np.linspace(1, n, min(n, JACOBIAN_SAMPLES)).astype(int))
    defects = jacobian_defects(problem, nodes[samples], tape.states[samples])
    jacobian_row = int(np.argmax(defects))   # a NaN wins

    return KktResidualReport(
        nominal_residual=nominal,
        adjoint_residual=adjoint_res,
        initial_residual=float(np.max(np.abs(tape.states[0] - problem.initial_state))),
        coefficient_defect=float(np.max(coefficient_defects(*stencil_table(tape)))),
        nominal_threshold=10.0 * float(np.max(tape.newton_tolerances)),
        adjoint_threshold=1e-9 * (1.0 + float(np.max(np.abs(lam)))),
        initial_threshold=1e-12 * (1.0 + float(np.max(np.abs(tape.states[0])))),
        nominal_worst_step=nominal_row + 1,
        nominal_worst_time=float(nodes[nominal_row + 1]),
        adjoint_worst_step=adjoint_step,
        adjoint_worst_time=float(nodes[adjoint_step]),
        jacobian_defect=float(defects[jacobian_row]),
        jacobian_worst_step=int(samples[jacobian_row]),
        jacobian_worst_time=float(nodes[samples[jacobian_row]]),
    )


def jacobian_defects(problem, t, ys) -> np.ndarray:
    """Scaled defect of f_y v against the central difference
    (f(y + eps v) - f(y - eps v)) / (2 eps) at each of the times t (m,) and
    rows ys (m, d), from two stacked rhs calls and one stacked jacobian call.

    v is one fixed unit direction, cos(1), ..., cos(d) normalized, and
    eps = EPS^(1/3) max(1, max|y|).  Each defect is the max-norm of the
    difference over the larger of max(|f_y| |v|), the rounding bound of
    f_y v, and the max-norm of the difference quotient; it is 0 where both
    vanish.  A Jacobian off by a factor c has defect about |1 - c| / max(1, c).
    """
    v = np.cos(np.arange(1.0, ys.shape[1] + 1.0))
    v /= np.sqrt(v.dot(v))
    eps = EPS ** (1.0 / 3.0) * np.maximum(1.0, np.max(np.abs(ys), axis=1))
    step = eps[:, None] * v
    quotient = (problem.stacked_rhs(t, ys + step) - problem.stacked_rhs(t, ys - step)) \
        / (2.0 * eps[:, None])
    jac = problem.stacked_jacobian(t, ys)
    scale = np.maximum(np.max(np.matmul(np.abs(jac), np.abs(v)), axis=1),
                       np.max(np.abs(quotient), axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        defect = np.max(np.abs(quotient - np.matmul(jac, v)), axis=1) / scale
    return np.where(scale == 0.0, 0.0, defect)


def coefficient_defects(alphas, stencils) -> np.ndarray:
    """Scaled zero-sum and identity-interpolant defects of BDF coefficient rows.

    `alphas` and `stencils` are (M, K+1) arrays laid out as in
    :func:`stencil_table`: alpha_0..alpha_k and t_{n+1}..t_{n+1-k}, newest
    first, zero past each row's order.  Exact coefficients satisfy
    sum_i alpha_i = 0 and sum_i alpha_i t_i = h = t_{n+1} - t_n.  The first
    defect is scaled by max|alpha_i|, the second by sum_i |alpha_i t_i|, the
    rounding bound of its dot product; the larger of the two is returned per
    row, to be compared with COEFFICIENT_TOL.
    """
    h = stencils[:, 0] - stencils[:, 1]
    terms = alphas * stencils
    zero_sum = np.abs(alphas.sum(axis=1)) / np.max(np.abs(alphas), axis=1)
    ident = np.abs(terms.sum(axis=1) - h) / np.abs(terms).sum(axis=1)
    return np.maximum(zero_sum, ident)


def pointwise_error(weak_adjoint: WeakAdjoint, reference, t) -> float:
    """|| Lambda(t) - Lambda^h(t) ||_2 against the analytic weak adjoint."""
    exact = np.asarray(reference.weak_adjoint(t), dtype=float)
    return float(np.linalg.norm(exact - weak_adjoint.eval(t), 2))


def _uniform_main_stepsize(h_all, max_ramp=6, rel=1e-9):
    """Main stepsize h of an equidistant grid with stepsizes h_all,
    tolerating a short start ramp."""
    h = h_all[-1]
    uniform = np.abs(h_all - h) <= rel * h
    s = h_all.size
    while s > 0 and uniform[s - 1]:
        s -= 1
    if (s > max_ramp or h_all.size - s < max(2, s)
            or np.any(h_all[:s] > h * (1.0 + rel))):
        raise ValueError(
            "dual_norm_bound requires an equidistant grid "
            "(a short self-start ramp of smaller steps is tolerated)"
        )
    return float(h)


def dual_norm_bound(weak_adjoint: WeakAdjoint, reference) -> float:
    """Computable upper-bound surrogate for the total-variation-norm error.

    Per component: h * ( |lambda(t_0)| + sum_n |lambda(t_n) - lambda_n|
    + |lambda(t_N)| ), maximized over components, with the multipliers and
    the grid of the weak adjoint.  The grid must be equidistant (short
    self-start ramps of smaller steps are tolerated, h is the main stepsize).
    """
    nodes = weak_adjoint.nodes
    h = _uniform_main_stepsize(np.diff(nodes))
    exact = np.array([reference.classical_adjoint(t) for t in nodes], dtype=float)
    bound = (np.abs(exact[0]) + np.sum(np.abs(exact[1:] - weak_adjoint.lambdas), axis=0)
             + np.abs(exact[-1]))
    return float(np.max(h * bound))


@dataclass(frozen=True)
class ConvergenceTable:
    """Sweep results: a decreasing parameter column plus named error columns."""

    parameter: str               # "h" or "rtol"
    values: np.ndarray
    errors: dict                 # name -> ndarray aligned with `values`

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(
            self, "errors",
            {k: np.asarray(v, dtype=float) for k, v in self.errors.items()})
        for name, col in self.errors.items():
            if col.shape != self.values.shape:
                raise ValueError(f"error column {name!r} does not match the parameter column")

    def orders(self, name: str) -> np.ndarray:
        """Observed order between consecutive rows (first entry is nan)."""
        e = self.errors[name]
        v = self.values
        out = np.full(v.size, np.nan)
        for i in range(1, v.size):
            if e[i - 1] > 0 and e[i] > 0:
                out[i] = np.log(e[i - 1] / e[i]) / np.log(v[i - 1] / v[i])
        return out


def fit_order(table: ConvergenceTable, column: str | None = None) -> float:
    """Least-squares slope of log(error) against log(parameter).

    Zero or non-finite error entries are excluded with a warning; at least
    three usable rows (strictly decreasing parameter) are required.
    """
    if column is None:
        if len(table.errors) != 1:
            raise ValueError(
                f"table has columns {sorted(table.errors)}; specify one")
        column = next(iter(table.errors))
    v = table.values
    if v.size < 3:
        raise ValueError("order fit needs at least 3 rows")
    if np.any(np.diff(v) >= 0):
        raise ValueError("parameter column must be strictly decreasing")
    e = table.errors[column]
    keep = np.isfinite(e) & (e > 0.0)
    if not np.all(keep):
        warnings.warn(
            f"excluding {int(np.sum(~keep))} zero/failed rows from the order fit "
            f"of {column!r}", RuntimeWarning, stacklevel=2)
    if np.sum(keep) < 3:
        raise ValueError("order fit needs at least 3 usable rows")
    slope = np.polyfit(np.log(v[keep]), np.log(e[keep]), 1)[0]
    return float(slope)
