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

from .adjoint import DiscreteAdjoints, WeakAdjoint
from .bdf import (EPS, RESIDUAL_GATE, IntegrationTape, band_product, coefficient_band,
                  jacobian_blocks, stencil_table, tape_residuals)

__all__ = [
    "COEFFICIENT_TOL",
    "Check",
    "ConvergenceTable",
    "coefficient_defects",
    "criterion_defect",
    "jacobian_defects",
    "verify_kkt",
    "pointwise_error",
    "dual_norm_bound",
    "fit_order",
]

COEFFICIENT_TOL = 1e-12
JACOBIAN_TOL = 1e-6        # scaled defect of f_y v, and of J'.v, against central differences
JACOBIAN_SAMPLES = 8       # tape states at which f_y is checked, evenly spaced


@dataclass(frozen=True)
class Check:
    """One verification check: its value, the threshold it is held to, and
    its worst row, located by the step n (1..N) that produces y_n, or 0 for
    the y_0 row, and that step's time t."""

    name: str
    value: float
    threshold: float
    step: int
    t: float

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0.0):
            raise ValueError(f"{self.name} must be finite and non-negative, "
                             f"got {self.value} at step {self.step}")

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def verify_kkt(problem, tape: IntegrationTape, adjoints: DiscreteAdjoints) -> tuple:
    """The optimality-system checks at the recorded data, as a tuple of
    :class:`Check` records; the data pass when every record does.

    With the coefficient band A of :func:`coefficient_band`, which acts on
    all N + 1 states, and the row-major states Y and multipliers
    L = [0; lambda_1; ...; lambda_N] (both (N + 1) x d), the Kronecker
    operators act as (A (x) I) vec(Y) = vec(A Y), so no block matrix is
    formed.  nominal_residual holds the max-norm of step n's row of
    A Y - h F to RESIDUAL_GATE tol_n, the CLI adjoint stage's tape gate, and
    reports the step of the largest ratio (a NaN row wins): it passes exactly
    when every step does.  adjoint_residual is the max-norm of the rows of
    A^T L - h [0; J_n^T lambda_n] - e_N J'(y_N) + e_0 l, l the stored
    gradient, all from one transposed band product, y_0's row 0 included;
    the Jacobians enter only through the per-step products f_y^T lambda, one
    stacked product per block of bdf.jacobian_blocks.  An f_y that does not
    depend on the state takes one product L f_y for every row instead; either
    way the report is the same to the bit for every block size.
    initial_residual compares y_0 with the problem's initial state, to
    1e-12 (1 + max|y_0|).  coefficient_defect is held to COEFFICIENT_TOL.
    jacobian_defect checks f_y, which no residual can see (the adjoint and
    this check share it), at JACOBIAN_SAMPLES states, and criterion_defect
    J' at y_N, both held to JACOBIAN_TOL.  A value that is not finite, or a
    problem whose rhs or jacobian does not take stacked states, is refused
    with a ValueError.
    """
    n = tape.n_steps
    d = tape.dimension
    if adjoints.lambdas.shape != (n, d):
        raise ValueError(
            f"adjoints have shape {adjoints.lambdas.shape}, tape expects {(n, d)}"
        )
    nodes = tape.grid.nodes
    lam = adjoints.lambdas
    nominal = tape_residuals(problem, tape)
    nominal_tol = RESIDUAL_GATE * tape.newton_tolerances
    nominal_row = int(np.argmax(nominal / nominal_tol))   # a NaN wins

    jt_lam = np.empty((n, d))
    for start, stop, jac, constant in jacobian_blocks(problem, tape):
        # row i: lambda_i^T J_i = (J_i^T lambda_i)^T
        if constant:   # one product for every row
            jt_lam = lam @ jac[0]
            break
        jt_lam[start:stop] = np.matmul(lam[start:stop, None, :], jac)[:, 0]
    rows = band_product(coefficient_band(tape), np.vstack([np.zeros(d), lam]),
                        transpose=True)
    rows[1:] -= tape.grid.stepsizes[:, None] * jt_lam
    rows[n] -= problem.criterion_gradient(tape.states[n])
    rows[0] += adjoints.gradient
    adjoint = np.max(np.abs(rows), axis=1)
    adjoint_step = int(np.argmax(adjoint))   # a NaN wins

    coefficients = coefficient_defects(*stencil_table(tape))
    coefficient_row = int(np.argmax(coefficients))
    samples = np.unique(np.linspace(1, n, min(n, JACOBIAN_SAMPLES)).astype(int))
    defects = jacobian_defects(problem, nodes[samples], tape.states[samples])
    jacobian_row = int(np.argmax(defects))   # a NaN wins

    return tuple(Check(name, float(value), float(threshold), int(step), float(nodes[step]))
                 for name, value, threshold, step in (
        ("nominal_residual", nominal[nominal_row], nominal_tol[nominal_row], nominal_row + 1),
        ("adjoint_residual", adjoint[adjoint_step], 1e-9 * (1 + np.max(np.abs(lam))), adjoint_step),
        ("initial_residual", np.max(np.abs(tape.states[0] - problem.initial_state)),
         1e-12 * (1.0 + np.max(np.abs(tape.states[0]))), 0),
        ("coefficient_defect", coefficients[coefficient_row], COEFFICIENT_TOL,
         coefficient_row + 1),
        ("jacobian_defect", defects[jacobian_row], JACOBIAN_TOL, samples[jacobian_row]),
        ("criterion_defect", criterion_defect(problem, tape.states[n]), JACOBIAN_TOL, n)))


def jacobian_defects(problem, t, ys) -> np.ndarray:
    """Scaled defect of f_y v against the central difference
    (f(y + eps v) - f(y - eps v)) / (2 eps) at each of the times t (m,) and
    rows ys (m, d), from two stacked rhs calls and one stacked jacobian call.

    v is one fixed unit direction, cos(1), ..., cos(d) normalized, and
    eps = EPS^(1/3) max(1, max|y|).  Each defect is the max-norm of the
    difference over the largest of max(|f_y| |v|), the rounding bound of
    f_y v, the max-norm of the difference quotient, and the quotient's own
    rounding bound EPS max|f(y +- eps v)| / eps over JACOBIAN_TOL, so that a
    difference within that rounding (f with a large constant part) reads at
    most JACOBIAN_TOL; it is 0 where all vanish.  A Jacobian off by a factor
    c has defect about |1 - c| / max(1, c).
    """
    return _difference_defects(lambda y: problem.stacked_rhs(t, y), ys,
                               problem.stacked_jacobian(t, ys))


def criterion_defect(problem, y) -> float:
    """Scaled defect of J'(y) v against the central difference
    (J(y + eps v) - J(y - eps v)) / (2 eps), by the rule of
    :func:`jacobian_defects` with J' as a 1 x d Jacobian."""
    return float(_difference_defects(problem.criterion, y,
                                     problem.criterion_gradient(y)[None]))


def _difference_defects(func, ys, derivative):
    """The defects of :func:`jacobian_defects` for the function func of the
    rows ys (..., d) and its derivative, matrices (..., r, d) that broadcast
    over the rows; one defect per row."""
    v = np.cos(np.arange(1.0, ys.shape[-1] + 1.0))
    v /= np.sqrt(v.dot(v))
    eps = EPS ** (1.0 / 3.0) * np.maximum(1.0, np.max(np.abs(ys), axis=-1, keepdims=True))
    plus, minus = func(ys + eps * v), func(ys - eps * v)
    quotient = (plus - minus) / (2.0 * eps)
    rounding = EPS * np.max(np.maximum(np.abs(plus), np.abs(minus)) / eps, axis=-1)
    scale = np.maximum(np.maximum(np.max(np.matmul(np.abs(derivative), np.abs(v)), axis=-1),
                                  np.max(np.abs(quotient), axis=-1)),
                       rounding / JACOBIAN_TOL)
    with np.errstate(invalid="ignore", divide="ignore"):
        defect = np.max(np.abs(quotient - np.matmul(derivative, v)), axis=-1) / scale
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
