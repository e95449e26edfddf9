"""Variable-order, variable-stepsize BDF integration on arbitrary node sequences.

The k-step BDF scheme on (generally nonuniform) nodes reads

    sum_{i=0..k_n} alpha_i^(n) y_{n+1-i} = h_n f(t_{n+1}, y_{n+1}),

where alpha_i^(n) = h_n * Ldot_i^(n)(t_{n+1}) comes from differentiating the
Lagrange basis over the step's stencil.  Each implicit step is solved by a
Newton iteration with matrix alpha_0 * I - h_n * f_y.  Completed runs are
recorded on an immutable :class:`IntegrationTape`: nodes, orders and states,
all that a backward (adjoint) sweep or a frozen re-solve needs, plus each
step's Newton iteration count, which nothing else determines.  What the nodes,
orders and states determine is derived, not stored: the coefficients by
:attr:`TimeGrid.alphas`, the Newton tolerances by
:attr:`IntegrationTape.newton_tolerances`, the step residuals by
:func:`tape_residuals` and the adaptive error estimates by
:func:`_error_estimate`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy   # first, so that a wheel's _distributor_init sets up its library paths


def _load_lapack():
    """dgbtrf, dgbtrs, dgetrf, dgetrs: the f2py wrappers of SciPy's compiled LAPACK
    extension that scipy.linalg.lapack re-exports, without the quarter second of
    start-up that importing scipy.linalg costs."""
    paths = [os.path.join(p, "linalg") for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", paths)
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack in {paths} (SciPy {scipy.__version__})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgbtrf, module.dgbtrs, module.dgetrf, module.dgetrs


dgbtrf, dgbtrs, dgetrf, dgetrs = _load_lapack()

__all__ = [
    "MAX_ORDER",
    "SolverError",
    "TimeGrid",
    "IntegrationTape",
    "compute_coefficients",
    "integrate_nonadaptive",
    "integrate_adaptive",
    "dense_eval",
    "replay_integration",
    "stencil_table",
    "coefficient_band",
    "band_product",
    "step_residuals",
    "tape_residuals",
    "jacobian_blocks",
]

MAX_ORDER = 6
MAX_STATE_VALUES = 10 ** 7       # (N + 1) * d of a nonadaptive tape, 80 MB of states
NEWTON_MAXITER = 7
NEWTON_TOL_NONADAPTIVE = 1e-12   # absolute residual, max-norm
ADAPTIVE_ATOL = 1e-12            # the adaptive driver's default absolute tolerance
RESIDUAL_GATE = 10.0             # a recorded step passes at residual <= this * its tolerance
RATE_REFACTOR = 0.25             # refactor iteration matrix above this rate
MIN_FACTOR = 0.2
MAX_FACTOR = 2.5
SAFETY = 0.9
EPS = np.finfo(float).eps
JACOBIAN_BLOCK = 2 ** 20         # Jacobian entries per block of jacobian_blocks, at least two states
_LAGS = np.arange(MAX_ORDER + 1)   # stencil offsets i of alpha_i


class SolverError(RuntimeError):
    """Raised when an integration or adjoint run cannot be completed."""


# ---------------------------------------------------------------------------
# The coefficients
# ---------------------------------------------------------------------------

def compute_coefficients(nodes, order: int) -> np.ndarray:
    """BDF coefficients alpha_0..alpha_k (newest node first) for the stencil
    t_{n+1-k}..t_{n+1} (ascending).

    alpha_i = h_n * Ldot_i(t_{n+1}) where L_i interpolates at t_{n+1-i} and
    h_n = t_{n+1} - t_n.  At x = t_{n+1}, every product-rule term of Ldot_i
    that keeps the factor (x - t_{n+1}) vanishes.  For i >= 1 one term is
    left, and Ldot_0 is a sum of k terms, so the cost is O(k^2).  Factors are
    multiplied in ascending node order, as in the full product-rule sum.
    """
    nodes = np.asarray(nodes, dtype=float)
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    if nodes.shape != (order + 1,):
        raise ValueError(
            f"stencil for order {order} needs {order + 1} nodes, got {nodes.shape}"
        )
    t = nodes.tolist()
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("stencil nodes must be strictly increasing")
    return _coefficients(t, order)


def _coefficients(t, order):
    """compute_coefficients unchecked: t holds the order + 1 nodes of one stencil as
    floats, or of m stencils as arrays (giving (order + 1, m)), bit-equal either way."""
    x = t[-1]
    gaps = [x - tj for tj in t[:-1]]     # x - t_j for j < k; zero at j = k
    ders = []                            # Ldot_j(x), ascending node t_j
    for i in range(order):
        num = den = 1.0
        for j, tj in enumerate(t):
            if j != i:
                den *= t[i] - tj
                if j < order:
                    num *= gaps[j]
        ders.append(num / den)
    total = 0.0
    for ell in range(order):
        term = 1.0
        for j in range(order):
            if j != ell:
                term *= gaps[j]
        total += term
    den = 1.0
    for gap in gaps:
        den *= gap
    ders.append(total / den)
    h = x - t[-2]
    return np.array([h * der for der in reversed(ders)])


# ---------------------------------------------------------------------------
# Grid and tape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Nodes t_0..t_N and per-step orders k_0..k_{N-1} of an integration."""

    nodes: np.ndarray
    orders: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        orders = np.asarray(self.orders, dtype=int)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if orders.shape != (nodes.size - 1,):
            raise ValueError("need exactly one order per step")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        highest = np.minimum(np.arange(1, orders.size + 1), MAX_ORDER)
        bad = np.flatnonzero((orders < 1) | (orders > highest))
        if bad.size:
            n = bad[0]
            raise ValueError(f"step {n} has order {orders[n]}, admissible range is "
                             f"[1, {highest[n]}]")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "orders", orders)

    @property
    def stepsizes(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @cached_property
    def alphas(self) -> np.ndarray:
        """(N, MAX_ORDER + 1) read-only table, derived on first use: row n
        holds alpha_0..alpha_k of step n, newest first, zero past order k."""
        table = np.zeros((self.n_steps, MAX_ORDER + 1))
        for k in np.unique(self.orders).tolist():   # one kernel call per order
            steps = np.flatnonzero(self.orders == k)
            columns = [self.nodes[steps + 1 - k + j] for j in range(k + 1)]
            table[steps, :k + 1] = _coefficients(columns, k).T
        table.flags.writeable = False
        return table

    @cached_property
    def predictor_weights(self) -> np.ndarray:
        """(N, MAX_ORDER + 1) read-only table, derived on first use: row n holds
        the Lagrange weights at t_{n+1} of step n-1's stencil t_{n-q}..t_n,
        ascending, q the order of step n-1 (q = 0 and weight 1 for step 0),
        zero past q.  Summed with y_{n-q}..y_n in ascending order, row n gives
        step n's predictor, bit-equal to _predict's."""
        table = np.zeros((self.n_steps, MAX_ORDER + 1))
        before = self.orders_before
        for q in np.unique(before).tolist():   # one kernel call per order
            steps = np.flatnonzero(before == q)
            columns = [self.nodes[steps - q + j, None] for j in range(q + 1)]
            weights = _lagrange_weights(columns, self.nodes[steps + 1, None])
            for j, w in enumerate(weights):
                table[steps, j] = np.ravel(w)
        table.flags.writeable = False
        return table

    @property
    def orders_before(self) -> np.ndarray:
        """(N,) order of the step before each step, 0 for step 0: the degree
        of the polynomial its predictor extrapolates."""
        return np.concatenate(([0], self.orders[:-1]))


@dataclass(frozen=True)
class IntegrationTape:
    """Frozen record of a forward integration, sufficient for adjoint replay:
    one layout for both drivers, whose mode and driver_params say how the
    Newton tolerances are derived."""

    problem_name: str
    problem_params: dict
    dimension: int
    mode: str
    grid: TimeGrid
    states: np.ndarray                       # (N+1, d)
    newton_iterations: np.ndarray            # (N,)
    driver_params: dict = field(default_factory=dict)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        n = self.grid.n_steps
        if states.shape != (n + 1, self.dimension):
            raise ValueError(
                f"states have shape {states.shape}, expected {(n + 1, self.dimension)}"
            )
        object.__setattr__(self, "states", states)
        iterations = np.asarray(self.newton_iterations, dtype=int)
        if iterations.shape != (n,):
            raise ValueError(f"newton_iterations has shape {iterations.shape}, "
                             f"expected ({n},)")
        object.__setattr__(self, "newton_iterations", iterations)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def newton_tolerances(self) -> np.ndarray:
        """(N,) Newton tolerances, derived on first use by the driver's rule,
        bit-equal to the ones it solved to: not stored, so not loosened."""
        if self.mode == "nonadaptive":
            return np.full(self.n_steps, NEWTON_TOL_NONADAPTIVE)
        if self.mode != "adaptive":
            raise ValueError(f"unknown integration mode {self.mode!r}")
        try:
            rtol = float(self.driver_params["rtol"])
        except KeyError:
            raise ValueError("adaptive tape without driver_params.rtol") from None
        # every step's predictor, bit-equal to _predict's, by order of the step before
        weights, before = self.grid.predictor_weights, self.grid.orders_before
        predictors = np.empty((self.n_steps, self.dimension))
        for q in np.unique(before).tolist():
            steps = np.flatnonzero(before == q)
            stencils = self.states[steps - q + np.arange(q + 1)[:, None]]   # (q + 1, m, d)
            predictors[steps] = np.add.reduce(weights[steps, :q + 1].T[:, :, None] * stencils)
        return np.array([_adaptive_newton_tol(rtol, h, p)
                         for h, p in zip(self.grid.stepsizes, predictors)])


def stencil_table(tape):
    """(alphas, nodes), each (N, MAX_ORDER + 1): row n holds alpha_0..alpha_k
    and t_{n+1}..t_{n+1-k} of step n, newest first, zero past its order k."""
    idx = np.arange(1, tape.n_steps + 1)[:, None] - _LAGS
    inside = _LAGS <= tape.grid.orders[:, None]
    return tape.grid.alphas, np.where(inside, tape.grid.nodes[np.maximum(idx, 0)], 0.0)


def coefficient_band(tape):
    """The (N + 1) x (N + 1) band A such that step n reads
    (A Y)_{n+1} = h_n f(t_{n+1}, y_{n+1}) for the row-major states Y, y_0
    included, held as its (N + 1, MAX_ORDER + 1) table of alpha_i^(n) at
    (n + 1, n + 1 - i): row 0, y_0's, is zero, and no entry reaches before
    y_0, since k_n <= n + 1."""
    return np.vstack([np.zeros(MAX_ORDER + 1), tape.grid.alphas])


def band_product(a, x, transpose=False):
    """A x, or A^T x, for the band table a of coefficient_band and (N + 1, d) x,
    as a CSR band computes it: zero entries skipped, no floating-point warning,
    lags summed highest first (a row's columns) or from 0 up (CSC columns of A^T)."""
    out, n = np.zeros_like(x), len(x)
    # a uniform grid's lags change only in their first 2k rows, y_0's and the self-start
    uniform = np.count_nonzero(a[1:, 0] != a[:-1, 0]) <= 2 * MAX_ORDER
    with np.errstate(all="ignore"):   # the CSR kernel warned of nothing, 0 * inf included
        for i in (range(a.shape[1]) if transpose else range(a.shape[1] - 1, -1, -1)):
            alpha = a[i:, i]
            if not np.count_nonzero(alpha):   # an all-zero lag adds nothing
                continue
            dst, src = (out[:n - i], x[i:]) if transpose else (out[i:], x[:n - i])
            if uniform:   # the rows past the lag's last change: one scalar product
                differ = np.flatnonzero(alpha != alpha[-1])
                head = differ[-1] + 1 if len(differ) else 0
                if alpha[-1] != 0.0:
                    dst[head:] += alpha[-1] * src[head:]
                alpha, dst, src = alpha[:head], dst[:head], src[:head]
            prod = alpha[:, None] * src
            # a zero entry adds +0.0, as if skipped: a sum that starts at +0.0 is never -0.0
            prod[alpha == 0.0] = 0.0
            dst += prod
    return out


def step_residuals(problem, tape) -> np.ndarray:
    """(N, d) residuals (A Y)[1:] - h F of the recorded steps, with A the band
    of coefficient_band and F stacking f(t_{n+1}, y_{n+1}) from one stacked
    rhs call."""
    f = problem.stacked_rhs(tape.grid.nodes[1:], tape.states[1:])
    return (band_product(coefficient_band(tape), tape.states)[1:]
            - tape.grid.stepsizes[:, None] * f)


def jacobian_blocks(problem, tape):
    """The tape's f_y for the adjoint sweep and verify_kkt, as tuples
    (start, stop, jac, constant) for the steps start..stop-1, which produce
    y_{start+1}..y_stop: walked backward from the last step in blocks of at
    least two and at most max(2, JACOBIAN_BLOCK // d^2) steps (the last block
    walked may hold one), and jac the (stop - start, d, d) f_y at those
    states from one stacked jacobian call per block, so no N d^2 array is
    built.  A (1, d, d) answer to the first call is an f_y that depends on
    neither the state nor the time: constant is then True, and that jac
    comes with every block, from that one call."""
    block = max(2, JACOBIAN_BLOCK // tape.dimension ** 2)
    constant = False
    for stop in range(tape.n_steps, 0, -block):
        start = max(stop - block, 0)
        if not constant:
            jac = problem.stacked_jacobian(tape.grid.nodes[start + 1:stop + 1],
                                           tape.states[start + 1:stop + 1])
            constant = stop == tape.n_steps and len(jac) == 1
        yield start, stop, jac, constant


def tape_residuals(problem, tape) -> np.ndarray:
    """Max-norm BDF residual of every recorded step (should sit below tolerance)."""
    return np.max(np.abs(step_residuals(problem, tape)), axis=1)


# ---------------------------------------------------------------------------
# Newton iteration for one implicit step
# ---------------------------------------------------------------------------

def _history_sum(alphas, history):
    """sum_{i >= 1} alpha_i y_{n+1-i} in ascending i; history is y_n, y_{n-1}, ..."""
    return np.add.reduce(alphas[1:, None] * history[:len(alphas) - 1], initial=0.0)


def _step_residual(problem, t, h, alphas, back, y):
    """BDF step residual alpha_0 y + back - h f(t, y), back from _history_sum."""
    return alphas[0] * y + back - h * problem.rhs(t, y)


def _iteration_matrix(jac, h, alpha0, band=None):
    """Newton matrix alpha_0 I - h jac for jac = f_y (the adjoint passes
    f_y^T): dense for band None, else in LAPACK band storage for the
    bandwidths band = (kl, ku) of jac, read from its kl + ku + 1 diagonals.
    On a stack jac (m, d, d), with h and alpha0 of shape (m, 1, 1), the
    (m, d, d) or (m, 2 kl + ku + 1, d) stack of the m matrices."""
    # Entrywise alpha_0 - h J_ii and 0.0 - h J_ij, not -h*f_y with alpha_0
    # added to the diagonal afterwards: that would turn off-diagonal +0.0
    # into -0.0.
    d = jac.shape[-1]
    if band is None:
        m = alpha0 * np.eye(d)
        m -= h * jac   # in place: one temporary fewer on a stack
        return m
    kl, ku = band
    # entry (i, i + k) goes to ab[kl + ku - k, i + k]; the first kl rows
    # stay zero for dgbtrf's fill-in
    ab = np.zeros(jac.shape[:-2] + (2 * kl + ku + 1, d))
    if jac.ndim == 3:   # (m, 1) factors against the (m, d - |k|) diagonals
        h, alpha0 = h[:, 0], alpha0[:, 0]
    for k in range(-kl, ku + 1):
        ab[..., kl + ku - k, max(k, 0):d + min(k, 0)] = \
            (alpha0 if k == 0 else 0.0) - h * jac.diagonal(k, -2, -1)
    return ab


def _regular(finite, smallest, largest):
    """lu_factor's test, on floats or on arrays over a stack: finite factors
    whose smallest pivot magnitude exceeds 1e3 eps times the largest and
    1e3 eps itself, that is 1e3 eps max(largest, 1)."""
    tol = 1e3 * EPS
    return finite & (smallest > tol * largest) & (smallest > tol)


def lu_factor(m, band=None):
    """LU factors of m = _iteration_matrix(..., band) for lu_solve, or None
    when m is singular to working precision (a pivot at most 1e3 eps of the
    largest, or of 1) or not finite.  For a stack m (k, rows, d), the stacked
    factors (lu, piv, band), tested all at once, and the (k,) mask of the
    matrices that pass: (lu[i], piv[i], band) are the factors of m[i]."""
    # LAPACK directly: SciPy's wrappers cost over ten times the d = 2
    # factorization, and exact singularity is caught by the pivot test, which
    # for one matrix runs on Python floats because NumPy's min and max cost
    # more than dgetrf.
    if m.ndim == 2:
        if band is None:
            lu, piv, _ = dgetrf(m)
            pivots = lu.diagonal()
        else:
            lu, piv, _ = dgbtrf(m, *band)
            pivots = lu[sum(band)]   # U's diagonal row
        diag = np.abs(pivots).tolist()
        return (lu, piv, band) if _regular(np.isfinite(lu).all(), min(diag), max(diag)) else None
    k, rows, d = m.shape
    # each matrix in Fortran order, as LAPACK returns it, so lu_solve copies none
    lu = np.empty((k, d, rows)).transpose(0, 2, 1)
    piv = np.empty((k, d), dtype=np.intc)
    for i, a in enumerate(m):
        lu[i], piv[i], _ = dgetrf(a) if band is None else dgbtrf(a, *band)
    diag = np.abs(lu.diagonal(0, -2, -1) if band is None else lu[:, sum(band)])
    return (lu, piv, band), _regular(np.isfinite(lu).all(axis=(1, 2)),
                                     diag.min(axis=1), diag.max(axis=1))


def lu_solve(factors, b):
    """Solution x of m x = b, with factors = lu_factor(m, band)."""
    lu, piv, band = factors
    if band is None:
        return dgetrs(lu, piv, b)[0]
    return dgbtrs(lu, *band, b, piv)[0]


class _FactorCache:
    """LU factorization of alpha_0*I - h*f_y, reused across steps while valid."""

    def __init__(self):
        self.lu = None
        self.h = None
        self.alpha0 = None

    def matches(self, h, alpha0):
        # The iteration matrix depends on the stencil only through alpha0, so
        # a stencil change that moves alpha0 (e.g. startup ramp -> uniform
        # run) invalidates the LU even at fixed h.
        return (self.lu is not None and abs(self.h - h) <= 4.0 * EPS * abs(h)
                and abs(self.alpha0 - alpha0) <= 4.0 * EPS * abs(alpha0))

    def refactor(self, problem, t_new, y, h, alpha0):
        jac = problem.jacobian(t_new, y)
        band = problem.band
        # the entries _iteration_matrix reads: all of f_y, or the band's diagonals
        read = [jac] if band is None else [jac.diagonal(k) for k in range(-band[0], band[1] + 1)]
        if not all(np.isfinite(entries).all() for entries in read):
            # fatal, not a step failure: a smaller step does not mend f_y
            raise SolverError(f"singular or non-finite Newton matrix at t={t_new}: non-finite f_y")
        lu = lu_factor(_iteration_matrix(jac, h, alpha0, band), band)
        if lu is None:
            raise _StepFailure(f"singular or non-finite Newton iteration matrix at t={t_new}")
        self.lu = lu
        self.h = h
        self.alpha0 = alpha0


class _StepFailure(Exception):
    """Internal: one implicit step failed (adaptive driver retries, others abort)."""


def _newton_iterate(problem, t_new, h, alphas, history, predictor, tol,
                    cache: _FactorCache):
    """Solve the implicit BDF equation for y_{n+1}: returns (y, iterations).

    `history` lists prior states newest first (y_n, y_{n-1}, ...), pairing
    with alphas[1:].  Each call takes at least one update, as SciPy's BDF
    does, so no adaptive error estimate (corrector minus predictor) is 0 by
    construction.  The matrix is refactored only when (h, alpha_0) changed
    since the cached factorization or the contraction rate exceeds
    RATE_REFACTOR; convergence is tested on the max-norm residual.  If the
    budget runs out (typically a matrix reused over many steps has drifted),
    it is refactored at the current iterate and the iteration gets one more.
    """
    back = _history_sum(alphas, history)
    y = np.array(predictor, dtype=float)
    r = _step_residual(problem, t_new, h, alphas, back, y)
    # one max-abs reduction per vector; it is NaN or inf exactly when an entry is
    rnorm = float(np.maximum.reduce(abs(r)))
    if not math.isfinite(rnorm):
        raise _StepFailure(f"non-finite residual at t={t_new}")

    if not cache.matches(h, alphas[0]):
        cache.refactor(problem, t_new, y, h, alphas[0])

    total = 0
    for attempt in range(2):
        prev_step_norm = None
        for _ in range(NEWTON_MAXITER):
            total += 1
            delta = lu_solve(cache.lu, -r)
            step_norm = float(np.maximum.reduce(abs(delta)))
            if not math.isfinite(step_norm):
                raise _StepFailure(f"Newton update diverged at t={t_new}")
            y = y + delta
            r = _step_residual(problem, t_new, h, alphas, back, y)
            rnorm = float(np.maximum.reduce(abs(r)))
            if not math.isfinite(rnorm):
                raise _StepFailure(f"non-finite residual at t={t_new}")
            if rnorm <= tol:
                return y, total
            if prev_step_norm is not None and step_norm > RATE_REFACTOR * prev_step_norm:
                cache.refactor(problem, t_new, y, h, alphas[0])
            prev_step_norm = step_norm
        if attempt == 0:
            cache.refactor(problem, t_new, y, h, alphas[0])
    raise _StepFailure(
        f"Newton did not converge within {total} iterations at t={t_new} "
        f"(residual {rnorm:.3e}, tolerance {tol:.3e})"
    )


# ---------------------------------------------------------------------------
# The stencil interpolant: predictor, dense output and error estimate
# ---------------------------------------------------------------------------

def _lagrange_weights(ts, t):
    """Weights L_i(t) of the Lagrange basis on the nodes ts, ascending i: Python
    floats for one stencil of floats, or (m, 1) columns for m stencils given as
    (m, 1) columns ts and t, bit-equal either way."""
    weights = []
    for i, ti in enumerate(ts):
        num = den = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                num *= t - tj
                den *= ti - tj
        weights.append(num / den)
    return weights


def _interpolate(ts, ys, t):
    """Value at t of the Lagrange polynomial through the points (ts[i], ys[i]),
    or of m such at once for (m, 1) columns ts and t and (m, d) ys, bit-equal.
    The terms L_i(t) y_i are summed in ascending i by one np.add.reduce over
    the stencil axis, which adds them in sequence."""
    weights = np.array(_lagrange_weights(ts, t))
    if weights.ndim == 1:
        weights = weights[:, None]
    return np.add.reduce(weights * ys)


def _predict(nodes, states, orders, n, t_new):
    """Value at t_new of the Lagrange polynomial through step n-1's stencil:
    the predictor of step n extrapolates it, dense output interpolates."""
    if n == 0:
        return np.array(states[0], dtype=float)
    first = n - orders[n - 1]
    # node arithmetic on Python floats: IEEE-equal to NumPy scalars, and faster
    return _interpolate([float(t) for t in nodes[first:n + 1]], states[first:n + 1],
                        float(t_new))


def _error_estimate(nodes, states, t_new, y_new, q, fit=None):
    """Local error estimate for order q of the step to (t_new, y_new) from
    the prior points (nodes, states): the corrector minus the polynomial
    through the q+1 trailing points (fit, its value at t_new, if known),
    scaled by h_new / (t_new - t_{n-q}).

    That is dd * h_new^2 * prod_{j=1..q-1} (t_new - t_{n-j}), where dd is the
    divided difference over the q+2 points; on a uniform grid it equals
    h^(q+1) * ||y^(q+1)|| / (q+1), the order-q error constant.
    """
    n_hist = len(states)
    if q + 1 > n_hist:
        raise ValueError(f"order-{q} estimate needs {q + 1} prior points, have {n_hist}")
    first = n_hist - 1 - q
    if fit is None:   # node arithmetic on Python floats, as in _predict
        fit = _interpolate([float(t) for t in nodes[first:]], states[first:], float(t_new))
    diff = y_new - fit
    h_new = t_new - nodes[-1]
    return math.sqrt(diff.dot(diff)) * h_new / (t_new - nodes[first])


# ---------------------------------------------------------------------------
# Non-adaptive driver
# ---------------------------------------------------------------------------

def _nonadaptive_plan(k, n_main):
    """Per-step (node fraction, order) plan; fractions are multiples of h.

    The self-start fills exactly the first main interval: for k = 2 it is two
    order-1 steps of h/2; for any other k it is k-1 order-ascending steps of
    length h * 2^j / 2^(k-1) (orders 1..k-1) and one order-k step of h / 2^(k-1)
    (k = 1: one step of h).  The remaining n_main - 1 steps run at (k, h).
    """
    if k == 2:
        fracs, orders = [0.5, 1.0], [1, 1]
    else:
        denom = 2.0 ** (k - 1)
        fracs, orders, acc = [], [], 0.0
        for j in range(k - 1):
            acc += 2.0 ** j / denom
            fracs.append(acc)
            orders.append(j + 1)
        fracs.append(1.0)
        orders.append(k)
    return (np.concatenate([fracs, np.arange(2.0, n_main + 1)]),
            np.concatenate([orders, np.full(n_main - 1, k)]))


def integrate_nonadaptive(problem, k: int, h: float) -> IntegrationTape:
    """Integrate with fixed order k and main stepsize h.

    Requires (t_f - t_s) / h to be an integer N >= k.  The order ramp of the
    self-start tiles the first main interval exactly (see _nonadaptive_plan),
    so the grid hits t_f exactly.  Newton failures abort with the failing
    step index.
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= int(k) <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {k}")
    k = int(k)
    h = float(h)
    if not h > 0.0:   # NaN fails too
        raise ValueError(f"stepsize must be positive, got {h}")
    span = problem.final_time - problem.initial_time
    n_main = span / h
    # (N + 1) * d with N = n_main + k - 1, refused before anything is allocated
    if (n_main + k) * problem.dimension > MAX_STATE_VALUES:
        raise ValueError(
            f"(t_f - t_s) / h = {n_main:.6g} main steps of dimension "
            f"{problem.dimension} exceed the tape limit of {MAX_STATE_VALUES} "
            "state values; choose a larger h")
    if abs(n_main - round(n_main)) > 1e-8 * max(1.0, abs(n_main)):
        raise ValueError(
            f"(t_f - t_s) / h = {n_main} is not an integer; "
            "choose h so the grid lands on t_f"
        )
    n_main = int(round(n_main))
    if n_main < k:
        raise ValueError(f"need at least k = {k} main intervals, got {n_main}")

    fracs, orders = _nonadaptive_plan(k, n_main)
    nodes = problem.initial_time + h * fracs
    nodes[-1] = problem.final_time
    nodes = np.concatenate(([problem.initial_time], nodes))
    grid = TimeGrid(nodes=nodes, orders=orders)

    n_steps = grid.n_steps
    d = problem.dimension
    states = np.empty((n_steps + 1, d))
    states[0] = problem.initial_state
    iters = np.zeros(n_steps, dtype=int)
    cache = _FactorCache()
    weights, before = grid.predictor_weights, grid.orders_before.tolist()

    for n in range(n_steps):
        alphas = grid.alphas[n, :orders[n] + 1]
        q = before[n]
        predictor = np.add.reduce(weights[n, :q + 1, None] * states[n - q:n + 1])
        try:
            states[n + 1], iters[n] = _newton_iterate(
                problem, nodes[n + 1], nodes[n + 1] - nodes[n], alphas,
                states[n::-1], predictor, NEWTON_TOL_NONADAPTIVE, cache)
        except _StepFailure as exc:
            raise SolverError(f"step {n} failed: {exc}") from exc

    return IntegrationTape(
        problem_name=problem.name,
        problem_params=dict(problem.params),
        dimension=d,
        mode="nonadaptive",
        grid=grid,
        states=states,
        newton_iterations=iters,
        driver_params={"order": k, "h": h},
    )


# ---------------------------------------------------------------------------
# Adaptive driver
# ---------------------------------------------------------------------------

def _adaptive_newton_tol(rtol, h, predictor):
    tol = 1e-2 * min(rtol, h * h)
    # floor keeps clamped (very small) final steps solvable in float64.  The
    # step loops' 2-norms are math.sqrt(v.dot(v)), np.linalg.norm's own route.
    return max(tol, 1e2 * EPS) * (1.0 + math.sqrt(predictor.dot(predictor)))


def integrate_adaptive(problem, rtol: float, atol: float = ADAPTIVE_ATOL) -> IntegrationTape:
    """Integrate with adaptive order and stepsize from t_s to t_f (hit exactly).

    Every accepted step satisfies ||est||_2 <= rtol * ||y||_2 + atol, where
    est is the corrector-predictor difference scaled to a local error (see
    _error_estimate; explicit-Euler comparison on the very first step).  The
    order moves within {k-1, k, k+1}, picking the candidate that allows the
    largest next step; increases are deferred until k+1 steps were taken at
    the current order.  Stepsize changes are limited to [0.2, 2.5] per step
    with safety 0.9.  Stepsize underflow aborts, as do a non-finite
    f(t_s, y_s), which the first stepsize divides by, and an interval so short
    that a product of node differences underflows to 0.0.
    """
    rtol = float(rtol)
    atol = float(atol)
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):   # NaN fails too
        raise ValueError(
            f"tolerances must be positive and finite, got rtol={rtol}, atol={atol}")

    t0 = problem.initial_time
    tf = problem.final_time
    d = problem.dimension
    span = tf - t0

    f0 = problem.rhs(t0, problem.initial_state)
    f0_norm = np.linalg.norm(f0, 2)
    if not np.isfinite(f0_norm):   # the first stepsize divides by it
        raise SolverError(f"non-finite f(t_s, y_s) at t_s={t0} (2-norm {f0_norm}): "
                          "no first stepsize")
    h = span * min(1e-2, np.sqrt(rtol)) / (1.0 + f0_norm)
    h = min(h, span)

    nodes = [t0]
    states = [np.array(problem.initial_state, dtype=float)]
    orders = []
    iters = []

    k = 1
    steps_at_order = 0
    rejects_in_a_row = 0
    cache = _FactorCache()
    t = t0
    n = 0

    try:
        while t < tf:
            floor = 1e3 * EPS * max(abs(t), abs(tf))
            if not h >= floor:   # NaN fails too
                raise SolverError(f"stepsize underflow at t={t} (h={h:.3e} below the floor "
                                  f"1e3 eps max(|t|, |t_f|) = {floor:.3e}) after step {n}")
            t_new = tf if t + h >= tf else t + h
            h_eff = t_new - t
            if not h_eff > 0.0:   # on a subnormal interval h and the floor round to 0.0
                raise SolverError(f"stepsize underflow at t={t} (h={h:.3e} does not "
                                  f"advance t) after step {n}")

            alphas = compute_coefficients(nodes[n + 1 - k:n + 1] + [t_new], k)
            predictor = _predict(nodes, states, orders, n, t_new)
            tol_newton = _adaptive_newton_tol(rtol, h_eff, predictor)
            try:
                y_new, iterations = _newton_iterate(
                    problem, t_new, h_eff, alphas, states[:-k - 1:-1], predictor,
                    tol_newton, cache)
            except _StepFailure:
                h = h_eff / 2.0
                cache.lu = None
                steps_at_order = 0
                rejects_in_a_row += 1
                continue

            if n == 0:
                est_vec = 0.5 * (y_new - states[0] - h_eff * f0)
                err = math.sqrt(est_vec.dot(est_vec))
            else:   # when step n-1 had order k too, the predictor is the order-k fit
                err = _error_estimate(nodes, states, t_new, y_new, k,
                                      predictor if k == orders[-1] else None)
            tol_acc = rtol * math.sqrt(y_new.dot(y_new)) + atol

            if not np.isfinite(err) or err > tol_acc:
                factor = SAFETY * (tol_acc / err) ** (1.0 / (k + 1)) if err > 0 else 1.0
                h = h_eff * min(max(factor, MIN_FACTOR), 1.0)
                rejects_in_a_row += 1
                if rejects_in_a_row >= 3:
                    h = min(h, h_eff / 2.0)
                steps_at_order = 0
                continue

            steps_at_order += 1
            rejects_in_a_row = 0

            # Order/stepsize selection for the next step: among k-1, k, k+1 pick
            # the order whose estimate allows the largest stepsize (ties favor
            # the lower order; increases deferred until k+1 steps at current k).
            # The accepted step is appended afterwards, so every estimate reads
            # the same prior points.
            best_k = k
            best_h = None
            candidates = [k]
            if k > 1:
                candidates.append(k - 1)
            if k < MAX_ORDER and steps_at_order >= k + 1:
                candidates.append(k + 1)
            for q in sorted(candidates):
                if q == k:
                    est_q = err
                elif q + 1 > len(states):   # needs q+1 prior points
                    continue
                else:
                    est_q = _error_estimate(nodes, states, t_new, y_new, q)
                if est_q > 0.0:
                    factor = SAFETY * (tol_acc / est_q) ** (1.0 / (q + 1))
                else:
                    factor = MAX_FACTOR
                h_q = h_eff * min(max(factor, MIN_FACTOR), MAX_FACTOR)
                if best_h is None or h_q > best_h * (1.0 + 1e-10):
                    best_h = h_q
                    best_k = q

            nodes.append(t_new)
            states.append(y_new)
            orders.append(k)
            iters.append(iterations)
            t = t_new
            n += 1
            if best_k != k:
                steps_at_order = 0
                k = best_k
            h = best_h
    except ZeroDivisionError as exc:   # the stencils' node arithmetic, on Python floats
        raise SolverError(f"node spacing underflow at t={t} after step {n}: a product of "
                          "node differences is 0.0 in float64") from exc

    grid = TimeGrid(nodes=np.array(nodes), orders=np.array(orders, dtype=int))
    return IntegrationTape(
        problem_name=problem.name,
        problem_params=dict(problem.params),
        dimension=d,
        mode="adaptive",
        grid=grid,
        states=np.array(states),
        newton_iterations=np.array(iters, dtype=int),
        driver_params={"rtol": rtol, "atol": atol},
    )


# ---------------------------------------------------------------------------
# Dense output
# ---------------------------------------------------------------------------

def dense_eval(tape: IntegrationTape, t: float) -> np.ndarray:
    """Evaluate the tape's interpolated trajectory at time t.

    On the interval (t_n, t_{n+1}] the evaluation uses the step's own
    stencil polynomial sum_i L_i(t) * y_{n+1-i} of degree k_n; at grid nodes
    the stored states are returned exactly.
    """
    nodes = tape.grid.nodes
    t = float(t)
    if not nodes[0] <= t <= nodes[-1]:   # NaN fails too
        raise ValueError(
            f"t={t} outside the integration interval [{nodes[0]}, {nodes[-1]}]"
        )
    idx = int(np.searchsorted(nodes, t, side="left"))
    if nodes[idx] == t:
        return tape.states[idx].copy()
    # t lies in (t_{idx-1}, t_idx), the interval of step idx-1
    return _predict(nodes, tape.states, tape.grid.orders, idx, t)


# ---------------------------------------------------------------------------
# Frozen replay (the map differentiated by finite differences)
# ---------------------------------------------------------------------------

def replay_integration(problem, tape: IntegrationTape, y_start=None) -> np.ndarray:
    """Re-solve the tape's scheme, grid and orders frozen, from y_start.

    Each step runs _newton_iterate from its recorded state y_{n+1} with a
    fresh factor cache: its first update, taken even when y_{n+1} meets the
    tolerance (a perturbed step would stay frozen), uses f_y at that state,
    and the rest the same factors, down to the tape's own tolerance.
    To first order, y_start -> y_N is then the scheme's own map, whose exact
    derivative the sweep computes: the object of finite-difference checks.
    The sweep takes f_y from stacked calls; for the shipped problems the
    per-state f_y agrees with it bit for bit (see OdeProblem).
    Returns the full (N+1, d) state array.
    """
    states = np.empty((tape.n_steps + 1, tape.dimension))
    states[0] = tape.states[0] if y_start is None else np.asarray(y_start, dtype=float)
    for n in range(tape.n_steps):
        alphas = tape.grid.alphas[n, :tape.grid.orders[n] + 1]
        t_new = tape.grid.nodes[n + 1]
        try:   # a fresh cache per step: an earlier step's f_y is not the sweep's
            states[n + 1] = _newton_iterate(
                problem, t_new, t_new - tape.grid.nodes[n], alphas, states[n::-1],
                tape.states[n + 1], tape.newton_tolerances[n], _FactorCache())[0]
        except _StepFailure as exc:
            raise SolverError(f"replay step {n} failed: {exc}") from exc
    return states
