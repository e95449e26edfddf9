"""Discrete adjoints of a frozen BDF run and the weak-adjoint step function.

The adjoint sweep differentiates the recorded discretization itself (reverse
mode with all adaptive components pinned), so the resulting gradient is the
exact derivative of the discrete map y_s -> J(y_N) — not an approximation of
the continuous adjoint.  Working backwards over the tape:

    (alpha_0^(N-1) I - h_{N-1} f_y^T(t_N, y_N)) lambda_N = J'(y_N)^T

and for n = N-2 .. 0

    (alpha_0^(n) I - h_n f_y^T(t_{n+1}, y_{n+1})) lambda_{n+1}
        = - sum_{i >= 1} alpha_i^(n+i) lambda_{n+1+i},

with the convention alpha_i^(m) = 0 for i > k_m.  The gradient is what the
same recursion leaves in y_0's row, - sum_n alpha_{n+1}^(n) lambda_{n+1} over
the self-start steps, those with k_n = n + 1.  The result holds the grid too,
and with it is the weak adjoint: the right-continuous step function with jump
h_{n-1} lambda_n at t_n, vanishing at t_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bdf import (IntegrationTape, SolverError, _iteration_matrix,
                  jacobian_blocks, lu_factor, lu_solve)

__all__ = ["DiscreteAdjoints", "adjoint_sweep"]


@dataclass(frozen=True)
class DiscreteAdjoints:
    """Multipliers lambda_1..lambda_N on the grid t_0 < ... < t_N, the
    gradient w.r.t. y_s, and the weak adjoint Lambda^h they fix.

    Lambda^h is the right-continuous step function with jump h_{n-1} lambda_n
    at t_n: Lambda^h(t_s) = 0, on (t_n, t_{n+1}) its value is the sum of the
    jumps up to and including t_n, and evaluation at a jump node returns the
    post-jump value.  Its jumps and values are derived, not stored.
    """

    nodes: np.ndarray     # (N+1,) t_0..t_N
    lambdas: np.ndarray   # (N, d); row n-1 holds lambda_n, i.e. the multiplier at t_n
    gradient: np.ndarray  # (d,)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        gradient = np.asarray(self.gradient, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be at least two, strictly increasing")
        if lambdas.ndim != 2 or lambdas.shape[0] != nodes.size - 1:
            raise ValueError("need one multiplier per step of the grid")
        if gradient.shape != lambdas.shape[1:]:
            raise ValueError("the gradient must have the multipliers' dimension")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "gradient", gradient)

    @property
    def jump_sizes(self) -> np.ndarray:
        """(N, d): h_{n-1} lambda_n in row n-1."""
        return np.diff(self.nodes)[:, None] * self.lambdas

    @property
    def node_values(self) -> np.ndarray:
        """(N+1, d): Lambda^h(t_0), ..., Lambda^h(t_N), the partial sums of the jumps."""
        sums = np.cumsum(self.jump_sizes, axis=0)
        return np.vstack([np.zeros((1, sums.shape[1])), sums])

    def eval(self, t):
        """Lambda^h at time t (scalar or array), right-continuous on (t_s, t_f)."""
        t = np.asarray(t, dtype=float)
        if not np.all((self.nodes[0] <= t) & (t <= self.nodes[-1])):   # NaN fails too
            raise ValueError(f"t outside [{self.nodes[0]}, {self.nodes[-1]}]")
        out = self.node_values[np.searchsorted(self.nodes[1:], t, side="right")]
        return out if t.ndim else out.reshape(-1)

    __call__ = eval


def adjoint_sweep(problem, tape: IntegrationTape) -> DiscreteAdjoints:
    """Backward sweep over a completed tape, on its nodes themselves.

    Each lambda_j solves a d x d system with the transpose of the step
    matrix alpha_0^(j-1) I - h_{j-1} f_y(t_j, y_j) and then scatters
    -alpha_i^(j-1) lambda_j into the right-hand sides of the earlier rows its
    step stencil touches; the contribution reaching y_0 accumulates the
    gradient.  The tape's f_y comes from bdf.jacobian_blocks, one stacked
    jacobian call per block (so the problem must take stacked states, see
    OdeProblem).  Only an f_y that does not depend on the state keeps a
    step's factors, over each run of steps with equal h and alpha_0; any
    other f_y has every step's matrix built and factored.  The new matrices
    of a block are built and factored through bdf.lu_factor in one call
    each, and a block with none makes neither call.  For a problem that
    states a band (kl, ku), the transposed matrix is built, factored and
    solved in band storage with bandwidths (ku, kl).  A singular step matrix
    means the stability condition of the scheme is violated; it is refused,
    as is a non-finite one (the one at the highest t is named), and so are
    multipliers or a gradient that are not finite (a non-finite criterion
    gradient, or overflow).
    """
    n_steps = tape.n_steps
    d = tape.dimension
    h = tape.grid.stepsizes
    alphas = tape.grid.alphas
    orders = tape.grid.orders.tolist()

    rhs = np.zeros((n_steps + 1, d))
    rhs[n_steps] = problem.criterion_gradient(tape.states[n_steps])
    lambdas = np.zeros((n_steps + 1, d))
    band = None if problem.band is None else problem.band[::-1]   # of f_y^T
    # step n needs factors of its own where its (h, alpha_0) is not step n + 1's
    new_key = np.append((h[:-1] != h[1:]) | (alphas[:-1, 0] != alphas[1:, 0]), True)

    for start, stop, jac, constant in jacobian_blocks(problem, tape):
        renew = new_key[start:stop] | (not constant)   # the steps that need factors
        steps = start + np.flatnonzero(renew)
        if len(steps):
            # factors of the transposes themselves, so one plain solve serves
            (lus, pivs, _), regular = lu_factor(_iteration_matrix(
                np.broadcast_to(jac, (len(steps), d, d)).transpose(0, 2, 1),
                h[steps, None, None], alphas[steps, 0, None, None], band), band)
            if not regular.all():   # the highest t, the first the sweep meets
                bad = tape.grid.nodes[steps[np.flatnonzero(~regular)[-1]] + 1]
                raise SolverError(f"singular or non-finite adjoint matrix at t={bad}")
        i = len(steps)
        for step, new in zip(range(stop - 1, start - 1, -1), renew[::-1].tolist()):
            if new:
                i -= 1
                factors = lus[i], pivs[i], band
            j, k = step + 1, orders[step]
            lambdas[j] = lu_solve(factors, rhs[j])
            rhs[j - k:j] -= alphas[step, k:0:-1, None] * lambdas[j]

    gradient = rhs[0].copy()   # a view would keep all of rhs alive
    if not (np.all(np.isfinite(lambdas)) and np.all(np.isfinite(gradient))):
        raise SolverError("non-finite adjoint multipliers or gradient")
    return DiscreteAdjoints(tape.grid.nodes, lambdas[1:], gradient)

