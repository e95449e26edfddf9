"""An exact-arithmetic oracle for the discrete derivative.

The paper's object is the exact derivative of the discrete map
y_s -> J(y_N) through the recorded BDF scheme.  `exact_gradient` computes it
with the standard library alone: the coefficients rebuilt from the float
nodes as exact fractions, then the forward sensitivities
S_n = dy_n / dy_s of the tape's own scheme,

    (alpha_0^(n) I - h_n f_y(t_{n+1}, y_{n+1})) S_{n+1}
        = - sum_{i >= 1} alpha_i^(n) S_{n+1-i},    S_0 = I,

in 60-digit decimal, with f_y taken at the recorded states, and the gradient
S_N^T J'(y_N).  Nothing is shared with the package but the tape and the
problem's f_y and J', so an error in the coefficients, the sweep or the
certificate that they share shows here, far below a finite difference's
1e-6.
"""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bdfadjoint import adjoint_sweep, bdf, get_problem, integrate_adaptive, integrate_nonadaptive
from bdfadjoint.analysis import verify_kkt

CATENARY, _ = get_problem("catenary")
# the 3 x 3 linear problem of the certificate's scaling measurements
LINEAR, _ = get_problem("linear", a=[[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]],
                        y0=[1.0, 0.3, -0.7], c=[1.0, 0.5, 0.25])
BOUND = 1e-13   # relative, max-norm; measured 3.3e-16, 8.1e-16 and 3.0e-14 on _TAPES
DIGITS = decimal.Context(prec=60)


def exact_alphas(nodes, orders):
    """[[alpha_0, ..., alpha_k] of each step] as exact Fractions of the float
    nodes: alpha_i = h_n Ldot_i(t_{n+1}) on the stencil
    s_0 = t_{n+1}, ..., s_k = t_{n+1-k}, where Ldot_0(s_0) is the sum of
    1 / (s_0 - s_j) and, for i >= 1, Ldot_i(s_0) is the product of
    (s_0 - s_j) over j != 0, i divided by the product of (s_i - s_j) over
    j != i."""
    t = [Fraction(x) for x in nodes.tolist()]
    table = []
    for n, k in enumerate(orders.tolist()):
        s = t[n + 1 - k:n + 2][::-1]   # newest first
        h = s[0] - s[1]
        row = [h * sum(1 / (s[0] - s[j]) for j in range(1, k + 1))]
        for i in range(1, k + 1):
            row.append(h * math.prod(s[0] - s[j] for j in range(1, k + 1) if j != i)
                       / math.prod(s[i] - s[j] for j in range(k + 1) if j != i))
        table.append(row)
    return table


def _solve(a, b):
    """x of a x = b for square a and b of as many rows, lists of lists of
    Decimals, by Gaussian elimination with partial pivoting."""
    a = [row[:] + rhs[:] for row, rhs in zip(a, b)]
    d = len(a)
    for col in range(d):
        pivot = max(range(col, d), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, d):
            factor = a[r][col] / a[col][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    x = [None] * d
    for r in range(d - 1, -1, -1):
        x[r] = [(v - sum(a[r][c] * x[c][j] for c in range(r + 1, d))) / a[r][r]
                for j, v in enumerate(a[r][d:])]
    return x


def _dec(x):
    """A Fraction, or a float exactly, rounded to the context's digits."""
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return +Decimal(x)


def exact_gradient(problem, tape):
    """The gradient of y_s -> J(y_N) through the tape's scheme, exact
    coefficients and 60-digit forward sensitivities, as floats."""
    nodes, states, d = tape.grid.nodes, tape.states, tape.dimension
    with decimal.localcontext(DIGITS):
        sens = [[[Decimal(int(i == j)) for j in range(d)] for i in range(d)]]
        for n, alpha in enumerate(exact_alphas(nodes, tape.grid.orders)):
            alpha = [_dec(a) for a in alpha]
            h = _dec(Fraction(nodes[n + 1]) - Fraction(nodes[n]))
            jac = np.asarray(problem.jacobian(nodes[n + 1], states[n + 1])).tolist()
            matrix = [[alpha[0] * (i == j) - h * _dec(jac[i][j]) for j in range(d)]
                      for i in range(d)]
            rhs = [[-sum(a * sens[n + 1 - i][r][c] for i, a in enumerate(alpha) if i)
                    for c in range(d)] for r in range(d)]
            sens.append(_solve(matrix, rhs))
        c = [_dec(v) for v in problem.criterion_gradient(states[-1]).tolist()]
        return np.array([float(sum(c[r] * sens[-1][r][j] for r in range(d)))
                         for j in range(d)])


def _relative_error(gradient, exact):
    return np.max(np.abs(gradient - exact)) / np.max(np.abs(exact))


_TAPES = {
    "catenary k=2 h=2^-6": (CATENARY, lambda: integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)),
    "linear k=2 h=2^-6": (LINEAR, lambda: integrate_nonadaptive(LINEAR, 2, 2.0 ** -6)),
    "catenary rtol=1e-11": (CATENARY, lambda: integrate_adaptive(CATENARY, 1e-11)),
}


@pytest.mark.parametrize("name", list(_TAPES))
def test_sweep_matches_the_exact_derivative(name):
    """adjoint_sweep's gradient is the exact derivative of the discrete map
    to BOUND relative in the max-norm, on a uniform catenary tape, a 3 x 3
    linear one and an adaptive catenary one at orders up to 6."""
    problem, run = _TAPES[name]
    tape = run()
    assert _relative_error(adjoint_sweep(problem, tape).gradient,
                           exact_gradient(problem, tape)) <= BOUND


def test_exact_alphas_meet_the_invariants():
    """On a nonuniform stencil of each order the exact coefficients sum to
    zero, sum alpha_i t_i to h and sum alpha_i t_i^j to j h t_{n+1}^(j-1)
    for j <= k (exact on polynomials of degree k), and agree with the
    package's to 1e-14 relative."""
    nodes = np.cumsum([0.0, 0.3, 0.1, 0.7, 0.2, 0.5, 0.4, 0.9])
    for k in range(1, bdf.MAX_ORDER + 1):
        orders = np.minimum(np.arange(1, nodes.size), k)
        alphas = exact_alphas(nodes, orders)[-1]
        t = [Fraction(x) for x in nodes[::-1][:k + 1].tolist()]
        h = t[0] - t[1]
        for j in range(k + 1):
            want = j * h * t[0] ** (j - 1) if j else 0
            assert sum(a * s ** j for a, s in zip(alphas, t)) == want
        package = bdf.compute_coefficients(nodes[-k - 1:], k)
        np.testing.assert_allclose(package, [float(a) for a in alphas], rtol=1e-14, atol=0)


def _alpha1_mutant(grid, alphas):
    """alpha_1 of every step off by 1e-6 relative, alpha_0 re-summed to keep
    the zero sum."""
    alphas[:, 1] *= 1 + 1e-6
    alphas[:, 0] = -alphas[:, 1:].sum(axis=1)


def _curvature_mutant(grid, alphas):
    """1e-6 alpha_1 (1, -2, 1) added to each order-2 step on a uniform
    stencil: invisible to the zero sum and to sum alpha_i t_i = h there, but
    no longer exact on t^2."""
    t = grid.nodes
    steps = (grid.orders == 2) & np.append(True, t[2:] - 2 * t[1:-1] + t[:-2] == 0.0)
    alphas[steps, :3] += 1e-6 * alphas[steps, 1:2] * np.array([1.0, -2.0, 1.0])


@pytest.mark.parametrize("mutant", [_alpha1_mutant, _curvature_mutant])
def test_oracle_catches_a_coefficient_error_the_residuals_share(monkeypatch, mutant):
    """With TimeGrid.alphas mutated, the run, the sweep and the certificate
    all use the mutant, so the forward and adjoint residuals pass; the
    oracle, whose coefficients come from the nodes, misses the sweep's
    gradient by more than 100 BOUND.  coefficient_defect sees the alpha_1
    mutant (it breaks sum alpha_i t_i = h) but not the curvature one, which
    passes every record of the certificate."""
    derive = bdf.TimeGrid.__dict__["alphas"].func

    def mutated(grid):
        alphas = derive(grid).copy()
        mutant(grid, alphas)
        alphas.flags.writeable = False
        return alphas

    monkeypatch.setattr(bdf.TimeGrid, "alphas", property(mutated))
    tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)
    adjoints = adjoint_sweep(CATENARY, tape)
    checks = {check.name: check.passed for check in verify_kkt(CATENARY, tape, adjoints)}
    assert checks["nominal_residual"] and checks["adjoint_residual"]
    assert checks["initial_residual"]
    assert all(checks.values()) is checks["coefficient_defect"] is (mutant is _curvature_mutant)
    assert _relative_error(adjoints.gradient, exact_gradient(CATENARY, tape)) > 100 * BOUND
