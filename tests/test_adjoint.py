"""
Tests for the backward (adjoint) sweep and the initial-state gradient.

The key property under test is exactness: the multipliers are the exact
reverse-mode derivative of the recorded forward recursion, so for linear
problems the gradient must match the hand-differentiated discrete map to
machine precision, on any grid.  Closed-form single-step and f_y == 0
cases pin down the terminal solve, the scatter indexing and the
initial-condition assembly separately.
"""

import dataclasses
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf, dgbtrs

import bdfadjoint.adjoint as adjoint_module
from bdfadjoint import (SolverError, adjoint_sweep, bdf, get_problem,
                        integrate_adaptive, integrate_nonadaptive,
                        linear_test_problem, replay_integration, tape_residuals,
                        verify_kkt)
from conftest import error_estimates

CATENARY, CATENARY_REF = get_problem("catenary")


def _fd_gap(problem, tape):
    """Relative 2-norm gap between the adjoint gradient and the central
    differences of J(y_N) through the replay."""
    y0 = problem.initial_state
    eps = 1e-6 * (1.0 + np.linalg.norm(y0))
    fd = np.zeros(problem.dimension)
    for j in range(problem.dimension):
        e = np.zeros(problem.dimension)
        e[j] = eps
        jp = problem.criterion(replay_integration(problem, tape, y_start=y0 + e)[-1])
        jm = problem.criterion(replay_integration(problem, tape, y_start=y0 - e)[-1])
        fd[j] = (jp - jm) / (2 * eps)
    gradient = adjoint_sweep(problem, tape).gradient
    return np.linalg.norm(fd - gradient) / np.linalg.norm(gradient)


class TestSingleStep:
    def test_backward_euler_multiplier_and_gradient(self):
        """One implicit Euler step: lambda_1 = J'/(1 - h a) = dJ/dy0."""
        a, h = -2.0, 0.5
        problem, _ = linear_test_problem(a=[[a]], y_s=[1.0], t_s=0.0, t_f=h)
        tape = integrate_nonadaptive(problem, 1, h)
        assert tape.n_steps == 1
        adj = adjoint_sweep(problem, tape)
        np.testing.assert_allclose(adj.lambdas[0], [1.0 / (1.0 - h * a)],
                                   rtol=1e-14)
        np.testing.assert_allclose(adj.gradient, [1.0 / (1.0 - h * a)],
                                   rtol=1e-14)


class TestZeroJacobian:
    """f_y == 0 isolates the alpha recursion from the Jacobian transpose."""

    def _run(self, k, h=0.125):
        problem, _ = linear_test_problem(
            a=[[0.0, 0.0], [0.0, 0.0]], y_s=[2.0, -1.0], t_s=0.0, t_f=1.0,
            c=[1.0, 3.0])
        tape = integrate_nonadaptive(problem, k, h)
        return problem, tape, adjoint_sweep(problem, tape)

    def test_terminal_multiplier_two_step(self):
        """Uniform k=2: alpha_0 = 3/2, so lambda_N = (2/3) J'."""
        _, _, adj = self._run(2)
        np.testing.assert_allclose(adj.lambdas[-1],
                                   (2.0 / 3.0) * np.array([1.0, 3.0]),
                                   rtol=1e-14)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gradient_exact_all_orders(self, k):
        """y stays constant, J = c . y0, so the gradient is exactly c
        (up to the conditioning of the high-order coefficient solves)."""
        _, _, adj = self._run(k)
        np.testing.assert_allclose(adj.gradient, [1.0, 3.0], rtol=1e-11)

    def test_multiplier_zero_sum_identity(self):
        """Summing all step conditions telescopes to gradient + ... = J'.

        With f_y == 0 the column sums of the adjoint system give
        l + sum_n lambda_{n+1} * (sum_i alpha_i^(n) over i hitting y_0..y_N)
        = J'; since each step's alphas sum to zero this reduces to l = c
        (checked above), and every interior lambda solve is well posed.
        """
        _, tape, adj = self._run(3)
        assert np.all(np.isfinite(adj.lambdas))
        assert adj.lambdas.shape == (tape.n_steps, 2)


class TestExactDerivative:
    def test_linear_map_gradient_machine_exact(self):
        """J(y_N) is linear in y0 for linear dynamics: gradient is exact.

        For a = [[0,1],[0,0]], tf = 1: y(1) = [y1+y2, y2], J = y(1)[0],
        so dJ/dy0 = [1, 1] independent of the grid.
        """
        problem, _ = linear_test_problem(a=[[0.0, 1.0], [0.0, 0.0]],
                                         y_s=[1.0, 1.0], t_s=0.0, t_f=1.0,
                                         c=[1.0, 0.0])
        for tape in (integrate_nonadaptive(problem, 3, 0.125),
                     integrate_adaptive(problem, 1e-6)):
            adj = adjoint_sweep(problem, tape)
            np.testing.assert_allclose(adj.gradient, [1.0, 1.0], rtol=1e-12)

    def test_matches_finite_differences_of_replay(self):
        """Central differences of the frozen replay map agree to ~1e-8."""
        tape = integrate_nonadaptive(CATENARY, 3, 0.125)
        adj = adjoint_sweep(CATENARY, tape)
        y0 = CATENARY.initial_state
        eps = 1e-6 * (1.0 + np.linalg.norm(y0))
        fd = np.zeros(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            jp = replay_integration(CATENARY, tape, y_start=y0 + e)[-1][0]
            jm = replay_integration(CATENARY, tape, y_start=y0 - e)[-1][0]
            fd[j] = (jp - jm) / (2 * eps)
        np.testing.assert_allclose(adj.gradient, fd, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("rtol, bound", [(1e-4, 1e-5), (1e-5, 1e-6), (1e-6, 1e-6)])
    def test_robertson_matches_finite_differences_of_replay(self, rtol, bound, robertson):
        """On a stiff nonlinear problem the replay re-solves each step from
        its recorded state, so its differences agree with the adjoint of the
        recorded scheme (a replay of the recorded iteration counts from the
        predictor differentiates a truncated Newton iteration and misses the
        rtol 1e-4 bound by more than 100 times)."""
        assert _fd_gap(robertson, integrate_adaptive(robertson, rtol)) <= bound

    @pytest.mark.parametrize("k, n", [(3, 128), (5, 512)])
    def test_robertson_nonadaptive_keeps_the_physical_root(self, k, n, robertson):
        """The nonadaptive driver on a stiff nonlinear problem, at order k and
        h = 0.4 / n: every state keeps y_2 >= 0 (a predictor extrapolated
        through one more trailing point stops converging on these runs), the
        certificate passes, and the gradient matches central differences of
        the replay (gaps of 1.9e-7 and 3.0e-7)."""
        tape = integrate_nonadaptive(robertson, k, 0.4 / n)
        assert np.min(tape.states[:, 1]) >= 0.0
        checks = verify_kkt(robertson, tape, adjoint_sweep(robertson, tape))
        assert [check.name for check in checks if not check.passed] == []
        assert _fd_gap(robertson, tape) <= 1e-6

    def test_finite_differences_catch_a_wrong_jacobian(self):
        """With f_y replaced by 0.8 f_y in both the replay and the sweep, the
        replay still solves the scheme, the sweep does not differentiate it,
        and the two disagree."""
        tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -5)
        wrong = dataclasses.replace(
            CATENARY, jacobian=lambda t, y: 0.8 * CATENARY.jacobian(t, y))
        assert _fd_gap(wrong, tape) > 1e-3

    @pytest.mark.parametrize("mode, value", [("k", k) for k in range(1, 7)]
                             + [("rtol", r) for r in (1e-4, 1e-7, 1e-10)])
    def test_unperturbed_replay_reproduces_tape(self, mode, value):
        """Replaying a tape from its own y_0 solves every step within the
        bound adjoint checks.  It solves past the tolerance the driver
        stopped at, so J moves by the dual-weighted residual of the tape's
        steps, J(replay) - J(tape) = -sum_n lambda_{n+1}^T r_n; the states
        stay within 1e-9 except at rtol 1e-4, whose residuals move them by
        about 6e-7."""
        if mode == "k":
            tape = integrate_nonadaptive(CATENARY, value, 2.0 ** -5)
        else:
            tape = integrate_adaptive(CATENARY, value)
        states = replay_integration(CATENARY, tape)
        replayed = dataclasses.replace(tape, states=states)
        assert np.all(tape_residuals(CATENARY, replayed)
                      <= 10.0 * tape.newton_tolerances)
        if (mode, value) != ("rtol", 1e-4):
            assert np.max(np.abs(states - tape.states)) <= 1e-9
        lambdas = adjoint_sweep(CATENARY, tape).lambdas
        residuals = bdf.step_residuals(CATENARY, tape)
        moved = CATENARY.criterion(states[-1]) - CATENARY.criterion(tape.final_state)
        assert abs(moved + np.sum(lambdas * residuals)) <= 1e-11

    def test_gradient_is_the_y0_row_of_the_band(self):
        """The gradient is -(A^T [0; lambda])_0 for the band A of
        coefficient_band, the y_0 row of the transposed system: bit-equal
        for k <= 2, where one step reaches y_0, and within 1e-12 relative
        for k = 3 and 6, whose ramp steps all reach it and are summed by the
        sweep in descending step order, by the band in ascending."""
        for k in (1, 2, 3, 6):
            tape = integrate_nonadaptive(CATENARY, k, 0.125)
            adj = adjoint_sweep(CATENARY, tape)
            row = -bdf.band_product(bdf.coefficient_band(tape),
                                    np.vstack([np.zeros(2), adj.lambdas]), transpose=True)[0]
            reach = tape.grid.orders == np.arange(1, tape.n_steps + 1)
            assert np.count_nonzero(reach) == (1 if k <= 2 else k)
            if k <= 2:
                np.testing.assert_array_equal(adj.gradient, row)
            else:
                assert np.max(np.abs(adj.gradient - row)) <= 1e-12 * np.max(np.abs(row))


class TestConsistency:
    def test_gradient_approximates_initial_adjoint(self):
        """l -> lambda(0) as h -> 0 (second order for k=2)."""
        lam0 = CATENARY_REF.classical_adjoint(0.0)
        e1 = np.linalg.norm(adjoint_sweep(
            CATENARY, integrate_nonadaptive(CATENARY, 2, 2.0 ** -5)).gradient - lam0)
        e2 = np.linalg.norm(adjoint_sweep(
            CATENARY, integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)).gradient - lam0)
        assert e2 < e1
        assert e1 / e2 > 3.0  # ~4 at second order

    def test_interior_multiplier_approximates_classical(self):
        """At an interior node the multiplier tracks lambda(t)."""
        tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -7)
        adj = adjoint_sweep(CATENARY, tape)
        times = tape.grid.nodes[1:]
        i = int(np.argmin(np.abs(times - 1.25)))
        np.testing.assert_allclose(adj.lambdas[i],
                                   CATENARY_REF.classical_adjoint(times[i]),
                                   atol=5e-3)

    def test_terminal_multiplier_boundary_inconsistency(self):
        """lambda_N stays near (2/3) J' instead of J' (k=2 uniform tail)."""
        tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -7)
        adj = adjoint_sweep(CATENARY, tape)
        gap_to_jp = np.linalg.norm(adj.lambdas[-1] - np.array([1.0, 0.0]))
        gap_to_23 = np.linalg.norm(adj.lambdas[-1] - np.array([2.0 / 3.0, 0.0]))
        assert gap_to_23 < 0.01
        assert gap_to_jp > 0.3


def _band_storage(mat, kl, ku):
    """LAPACK band storage of mat with bandwidths (kl, ku), written entry by
    entry: (i, j) goes to row kl + ku + i - j, the kl fill-in rows are zero."""
    d = len(mat)
    ab = np.zeros((2 * kl + ku + 1, d))
    for i, j in itertools.product(range(d), repeat=2):
        if -ku <= i - j <= kl:
            ab[kl + ku + i - j, j] = mat[i, j]
    return ab


def _solve_every_step(problem, tape):
    """Reference sweep: one fresh solve with the transposed step matrix at
    every step, no factorization reuse: np.linalg.solve on the dense route,
    a fresh dgbtrf/dgbtrs on the band route.  Returns (lambdas, gradient),
    the gradient what the scatter leaves in y_0's row."""
    n_steps, d = tape.n_steps, tape.dimension
    nodes, h = tape.grid.nodes, tape.grid.stepsizes
    rhs = np.zeros((n_steps + 1, d))
    rhs[n_steps] = problem.criterion_gradient(tape.states[n_steps])
    lambdas = np.zeros((n_steps + 1, d))
    for j in range(n_steps, 0, -1):
        alphas = tape.grid.alphas[j - 1]
        mat = (alphas[0] * np.eye(d)
               - h[j - 1] * problem.jacobian(nodes[j], tape.states[j]))
        if problem.band is None:
            lambdas[j] = np.linalg.solve(mat.T, rhs[j])
        else:
            ku, kl = problem.band   # of the transpose
            lu, piv, info = dgbtrf(_band_storage(mat.T, kl, ku), kl, ku)
            assert info == 0
            lambdas[j] = dgbtrs(lu, kl, ku, rhs[j], piv)[0]
        for i in range(1, tape.grid.orders[j - 1] + 1):
            rhs[j - i] -= alphas[i] * lambdas[j]
    return lambdas[1:], rhs[0]


def _heat(d=50):
    """Tridiagonal method-of-lines heat matrix as a linear problem, which
    states the band (1, 1)."""
    dx = 1.0 / (d + 1)
    a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0))
                           + np.diag(np.ones(d - 1), 1)
                           + np.diag(np.ones(d - 1), -1))
    x = dx * np.arange(1, d + 1)
    problem, _ = linear_test_problem(a=a, y_s=np.sin(np.pi * x), t_s=0.0,
                                     t_f=1.0, c=np.full(d, dx))
    return problem


def _per_state(jacobian):
    """A jacobian(t, y) written for one state that also takes stacked states
    (d, m), as OdeProblem asks: one call per column, stacked into a fresh
    (d, d, m) array."""
    def stacked(t, y):
        if np.ndim(y) == 1:
            return jacobian(t, y)
        return np.stack([jacobian(s, col) for s, col in zip(t, y.T)], axis=2)
    return stacked


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """Counts the LU factorizations made through bdf, one entry per matrix,
    those of a stacked call included, by the shape of the matrix: (d, d)
    dense, (2 kl + ku + 1, d) in band storage."""
    calls = []
    factor = bdf.lu_factor

    def counting(m, band=None):
        calls.extend([m.shape[-2:]] * (len(m) if m.ndim == 3 else 1))
        return factor(m, band)

    # every binding of the one factor function: bdf's and the sweep's import
    monkeypatch.setattr(bdf, "lu_factor", counting)
    monkeypatch.setattr(adjoint_module, "lu_factor", counting)
    return calls


class TestFactorReuse:
    """Every step matrix is factored through bdf.lu_factor.  For an f_y that
    does not depend on the state, a (d, d, 1) stacked answer, the sweep keeps
    the factors while h and alpha_0 stay equal, so each run of consecutive
    equal matrices, a lone step included, is factored once; any other f_y
    is factored at every step."""

    def test_one_factorization_per_run_of_repeats(self, lu_factor_calls):
        """k=2 on a uniform grid: the two h/2 start steps, the ramp step and
        the uniform main steps are the runs of equal matrices.  On the dense
        route, reused factors solve as a fresh solve at every step does, bit
        for bit."""
        problem = dataclasses.replace(_heat(), band=None)
        tape = integrate_nonadaptive(problem, 2, 1.0 / 16)
        # a linear autonomous step matrix is fixed by (h, alpha_0)
        key = zip(tape.grid.stepsizes, tape.grid.alphas[:, 0])
        runs = sum(1 for _ in itertools.groupby(key))
        assert runs == 3
        lu_factor_calls.clear()   # those of the forward pass
        adj = adjoint_sweep(problem, tape)
        assert lu_factor_calls == [(50, 50)] * runs
        lambdas, gradient = _solve_every_step(problem, tape)
        np.testing.assert_array_equal(adj.lambdas, lambdas)
        np.testing.assert_array_equal(adj.gradient, gradient)

    def test_band_route_one_factorization_per_run_of_repeats(self, lu_factor_calls):
        """The same runs on the band route: one factorization of the 4 x 50
        band storage per run, and reused factors solve as a fresh band
        factorization at every step does, bit for bit."""
        problem = _heat()
        assert problem.band == (1, 1)
        tape = integrate_nonadaptive(problem, 2, 1.0 / 16)
        key = zip(tape.grid.stepsizes, tape.grid.alphas[:, 0])
        runs = sum(1 for _ in itertools.groupby(key))
        assert runs == 3
        lu_factor_calls.clear()   # those of the forward pass
        adj = adjoint_sweep(problem, tape)
        assert lu_factor_calls == [(4, 50)] * runs
        lambdas, gradient = _solve_every_step(problem, tape)
        np.testing.assert_array_equal(adj.lambdas, lambdas)
        np.testing.assert_array_equal(adj.gradient, gradient)

    @pytest.mark.parametrize("driver", ["nonadaptive", "adaptive"])
    def test_changing_matrices_solved_directly(self, driver, lu_factor_calls):
        """The catenary Jacobian moves with the state, so no matrix repeats:
        one factorization per step, and the multipliers of the direct solves."""
        tape = (integrate_nonadaptive(CATENARY, 2, 0.125) if driver == "nonadaptive"
                else integrate_adaptive(CATENARY, 1e-6))
        lu_factor_calls.clear()   # those of the forward pass
        adj = adjoint_sweep(CATENARY, tape)
        assert lu_factor_calls == [(2, 2)] * tape.n_steps
        lambdas, gradient = _solve_every_step(CATENARY, tape)
        np.testing.assert_array_equal(adj.lambdas, lambdas)
        np.testing.assert_array_equal(adj.gradient, gradient)

    def test_reuse_needs_bit_equal_jacobians(self, lu_factor_calls, monkeypatch):
        """A problem that returns one fresh (d, d, 1) copy of f_y per call
        keeps the factors of each run of equal steps; one that returns a
        (d, d, m) stack is refactored at every step, whether its copies are
        equal or differ in the sign of a zero entry from each step to the
        next.  All give the multipliers of fresh solves, with the same count
        of factorizations in blocks of two states, of three and of the
        default size."""
        problem = dataclasses.replace(_heat(8), band=None)
        tape = integrate_nonadaptive(problem, 2, 1.0 / 16)
        a = problem.jacobian(0.0, None)
        nodes = tape.grid.nodes

        def flipping(t, y):
            jac = a.copy()
            jac[0, -1] = -0.0 if np.searchsorted(nodes, t) % 2 else 0.0
            return jac

        def one_copy(t, y):
            return a[:, :, None].copy() if np.ndim(y) == 2 else a.copy()

        for block in (1, 3 * 64, bdf.JACOBIAN_BLOCK):
            monkeypatch.setattr(bdf, "JACOBIAN_BLOCK", block)
            for jacobian, factors in ((_per_state(lambda t, y: a.copy()), tape.n_steps),
                                      (one_copy, 3),
                                      (_per_state(flipping), tape.n_steps)):
                variant = dataclasses.replace(problem, jacobian=jacobian)
                lu_factor_calls.clear()
                adj = adjoint_sweep(variant, tape)
                assert lu_factor_calls == [(8, 8)] * factors
                lambdas, gradient = _solve_every_step(problem, tape)
                np.testing.assert_array_equal(adj.lambdas, lambdas)
                np.testing.assert_array_equal(adj.gradient, gradient)

    def test_replay_linearizes_at_the_recorded_states(self):
        """Each step of a perturbed replay evaluates f_y first at
        (t_{n+1}, y_{n+1}) of the tape, where the sweep evaluates it."""
        tape = integrate_adaptive(CATENARY, 1e-6)
        calls = []

        def recording(t, y):
            calls.append((t, np.array(y)))
            return CATENARY.jacobian(t, y)

        replay_integration(dataclasses.replace(CATENARY, jacobian=recording), tape,
                           y_start=CATENARY.initial_state + 1e-6)
        times = [t for t, _ in calls]
        for n, t in enumerate(tape.grid.nodes[1:]):
            _, first = calls[times.index(t)]
            np.testing.assert_array_equal(first, tape.states[n + 1])

    @pytest.mark.parametrize("delta", [0.0, 1e-15])
    def test_singular_repeated_matrix_raises(self, delta, lu_factor_calls, monkeypatch):
        """I - h f_y = [[1, 1], [1, 1 + delta]] on every BDF1 step, exactly
        singular (delta = 0) or singular to working precision (1e-15): the
        first stacked factorization, of every step of the tape, refuses it
        before any solve, on an 8-step tape and on a 1-step tape alike."""
        h = 0.125
        jac = np.array([[0.0, -1.0], [-1.0, -delta]]) / h
        for t_f in (1.0, h):
            problem, _ = linear_test_problem(a=[[-1.0, 0.0], [0.0, -1.0]],
                                             y_s=[1.0, 1.0], t_s=0.0, t_f=t_f)
            tape = integrate_nonadaptive(problem, 1, h)
            # a diagonal 2 x 2 a states the band (0, 0), which this f_y breaks
            singular = dataclasses.replace(
                problem, jacobian=_per_state(lambda t, y: jac.copy()), band=None)
            lu_factor_calls.clear()
            stacked, solves = [], []
            with monkeypatch.context() as patch, pytest.raises(
                    SolverError, match="singular or non-finite adjoint matrix"):
                patch.setattr(adjoint_module, "lu_factor",
                              lambda m, band=None, factor=adjoint_module.lu_factor:
                              stacked.append(len(m)) or factor(m, band))
                patch.setattr(adjoint_module, "lu_solve", lambda factors, b: solves.append(b))
                adjoint_sweep(singular, tape)
            assert lu_factor_calls == [(2, 2)] * tape.n_steps
            assert stacked == [tape.n_steps] and solves == []


class TestBandRoute:
    """A problem that states a band (kl, ku) has its step matrices built,
    factored and solved in LAPACK band storage by Newton, replay and the
    sweep; the dense route is the same problem with band=None."""

    def test_band_storage_holds_the_dense_entries(self):
        """Bit for bit, the sign of every zero included: 0.0 - h J_ij off the
        diagonal, alpha_0 - h J_ii on it, and zero outside the matrix."""
        rng = np.random.default_rng(3)
        d, kl, ku = 7, 2, 1
        i, j = np.indices((d, d))
        inside = (i - j <= kl) & (j - i <= ku)
        jac = np.where(inside, rng.standard_normal((d, d)), 0.0)
        jac[3, 1], jac[2, 3], jac[4, 4] = -0.0, 0.0, -0.0
        h, alpha0 = 0.3, 1.5
        dense = bdf._iteration_matrix(jac, h, alpha0)
        ab = bdf._iteration_matrix(jac, h, alpha0, (kl, ku))
        assert ab.tobytes() == _band_storage(dense, kl, ku).tobytes()
        b = rng.standard_normal(d)
        x = bdf.lu_solve(bdf.lu_factor(ab, (kl, ku)), b)
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-13)

    @pytest.mark.parametrize("band", [None, (2, 1), (0, 0)])
    def test_stacked_matrices_are_the_single_ones(self, band):
        """A stack of f_y with (m, 1, 1) h and alpha_0, as the sweep builds
        it, gives each matrix bit for bit as one call on it does, the sign of
        every zero included."""
        rng = np.random.default_rng(5)
        d, m = 6, 4
        jac = rng.standard_normal((m, d, d))
        jac[:, 3, 1], jac[:, 2, 3], jac[1, 4, 4] = -0.0, 0.0, -0.0
        h, alpha0 = rng.uniform(0.1, 1.0, m), rng.uniform(1.0, 2.0, m)
        stack = bdf._iteration_matrix(jac, h[:, None, None], alpha0[:, None, None], band)
        for i in range(m):
            one = bdf._iteration_matrix(jac[i], h[i], alpha0[i], band)
            assert stack[i].tobytes() == one.tobytes()

    @pytest.mark.parametrize("driver", ["nonadaptive", "adaptive"])
    def test_band_and_dense_routes_agree(self, driver):
        """d = 50 heat, k = 2 fixed and adaptive rtol 1e-6, against its dense
        twin, which evaluates f as a @ y and builds and factors the dense
        step matrices: the states within the Newton tolerance, and lambda
        and the gradient within 1e-12 relative.  The adaptive grid moves
        with the last bits of f (by about 5e-9 relative at this rtol), so
        the twin re-solves the band tape's steps on its grid (the replay)."""
        band = _heat()
        a = band.jacobian(0.0, band.initial_state)
        dense = dataclasses.replace(band, band=None, rhs=lambda t, y: a @ y)
        if driver == "nonadaptive":
            tape_b, tape_d = (integrate_nonadaptive(p, 2, 1.0 / 16) for p in (band, dense))
            np.testing.assert_array_equal(tape_b.grid.nodes, tape_d.grid.nodes)
        else:
            tape_b = integrate_adaptive(band, 1e-6)
            tape_d = dataclasses.replace(tape_b, states=replay_integration(dense, tape_b))
        assert np.all(np.abs(tape_b.states[1:] - tape_d.states[1:])
                      <= tape_b.newton_tolerances[:, None])
        adj_b, adj_d = adjoint_sweep(band, tape_b), adjoint_sweep(dense, tape_d)
        scale = np.max(np.abs(adj_d.lambdas))
        assert np.max(np.abs(adj_b.lambdas - adj_d.lambdas)) <= 1e-12 * scale
        assert (np.linalg.norm(adj_b.gradient - adj_d.gradient)
                <= 1e-12 * np.linalg.norm(adj_d.gradient))

    @pytest.mark.parametrize("route", ["newton", "replay", "sweep"])
    @pytest.mark.parametrize("kind", ["singular", "nan"])
    def test_bad_band_matrix_raises(self, route, kind):
        """BDF1 with I - h f_y = tridiag with rows 0 and 1 equal (singular),
        or with a NaN on its diagonal: every route refuses it."""
        problem = _heat(d=8)
        h = 0.125
        mat = np.eye(8)
        mat[0, 1] = mat[1, 0] = 1.0
        if kind == "nan":
            mat[5, 5] = np.nan
        jac = (np.eye(8) - mat) / h
        bad = dataclasses.replace(problem, jacobian=_per_state(lambda t, y: jac))
        assert bad.band == (1, 1)
        if route == "newton":
            with pytest.raises(SolverError):
                integrate_nonadaptive(bad, 1, h)
            return
        tape = integrate_nonadaptive(problem, 1, h)
        assert tape.newton_iterations.min() > 0
        if route == "replay":
            with pytest.raises(SolverError, match="singular or non-finite"):
                replay_integration(bad, tape)
        else:   # every step is bad: the sweep names its first, the last step
            with pytest.raises(SolverError, match=re.escape(
                    f"singular or non-finite adjoint matrix at t={tape.grid.nodes[-1]}")):
                adjoint_sweep(bad, tape)


def _block_case(case):
    """(problem, tape) of a block-size case: catenary k = 1..6 on h = 1/8,
    adaptive catenary at rtol 1e-6, d = 50 heat with k = 2 on the band or
    the dense route."""
    if case.startswith("heat"):
        problem = _heat() if case == "heat-band" else dataclasses.replace(_heat(), band=None)
        return problem, integrate_nonadaptive(problem, 2, 1.0 / 16)
    if case == "catenary-adaptive":
        return CATENARY, integrate_adaptive(CATENARY, 1e-6)
    return CATENARY, integrate_nonadaptive(CATENARY, int(case[-1]), 0.125)


class TestBlocks:
    """The sweep walks the tape backward in the blocks of bdf.jacobian_blocks,
    at least two and at most max(2, JACOBIAN_BLOCK // d^2) steps, one stacked
    jacobian call each, or one call in all for an f_y that does not depend
    on the state; the multipliers and the gradient do not depend on the
    block size."""

    @pytest.mark.parametrize("case", [f"catenary-k{k}" for k in range(1, 7)]
                             + ["catenary-adaptive", "heat-band", "heat-dense"])
    def test_block_size_independent(self, case, monkeypatch):
        """Blocks of two states (JACOBIAN_BLOCK below d^2), of three and of
        the default size give lambda and the gradient bit for bit, and every
        stacked call asks for at most max(2, JACOBIAN_BLOCK // d^2) states,
        all N of them once, or the (1, d, d) f_y of the heat cases once."""
        problem, tape = _block_case(case)
        d = problem.dimension
        runs = []
        for block in (1, 3 * d * d + 1, bdf.JACOBIAN_BLOCK):
            sizes = []

            def recording(t, y, jacobian=problem.jacobian):
                assert np.ndim(y) == 2   # the sweep makes stacked calls only
                sizes.append(np.shape(y)[1])
                return jacobian(t, y)

            monkeypatch.setattr(bdf, "JACOBIAN_BLOCK", block)
            runs.append(adjoint_sweep(dataclasses.replace(problem, jacobian=recording), tape))
            per_call = max(2, block // (d * d))
            if case.startswith("heat"):   # a (1, d, d) f_y: one call for the whole tape
                assert sizes == [min(tape.n_steps, per_call)]
            else:
                assert max(sizes) <= per_call
                assert sum(sizes) == tape.n_steps
        assert len(sizes) == 1   # the default block holds every state of these tapes
        for adj in runs[:-1]:
            assert adj.lambdas.tobytes() == runs[-1].lambdas.tobytes()
            assert adj.gradient.tobytes() == runs[-1].gradient.tobytes()

    def test_same_read_only_jacobian_is_not_compared(self, monkeypatch, lu_factor_calls):
        """heat's f_y does not depend on the state, a (1, d, d) answer: with
        blocks of two states, the sweep asks for it once, compares no f_y,
        and keeps the factors of each of the three runs of equal steps; a
        block with no new step builds no matrix."""
        problem = _heat()
        tape = integrate_nonadaptive(problem, 2, 1.0 / 16)
        expected = adjoint_sweep(problem, tape)
        compared, calls, stacks = [], [], []
        build = adjoint_module._iteration_matrix
        array_equal = np.array_equal

        def recording(*args, **kwargs):
            compared.append(args)
            return array_equal(*args, **kwargs)

        def jacobian(t, y):
            calls.append(np.shape(t))
            return problem.jacobian(t, y)

        monkeypatch.setattr(np, "array_equal", recording)
        monkeypatch.setattr(adjoint_module, "_iteration_matrix",
                            lambda jac, *args: stacks.append(len(jac)) or build(jac, *args))
        monkeypatch.setattr(bdf, "JACOBIAN_BLOCK", 1)
        lu_factor_calls.clear()
        adj = adjoint_sweep(dataclasses.replace(problem, jacobian=jacobian), tape)
        assert compared == []
        assert calls == [(2,)]
        assert lu_factor_calls == [(4, 50)] * 3
        assert 0 not in stacks and sum(stacks) == 3
        assert adj.lambdas.tobytes() == expected.lambdas.tobytes()

    def test_constant_jacobian_asked_once_past_d_724(self):
        """At d = 800 a block of two states holds more than JACOBIAN_BLOCK
        entries: for the state-independent f_y of a tridiagonal linear
        problem, the sweep and verify_kkt each make one stacked jacobian
        call for the whole tape (verify_kkt's Jacobian check one more)."""
        problem = _heat(d=800)
        assert 2 * 800 ** 2 > bdf.JACOBIAN_BLOCK
        tape = integrate_nonadaptive(dataclasses.replace(problem, final_time=2.0 ** -6),
                                     2, 2.0 ** -9)
        assert tape.n_steps > 4
        calls = []

        def jacobian(t, y):
            if np.ndim(y) == 2:
                calls.append(np.shape(t))
            return problem.jacobian(t, y)

        counting = dataclasses.replace(problem, jacobian=jacobian)
        adj = adjoint_sweep(counting, tape)
        assert calls == [(2,)]
        calls.clear()
        assert all(check.passed for check in verify_kkt(counting, tape, adj))
        assert calls[:-1] == [(2,)]   # the last call is the Jacobian check's

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n_steps=st.integers(1, 40), d=st.integers(1, 40), block=st.integers(1, 6000),
           constant=st.booleans())
    def test_walker_tiles_the_steps_from_the_top(self, n_steps, d, block, constant):
        """bdf.jacobian_blocks hands the steps N-1..0 once each, in blocks
        from the top down, with one stacked jacobian call per block at the
        block's times and states; each block holds at most
        max(2, JACOBIAN_BLOCK // d^2) steps and at least two, the last one
        walked excepted.  A (1, d, d) answer to the first call is asked once
        and comes with every block."""
        nodes = np.arange(n_steps + 1.0)
        tape = SimpleNamespace(n_steps=n_steps, dimension=d,
                               grid=SimpleNamespace(nodes=nodes),
                               states=np.repeat(nodes[:, None], d, axis=1))
        calls = []

        def stacked_jacobian(t, ys):
            calls.append((t, ys))
            return np.broadcast_to(0.0, (1 if constant else len(ys), d, d))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bdf, "JACOBIAN_BLOCK", block)
            blocks = list(bdf.jacobian_blocks(SimpleNamespace(stacked_jacobian=stacked_jacobian),
                                              tape))
        bound = max(2, block // d ** 2)
        stops = [stop for _, stop, _, _ in blocks]
        starts = [start for start, _, _, _ in blocks]
        assert stops == [n_steps] + starts[:-1] and starts[-1] == 0
        sizes = [stop - start for start, stop, _, _ in blocks]
        assert all(2 <= m <= bound for m in sizes[:-1]) and 1 <= sizes[-1] <= bound
        if constant or n_steps == 1:
            assert len(calls) == 1
            assert all(flag and jac is blocks[0][2] for _, _, jac, flag in blocks)
        else:
            assert len(calls) == len(blocks) and not any(flag for *_, flag in blocks)
            for (start, stop, jac, _), (t, ys) in zip(blocks, calls):
                assert jac.shape == (stop - start, d, d)
                assert t.tolist() == nodes[start + 1:stop + 1].tolist()
                assert ys.tolist() == tape.states[start + 1:stop + 1].tolist()

    @pytest.mark.parametrize("states", [1, 3, None])
    def test_first_failing_step_in_sweep_order_is_named(self, states, monkeypatch):
        """BDF1 on eight steps, the step matrices at t_4 and t_6 singular and
        the rest regular: whatever the blocks (JACOBIAN_BLOCK of one state,
        which walks two, three, all), the sweep refuses the tape at the
        higher t, t_6, before it solves."""
        h = 0.125
        problem, _ = linear_test_problem(a=[[-1.0, 0.0], [0.0, -1.0]],
                                         y_s=[1.0, 1.0], t_s=0.0, t_f=1.0)
        tape = integrate_nonadaptive(problem, 1, h)
        nodes = tape.grid.nodes
        regular = problem.jacobian(0.0, None)
        singular = np.array([[0.0, -1.0], [-1.0, 0.0]]) / h   # I - h f_y^T = [[1, 1], [1, 1]]

        def jacobian(t, y):
            return singular.copy() if t in (nodes[4], nodes[6]) else regular.copy()

        # a diagonal 2 x 2 a states the band (0, 0), which this f_y breaks
        bad = dataclasses.replace(problem, jacobian=_per_state(jacobian), band=None)
        if states is not None:
            monkeypatch.setattr(bdf, "JACOBIAN_BLOCK", states * 4)
        solves = []
        monkeypatch.setattr(adjoint_module, "lu_solve",
                            lambda factors, b, solve=bdf.lu_solve: solves.append(b) or
                            solve(factors, b))
        with pytest.raises(SolverError, match=re.escape(
                f"singular or non-finite adjoint matrix at t={nodes[6]}")):
            adjoint_sweep(bad, tape)
        # the blocks above the one holding t_6 were solved, that one not
        block = None if states is None else max(2, states)
        assert len(solves) == (0 if block is None else (8 - 6) // block * block)


SCALE_A = [[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]]
SCALE_C = np.array([1.0, 0.5, 0.25])
SCALE_Y0 = np.array([1.0, 0.3, -0.7])
SCALE_RUNS = {   # atol scales with the states; the 1e-12 stop refuses k2 and k3 at y0 * 2^16
    "adaptive": lambda problem, m: integrate_adaptive(problem, 1e-8, 1e-12 * 2.0 ** m),
    "k2": lambda problem, m: integrate_nonadaptive(problem, 2, 2.0 ** -9),
    "k3": lambda problem, m: integrate_nonadaptive(problem, 3, 2.0 ** -9),
}


class TestScaling:
    @pytest.mark.parametrize("run", SCALE_RUNS)
    def test_scaled_states_and_criterion(self, run):
        """The 3 x 3 linear problem from y0 * 2^m, m = -30..12: J's relative
        error within twice the unit-scale run's, every step with at least one
        Newton update and every adaptive error estimate positive (a predictor
        that met the Newton stop was once accepted with an estimate of exactly
        0, J off by up to 91% at m = -30).  For c * 2^m, m = +-40, the tape is
        the same and lambda and the gradient scale by exactly 2^m."""
        drive = SCALE_RUNS[run]
        _, reference = linear_test_problem(SCALE_A, SCALE_Y0, 0.0, 1.0, c=SCALE_C)
        exact = SCALE_C @ reference.nominal(1.0)
        errors = {}
        for m in (-30, -20, -10, 0, 4, 8, 12):
            problem, _ = linear_test_problem(SCALE_A, 2.0 ** m * SCALE_Y0, 0.0, 1.0,
                                             c=SCALE_C)
            tape = drive(problem, m)
            assert tape.newton_iterations.min() >= 1, m
            if run == "adaptive":
                assert error_estimates(problem, tape).min() > 0.0, m
            errors[m] = abs(problem.criterion(tape.final_state) / 2.0 ** m - exact) / abs(exact)
        assert all(err <= 2.0 * errors[0] for err in errors.values()), errors

        problem, _ = linear_test_problem(SCALE_A, SCALE_Y0, 0.0, 1.0, c=SCALE_C)
        tape = drive(problem, 0)
        base = adjoint_sweep(problem, tape)
        for m in (-40, 40):
            scaled, _ = linear_test_problem(SCALE_A, SCALE_Y0, 0.0, 1.0,
                                            c=2.0 ** m * SCALE_C)
            scaled_tape = drive(scaled, 0)
            np.testing.assert_array_equal(scaled_tape.states, tape.states)
            adjoints = adjoint_sweep(scaled, scaled_tape)
            np.testing.assert_array_equal(adjoints.lambdas, 2.0 ** m * base.lambdas)
            np.testing.assert_array_equal(adjoints.gradient, 2.0 ** m * base.gradient)
