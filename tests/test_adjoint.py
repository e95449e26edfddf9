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

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

import bdfadjoint.adjoint as adjoint_module
from bdfadjoint import (OdeProblem, SolverError, adjoint_sweep, bdf, get_problem,
                        gradient_wrt_initial, integrate_adaptive,
                        integrate_nonadaptive, linear_test_problem,
                        replay_integration, tape_residuals)

CATENARY, CATENARY_REF = get_problem("catenary")


def _robertson():
    """Robertson's stiff kinetics on [0, 0.4] from (1, 0, 0), with J = y_2,
    the fast intermediate: a nonlinear problem whose f_yy is large.  Both
    functions also take stacked states (d, m), as OdeProblem asks."""
    def rhs(t, y):
        return np.array([-0.04 * y[0] + 1e4 * y[1] * y[2],
                         0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
                         3e7 * y[1] ** 2])

    def jacobian(t, y):
        zero = np.zeros_like(y[0])   # 0.0 for one state, (m,) zeros for stacked ones
        return np.array([[zero - 0.04, 1e4 * y[2], 1e4 * y[1]],
                         [zero + 0.04, -1e4 * y[2] - 6e7 * y[1], -1e4 * y[1]],
                         [zero, 6e7 * y[1], zero]])

    return OdeProblem(dimension=3, rhs=rhs, jacobian=jacobian,
                      criterion=lambda y: y[1],
                      criterion_gradient=lambda y: np.array([0.0, 1.0, 0.0]),
                      initial_time=0.0, final_time=0.4,
                      initial_state=np.array([1.0, 0.0, 0.0]), name="robertson")


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
    def test_robertson_matches_finite_differences_of_replay(self, rtol, bound):
        """On a stiff nonlinear problem the replay re-solves each step from
        its recorded state, so its differences agree with the adjoint of the
        recorded scheme (a replay of the recorded iteration counts from the
        predictor differentiates a truncated Newton iteration and misses the
        rtol 1e-4 bound by more than 100 times)."""
        problem = _robertson()
        assert _fd_gap(problem, integrate_adaptive(problem, rtol)) <= bound

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
        residuals = bdf.step_residuals(CATENARY, tape, bdf.coefficient_band(tape))
        moved = CATENARY.criterion(states[-1]) - CATENARY.criterion(tape.final_state)
        assert abs(moved + np.sum(lambdas * residuals)) <= 1e-11

    def test_standalone_gradient_matches_sweep(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.125)
        adj = adjoint_sweep(CATENARY, tape)
        np.testing.assert_array_equal(gradient_wrt_initial(tape, adj.lambdas),
                                      adj.gradient)


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


class TestValidation:
    def test_mismatched_adjoints_rejected(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        other = integrate_nonadaptive(CATENARY, 2, 0.125)
        adj_other = adjoint_sweep(CATENARY, other)
        with pytest.raises(ValueError):
            gradient_wrt_initial(tape, adj_other.lambdas)


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
    a fresh dgbtrf/dgbtrs on the band route.  Returns (lambdas, gradient)."""
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
    return lambdas[1:], gradient_wrt_initial(tape, lambdas[1:])


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


@pytest.fixture
def lu_factor_calls(monkeypatch):
    """Counts the LU factorizations made through bdf, by the shape of the
    matrix passed: (d, d) dense, (2 kl + ku + 1, d) in band storage."""
    calls = []
    factor = bdf.lu_factor

    def counting(m, band=None):
        calls.append(m.shape)
        return factor(m, band)

    # every binding of the one factor function: bdf's and the sweep's import
    monkeypatch.setattr(bdf, "lu_factor", counting)
    monkeypatch.setattr(adjoint_module, "lu_factor", counting)
    return calls


class TestFactorReuse:
    """Every step matrix is factored through bdf.lu_factor; the sweep keeps
    the factors while h, alpha_0 and f_y stay bit-equal, so each run of
    consecutive equal matrices, a lone step included, is factored once."""

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

    def test_reuse_needs_bit_equal_jacobians(self, lu_factor_calls):
        """A problem that returns a fresh copy of f_y keeps the factors of
        each run of equal steps; one whose copies differ in the sign of a
        zero entry at every call is refactored at every step.  Both give the
        multipliers of fresh solves."""
        problem = dataclasses.replace(_heat(8), band=None)
        tape = integrate_nonadaptive(problem, 2, 1.0 / 16)
        a = problem.jacobian(0.0, None)
        calls = itertools.count()

        def flipping(t, y):
            jac = a.copy()
            jac[0, -1] = -0.0 if next(calls) % 2 else 0.0
            return jac

        for jacobian, factors in ((lambda t, y: a.copy(), 3),
                                  (flipping, tape.n_steps)):
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
    def test_singular_repeated_matrix_raises(self, delta, lu_factor_calls):
        """I - h f_y = [[1, 1], [1, 1 + delta]] on every BDF1 step, exactly
        singular (delta = 0) or singular to working precision (1e-15): the
        first factorization refuses it, on an 8-step tape and on a 1-step
        tape alike."""
        h = 0.125
        jac = np.array([[0.0, -1.0], [-1.0, -delta]]) / h
        for t_f in (1.0, h):
            problem, _ = linear_test_problem(a=[[-1.0, 0.0], [0.0, -1.0]],
                                             y_s=[1.0, 1.0], t_s=0.0, t_f=t_f)
            tape = integrate_nonadaptive(problem, 1, h)
            # a diagonal 2 x 2 a states the band (0, 0), which this f_y breaks
            singular = dataclasses.replace(problem, jacobian=lambda t, y: jac.copy(),
                                           band=None)
            lu_factor_calls.clear()
            with pytest.raises(SolverError,
                               match="singular or non-finite adjoint matrix"):
                adjoint_sweep(singular, tape)
            assert lu_factor_calls == [(2, 2)]


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

    @pytest.mark.parametrize("driver", ["nonadaptive", "adaptive"])
    def test_band_and_dense_routes_agree(self, driver):
        """d = 50 heat, k = 2 fixed and adaptive rtol 1e-6: the same grid,
        and lambda and the gradient within 1e-12 relative."""
        band = _heat()
        dense = dataclasses.replace(band, band=None)
        runs = {}
        for route, problem in (("band", band), ("dense", dense)):
            tape = (integrate_nonadaptive(problem, 2, 1.0 / 16) if driver == "nonadaptive"
                    else integrate_adaptive(problem, 1e-6))
            runs[route] = tape, adjoint_sweep(problem, tape)
        (tape_b, adj_b), (tape_d, adj_d) = runs["band"], runs["dense"]
        np.testing.assert_array_equal(tape_b.grid.nodes, tape_d.grid.nodes)
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
        bad = dataclasses.replace(problem, jacobian=lambda t, y: jac)
        assert bad.band == (1, 1)
        if route == "newton":
            with pytest.raises(SolverError):
                integrate_nonadaptive(bad, 1, h)
            return
        tape = integrate_nonadaptive(problem, 1, h)
        assert tape.newton_iterations.min() > 0
        with pytest.raises(SolverError, match="singular or non-finite"):
            if route == "replay":
                replay_integration(bad, tape)
            else:
                adjoint_sweep(bad, tape)
