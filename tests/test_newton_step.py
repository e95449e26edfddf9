"""
Tests for a single implicit BDF step.

Linear right-hand sides give closed-form solutions of the implicit
equation, so the Newton result can be checked exactly: backward Euler on
y' = a*y gives y1 = y0 / (1 - h*a), and a two-step BDF gives
(alpha0 - h*a) y2 = -(alpha1 y1 + alpha2 y0).  The steps run the drivers'
Newton iteration, bdf._newton_iterate, with a fresh factor cache.
"""

import dataclasses

import numpy as np
import pytest
import scipy
from scipy.linalg import lapack
from scipy.linalg.lapack import dgetrf

from bdfadjoint import (SolverError, adjoint_sweep, bdf, compute_coefficients,
                        get_problem, integrate_adaptive, integrate_nonadaptive,
                        linear_test_problem, replay_integration, verify_kkt)
from bdfadjoint.bdf import EPS, lu_factor, lu_solve

CATENARY, _ = get_problem("catenary")


def _step(problem, history, alphas, t_next, h, predictor):
    """(y, iterations) of one implicit step solved to the nonadaptive
    tolerance; history lists the prior states newest first."""
    return bdf._newton_iterate(problem, t_next, h, float(alphas[0]),
                               bdf._history_sum(alphas[1:, None], history), predictor,
                               bdf.NEWTON_TOL_NONADAPTIVE, bdf._FactorCache())


def _scalar_problem(a):
    problem, _ = linear_test_problem(a=[[a]], y_s=[1.0], t_s=0.0, t_f=1.0)
    return problem


class TestBackwardEuler:
    def test_linear_decay_exact(self):
        """y1 = y0 / (1 - h*a) for backward Euler on y' = a*y."""
        a, h = -2.0, 0.1
        problem = _scalar_problem(a)
        coeffs = compute_coefficients(np.array([0.0, h]), 1)
        history = [np.array([1.0])]
        y, _ = _step(problem, history, coeffs, h, h, predictor=np.array([1.0]))
        np.testing.assert_allclose(y, [1.0 / (1.0 - h * a)], rtol=1e-14)
        back = bdf._history_sum(coeffs[1:, None], history)
        assert np.max(np.abs(bdf._step_residual(problem, h, h, coeffs[0], back, y))) <= 1e-12

    def test_linear_converges_in_one_iteration(self):
        """For affine f the first Newton update already solves the system."""
        problem = _scalar_problem(-2.0)
        coeffs = compute_coefficients(np.array([0.0, 0.1]), 1)
        _, iterations = _step(problem, [np.array([1.0])], coeffs, 0.1, 0.1,
                              predictor=np.array([5.0]))
        assert iterations == 1

    def test_one_update_from_exact_predictor(self):
        """A predictor that already satisfies the equation still takes one
        update, as in SciPy's BDF, and that update keeps it exactly."""
        a, h = -2.0, 0.1
        problem = _scalar_problem(a)
        coeffs = compute_coefficients(np.array([0.0, h]), 1)
        exact = np.array([1.0 / (1.0 - h * a)])
        y, iterations = _step(problem, [np.array([1.0])], coeffs, h, h, predictor=exact)
        assert iterations == 1
        np.testing.assert_array_equal(y, exact)


class TestTwoStep:
    def test_linear_closed_form(self):
        """(alpha0 - h*a) y2 = -(alpha1 y1 + alpha2 y0), uniform stencil."""
        a, h = -1.0, 0.2
        problem = _scalar_problem(a)
        y0, y1 = 1.0, 1.0 / (1.0 - h * a)
        coeffs = compute_coefficients(np.array([0.0, h, 2 * h]), 2)
        al = coeffs
        y, _ = _step(problem, [np.array([y1]), np.array([y0])],
                     coeffs, 2 * h, h, predictor=np.array([y1]))
        expect = -(al[1] * y1 + al[2] * y0) / (al[0] - h * a)
        np.testing.assert_allclose(y, [expect], rtol=1e-14)

    def test_nonlinear_residual_below_tolerance(self):
        """Catenary step: the residual at the returned state, the one the
        Newton loop tests, is below tolerance."""
        from bdfadjoint import catenary_problem
        problem, ref = catenary_problem(p=3.0, A=-3.0, t_f=2.0)
        h = 0.01
        coeffs = compute_coefficients(np.array([0.0, h, 2 * h]), 2)
        history = [ref.nominal(h), ref.nominal(0.0)]
        y, _ = _step(problem, history, coeffs, 2 * h, h, predictor=ref.nominal(2 * h))
        al = coeffs
        r = (al[0] * y + al[1] * history[0] + al[2] * history[1]
             - h * problem.rhs(2 * h, y))
        assert np.max(np.abs(r)) <= 1e-12
        back = bdf._history_sum(coeffs[1:, None], history)
        np.testing.assert_allclose(bdf._step_residual(problem, 2 * h, h, coeffs[0], back, y),
                                   r, atol=1e-15)
        # the converged step stays within the local truncation error,
        # which is O(h^3 y''') ~ 1e-4 here (y''' is ~270 near t=0)
        np.testing.assert_allclose(y, ref.nominal(2 * h), atol=2e-4)


class TestHistorySum:
    @staticmethod
    def _loop(alphas, history):
        """The sum as a loop from +0.0 in ascending i, one add per term."""
        back = np.zeros(np.shape(history[0]))
        for i in range(1, len(alphas)):
            back = back + alphas[i] * history[i - 1]
        return back

    @pytest.mark.parametrize("k", range(1, bdf.MAX_ORDER + 1))
    def test_one_reduce_is_the_loop_to_the_bit(self, k):
        """On the nonadaptive driver's reversed view states[n::-1] and on the
        adaptive driver's reversed list, with more history than the order
        reads: column 0 holds zeros signed so that every term is -0.0, which
        sums to +0.0 from the +0.0 start; the other columns mix magnitudes,
        so a sum in another order would round differently."""
        rng = np.random.default_rng(k)
        nodes = np.cumsum(rng.uniform(0.5, 1.5, k + 1))
        alphas = compute_coefficients(nodes, k)
        n = k + 2
        states = rng.standard_normal((n + 1, 16)) * 10.0 ** rng.uniform(-8, 8, 16)
        states[n + 1 - np.arange(1, k + 1), 0] = np.copysign(0.0, -alphas[1:])
        for history in (states[n::-1], list(states)[n::-1]):
            back = bdf._history_sum(alphas[1:, None], history)
            assert back.tobytes() == self._loop(alphas, history).tobytes()
            assert back[0] == 0.0 and not np.signbit(back[0])


class TestFailures:
    def test_singular_iteration_matrix(self):
        """1 - h*a = 0 makes backward Euler singular: a one-step run must
        raise, not return."""
        h = 0.01
        problem, _ = linear_test_problem(a=[[100.0]], y_s=[1.0], t_s=0.0, t_f=h)
        with pytest.raises(SolverError, match="singular"):
            integrate_nonadaptive(problem, 1, h)

    def test_divergent_iteration(self):
        """A predictor far outside the basin must fail, not loop forever."""
        problem, _ = linear_test_problem(a=[[0.0]], y_s=[1.0], t_s=0.0, t_f=1.0)

        def bad_rhs(t, y):   # y ** 3, also for stacked states
            return y ** 3

        def bad_jac(t, y):
            return 3.0 * y[None] ** 2

        from bdfadjoint import OdeProblem
        cubic = OdeProblem(name="cubic", dimension=1, initial_time=0.0,
                           final_time=1.0, initial_state=np.array([1.0]),
                           rhs=bad_rhs, jacobian=bad_jac,
                           criterion=lambda y: float(y[0]),
                           criterion_gradient=lambda y: np.array([1.0]))
        coeffs = compute_coefficients(np.array([0.0, 1.0]), 1)
        with pytest.raises(bdf._StepFailure):
            _step(cubic, [np.array([1.0])], coeffs, 1.0, 1.0,
                  predictor=np.array([1e8]))

    def test_non_finite_update_fails_the_step(self):
        """A finite residual whose update overflows, through a Newton matrix
        of about 1e-12 (regular by lu_factor's test): the step fails as a
        diverged update, though the update's norm is taken only after the
        residual at the new iterate shows the iteration goes on."""
        from bdfadjoint import OdeProblem
        problem = OdeProblem(
            name="flat", dimension=1, initial_time=0.0, final_time=1.0,
            initial_state=np.array([0.0]), rhs=lambda t, y: np.zeros_like(y),
            jacobian=lambda t, y: np.array([[1.0 - 1e-12]]),
            criterion=lambda y: float(y[0]), criterion_gradient=lambda y: np.array([1.0]))
        coeffs = compute_coefficients(np.array([0.0, 1.0]), 1)
        with pytest.raises(bdf._StepFailure, match="Newton update diverged at t=1.0"):
            _step(problem, [np.array([0.0])], coeffs, 1.0, 1.0, predictor=np.array([1e300]))


class TestStepLoopCounts:
    """What the step loops evaluate: one rhs call per attempt, at its
    predictor, and one per Newton update; one jacobian call per single
    matrix lu_factor call, each factorization's own."""

    @pytest.mark.parametrize("run", [
        ("nonadaptive", 1), ("nonadaptive", 2),
        *[("adaptive", rtol) for rtol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)]])
    def test_calls_per_attempt_and_update(self, run, monkeypatch):
        counts = {"rhs": 0, "jacobian": 0, "attempts": 0, "updates": 0, "factors": 0}

        def counted(name, function):
            def call(*args):
                counts[name] += 1
                return function(*args)
            return call

        def factor(m, band=None, lu_factor=bdf.lu_factor):
            counts["factors"] += m.ndim == 2
            return lu_factor(m, band)

        problem = dataclasses.replace(CATENARY, rhs=counted("rhs", CATENARY.rhs),
                                      jacobian=counted("jacobian", CATENARY.jacobian))
        monkeypatch.setattr(bdf, "_newton_iterate", counted("attempts", bdf._newton_iterate))
        monkeypatch.setattr(bdf, "lu_solve", counted("updates", bdf.lu_solve))
        monkeypatch.setattr(bdf, "lu_factor", factor)
        mode, value = run
        if mode == "nonadaptive":
            tape = integrate_nonadaptive(problem, value, 2.0 ** -10)
            assert counts["attempts"] == tape.n_steps
            assert counts["updates"] == tape.newton_iterations.sum()
        else:
            tape = integrate_adaptive(problem, value)
            assert counts["attempts"] >= tape.n_steps
            assert counts["updates"] >= tape.newton_iterations.sum()
        start = mode == "adaptive"   # the adaptive driver's f(t_s, y_s)
        assert counts["rhs"] == start + counts["attempts"] + counts["updates"]
        assert 0 < counts["jacobian"] == counts["factors"]


def _counting_jacobian(problem):
    """(problem, calls): problem with its jacobian counted in calls[0]."""
    calls = [0]

    def jacobian(t, y):
        calls[0] += 1
        return problem.jacobian(t, y)

    return dataclasses.replace(problem, jacobian=jacobian), calls


class TestFactorRefresh:
    """A step that converges after more than one update leaves its solution
    to the cache, and the Newton matrix there, with that step's (h,
    alpha_0), is factored on use: by the next step whose (h, alpha_0)
    match."""

    def test_catenary_halves_the_updates(self):
        """Catenary k = 2, h = 2^-10, whose f_y[1, 1] drifts from -2.99 to
        +2.99: the next step starts from f_y at the last accepted state, so
        about one update per step instead of 4621 with 3 factorizations."""
        problem, calls = _counting_jacobian(CATENARY)
        tape = integrate_nonadaptive(problem, 2, 2.0 ** -10)
        assert tape.n_steps == 2049
        assert tape.newton_iterations.sum() <= 2400
        assert calls[0] <= 300

    def test_linear_problem_costs_nothing(self):
        """The 3 x 3 linear problem converges in one update per step, so the
        matrix is factored once per run of equal (h, alpha_0) and no more."""
        problem, _ = linear_test_problem(
            a=[[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]],
            y_s=[1.0, 0.3, -0.7], t_s=0.0, t_f=1.0)
        problem, calls = _counting_jacobian(problem)
        tape = integrate_nonadaptive(problem, 2, 2.0 ** -6)
        assert (tape.newton_iterations == 1).all()
        runs, cache = 0, bdf._FactorCache()
        for h, alpha0 in zip(np.diff(tape.grid.nodes), tape.grid.alphas[:, 0]):
            if not cache.matches(h, alpha0):
                cache.lu, cache.h, cache.alpha0 = (), h, alpha0
                runs += 1
        assert calls[0] == runs == 3

    @staticmethod
    def _recording_solves(monkeypatch):
        """The factors of every bdf.lu_solve call, in order."""
        used = []
        solve = bdf.lu_solve
        monkeypatch.setattr(bdf, "lu_solve", lambda factors, b: used.append(factors)
                            or solve(factors, b))
        return used

    def test_refactors_at_the_solution(self, monkeypatch):
        """From a cache factored at a distant state with the step's (h,
        alpha_0), a mid-run step takes more than one update; the next step,
        whose (h, alpha_0) match, solves with the factors of the matrix at
        the returned y, bit for bit."""
        tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)
        ts, hs, alpha0s, columns = bdf._step_constants(tape.grid)
        n, tol = tape.n_steps // 2, bdf.NEWTON_TOL_NONADAPTIVE
        h, alpha0 = hs[n], alpha0s[n]
        assert (hs[n + 1], alpha0s[n + 1]) == (h, alpha0)
        states = tape.states.copy()
        cache = bdf._FactorCache()
        cache.refactor(CATENARY, ts[n], states[2], h, alpha0)
        y, iterations = bdf._newton_iterate(
            CATENARY, ts[n], h, alpha0, bdf._history_sum(columns[n, :2], states[n::-1]),
            states[n], tol, cache)
        assert iterations > 1
        states[n + 1] = y
        used = self._recording_solves(monkeypatch)
        bdf._newton_iterate(
            CATENARY, ts[n + 1], h, alpha0, bdf._history_sum(columns[n + 1, :2], states[n + 1::-1]),
            y, tol, cache)
        lu, piv, band = lu_factor(bdf._iteration_matrix(CATENARY.jacobian(ts[n], y), h, alpha0))
        assert used[0][0].tobytes() == lu.tobytes() and (used[0][1] == piv).all()
        assert used[0][2] is band is None

    def test_singular_refresh_keeps_the_converged_step(self, monkeypatch):
        """y' = -y by backward Euler, h = 1, from y_n = 1 (solution 1/2), with
        a stated f_y of -0.99 away from the solution and 1 near it, where
        1 - h f_y is singular: the step converges in several updates and
        returns its y, and the next step, whose (h, alpha_0) match, finds
        the matrix at that y singular and solves with the one at its own
        predictor."""
        from bdfadjoint import OdeProblem
        asked = []

        def jacobian(t, y):
            asked.append((t, y[0]))
            return np.array([[1.0 if abs(y[0] - 0.5) < 1e-3 else -0.99]])

        problem = OdeProblem(
            name="lying-jacobian", dimension=1, initial_time=0.0, final_time=2.0,
            initial_state=np.array([1.0]), rhs=lambda t, y: -y, jacobian=jacobian,
            criterion=lambda y: float(y[0]), criterion_gradient=lambda y: np.array([1.0]))
        coeffs = compute_coefficients(np.array([0.0, 1.0]), 1)
        alpha0, column, tol = float(coeffs[0]), coeffs[1:, None], bdf.NEWTON_TOL_NONADAPTIVE
        cache = bdf._FactorCache()
        y, iterations = bdf._newton_iterate(problem, 1.0, 1.0, alpha0,
                                            bdf._history_sum(column, [np.array([1.0])]),
                                            np.array([1.0]), tol, cache)
        assert iterations > 1
        assert abs(2.0 * y[0] - 1.0) <= tol
        assert lu_factor(bdf._iteration_matrix(problem.jacobian(1.0, y), 1.0, alpha0)) is None
        asked.clear()
        used = self._recording_solves(monkeypatch)
        predictor = np.array([1.0])
        z, _ = bdf._newton_iterate(problem, 2.0, 1.0, alpha0, bdf._history_sum(column, [y]),
                                   predictor, tol, cache)
        assert asked[:2] == [(1.0, y[0]), (2.0, 1.0)]
        lu, piv, _ = lu_factor(bdf._iteration_matrix(problem.jacobian(2.0, predictor), 1.0, alpha0))
        assert used[0][0].tobytes() == lu.tobytes() and (used[0][1] == piv).all()
        assert abs(2.0 * z[0] - y[0]) <= tol

    @pytest.mark.parametrize("rtol, before", [(1e-4, 56), (1e-5, 29), (1e-6, 42), (1e-7, 46),
                                              (1e-8, 65), (1e-9, 85), (1e-10, 106)])
    def test_adaptive_refresh_costs_no_jacobian(self, robertson, rtol, before):
        """On Robertson, where h changes on nearly every attempt, a refresh
        is factored only where a step uses it: no more jacobian calls than
        the before counts, those of factoring every refresh at once."""
        problem, calls = _counting_jacobian(robertson)
        integrate_adaptive(problem, rtol)
        assert calls[0] <= before

    def test_replay_factors_once_per_step(self):
        """A replay's fresh per-step cache never uses a refresh, so it
        factors none: from a perturbed start, where its steps take two
        updates, catenary k = 2, h = 2^-6 factors N matrices, not 2N."""
        problem, calls = _counting_jacobian(CATENARY)
        tape = integrate_nonadaptive(problem, 2, 2.0 ** -6)
        calls[0] = 0
        replay_integration(problem, tape, tape.states[0] * (1.0 + 1e-4))
        assert calls[0] == tape.n_steps


class TestLuFactor:
    @pytest.mark.parametrize("band", [None, (2, 1)])
    def test_stack_factored_in_place_as_one_by_one(self, band):
        """A stack built by _iteration_matrix, regular, singular and
        non-finite matrices in it, is factored in place: the factors are
        the stack itself, and they, the pivots and the mask are bit-equal
        to dgetrf/dgbtrf and lu_factor on each matrix alone."""
        rng = np.random.default_rng(11)
        m, d = 9, 6
        jac = rng.standard_normal((m, d, d))
        jac[2] = np.eye(d) / 0.5            # alpha_0 - h f_y = 0 on the diagonal
        jac[5, 3, 2 if band else 0] = np.nan
        jac[7, 1, 1] = np.inf
        h, alpha0 = np.full(m, 0.5), np.ones(m)
        alpha0[2] = 1.0
        stack = bdf._iteration_matrix(jac, h[:, None, None], alpha0[:, None, None], band)
        singles = [bdf._iteration_matrix(jac[i], h[i], alpha0[i], band) for i in range(m)]
        (lu, piv, got_band), regular = lu_factor(stack, band)
        assert lu is stack and got_band == band
        for i, single in enumerate(singles):
            want = dgetrf(single) if band is None else lapack.dgbtrf(single, *band)
            assert lu[i].tobytes() == want[0].tobytes() and (piv[i] == want[1]).all()
            assert regular[i] == (lu_factor(single, band) is not None)
        assert regular.tolist() == [i not in (2, 5, 7) for i in range(m)]

    def test_stack_in_c_order_refused(self):
        """A stack whose matrices are not in Fortran order would be factored
        in copies, so it is refused."""
        with pytest.raises(ValueError, match="Fortran order"):
            lu_factor(np.tile(np.eye(3), (2, 1, 1)) + np.triu(np.ones((3, 3)), 1))

    def test_refuses_exactly_the_singular_or_non_finite(self):
        """lu_factor returns None exactly when the LU has a non-finite entry
        or a pivot at most 1e3 eps of max(largest pivot, 1), on random,
        near-singular, badly scaled and NaN/inf matrices; otherwise its
        factors solve with a small backward error."""
        rng = np.random.default_rng(7)
        refused = 0
        for trial in range(2000):
            d = int(rng.integers(1, 6))
            m = rng.standard_normal((d, d))
            kind = trial % 4
            if kind == 1:   # last row a multiple of the first, plus noise
                noise = rng.choice([0.0, 1e-17, 1e-15, 1e-13, 1e-10])
                m[-1] = rng.standard_normal() * m[0] + noise * rng.standard_normal(d)
            elif kind == 2:
                m[rng.integers(d), rng.integers(d)] = rng.choice(
                    [np.nan, np.inf, -np.inf])
            elif kind == 3:
                m *= 10.0 ** rng.integers(-20, 20)
            lu = dgetrf(m)[0]
            pivots = np.abs(np.diagonal(lu))
            singular = (not np.isfinite(lu).all()
                        or pivots.min() <= 1e3 * EPS * max(pivots.max(), 1.0))
            factors = lu_factor(m)
            assert (factors is None) == singular
            if factors is None:
                refused += 1
            else:
                b = rng.standard_normal(d)
                x = lu_solve(factors, b)   # small backward error
                assert np.linalg.norm(m @ x - b) <= 1e-12 * (
                    np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(b))
        assert 500 < refused < 2000


class TestLapackBinding:
    """bdf binds dgetrf/dgetrs and dgbtrf/dgbtrs from SciPy's compiled LAPACK
    extension: the results are bit-equal to scipy.linalg.lapack's."""

    @staticmethod
    def _assert_bit_equal(got, want):
        for g, w in zip(got, want):
            g, w = np.asarray(g), np.asarray(w)
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
            if g.dtype == float:
                np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_dense_routines(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            m = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-3, 4)
            b = rng.standard_normal(d)
            got, want = bdf.dgetrf(m), lapack.dgetrf(m)
            self._assert_bit_equal(got, want)
            self._assert_bit_equal(bdf.dgetrs(got[0], got[1], b),
                                   lapack.dgetrs(want[0], want[1], b))

    def test_band_routines(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            kl, ku = (int(k) for k in rng.integers(0, d, size=2))
            ab = np.zeros((2 * kl + ku + 1, d))
            ab[kl:] = rng.standard_normal((kl + ku + 1, d))
            ab[kl + ku] += 4.0 * (kl + ku + 1)   # a dominant diagonal
            b = rng.standard_normal(d)
            got, want = bdf.dgbtrf(ab, kl, ku), lapack.dgbtrf(ab, kl, ku)
            self._assert_bit_equal(got, want)
            self._assert_bit_equal(bdf.dgbtrs(got[0], kl, ku, b, got[1]),
                                   lapack.dgbtrs(want[0], kl, ku, b, want[1]))

    def test_missing_extension_names_path_and_version(self, monkeypatch, tmp_path):
        """No fallback: a SciPy without the extension is an ImportError that
        says where it was looked for and which SciPy it is."""
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError) as excinfo:
            bdf._load_lapack()
        message = str(excinfo.value)
        assert "scipy.linalg._flapack" in message
        assert str(tmp_path / "linalg") in message
        assert f"SciPy {scipy.__version__}" in message


class TestNonFiniteJacobian:
    """A catenary whose f_y is NaN for t > 1: Newton, both drivers and the
    adjoint sweep report a solver failure, not a ValueError or NaN
    multipliers."""

    @pytest.mark.parametrize("stage", ["newton", "nonadaptive", "adaptive",
                                       "sweep"])
    def test_solver_failure(self, stage):
        problem = dataclasses.replace(   # also for stacked states (t of shape (m,))
            CATENARY, jacobian=lambda t, y: np.where(t <= 1.0, CATENARY.jacobian(t, y), np.nan))
        y = CATENARY.initial_state
        runs = {
            "newton": lambda: _step(
                problem, [y], compute_coefficients(np.array([1.0, 1.25]), 1),
                1.25, 0.25, predictor=y),
            "nonadaptive": lambda: integrate_nonadaptive(problem, 2, 1.0 / 16),
            "adaptive": lambda: integrate_adaptive(problem, 1e-6),
            "sweep": lambda: adjoint_sweep(
                problem, integrate_nonadaptive(CATENARY, 2, 1.0 / 16)),
        }
        with pytest.raises(SolverError, match="non-finite"):
            runs[stage]()


def _heat_with_jacobian(entry):
    """(heat, problem): a d = 8 tridiagonal heat problem on [0, 2], which
    states the band (1, 1), and its copy whose f_y holds a NaN at entry."""
    d = 8
    dx = 1.0 / (d + 1)
    a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                           + np.diag(np.ones(d - 1), -1))
    heat, _ = linear_test_problem(a, np.sin(np.pi * dx * np.arange(1, d + 1)), 0.0, 2.0)
    bad = a.copy()
    bad[entry] = np.nan
    problem = dataclasses.replace(   # also for stacked states, as (d, d, 1)
        heat, jacobian=lambda t, y: bad[:, :, None] if np.ndim(y) == 2 else bad)
    return heat, problem


class TestNonFiniteBandJacobian:
    """TestNonFiniteJacobian on the band route, whose finiteness test reads
    only the band's diagonals of f_y, the entries the step matrix is built
    from."""

    @pytest.mark.parametrize("stage", ["newton", "nonadaptive", "adaptive",
                                       "sweep"])
    def test_nan_inside_the_band_is_a_solver_failure(self, stage):
        heat, problem = _heat_with_jacobian((2, 3))
        assert problem.band == (1, 1)
        y = heat.initial_state
        runs = {
            "newton": lambda: _step(
                problem, [y], compute_coefficients(np.array([1.0, 1.25]), 1),
                1.25, 0.25, predictor=y),
            "nonadaptive": lambda: integrate_nonadaptive(problem, 2, 1.0 / 16),
            "adaptive": lambda: integrate_adaptive(problem, 1e-6),
            "sweep": lambda: adjoint_sweep(
                problem, integrate_nonadaptive(heat, 2, 1.0 / 16)),
        }
        with pytest.raises(SolverError, match="non-finite"):
            runs[stage]()

    def test_nan_outside_the_stated_band_is_never_read(self):
        """A custom problem that states the band (1, 1) while its f_y holds a
        NaN at (0, 5): both drivers and the sweep give the clean problem's
        states and multipliers bit for bit; the full f_y^T lambda products
        of verify_kkt see the NaN and refuse the run."""
        heat, problem = _heat_with_jacobian((0, 5))
        for integrate in (lambda p: integrate_nonadaptive(p, 2, 1.0 / 16),
                          lambda p: integrate_adaptive(p, 1e-6)):
            tape, clean = integrate(problem), integrate(heat)
            assert tape.states.tobytes() == clean.states.tobytes()
            adjoints = adjoint_sweep(problem, tape)
            assert adjoints.lambdas.tobytes() == adjoint_sweep(heat, clean).lambdas.tobytes()
            with pytest.raises(ValueError, match="adjoint_residual must be finite"):
                verify_kkt(problem, tape, adjoints)
