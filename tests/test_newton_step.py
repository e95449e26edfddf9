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
                        linear_test_problem, verify_kkt)
from bdfadjoint.bdf import EPS, lu_factor, lu_solve

CATENARY, _ = get_problem("catenary")


def _step(problem, history, alphas, t_next, h, predictor):
    """(y, iterations) of one implicit step solved to the nonadaptive
    tolerance; history lists the prior states newest first."""
    return bdf._newton_iterate(problem, t_next, h, alphas, history, predictor,
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
        back = bdf._history_sum(coeffs, history)
        assert np.max(np.abs(bdf._step_residual(problem, h, h, coeffs, back, y))) <= 1e-12

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
        back = bdf._history_sum(coeffs, history)
        np.testing.assert_allclose(bdf._step_residual(problem, 2 * h, h, coeffs, back, y),
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
            back = bdf._history_sum(alphas, history)
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


class TestLuFactor:
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
