"""
Tests for the adaptive order/stepsize driver.

There is no closed form for the adaptive grid itself, so the tests check
contracts: the accepted-step error estimates respect the tolerance, the
final node lands on t_f exactly, orders obey the startup constraint
k_n <= min(n+1, 6), stepsize growth is clamped, tighter tolerances give
smaller true errors, and a finite-time blowup aborts via stepsize
underflow instead of looping.
"""

import numpy as np
import pytest

from bdfadjoint import (OdeProblem, SolverError, bdf, get_problem,
                        integrate_adaptive, linear_test_problem, load_tape,
                        save_tape)
from conftest import error_estimates

CATENARY, CATENARY_REF = get_problem("catenary")
MAX_GROWTH = 2.5
MIN_SHRINK = 0.2


class TestBasicRun:
    def test_completes_and_lands_on_tf(self):
        tape = integrate_adaptive(CATENARY, 1e-6)
        assert tape.mode == "adaptive"
        assert tape.grid.nodes[-1] == CATENARY.final_time
        assert np.all(np.diff(tape.grid.nodes) > 0)

    def test_estimates_respect_tolerance(self):
        """Every accepted step: ||est||_2 <= rtol*||y||_2 + atol, with est
        derived from the tape."""
        rtol, atol = 1e-6, 1e-12
        tape = integrate_adaptive(CATENARY, rtol, atol)
        estimates = error_estimates(CATENARY, tape)
        for n in range(tape.n_steps):
            bound = rtol * np.linalg.norm(tape.states[n + 1], 2) + atol
            assert estimates[n] <= bound

    def test_order_startup_invariant(self):
        tape = integrate_adaptive(CATENARY, 1e-8)
        for n, k in enumerate(tape.grid.orders):
            assert 1 <= k <= min(n + 1, 6)
        assert tape.grid.orders[0] == 1
        assert tape.grid.orders.max() >= 3  # smooth problem: order climbs

    def test_stepsize_change_clamped(self):
        tape = integrate_adaptive(CATENARY, 1e-6)
        h = tape.grid.stepsizes
        ratios = h[1:] / h[:-1]
        # the final step may be truncated to land on t_f, so exclude it
        assert np.all(ratios[:-1] <= MAX_GROWTH * (1 + 1e-12))
        assert np.all(ratios[:-1] >= MIN_SHRINK * (1 - 1e-12) / MAX_GROWTH)

    def test_first_step_heuristic_cap(self):
        rtol = 1e-6
        tape = integrate_adaptive(CATENARY, rtol)
        span = CATENARY.final_time - CATENARY.initial_time
        cap = span * min(1e-2, np.sqrt(rtol))
        assert tape.grid.stepsizes[0] <= cap * (1 + 1e-12)

    def test_driver_params_recorded(self, newton_record):
        tape = integrate_adaptive(CATENARY, 1e-4, 1e-10)
        assert tape.driver_params == {"rtol": 1e-4, "atol": 1e-10}
        assert tape.newton_tolerances.shape == (tape.n_steps,)
        residuals = [newton_record[t][1] for t in tape.grid.nodes[1:]]
        assert np.all(residuals <= tape.newton_tolerances)

    @pytest.mark.parametrize("rtol", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_derived_tolerances_are_the_drivers(self, rtol, newton_record,
                                                tmp_path):
        """The tape derives each step's Newton tolerance bit-equal to the one
        the driver solved that step to, also after a JSON round trip."""
        tape = integrate_adaptive(CATENARY, rtol)
        expected = [newton_record[t][0] for t in tape.grid.nodes[1:]]
        np.testing.assert_array_equal(tape.newton_tolerances, expected)
        save_tape(tape, tmp_path / "tape.json")
        np.testing.assert_array_equal(
            load_tape(tmp_path / "tape.json").newton_tolerances, expected)


    def test_derived_tolerances_from_per_step_predictors(self):
        """The tolerances, derived from the predictors of all steps at once,
        are bit-equal to the ones from each step's own predictor, also for
        states of odd length."""
        problem, _ = linear_test_problem(
            a=[[-1.0, 0.5, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, -3.0]],
            y_s=[1.0, 2.0, 3.0], t_s=0.0, t_f=1.5)
        for tape in (integrate_adaptive(CATENARY, 1e-9),
                     integrate_adaptive(problem, 1e-7)):
            nodes, orders = tape.grid.nodes, tape.grid.orders
            expected = [bdf._adaptive_newton_tol(
                tape.driver_params["rtol"], nodes[n + 1] - nodes[n],
                bdf._predict(nodes, tape.states, orders, n, nodes[n + 1]))
                for n in range(tape.n_steps)]
            np.testing.assert_array_equal(tape.newton_tolerances, expected)


    def test_newton_history_is_the_stencil(self, monkeypatch):
        """Every attempt, rejected ones included, hands _newton_iterate the
        k states its history sum reads, y_n .. y_{n+1-k}, not all of them,
        so a run of N steps does not copy O(N^2) entries."""
        lengths = []
        newton = bdf._newton_iterate

        def recording(problem, t_new, h, alphas, history, predictor, tol, cache):
            lengths.append((len(history), len(alphas) - 1))
            return newton(problem, t_new, h, alphas, history, predictor, tol, cache)

        monkeypatch.setattr(bdf, "_newton_iterate", recording)
        tape = integrate_adaptive(CATENARY, 1e-9)
        assert len(lengths) >= tape.n_steps > 100
        assert max(k for _, k in lengths) == 6
        assert all(n_history == k for n_history, k in lengths)


def _driver_estimates(monkeypatch, rtol):
    """The adaptive catenary tape at rtol, and for each step n >= 1 the
    estimate the driver accepted it by, from a recording wrapper of its own
    bdf._error_estimate calls: the last at step n's prior points, t_{n+1} and
    order (the order selection asks only for the other orders)."""
    calls = {}
    estimate = bdf._error_estimate

    def recording(nodes, states, t_new, y_new, q, fit=None):
        calls[len(nodes), t_new, q] = value = estimate(nodes, states, t_new, y_new, q, fit)
        return value

    monkeypatch.setattr(bdf, "_error_estimate", recording)
    tape = integrate_adaptive(CATENARY, rtol)
    nodes, orders = tape.grid.nodes, tape.grid.orders
    return tape, {n: calls[n + 1, nodes[n + 1], orders[n]] for n in range(1, tape.n_steps)}


class TestErrorEstimate:
    """The estimate is the corrector minus the stencil interpolant through
    the q+1 trailing points, scaled by h_new / (t_new - t_{n-q})."""

    @pytest.mark.parametrize("q", range(1, 7))
    def test_leading_divided_difference_of_a_monomial(self, q):
        """y = v t^(q+1): the divided difference over the q+2 points is v,
        so the estimate is ||v|| h_new^2 prod_{j=1..q-1} (t_new - t_{n-j})."""
        rng = np.random.default_rng(q)
        nodes = np.cumsum(rng.uniform(0.05, 0.3, size=q + 3))   # nonuniform
        v = np.array([0.7, -1.3])
        states = [v * t ** (q + 1) for t in nodes]
        t_new = nodes[-1] + 0.2
        h_new = t_new - nodes[-1]
        expected = np.linalg.norm(v) * h_new ** 2 * np.prod(
            [t_new - nodes[-1 - j] for j in range(1, q)])
        est = bdf._error_estimate(nodes, states, t_new, v * t_new ** (q + 1), q)
        assert est == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("rtol", [1e-4, 1e-8])
    def test_unchanged_order_is_scaled_predictor_difference(self, rtol, monkeypatch):
        """Where step n keeps step n-1's order k, the driver's estimate is
        ||y_{n+1} - predictor|| h_n / (t_{n+1} - t_{n-k}), bit for bit."""
        tape, driver = _driver_estimates(monkeypatch, rtol)
        nodes, states, orders = tape.grid.nodes, tape.states, tape.grid.orders
        kept = [n for n in range(1, tape.n_steps) if orders[n] == orders[n - 1]]
        assert kept
        for n in kept:
            k, t_new = orders[n], nodes[n + 1]
            predictor = bdf._predict(nodes, states, orders, n, t_new)
            expected = float(np.linalg.norm(states[n + 1] - predictor, 2)
                             * (t_new - nodes[n]) / (t_new - nodes[n - k]))
            est = bdf._error_estimate(nodes[:n + 1], states[:n + 1], t_new,
                                      states[n + 1], k)
            assert est == expected
            assert driver[n] == expected


    @pytest.mark.parametrize("rtol", [1e-4, 1e-8])
    def test_changed_order_estimate_refits(self, rtol, monkeypatch):
        """Where step n changes order, the driver's estimate is the
        interpolant through its own q+1 trailing points, not the predictor
        through step n-1's stencil."""
        tape, driver = _driver_estimates(monkeypatch, rtol)
        nodes, states, orders = tape.grid.nodes, tape.states, tape.grid.orders
        changed = [n for n in range(1, tape.n_steps) if orders[n] != orders[n - 1]]
        assert changed
        for n in changed:
            assert driver[n] == bdf._error_estimate(
                nodes[:n + 1], states[:n + 1], nodes[n + 1], states[n + 1], orders[n])


class TestAccuracy:
    def test_tighter_tolerance_smaller_error(self):
        y_exact = CATENARY_REF.nominal(2.0)
        errs = {}
        for rtol in (1e-4, 1e-6, 1e-9):
            tape = integrate_adaptive(CATENARY, rtol)
            errs[rtol] = np.linalg.norm(tape.states[-1] - y_exact)
        assert errs[1e-9] < errs[1e-6] < errs[1e-4]

    def test_error_tracks_tolerance_scale(self):
        """True error stays within a couple of orders of rtol * ||y||."""
        y_exact = CATENARY_REF.nominal(2.0)
        for rtol in (1e-4, 1e-7):
            tape = integrate_adaptive(CATENARY, rtol)
            err = np.linalg.norm(tape.states[-1] - y_exact)
            assert err <= 1e3 * rtol * np.linalg.norm(y_exact)

    def test_exact_for_linear_solutions(self):
        """Zero error estimates: steps grow at the clamp, result exact."""
        problem, ref = linear_test_problem(a=[[0.0, 1.0], [0.0, 0.0]],
                                           y_s=[1.0, 1.0], t_s=0.0, t_f=1.0)
        tape = integrate_adaptive(problem, 1e-8)
        np.testing.assert_allclose(tape.states[-1], ref.nominal(1.0),
                                   rtol=1e-12, atol=1e-12)
        h = tape.grid.stepsizes
        assert np.all(h[1:-1] / h[:-2] <= MAX_GROWTH * (1 + 1e-12))


class TestFailureModes:
    def test_blowup_aborts_with_underflow(self):
        """y' = y^2, y(0)=1 blows up at t=1: must abort, not hang.  rhs and
        jacobian also take stacked states, y[None] being (1, 1) or (1, 1, m)."""
        blowup = OdeProblem(
            name="blowup", dimension=1, initial_time=0.0, final_time=2.0,
            initial_state=np.array([1.0]),
            rhs=lambda t, y: y ** 2,
            jacobian=lambda t, y: 2.0 * y[None],
            criterion=lambda y: float(y[0]),
            criterion_gradient=lambda y: np.array([1.0]))
        with pytest.raises(SolverError, match="underflow"):
            integrate_adaptive(blowup, 1e-6)

    @pytest.mark.parametrize("tf", [1e-160, 1e-200])
    def test_tiny_interval_is_refused(self, tf):
        """On (0, t_f) with t_f = 1e-160 a product of two node differences
        of the stencil arithmetic underflows to 0.0: a SolverError that
        names it, where the division by it raised ZeroDivisionError."""
        problem, _ = linear_test_problem(a=[[-1.0]], y_s=[1.0], t_s=0.0, t_f=tf)
        with pytest.raises(SolverError, match="node spacing underflow at t="):
            integrate_adaptive(problem, 1e-4)

    def test_non_finite_initial_slope_is_named(self):
        """The first stepsize divides by ||f(t_s, y_s)||, which overflows at
        p = 1e308: refused under that name, not as a stepsize underflow."""
        problem, _ = get_problem("catenary", p=1e308)
        with np.errstate(over="ignore"), \
                pytest.raises(SolverError, match=r"non-finite f\(t_s, y_s\) at t_s=0\.0"):
            integrate_adaptive(problem, 1e-4)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            integrate_adaptive(CATENARY, 0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(CATENARY, 1e-6, -1e-12)
        # NaN is refused up front: a NaN step would be halved forever
        with pytest.raises(ValueError):
            integrate_adaptive(CATENARY, 1e-6, float("nan"))
        with pytest.raises(ValueError):
            integrate_adaptive(CATENARY, float("nan"))
        # infinity too: the tape would store it in driver_params
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(CATENARY, 1e-6, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            integrate_adaptive(CATENARY, float("inf"))
