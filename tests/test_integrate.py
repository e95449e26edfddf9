"""
Tests for the fixed-stepsize driver with its self-starting order ramp.

Closed-form oracles: backward Euler on y' = a*y gives y_N = y0/(1-h*a)^N;
problems with solutions linear in t are reproduced exactly at every order;
and the Newton recursion seeded with exact history must show the full
order k of the formula (the self-start ramp itself is order-limited, so
order-k fits are asserted on seeded runs only).
"""

import tracemalloc

import numpy as np
import pytest

from bdfadjoint import (SolverError, TimeGrid, bdf, compute_coefficients,
                        get_problem, integrate_adaptive, integrate_nonadaptive,
                        linear_test_problem)
from bdfadjoint.bdf import MAX_ORDER

CATENARY, CATENARY_REF = get_problem("catenary")


def _nilpotent_problem():
    """y' = [[0,1],[0,0]] y: solution [y1 + t*y2, y2], linear in t."""
    return linear_test_problem(a=[[0.0, 1.0], [0.0, 0.0]], y_s=[1.0, 1.0],
                               t_s=0.0, t_f=1.0)


class TestBackwardEulerDriver:
    def test_geometric_decay_closed_form(self):
        """k=1: y_N = y0 * (1 - h*a)^(-N) exactly for y' = a*y."""
        a, h, tf = -2.0, 0.125, 1.0
        problem, _ = linear_test_problem(a=[[a]], y_s=[1.0], t_s=0.0, t_f=tf)
        tape = integrate_nonadaptive(problem, 1, h)
        n = int(round(tf / h))
        assert tape.n_steps == n
        np.testing.assert_allclose(tape.states[-1], [(1.0 - h * a) ** (-n)],
                                   rtol=1e-13)

    def test_uniform_grid(self):
        problem, _ = linear_test_problem(a=[[-1.0]], y_s=[1.0], t_s=0.0, t_f=1.0)
        tape = integrate_nonadaptive(problem, 1, 0.25)
        np.testing.assert_allclose(tape.grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0],
                                   atol=1e-15)
        assert all(k == 1 for k in tape.grid.orders)


class TestSelfStart:
    def test_two_step_grid_layout(self):
        """k=2 startup: two h/2 substeps at order 1, then order-2 h steps."""
        tape = integrate_nonadaptive(CATENARY, 2, 2.0 ** -6)
        h = 2.0 ** -6
        assert tape.n_steps == 129
        assert tape.states.shape == (130, 2)
        np.testing.assert_allclose(tape.grid.nodes[:4], [0.0, h / 2, h, 2 * h],
                                   atol=1e-15)
        assert list(tape.grid.orders[:3]) == [1, 1, 2]
        assert all(k == 2 for k in tape.grid.orders[2:])
        # the last node lands on t_f exactly, not within roundoff
        assert tape.grid.nodes[-1] == CATENARY.final_time

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_ramp_structure(self, k):
        """Geometric ramp: substep j has length h*2^j/2^(k-1), order j+1."""
        h = 0.125
        problem, _ = linear_test_problem(a=[[-1.0]], y_s=[1.0], t_s=0.0, t_f=1.0)
        tape = integrate_nonadaptive(problem, k, h)
        orders = tape.grid.orders
        assert list(orders[:k]) == list(range(1, k)) + [k]
        assert all(q == k for q in orders[k:])
        sub = h / 2 ** (k - 1)
        expect = np.cumsum([sub * 2 ** j for j in range(k - 1)])
        np.testing.assert_allclose(tape.grid.nodes[1:k], expect, atol=1e-15)
        np.testing.assert_allclose(tape.grid.nodes[k], h, atol=1e-15)

    @pytest.mark.parametrize("k, fracs, orders", [
        (1, [1.0, 2.0, 3.0], [1, 1, 1]),
        (2, [0.5, 1.0, 2.0, 3.0], [1, 1, 2, 2]),
        (3, [0.25, 0.75, 1.0, 2.0, 3.0], [1, 2, 3, 3, 3]),
        (4, [0.125, 0.375, 0.875, 1.0, 2.0, 3.0], [1, 2, 3, 4, 4, 4]),
        (5, [1 / 16, 3 / 16, 7 / 16, 15 / 16, 1.0, 2.0, 3.0], [1, 2, 3, 4, 5, 5, 5]),
        (6, [1 / 32, 3 / 32, 7 / 32, 15 / 32, 31 / 32, 1.0, 2.0, 3.0],
         [1, 2, 3, 4, 5, 6, 6, 6])])
    def test_plan_literal(self, k, fracs, orders):
        """The (node fraction, order) plan of three main intervals, bit for
        bit: k = 1 is one order-1 step per interval."""
        got_fracs, got_orders = bdf._nonadaptive_plan(k, 3)
        np.testing.assert_array_equal(got_fracs, fracs)
        np.testing.assert_array_equal(got_orders, orders)
        assert got_fracs.dtype == np.float64 and got_orders.dtype.kind == "i"

    def test_order_invariant(self):
        """Every step satisfies k_n <= min(n+1, 6)."""
        for k in range(1, 7):
            tape = integrate_nonadaptive(CATENARY, k, 0.25)
            for n, q in enumerate(tape.grid.orders):
                assert 1 <= q <= min(n + 1, 6)


class TestExactness:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_linear_solution_reproduced(self, k):
        """Solutions linear in t are integrated exactly at every order."""
        problem, ref = _nilpotent_problem()
        tape = integrate_nonadaptive(problem, k, 0.125)
        np.testing.assert_allclose(tape.states[-1], ref.nominal(1.0),
                                   rtol=1e-12, atol=1e-12)


class TestConvergence:
    def test_two_step_is_second_order(self):
        hs = [2.0 ** -e for e in range(4, 8)]
        errs = [np.linalg.norm(integrate_nonadaptive(CATENARY, 2, h).states[-1]
                               - CATENARY_REF.nominal(2.0)) for h in hs]
        fit = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= fit <= 2.2

    def test_backward_euler_is_first_order(self):
        hs = [2.0 ** -e for e in range(6, 10)]
        errs = [np.linalg.norm(integrate_nonadaptive(CATENARY, 1, h).states[-1]
                               - CATENARY_REF.nominal(2.0)) for h in hs]
        fit = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.85 <= fit <= 1.25

    @pytest.mark.parametrize("k,band", [(3, (2.7, 3.5)), (4, (3.7, 4.5)),
                                        (5, (4.7, 5.7))])
    def test_seeded_main_run_has_full_order(self, k, band):
        """With exact history (no ramp), uniform k-step runs converge at order k."""
        hs = [2.0 ** -e for e in range(3, 7)]
        errs = []
        for h in hs:
            n_steps = int(round(1.0 / h))
            nodes = h * np.arange(-(k - 1), n_steps + 1)
            states = [CATENARY_REF.nominal(t) for t in nodes[:k]]
            for n in range(k - 1, k - 1 + n_steps):
                coeffs = compute_coefficients(nodes[n + 1 - k:n + 2], k)
                hist = [states[n - i] for i in range(k)]
                y, _ = bdf._newton_iterate(
                    CATENARY, float(nodes[n + 1]), h, float(coeffs[0]),
                    bdf._history_sum(coeffs[1:, None], hist), states[n],
                    bdf.NEWTON_TOL_NONADAPTIVE, bdf._FactorCache())
                states.append(y)
            errs.append(np.linalg.norm(states[-1] - CATENARY_REF.nominal(1.0)))
        fit = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert band[0] <= fit <= band[1]


class TestTapeRecord:
    def test_tape_fields(self, newton_record):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        assert tape.problem_name == "catenary"
        assert tape.mode == "nonadaptive"
        assert tape.driver_params == {"order": 2, "h": 0.25}
        np.testing.assert_array_equal(tape.states[0], CATENARY.initial_state)
        residuals = [newton_record[t][1] for t in tape.grid.nodes[1:]]
        assert np.all(residuals <= tape.newton_tolerances)
        assert tape.grid.alphas.shape == (tape.n_steps, MAX_ORDER + 1)
        assert tape.newton_iterations.shape == (tape.n_steps,)

    def test_recorded_coefficients_match_grid(self):
        """The grid's derived table holds each step's kernel output, newest
        first and zero past the step's order; it is derived once, read-only."""
        for tape in (integrate_nonadaptive(CATENARY, 3, 0.25),
                     integrate_adaptive(CATENARY, 1e-9)):
            table = tape.grid.alphas
            for n in range(tape.n_steps):
                k = tape.grid.orders[n]
                expect = compute_coefficients(tape.grid.nodes[n + 1 - k:n + 2], k)
                np.testing.assert_array_equal(table[n, :k + 1], expect)
                assert not np.any(table[n, k + 1:])
            assert tape.grid.alphas is table
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        assert tape.grid.orders.max() == MAX_ORDER


    def test_nonadaptive_driver_derives_table_once(self):
        """The fixed-step driver steps on its planned grid, so the tape comes
        with the grid's table already derived; each row is the kernel's."""
        tape = integrate_nonadaptive(CATENARY, 4, 0.125)
        assert "alphas" in vars(tape.grid)
        for n, k in enumerate(tape.grid.orders):
            np.testing.assert_array_equal(
                tape.grid.alphas[n, :k + 1],
                compute_coefficients(tape.grid.nodes[n + 1 - k:n + 2], k))


class TestValidation:
    def test_rejects_noninteger_step_count(self):
        with pytest.raises(ValueError):
            integrate_nonadaptive(CATENARY, 2, 0.3)

    def test_rejects_too_few_steps_for_order(self):
        problem, _ = linear_test_problem(a=[[-1.0]], y_s=[1.0], t_s=0.0, t_f=1.0)
        with pytest.raises(ValueError):
            integrate_nonadaptive(problem, 4, 0.5)  # only 2 main steps

    def test_rejects_bad_order_and_stepsize(self):
        with pytest.raises(ValueError):
            integrate_nonadaptive(CATENARY, 0, 0.25)
        with pytest.raises(ValueError):
            integrate_nonadaptive(CATENARY, 7, 0.25)
        with pytest.raises(ValueError):
            integrate_nonadaptive(CATENARY, 2, -0.25)
        with pytest.raises(ValueError, match="stepsize must be positive"):
            integrate_nonadaptive(CATENARY, 2, float("nan"))

    @pytest.mark.parametrize("h", [1e-9, 5e-324])
    def test_refuses_step_count_beyond_tape_limit(self, h):
        """2e9 main steps, or (t_f - t_s) / h = inf: refused before the plan
        or the states are allocated."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed the tape limit"):
                integrate_nonadaptive(CATENARY, 2, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
    def test_tape_limit_counts_state_values(self, k, monkeypatch):
        """h = 1/4 on the catenary: 8 main intervals, N = 8 + k - 1 steps,
        so (N + 1) * d = 2 (8 + k) state values, which is the limit."""
        limit = 2 * (8 + k)
        monkeypatch.setattr(bdf, "MAX_STATE_VALUES", limit)
        assert integrate_nonadaptive(CATENARY, k, 0.25).states.size == limit
        monkeypatch.setattr(bdf, "MAX_STATE_VALUES", limit - 1)
        with pytest.raises(ValueError, match=f"tape limit of {limit - 1} "):
            integrate_nonadaptive(CATENARY, k, 0.25)

    def test_grid_names_its_first_bad_order(self):
        """Step n admits orders 1..min(n + 1, MAX_ORDER); the error names the
        first step outside that range."""
        nodes = np.arange(12.0)
        for orders, message in (
                ([1, 2, 3, 5, 0, 1, 1, 1, 1, 1, 1], "step 3 has order 5, "
                 "admissible range is [1, 4]"),
                ([1, 2, 3, 4, 5, 6, 7, 0, 1, 1, 1], "step 6 has order 7, "
                 "admissible range is [1, 6]"),
                ([0] + [1] * 10, "step 0 has order 0, admissible range is [1, 1]")):
            with pytest.raises(ValueError) as excinfo:
                TimeGrid(nodes=nodes, orders=np.array(orders))
            assert str(excinfo.value) == message
        TimeGrid(nodes=nodes, orders=np.minimum(np.arange(1, 12), MAX_ORDER))

    def test_singular_step_raises_solver_error(self):
        """1 - h*a = 0: the Newton matrix is exactly singular."""
        problem, _ = linear_test_problem(a=[[100.0]], y_s=[1.0], t_s=0.0,
                                         t_f=1.0)
        with pytest.raises(SolverError):
            integrate_nonadaptive(problem, 1, 0.01)
