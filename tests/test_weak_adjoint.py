"""
Tests for the weak-adjoint step function and the Riemann-Stieltjes pairing.

The step function is pure bookkeeping, so small hand-built cases are
checked exactly; the pairing against a pure jump function is the finite sum
of its jumps times g, formed here from the derived jump table, and
therefore exact too.  Convergence of the pairing to the continuous integral
of lambda * g is checked on the catenary.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from bdfadjoint import (DiscreteAdjoints, adjoint_sweep, get_problem,
                        integrate_nonadaptive, pointwise_error)

CATENARY, CATENARY_REF = get_problem("catenary")


def _hand_weak():
    """Jumps of [1] at t=0.5 and [2] at t=1.0 on [0, 1]: h = 0.5 times the
    multipliers [2] and [4]."""
    return DiscreteAdjoints(nodes=np.array([0.0, 0.5, 1.0]),
                            lambdas=np.array([[2.0], [4.0]]), gradient=np.zeros(1))


def rs_pair(weak, g):
    """<Lambda^h, g> = sum_n (h_{n-1} lambda_n) * g(t_n), componentwise: the
    Riemann-Stieltjes integral against a pure jump function; g(t) is a
    scalar or a length-d vector."""
    return sum(jump * np.asarray(g(t), dtype=float)
               for t, jump in zip(weak.nodes[1:], weak.jump_sizes))


class TestStepFunction:
    def test_zero_at_start(self):
        w = _hand_weak()
        np.testing.assert_array_equal(w(0.0), [0.0])

    def test_right_continuous_at_jumps(self):
        w = _hand_weak()
        np.testing.assert_array_equal(w(0.5), [1.0])       # post-jump value
        np.testing.assert_array_equal(w(0.5 - 1e-12), [0.0])
        np.testing.assert_array_equal(w(1.0), [3.0])

    def test_constant_between_jumps(self):
        w = _hand_weak()
        for t in (0.6, 0.75, 0.999):
            np.testing.assert_array_equal(w(t), [1.0])

    def test_array_evaluation(self):
        w = _hand_weak()
        out = w(np.array([0.0, 0.5, 0.7, 1.0]))
        np.testing.assert_array_equal(out, [[0.0], [1.0], [1.0], [3.0]])

    def test_domain_errors(self):
        w = _hand_weak()
        with pytest.raises(ValueError):
            w(-0.01)
        with pytest.raises(ValueError):
            w(1.01)

    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan]], ids=["scalar", "array"])
    def test_nan_time_raises(self, t):
        """NaN is in no interval: it does not read as t_f."""
        with pytest.raises(ValueError, match="outside"):
            _hand_weak()(t)

    def test_rejects_unsorted_jumps(self):
        with pytest.raises(ValueError):
            DiscreteAdjoints(nodes=np.array([0.0, 0.5, 0.5]),
                             lambdas=np.array([[2.0], [4.0]]), gradient=np.zeros(1))

    @pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0], []],
                             ids=["nan", "one", "none"])
    def test_rejects_nodes_not_strictly_increasing(self, nodes):
        lambdas = np.ones((max(len(nodes) - 1, 0), 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteAdjoints(nodes=np.array(nodes), lambdas=lambdas, gradient=np.zeros(1))

    @pytest.mark.parametrize("lambdas, gradient", [
        (np.ones((1, 1)), np.zeros(1)),       # N - 1 multipliers
        (np.ones((3, 1)), np.zeros(1)),       # N + 1
        (np.ones(2), np.zeros(1)),            # not a matrix
        (np.ones((2, 1)), np.zeros(2)),       # a gradient of d + 1 entries
        (np.ones((2, 1)), np.zeros((1, 1))),  # a gradient that is not a vector
    ], ids=["few", "many", "vector", "long-gradient", "matrix-gradient"])
    def test_rejects_shapes_not_of_the_grid(self, lambdas, gradient):
        """An (N, d) lambda and a (d,) gradient, N the steps of the grid."""
        with pytest.raises(ValueError):
            DiscreteAdjoints(nodes=np.array([0.0, 0.5, 1.0]), lambdas=lambdas,
                             gradient=gradient)


class TestAssembly:
    """The sweep's result is the step function: no assembly step remains."""

    def test_jump_sizes_are_h_times_lambda(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        w = adjoint_sweep(CATENARY, tape)
        np.testing.assert_array_equal(
            w.jump_sizes, tape.grid.stepsizes[:, None] * w.lambdas)

    def test_view_of_grid_and_multipliers(self):
        """The sweep's result holds the tape's nodes themselves, the
        multipliers and the gradient, and nothing else: its jumps and values
        are derived."""
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        w = adjoint_sweep(CATENARY, tape)
        assert sorted(vars(w)) == ["gradient", "lambdas", "nodes"]
        assert w.nodes is tape.grid.nodes

    def test_node_values_are_the_step_function_at_the_nodes(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        w = adjoint_sweep(CATENARY, tape)
        np.testing.assert_array_equal(w.node_values, w(tape.grid.nodes))
        np.testing.assert_array_equal(w.node_values[0], np.zeros(2))

    def test_final_value_is_weighted_lambda_sum(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        w = adjoint_sweep(CATENARY, tape)
        np.testing.assert_allclose(
            w(2.0), (tape.grid.stepsizes[:, None] * w.lambdas).sum(axis=0),
            rtol=1e-14)


class TestRsPairing:
    def test_hand_sum(self):
        """<Lambda, g> = 1*g(0.5) + 2*g(1.0) for the hand-built jumps."""
        w = _hand_weak()
        np.testing.assert_allclose(rs_pair(w, lambda t: np.array([t])),
                                   [1.0 * 0.5 + 2.0 * 1.0], rtol=1e-15)

    def test_scalar_g_broadcasts(self):
        w = DiscreteAdjoints(nodes=np.array([0.0, 0.5, 1.0]),
                             lambdas=np.array([[2.0, 20.0], [4.0, 40.0]]),
                             gradient=np.zeros(2))
        out = rs_pair(w, lambda t: t ** 2)
        np.testing.assert_allclose(out, [1 * 0.25 + 2 * 1.0,
                                         10 * 0.25 + 20 * 1.0], rtol=1e-15)

    def test_pairing_with_one_recovers_final_value(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.125)
        w = adjoint_sweep(CATENARY, tape)
        np.testing.assert_allclose(rs_pair(w, lambda t: 1.0), w(2.0),
                                   rtol=1e-13)

    def test_converges_to_continuous_pairing(self):
        """<Lambda^h, g> -> int lambda_j g_j dt, componentwise."""
        def g(t):
            return np.array([np.cos(t), t])

        exact = np.array([
            quad(lambda s, j=j: CATENARY_REF.classical_adjoint(s)[j] * g(s)[j],
                 0.0, 2.0, limit=200)[0]
            for j in range(2)])
        errs = []
        for h in (2.0 ** -5, 2.0 ** -7):
            tape = integrate_nonadaptive(CATENARY, 2, h)
            w = adjoint_sweep(CATENARY, tape)
            errs.append(np.linalg.norm(rs_pair(w, g) - exact))
        assert errs[1] < errs[0] / 3.0


class TestPointwiseError:
    def test_matches_manual_difference(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.125)
        w = adjoint_sweep(CATENARY, tape)
        t = 1.25
        manual = np.linalg.norm(w(t) - CATENARY_REF.weak_adjoint(t), 2)
        assert pointwise_error(w, CATENARY_REF, t) == pytest.approx(manual,
                                                                    rel=1e-15)

    def test_decreases_under_refinement(self):
        errs = []
        for h in (2.0 ** -4, 2.0 ** -6):
            tape = integrate_nonadaptive(CATENARY, 2, h)
            w = adjoint_sweep(CATENARY, tape)
            errs.append(pointwise_error(w, CATENARY_REF, 2.0))
        assert errs[1] < errs[0] / 8.0  # second order: ~16x
