"""
Tests for dense output (continuous trajectory interpolation).

Oracles: exact reproduction of stored states at nodes, exact reproduction
of solutions that are polynomials within the interpolant's degree, and
interpolation error of the same order as the integration error elsewhere.
"""

import numpy as np
import pytest

from bdfadjoint import (bdf, dense_eval, get_problem, integrate_adaptive,
                        integrate_nonadaptive, linear_test_problem)

CATENARY, CATENARY_REF = get_problem("catenary")


class TestNodes:
    def test_exact_at_every_node(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.125)
        for idx, t in enumerate(tape.grid.nodes):
            np.testing.assert_array_equal(dense_eval(tape, t), tape.states[idx])


class TestInterpolation:
    def test_linear_solution_reproduced_between_nodes(self):
        """Interpolating exact states of a linear-in-t solution is exact."""
        problem, ref = linear_test_problem(a=[[0.0, 1.0], [0.0, 0.0]],
                                           y_s=[1.0, 1.0], t_s=0.0, t_f=1.0)
        tape = integrate_nonadaptive(problem, 2, 0.125)
        for t in np.linspace(0.01, 0.99, 13):
            np.testing.assert_allclose(dense_eval(tape, t), ref.nominal(t),
                                       rtol=1e-12, atol=1e-12)

    def test_midpoint_error_scales_with_integration_error(self):
        """Dense output between nodes carries the O(h^2) global error, no worse."""
        errs = []
        for h in (2.0 ** -5, 2.0 ** -6):
            tape = integrate_nonadaptive(CATENARY, 2, h)
            mids = 0.5 * (tape.grid.nodes[3:-1] + tape.grid.nodes[4:])
            errs.append(max(np.linalg.norm(dense_eval(tape, t)
                                           - CATENARY_REF.nominal(t))
                            for t in mids))
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] > 2.5  # ~4 for a second-order method

    def test_adaptive_tape_dense_output(self):
        tape = integrate_adaptive(CATENARY, 1e-8)
        for t in (0.1, 0.77, 1.5, 1.999):
            np.testing.assert_allclose(dense_eval(tape, t),
                                       CATENARY_REF.nominal(t),
                                       rtol=1e-5, atol=1e-6)


def _interpolate_on_numpy_scalars(ts, ys, t):
    """Oracle: the Lagrange sum of bdf._interpolate, with its node arithmetic
    done on NumPy float64 scalars."""
    acc = None
    for i, ti in enumerate(ts):
        num = den = np.float64(1.0)
        for j, tj in enumerate(ts):
            if j != i:
                num *= t - tj
                den *= ti - tj
        term = num / den * ys[i]
        acc = term if acc is None else acc + term
    return acc


def test_interpolant_bit_equal_for_array_and_float_nodes():
    """bdf._interpolate gives the same bits for nodes passed as an array, as
    Python floats or as NumPy scalars, and as the oracle on NumPy scalars."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(1, bdf.MAX_ORDER + 2))
        ts = rng.uniform(-50, 50) + np.cumsum(rng.uniform(1e-4, 1.0, m))
        ys = rng.standard_normal((m, 3))
        t = np.float64(ts[-1] + rng.uniform(-2.0, 1.0))
        expect = _interpolate_on_numpy_scalars(ts, ys, t)
        for nodes, at in ((ts, t), (ts.tolist(), float(t)), (list(ts), t)):
            np.testing.assert_array_equal(bdf._interpolate(nodes, ys, at), expect)


class TestDomain:
    def test_outside_interval_raises(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        with pytest.raises(ValueError):
            dense_eval(tape, -0.1)
        with pytest.raises(ValueError):
            dense_eval(tape, 2.0 + 1e-9)

    def test_nan_time_raises(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        with pytest.raises(ValueError, match="outside the integration interval"):
            dense_eval(tape, np.nan)

    def test_endpoints_included(self):
        tape = integrate_nonadaptive(CATENARY, 2, 0.25)
        np.testing.assert_array_equal(dense_eval(tape, 0.0), tape.states[0])
        np.testing.assert_array_equal(dense_eval(tape, 2.0), tape.states[-1])
