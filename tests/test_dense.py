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


def _sequential_interpolate(ts, ys, t):
    """Frozen copy of bdf._interpolate before its split into a weight kernel
    and one np.add.reduce: each term num / den * ys[i] is added in turn."""
    acc = None
    for i, ti in enumerate(ts):
        num = den = 1.0
        for j, tj in enumerate(ts):
            if j != i:
                num *= t - tj
                den *= ti - tj
        term = num / den * ys[i]
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("k", range(1, bdf.MAX_ORDER + 1))
def test_split_interpolant_bit_equal_to_sequential_sum(k):
    """The Lagrange-weight kernel and the ordered reduce give the bits of the
    sequential sum on random stencils of k + 1 nodes, for one stencil on
    Python floats (states of length 1, 2 and 5, as an array or a list) and
    for m stencils at once as (m, 1) columns."""
    rng = np.random.default_rng(100 + k)
    for _ in range(200):
        d = int(rng.choice([1, 2, 5]))
        ts = (rng.uniform(-50, 50) + np.cumsum(rng.uniform(1e-4, 1.0, k + 1))).tolist()
        ys = rng.standard_normal((k + 1, d)) * 10.0 ** rng.integers(-6, 7, (k + 1, 1))
        t = ts[-1] + rng.uniform(-2.0, 1.0)
        expect = _sequential_interpolate(ts, ys, t)
        np.testing.assert_array_equal(bdf._interpolate(ts, ys, t), expect)
        np.testing.assert_array_equal(bdf._interpolate(ts, list(ys), t), expect)
        weights = bdf._lagrange_weights(ts, t)
        assert all(type(w) is float for w in weights)

        m = 7
        cols = [np.sort(rng.uniform(-50, 50, (m, k + 1)), axis=1)[:, j, None]
                for j in range(k + 1)]
        at = cols[-1] + rng.uniform(-2.0, 1.0, (m, 1))
        states = [rng.standard_normal((m, d)) for _ in range(k + 1)]
        np.testing.assert_array_equal(bdf._interpolate(cols, states, at),
                                      _sequential_interpolate(cols, states, at))
        for j, w in enumerate(bdf._lagrange_weights(cols, at)):
            assert w.shape == (m, 1)
            for i in range(m):   # each column entry is the float kernel's weight
                assert w[i, 0] == bdf._lagrange_weights(
                    [float(c[i, 0]) for c in cols], float(at[i, 0]))[j]


@pytest.mark.parametrize("k", range(1, bdf.MAX_ORDER + 1))
@pytest.mark.parametrize("name", ["catenary", "linear"])
def test_tabulated_predictors_bit_equal_to_predict(name, k):
    """At every step of a nonadaptive grid, the predictor summed from
    TimeGrid.predictor_weights, as integrate_nonadaptive sums it, has the
    bits of _predict's."""
    problem, _ = (get_problem("catenary") if name == "catenary" else linear_test_problem(
        a=[[-1.0, 0.5, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, -3.0]],
        y_s=[1.0, 2.0, 3.0], t_s=0.0, t_f=1.5))
    tape = integrate_nonadaptive(problem, k, 2.0 ** -5 if name == "catenary" else 0.09375)
    grid, states = tape.grid, tape.states
    table, before = grid.predictor_weights, grid.orders_before
    assert not table.flags.writeable
    np.testing.assert_array_equal(before, np.concatenate(([0], grid.orders[:-1])))
    for n in range(tape.n_steps):
        q = before[n]
        assert not np.any(table[n, q + 1:])
        predictor = np.add.reduce(table[n, :q + 1, None] * states[n - q:n + 1])
        np.testing.assert_array_equal(
            predictor, bdf._predict(grid.nodes, states, grid.orders, n, grid.nodes[n + 1]))


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
