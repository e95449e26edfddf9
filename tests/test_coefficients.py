"""
Tests for the variable-stepsize BDF coefficient computation.

Every expected value is a closed-form hand derivation: the constant-step
tables follow from differentiating the Lagrange basis on 0..k, and the
nonuniform k=2 set was derived on the stencil {0, 1, 3} by hand.  The grid's
table, derived for all steps of one order at once, is checked bit for bit
against the one-stencil kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfadjoint import (DiscreteAdjoints, TimeGrid, compute_coefficients,
                        get_problem, integrate_adaptive, integrate_nonadaptive)
from bdfadjoint.bdf import MAX_ORDER

RNG = np.random.default_rng(0)

# Constant-step alpha tables, stencil t = 0..k, h = 1, newest first.
UNIFORM_TABLES = {
    1: [1.0, -1.0],
    2: [3 / 2, -2.0, 1 / 2],
    3: [11 / 6, -3.0, 3 / 2, -1 / 3],
    4: [25 / 12, -4.0, 3.0, -4 / 3, 1 / 4],
    5: [137 / 60, -5.0, 5.0, -10 / 3, 5 / 4, -1 / 5],
    6: [49 / 20, -6.0, 15 / 2, -20 / 3, 15 / 4, -6 / 5, 1 / 6],
}


class TestUniformTables:
    @pytest.mark.parametrize("order", sorted(UNIFORM_TABLES))
    def test_constant_step_alphas(self, order):
        """Uniform-grid coefficients match the classical BDF tables."""
        nodes = np.arange(order + 1, dtype=float)
        coeffs = compute_coefficients(nodes, order)
        np.testing.assert_allclose(coeffs, UNIFORM_TABLES[order],
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", sorted(UNIFORM_TABLES))
    def test_step_scaling(self, order):
        """Scaling all nodes by s leaves the alphas unchanged (h-normalized)."""
        nodes = 0.37 * np.arange(order + 1, dtype=float) + 1.2
        coeffs = compute_coefficients(nodes, order)
        np.testing.assert_allclose(coeffs, UNIFORM_TABLES[order],
                                   rtol=1e-13, atol=1e-13)


class TestNonuniform:
    def test_two_step_stencil_0_1_3(self):
        """Hand-derived alphas for k=2 on nodes {0, 1, 3} (h = 2)."""
        coeffs = compute_coefficients(np.array([0.0, 1.0, 3.0]), 2)
        np.testing.assert_allclose(coeffs, [5 / 3, -3.0, 4 / 3],
                                   rtol=0, atol=1e-14)

    def test_reduces_to_backward_euler(self):
        """Order 1 on any stencil is plain backward Euler: [1, -1]."""
        coeffs = compute_coefficients(np.array([0.3, 1.9]), 1)
        np.testing.assert_allclose(coeffs, [1.0, -1.0], atol=1e-15)


class TestInvariants:
    """Algebraic identities that hold for every valid stencil."""

    def _random_nodes(self, order):
        gaps = RNG.uniform(0.1, 2.0, size=order + 1)
        return np.cumsum(gaps) - gaps[0] + RNG.uniform(-5, 5)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_zero_sum(self, order):
        nodes = self._random_nodes(order)
        alphas = compute_coefficients(nodes, order)
        assert abs(alphas.sum()) <= 1e-12 * np.max(np.abs(alphas))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_identity_interpolant(self, order):
        """sum_i alpha_i * t_{n+1-i} = h_n (exactness on y(t) = t)."""
        nodes = self._random_nodes(order)
        alphas = compute_coefficients(nodes, order)
        h = nodes[-1] - nodes[-2]
        lhs = alphas @ nodes[::-1]
        assert abs(lhs - h) <= 1e-12 * max(abs(h), abs(h) * np.max(np.abs(nodes)))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_leading_coefficient_positive(self, order):
        nodes = self._random_nodes(order)
        assert compute_coefficients(nodes, order)[0] > 0.0

    @pytest.mark.parametrize("order", range(1, 7))
    def test_polynomial_exactness(self, order):
        """The formula differentiates polynomials up to degree k exactly."""
        nodes = self._random_nodes(order)
        alphas = compute_coefficients(nodes, order)
        h = nodes[-1] - nodes[-2]
        for deg in range(order + 1):
            lhs = alphas @ (nodes[::-1] ** deg)
            rhs = h * deg * nodes[-1] ** (deg - 1) if deg > 0 else 0.0
            scale = max(1.0, np.max(np.abs(nodes)) ** deg)
            assert abs(lhs - rhs) <= 1e-11 * scale


@given(
    order=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_invariants_property(order, seed):
    """Zero-sum and identity-interpolant conditions on arbitrary stencils."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(1e-3, 10.0, size=order + 1)
    nodes = np.cumsum(gaps) - gaps[0] + rng.uniform(-100, 100)
    alphas = compute_coefficients(nodes, order)
    h = nodes[-1] - nodes[-2]
    scale = np.max(np.abs(alphas))
    assert abs(alphas.sum()) <= 1e-12 * scale
    # clustered nodes give alphas near 1e5: the dot product rounds relative
    # to sum |alpha_i t_i|, not to |h| max|t|
    terms = alphas * nodes[::-1]
    assert abs(terms.sum() - h) <= 1e-12 * np.sum(np.abs(terms))


def _product_rule_alphas(nodes):
    """Oracle: alpha_i = h * Ldot_i(t_{n+1}) by the full product-rule sum,
    O(k^3), every factor multiplied in ascending node order."""
    m = nodes.size
    x = nodes[-1]
    ders = np.empty(m)
    for i in range(m):
        den = 1.0
        for j in range(m):
            if j != i:
                den *= nodes[i] - nodes[j]
        total = 0.0
        for ell in range(m):
            if ell == i:
                continue
            term = 1.0
            for j in range(m):
                if j == i or j == ell:
                    continue
                term *= x - nodes[j]
            total += term
        ders[i] = total / den
    return (nodes[-1] - nodes[-2]) * ders[::-1]


def test_matches_product_rule_oracle_bitwise():
    """The O(k^2) kernel returns the oracle's alphas bit for bit: spread,
    clustered (alphas beyond 1e5) and far-offset stencils of orders 1-6."""
    rng = np.random.default_rng(2024)
    large = 0
    for trial in range(1800):
        order = trial % 6 + 1
        kind = trial // 6 % 3
        if kind == 0:
            gaps = rng.uniform(1e-3, 10.0, size=order + 1)
        elif kind == 1:
            gaps = rng.uniform(1e-6, 1e-5, size=order + 1)
            gaps[rng.integers(order + 1)] *= 1e4
        else:
            gaps = rng.uniform(0.1, 2.0, size=order + 1)
        offset = rng.uniform(-1e4, 1e4) if kind == 2 else rng.uniform(-100, 100)
        nodes = np.cumsum(gaps) - gaps[0] + offset
        alphas = compute_coefficients(nodes, order)
        np.testing.assert_array_equal(alphas, _product_rule_alphas(nodes))
        large += np.max(np.abs(alphas)) > 1e4
    assert large >= 50    # the clustered draws reach large alphas


class TestValidation:
    def test_rejects_wrong_node_count(self):
        with pytest.raises(ValueError):
            compute_coefficients(np.array([0.0, 1.0, 2.0]), 1)

    def test_rejects_nonincreasing_nodes(self):
        with pytest.raises(ValueError):
            compute_coefficients(np.array([0.0, 1.0, 1.0]), 2)

    @pytest.mark.parametrize("nodes", [[0.0, np.nan, 2.0], [0.0, 1.0, np.inf]],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("build", [
        lambda nodes: compute_coefficients(nodes, 2),
        lambda nodes: TimeGrid(nodes=nodes, orders=[1, 1]),
        lambda nodes: DiscreteAdjoints(nodes=nodes, lambdas=np.ones((2, 1)),
                                       gradient=np.zeros(1)),
    ], ids=["stencil", "grid", "adjoint"])
    def test_one_node_rule(self, build, nodes):
        """Stencils, grids and adjoint results hold their nodes to one rule,
        finite and strictly increasing: a NaN node or an infinite one is
        refused, not turned into NaN coefficients or jumps."""
        with pytest.raises(ValueError, match="nodes must be .*finite and strictly increasing"):
            build(np.array(nodes))

    def test_rejects_order_out_of_range(self):
        with pytest.raises(ValueError):
            compute_coefficients(np.arange(8.0), 7)
        with pytest.raises(ValueError):
            compute_coefficients(np.array([0.0]), 0)


class TestGridTable:
    """TimeGrid.alphas runs the kernel once per order on arrays of stencil
    nodes; every row must equal compute_coefficients on that step's own
    stencil bit for bit, and be zero past the step's order."""

    @staticmethod
    def _assert_rows_are_stencil_kernels(grid):
        for n, k in enumerate(grid.orders.tolist()):
            np.testing.assert_array_equal(
                grid.alphas[n, :k + 1],
                compute_coefficients(grid.nodes[n + 1 - k:n + 2], k))
            assert not np.any(grid.alphas[n, k + 1:])

    def test_adaptive_catenary_tapes(self):
        catenary, _ = get_problem("catenary")
        orders = set()
        for rtol in (1e-4, 1e-11):
            grid = integrate_adaptive(catenary, rtol).grid
            self._assert_rows_are_stencil_kernels(grid)
            orders.update(grid.orders.tolist())
        assert orders == set(range(1, MAX_ORDER + 1))

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_nonadaptive_ramps(self, order):
        catenary, _ = get_problem("catenary")
        self._assert_rows_are_stencil_kernels(
            integrate_nonadaptive(catenary, order, 0.125).grid)

    def test_random_grids_and_orders(self):
        """200 seeded grids: gaps spread over six decades, offsets up to
        1e4, each step at a random admissible order."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_steps = int(rng.integers(1, 40))
            gaps = rng.uniform(0.5, 1.0, n_steps) * 10.0 ** rng.uniform(-6, 0, n_steps)
            nodes = rng.uniform(-1e4, 1e4) + np.concatenate(([0.0], np.cumsum(gaps)))
            highest = np.minimum(np.arange(1, n_steps + 1), MAX_ORDER)
            orders = rng.integers(1, highest + 1)
            self._assert_rows_are_stencil_kernels(TimeGrid(nodes=nodes, orders=orders))
