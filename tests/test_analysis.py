"""
Tests for the verification and convergence-analysis utilities.

verify_kkt is checked against corruption (a perturbed multiplier or state
must push the matching residual above threshold and be located inside the
perturbed entry's stencil), and its coefficient-band evaluation must agree
with a dense np.kron assembly of the same system; the band products are
bit-equal to a scipy.sparse CSR band.  The coefficient-invariant check
must flag a 1e-10 relative change to any alpha.  fit_order is checked on
synthetic data with known slope; dual_norm_bound on a hand-computable
constant-multiplier case.  verify_kkt returns one Check record per check,
looked up here by name.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from bdfadjoint import (AnalyticReference, ConvergenceTable,
                        Check, DiscreteAdjoints, IntegrationTape,
                        TimeGrid, adjoint_sweep, dual_norm_bound, fit_order, get_problem,
                        integrate_adaptive, integrate_nonadaptive, linear_test_problem,
                        verify_kkt)
from bdfadjoint.analysis import COEFFICIENT_TOL, JACOBIAN_TOL, coefficient_defects
from bdfadjoint.bdf import (MAX_ORDER, band_product, coefficient_band,
                            stencil_table)

CATENARY, CATENARY_REF = get_problem("catenary")


def _checks(problem, tape, adjoints):
    """verify_kkt's records by name, and its verdict."""
    records = verify_kkt(problem, tape, adjoints)
    return {c.name: c for c in records}, all(c.passed for c in records)


def _tape_and_adjoints(h=0.125):
    tape = integrate_nonadaptive(CATENARY, 2, h)
    return tape, adjoint_sweep(CATENARY, tape)


def _dense_kkt_oracle(problem, tape, adjoints):
    """The Kronecker-assembled system: (nominal rows, adjoint rows with the
    y_0 row first), each (rows, d)."""
    n, d = tape.n_steps, tape.dimension
    nodes, h, ys = tape.grid.nodes, tape.grid.stepsizes, tape.states
    a = np.zeros((n, n))
    start = np.zeros(n)
    for step in range(n):
        alphas = tape.grid.alphas[step]
        for i in range(min(tape.grid.orders[step], step) + 1):
            a[step, step - i] = alphas[i]
        if tape.grid.orders[step] >= step + 1:
            start[step] = alphas[step + 1]
    eye = np.eye(d)
    f_vec = np.concatenate([h[j - 1] * problem.rhs(nodes[j], ys[j])
                            for j in range(1, n + 1)])
    nominal = np.kron(a, eye) @ ys[1:].reshape(-1) + np.kron(start, ys[0]) - f_vec
    blocks = np.zeros((n * d, n * d))
    for j in range(1, n + 1):
        blocks[(j - 1) * d:j * d, (j - 1) * d:j * d] = (
            h[j - 1] * problem.jacobian(nodes[j], ys[j]).T)
    rhs = np.zeros(n * d)
    rhs[(n - 1) * d:] = problem.criterion_gradient(ys[n])
    lam = adjoints.lambdas
    adjoint = (np.kron(a.T, eye) - blocks) @ lam.reshape(-1) - rhs
    grad_row = adjoints.gradient + start @ lam
    return nominal.reshape(n, d), np.vstack([grad_row, adjoint.reshape(n, d)])


def _oracle_cases():
    """Adaptive tapes up to order 6 and a k=4 tape whose self-start ramp
    has nonzero y_0 coefficients."""
    tapes = [integrate_adaptive(CATENARY, rtol) for rtol in (1e-6, 1e-9)]
    tapes.append(integrate_nonadaptive(CATENARY, 4, 0.125))
    assert max(t.grid.orders.max() for t in tapes) == 6
    return [(tape, adjoint_sweep(CATENARY, tape)) for tape in tapes]


def _csr_band(a):
    """The band table a of coefficient_band as the scipy.sparse CSR matrix
    with a[n, i] at (n, n - i), zero entries left out."""
    rows, lags = np.nonzero(a)
    return sparse.csr_matrix((a[rows, lags], (rows, rows - lags)),
                             shape=(len(a), len(a)))


def _with_signed_zeros(rng, shape):
    """Normal samples with about a third of the entries +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    zeros = rng.random(shape) < 1.0 / 3.0
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return x


class TestBandProduct:
    """band_product is bit-equal to the CSR band and its CSC transpose,
    which sum the lags highest first and from 0 up respectively."""

    @staticmethod
    def _assert_bit_equal(a, x):
        band = _csr_band(a)
        for got, want in ((band_product(a, x), band @ x),
                          (band_product(a, x, transpose=True), band.T @ x)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_tapes_up_to_order_six(self):
        """Adaptive catenary tapes and a k=4 self-start ramp, on their
        states, multipliers and signed-zero data."""
        rng = np.random.default_rng(11)
        for tape, adj in _oracle_cases():
            a = coefficient_band(tape)
            assert not np.any(a[np.arange(tape.n_steps + 1)[:, None]
                                < np.arange(MAX_ORDER + 1)])   # before y_0
            lambdas = np.vstack([np.zeros(tape.dimension), adj.lambdas])
            for x in (tape.states, lambdas, _with_signed_zeros(rng, lambdas.shape)):
                self._assert_bit_equal(a, x)

    def test_self_start_column(self):
        """Row 0, y_0's, is zero, and the y_0 column, entry (r, r) of the
        table, holds the y_0 coefficient of exactly the steps whose stencil
        reaches y_0."""
        tape = integrate_nonadaptive(CATENARY, 6, 0.125)
        a = coefficient_band(tape)
        assert not np.any(a[0])
        column = a[np.arange(1, MAX_ORDER + 1), np.arange(1, MAX_ORDER + 1)]
        reach = np.arange(tape.n_steps) + 1 == tape.grid.orders
        assert np.count_nonzero(reach) == MAX_ORDER
        np.testing.assert_array_equal(
            column, tape.grid.alphas[np.flatnonzero(reach), np.flatnonzero(reach) + 1])
        assert np.all(column != 0.0)

    def test_random_grids(self):
        """Random grids of 1 to 40 steps at random admissible orders, on
        data with signed zeros, one column or several."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_steps = int(rng.integers(1, 41))
            gaps = rng.uniform(0.5, 1.0, n_steps) * 10.0 ** rng.uniform(-6, 0, n_steps)
            nodes = rng.uniform(-1e4, 1e4) + np.concatenate(([0.0], np.cumsum(gaps)))
            highest = np.minimum(np.arange(1, n_steps + 1), MAX_ORDER)
            grid = TimeGrid(nodes=nodes, orders=rng.integers(1, highest + 1))
            a = coefficient_band(IntegrationTape(
                problem_name="catenary", problem_params={}, dimension=1,
                mode="nonadaptive", grid=grid, states=np.zeros((n_steps + 1, 1)),
                newton_iterations=np.zeros(n_steps, dtype=int)))
            self._assert_bit_equal(a, _with_signed_zeros(
                rng, (n_steps + 1, int(rng.integers(1, 4)))))

    def test_short_random_grids_with_non_finite_data(self):
        """Grids of at most 12 steps (13 rows, y_0's included) count as
        uniform, so each lag's rows past its last change are scaled at once;
        where those entries are zero, an inf or NaN in the data must still be
        skipped."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            n_steps = int(rng.integers(1, 13))
            nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.0, n_steps))))
            highest = np.minimum(np.arange(1, n_steps + 1), MAX_ORDER)
            grid = TimeGrid(nodes=nodes, orders=rng.integers(1, highest + 1))
            a = coefficient_band(IntegrationTape(
                problem_name="catenary", problem_params={}, dimension=1,
                mode="nonadaptive", grid=grid, states=np.zeros((n_steps + 1, 1)),
                newton_iterations=np.zeros(n_steps, dtype=int)))
            x = rng.choice([1.0, -2.0, np.inf, -np.inf, np.nan], size=(n_steps + 1, 2))
            band = _csr_band(a)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = band_product(a, x), band_product(a, x, transpose=True)
            np.testing.assert_array_equal(got[0], band @ x)
            np.testing.assert_array_equal(got[1], band.T @ x)

    def test_zero_entries_skip_non_finite_data(self):
        """As in the CSR band, an entry past a step's order never meets the
        data, so an inf or NaN reaches only the rows it has a coefficient
        in, and no warning is raised.  Adaptive tapes change order, so zero
        entries sit inside the lags in use."""
        for tape, _ in _oracle_cases():
            a = coefficient_band(tape)
            band = _csr_band(a)
            x = np.ones((tape.n_steps + 1, 2))
            x[::5, 0] = np.inf
            x[3::7, 1] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = band_product(a, x), band_product(a, x, transpose=True)
            np.testing.assert_array_equal(got[0], band @ x)
            np.testing.assert_array_equal(got[1], band.T @ x)


class TestVerifyKkt:
    def test_passes_on_consistent_run(self):
        tape, adj = _tape_and_adjoints()
        checks, passed = _checks(CATENARY, tape, adj)
        assert passed
        assert checks["nominal_residual"].passed
        assert checks["adjoint_residual"].passed
        assert checks["initial_residual"].value == 0.0

    def test_passes_on_adaptive_run(self):
        tape = integrate_adaptive(CATENARY, 1e-6)
        assert _checks(CATENARY, tape, adjoint_sweep(CATENARY, tape))[1]

    def test_detects_corrupted_multiplier(self):
        tape, adj = _tape_and_adjoints()
        bad = adj.lambdas.copy()
        bad[5, 1] += 1e-3      # multiplier of step 6, stencil t_{6-k}..t_6
        checks, passed = _checks(CATENARY, tape, dataclasses.replace(adj, lambdas=bad))
        adjoint = checks["adjoint_residual"]
        assert adjoint.value > adjoint.threshold
        assert not passed
        assert 6 - tape.grid.orders[5] <= adjoint.step <= 6
        assert adjoint.t == tape.grid.nodes[adjoint.step]

    @pytest.mark.parametrize("k", [2, 4])
    def test_detects_corrupted_gradient(self, k):
        """The y_0 row is row 0 of the transposed band product: one step
        reaches y_0 at k = 2, four at k = 4, and either way a shifted
        gradient fails adjoint_residual at step 0."""
        tape = integrate_nonadaptive(CATENARY, k, 0.125)
        adj = adjoint_sweep(CATENARY, tape)
        checks, passed = _checks(CATENARY, tape, dataclasses.replace(
            adj, gradient=adj.gradient + 1e-4))
        assert not passed
        assert not checks["adjoint_residual"].passed
        assert checks["adjoint_residual"].step == 0

    def test_detects_corrupted_state(self):
        tape, adj = _tape_and_adjoints()
        states = tape.states.copy()
        states[7] += 1e-5
        bad_tape = dataclasses.replace(tape, states=states)
        nominal = _checks(CATENARY, bad_tape, adj)[0]["nominal_residual"]
        assert nominal.value > nominal.threshold
        # y_7 enters the steps n whose stencil t_{n-k}..t_n holds t_7
        steps = [n for n in range(1, tape.n_steps + 1)
                 if n - tape.grid.orders[n - 1] <= 7 <= n]
        assert nominal.step in steps
        assert nominal.t == tape.grid.nodes[nominal.step]

    def test_agrees_with_dense_oracle(self):
        """nominal_residual is the oracle's step row at its largest ratio to
        that step's Newton tolerance, held to 10 times that tolerance;
        adjoint_residual is the oracle's largest row."""
        rng = np.random.default_rng(7)

        def worst_nominal(tape, nominal):   # (value, threshold, step)
            rows, thresholds = np.max(np.abs(nominal), axis=1), 10.0 * tape.newton_tolerances
            i = int(np.argmax(rows / thresholds))
            return rows[i], thresholds[i], i + 1

        for tape, adj in _oracle_cases():
            report = _checks(CATENARY, tape, adj)[0]
            nominal, adjoint = _dense_kkt_oracle(CATENARY, tape, adj)
            # residuals at rounding level: agree to the rounding of O(10) terms
            assert report["nominal_residual"].value == pytest.approx(
                worst_nominal(tape, nominal)[0], abs=1e-13)
            assert report["adjoint_residual"].value == pytest.approx(
                np.max(np.abs(adjoint)), abs=1e-13)
            # perturbed everywhere, every row is large and the maxima and
            # their steps must match
            bad_tape = dataclasses.replace(
                tape, states=tape.states + 1e-5 * rng.standard_normal(tape.states.shape))
            bad_adj = dataclasses.replace(
                adj, lambdas=adj.lambdas + 1e-5 * rng.standard_normal(adj.lambdas.shape))
            report = _checks(CATENARY, bad_tape, bad_adj)[0]
            nominal, adjoint = _dense_kkt_oracle(CATENARY, bad_tape, bad_adj)
            nom_value, nom_threshold, nom_step = worst_nominal(bad_tape, nominal)
            adj_rows = np.max(np.abs(adjoint), axis=1)
            assert report["nominal_residual"].value == pytest.approx(nom_value, rel=1e-8)
            assert report["adjoint_residual"].value == pytest.approx(adj_rows.max(), rel=1e-8)
            assert report["nominal_residual"].step == nom_step
            assert report["nominal_residual"].threshold == nom_threshold
            assert report["adjoint_residual"].step == np.argmax(adj_rows)

    def test_wrong_jacobian_fails_the_jacobian_check(self):
        """A run whose integration, sweep and check all use 0.8 f_y on the
        catenary (k=2) or 0.9 f_y on the benchmark's heat-adaptive problem
        (d=400, rtol 1e-6) has KKT residuals at rounding level, since they
        share f_y; only the check of f_y against differences of f refuses
        it.  The benchmark's finite-difference gate passes the heat case at
        a relative error of 8.4e-7."""
        d = 400
        dx = 1.0 / (d + 1)
        x = dx * np.arange(1, d + 1)
        heat, _ = linear_test_problem(
            a=(0.1 / dx ** 2) * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                                 + np.diag(np.ones(d - 1), -1)),
            y_s=np.sin(np.pi * x) + 0.5 * np.sin(5.0 * np.pi * x), t_s=0.0, t_f=0.5,
            c=np.full(d, dx))
        for problem, factor, run in ((CATENARY, 0.8, lambda p: integrate_nonadaptive(p, 2, 2.0 ** -7)),
                                     (heat, 0.9, lambda p: integrate_adaptive(p, 1e-6))):
            wrong = dataclasses.replace(
                problem, jacobian=lambda t, y, f=problem.jacobian, c=factor: c * f(t, y))
            for used in (problem, wrong):
                tape = run(used)
                checks = _checks(used, tape, adjoint_sweep(used, tape))[0]
                failed = [name for name, c in checks.items() if not c.passed]
                jacobian = checks["jacobian_defect"]
                if used is problem:
                    assert failed == [] and jacobian.value <= 1e-3 * JACOBIAN_TOL
                else:
                    assert failed == ["jacobian_defect"]
                    assert jacobian.value > 1e4 * JACOBIAN_TOL
                assert jacobian.t == tape.grid.nodes[jacobian.step]

    def test_large_constant_part_passes(self):
        """f + 1e7 and J = 1e7 + y_1 on the catenary (k = 2, h = 2^-6): the
        difference quotient loses about EPS 1e7 / eps to rounding, which the
        scale admits, so the correct derivatives pass (3.3e-7 and 2.1e-7;
        7.7e-6 and 9.6e-6 while the scale left that rounding out); 0.9 f_y
        and 0.9 J' with the same constants still fail."""
        from bdfadjoint import analysis
        tape, adj = _tape_and_adjoints(h=2.0 ** -6)
        shifted = dataclasses.replace(CATENARY, rhs=lambda t, y: CATENARY.rhs(t, y) + 1e7,
                                      criterion=lambda y: 1e7 + CATENARY.criterion(y))
        t, ys = tape.grid.nodes[1:9], tape.states[1:9]
        assert np.all(analysis.jacobian_defects(shifted, t, ys) <= JACOBIAN_TOL)
        assert analysis.criterion_defect(shifted, tape.final_state) <= JACOBIAN_TOL
        wrong = dataclasses.replace(
            shifted, jacobian=lambda t, y: 0.9 * CATENARY.jacobian(t, y),
            criterion_gradient=lambda y: 0.9 * CATENARY.criterion_gradient(y))
        # 4.9e-3 and 2.2e-3: the rounding that the scale admits is all they lose
        assert np.all(analysis.jacobian_defects(wrong, t, ys) > 1e3 * JACOBIAN_TOL)
        assert analysis.criterion_defect(wrong, tape.final_state) > 1e3 * JACOBIAN_TOL
        # J's constant leaves the tape and the multipliers as they are
        checks, passed = _checks(dataclasses.replace(CATENARY, criterion=shifted.criterion),
                                 tape, adj)
        assert passed and checks["criterion_defect"].value <= JACOBIAN_TOL

    def test_wrong_criterion_gradient_fails_the_criterion_check(self):
        """A run whose sweep and check both use 0.9 J' has KKT residuals at
        rounding level on the catenary (k = 1 and 2) and on a 3 x 3 linear
        problem; only the check of J' against differences of J refuses it,
        at step N."""
        linear, _ = linear_test_problem([[-1.0, 0.5, 0.25], [0.3, -2.0, 0.7],
                                         [0.1, 0.9, -3.0]], [1.0, -0.5, 2.0], 0.0, 1.0)
        for problem, k in ((CATENARY, 1), (CATENARY, 2), (linear, 2)):
            tape = integrate_nonadaptive(problem, k, 2.0 ** -6)
            gradient = problem.criterion_gradient
            wrong = dataclasses.replace(problem, criterion_gradient=lambda y, g=gradient:
                                        0.9 * g(y))
            for used in (problem, wrong):
                checks = _checks(used, tape, adjoint_sweep(used, tape))[0]
                failed = [name for name, c in checks.items() if not c.passed]
                criterion = checks["criterion_defect"]
                assert (criterion.step, criterion.t) == (tape.n_steps, tape.grid.nodes[-1])
                assert criterion.threshold == JACOBIAN_TOL
                if used is problem:
                    assert failed == [] and criterion.value <= 1e-3 * JACOBIAN_TOL
                else:
                    assert failed == ["criterion_defect"]
                    assert criterion.value == pytest.approx(0.1, rel=1e-6)

    def test_jacobian_check_samples_are_deterministic(self):
        """At most JACOBIAN_SAMPLES evenly spaced states y_1..y_N, the first
        and the last among them; the same inputs give the same report."""
        from bdfadjoint import analysis
        tape, adj = _tape_and_adjoints(h=2.0 ** -6)
        seen = []

        def recording(t, y):
            seen.append(np.array(t))
            return CATENARY.jacobian(t, y)

        report = verify_kkt(dataclasses.replace(CATENARY, jacobian=recording), tape, adj)
        checked = seen[-1]   # the check's call comes after the adjoint products
        assert len(checked) == analysis.JACOBIAN_SAMPLES
        assert checked[0] == tape.grid.nodes[1] and checked[-1] == tape.grid.nodes[-1]
        assert {c.name: c for c in report}["jacobian_defect"].t in checked
        assert report == verify_kkt(CATENARY, tape, adj)
        linear, _ = get_problem("linear")
        short = integrate_nonadaptive(linear, 2, 0.25)   # N = 5 < JACOBIAN_SAMPLES
        checks, passed = _checks(linear, short, adjoint_sweep(linear, short))
        assert passed and 1 <= checks["jacobian_defect"].step <= 5

    @pytest.mark.parametrize("block", [1, 12, 2 ** 20])
    def test_jacobian_products_in_blocks(self, block, monkeypatch):
        """f_y^T lambda is formed one stacked jacobian call per block of
        max(2, JACOBIAN_BLOCK // d^2) states, and the report does not depend
        on the block size, to the bit: the catenary's (m, d, d) stacks, and
        the (1, d, d) f_y of a dense d = 3 and a tridiagonal d = 400 linear
        problem, which take one call and one product for the whole tape."""
        from bdfadjoint import bdf
        linear, _ = linear_test_problem([[-1.0, 0.5, 0.25], [0.3, -2.0, 0.7],
                                         [0.1, 0.9, -3.0]], [1.0, -0.5, 2.0], 0.0, 1.0)
        d = 400
        x = np.arange(1, d + 1) / (d + 1)
        heat, _ = linear_test_problem(
            0.1 * (d + 1) ** 2 * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                                  + np.diag(np.ones(d - 1), -1)),
            np.sin(np.pi * x), 0.0, 0.125, c=np.full(d, 1.0 / (d + 1)))
        assert heat.band == (1, 1)
        for problem, h in ((CATENARY, 0.125), (linear, 2.0 ** -6), (heat, 2.0 ** -8)):
            tape = integrate_nonadaptive(problem, 2, h)
            adj = adjoint_sweep(problem, tape)
            expected = verify_kkt(problem, tape, adj)
            sizes = []

            def recording(t, y, jacobian=problem.jacobian):
                sizes.append(np.shape(t))
                return jacobian(t, y)

            with monkeypatch.context() as patch:
                patch.setattr(bdf, "JACOBIAN_BLOCK", block)
                report = verify_kkt(dataclasses.replace(problem, jacobian=recording),
                                    tape, adj)
            assert report == expected
            per_call = max(2, block // problem.dimension ** 2)
            products = sizes[:-1]   # the last call is the Jacobian check's
            calls = 1 if problem is not CATENARY else -(-tape.n_steps // per_call)
            assert len(products) == calls
            assert all(m <= per_call for (m,) in products)

    def test_memory_stays_linear_in_steps(self):
        """N=4097: the dense Kronecker assembly needed about 2.2 GB."""
        tape, adj = _tape_and_adjoints(h=2.0 ** -11)
        assert tape.n_steps == 4097
        tracemalloc.start()
        try:
            passed = _checks(CATENARY, tape, adj)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        assert peak < 20e6

    def test_non_finite_residual_names_step(self):
        tape, adj = _tape_and_adjoints()
        bad = adj.lambdas.copy()
        bad[3, 0] = np.nan
        with pytest.raises(ValueError, match="adjoint_residual .* at step"):
            verify_kkt(CATENARY, tape, dataclasses.replace(adj, lambdas=bad))

    def test_report_validation(self):
        tape, adj = _tape_and_adjoints()
        records = verify_kkt(CATENARY, tape, adj)
        assert [c.name for c in records] == [
            "nominal_residual", "adjoint_residual", "initial_residual",
            "coefficient_defect", "jacobian_defect", "criterion_defect"]
        assert all(isinstance(c, Check) and c.passed for c in records)
        assert [c.threshold for c in records[3:]] == [COEFFICIENT_TOL, JACOBIAN_TOL,
                                                      JACOBIAN_TOL]
        for i, c in enumerate(records):
            # a negative or NaN value is refused, with its name and step
            for value in (-1.0, np.nan):
                with pytest.raises(ValueError, match=f"{c.name} .* at step {c.step}$"):
                    dataclasses.replace(c, value=value)
            # each check alone decides the verdict
            failing = dataclasses.replace(c, value=2.0 * c.threshold + 1e-300)
            assert not failing.passed
            changed = records[:i] + (failing,) + records[i + 1:]
            assert [r.name for r in changed if not r.passed] == [c.name]
            assert not all(r.passed for r in changed)

    def test_shape_mismatch_rejected(self):
        """Adjoints of another tape, on more nodes, are refused."""
        tape, _ = _tape_and_adjoints()
        _, other = _tape_and_adjoints(h=0.0625)
        with pytest.raises(ValueError, match="not on the tape's nodes"):
            verify_kkt(CATENARY, tape, other)

    def test_foreign_nodes_rejected(self):
        """Adjoints of the tape's shape on other nodes are refused: a grid
        whose last node moved keeps N and d."""
        tape, adj = _tape_and_adjoints()
        nodes = tape.grid.nodes.copy()
        nodes[-1] += 1e-3
        with pytest.raises(ValueError, match="not on the tape's nodes"):
            verify_kkt(CATENARY, tape, dataclasses.replace(adj, nodes=nodes))

    def test_dimension_mismatch_rejected(self):
        tape, adj = _tape_and_adjoints()
        wide = dataclasses.replace(adj, lambdas=np.hstack([adj.lambdas, adj.lambdas]),
                                   gradient=np.tile(adj.gradient, 2))
        with pytest.raises(ValueError, match="of its dimension"):
            verify_kkt(CATENARY, tape, wide)


class TestCoefficientDefects:
    def test_exact_tape_within_tolerance(self):
        for tape, _ in _oracle_cases():
            assert np.all(coefficient_defects(*stencil_table(tape)) <= COEFFICIENT_TOL)

    def test_detects_relative_change_to_any_alpha(self):
        tape = integrate_nonadaptive(CATENARY, 6, 0.125)
        step = tape.n_steps - 1
        alphas, stencils = stencil_table(tape)
        assert np.count_nonzero(alphas[step]) == 7
        for i in range(7):
            changed = alphas.copy()
            changed[step, i] *= 1.0 + 1e-10
            defects = coefficient_defects(changed, stencils)
            assert defects[step] > COEFFICIENT_TOL
            assert np.all(np.delete(defects, step) <= COEFFICIENT_TOL)


class TestFitOrder:
    def test_recovers_synthetic_slope(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        table = ConvergenceTable(parameter="h", values=hs,
                                 errors={"e": 3.7 * hs ** 2.5})
        assert fit_order(table) == pytest.approx(2.5, abs=1e-12)

    def test_named_column(self):
        hs = np.array([0.1, 0.05, 0.025])
        table = ConvergenceTable(parameter="h", values=hs,
                                 errors={"a": hs, "b": hs ** 3})
        assert fit_order(table, "b") == pytest.approx(3.0, abs=1e-10)
        with pytest.raises(KeyError):
            fit_order(table, "missing")

    def test_requires_three_rows(self):
        table = ConvergenceTable(parameter="h", values=np.array([0.1, 0.05]),
                                 errors={"e": np.array([1.0, 0.5])})
        with pytest.raises(ValueError):
            fit_order(table)

    def test_zero_errors_excluded_with_warning(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = 2.0 * hs ** 2
        errs[-1] = 0.0
        table = ConvergenceTable(parameter="h", values=hs, errors={"e": errs})
        with pytest.warns(RuntimeWarning):
            got = fit_order(table)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_all_zero_errors_rejected(self):
        hs = np.array([0.1, 0.05, 0.025])
        table = ConvergenceTable(parameter="h", values=hs,
                                 errors={"e": np.zeros(3)})
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                fit_order(table)

    def test_orders_column(self):
        hs = np.array([0.1, 0.05, 0.025])
        table = ConvergenceTable(parameter="h", values=hs,
                                 errors={"e": 5.0 * hs ** 2})
        orders = table.orders("e")
        assert np.isnan(orders[0])
        np.testing.assert_allclose(orders[1:], [2.0, 2.0], rtol=1e-12)


class TestDualNormBound:
    def test_constant_multiplier_hand_value(self):
        """lambda == 1, discrete multipliers == 1: bound = h*(1 + 0 + 1)."""
        weak = DiscreteAdjoints(nodes=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                                lambdas=np.ones((4, 1)), gradient=np.zeros(1))
        ref = AnalyticReference(
            nominal=lambda t: np.array([0.0]),
            classical_adjoint=lambda t: np.array([1.0]),
            weak_adjoint=lambda t: np.array([t]))
        assert dual_norm_bound(weak, ref) == pytest.approx(0.5, rel=1e-12)

    def test_decays_linearly_on_catenary(self):
        vals = []
        for h in (2.0 ** -4, 2.0 ** -6):
            tape = integrate_nonadaptive(CATENARY, 2, h)
            weak = adjoint_sweep(CATENARY, tape)
            vals.append(dual_norm_bound(weak, CATENARY_REF))
        assert vals[1] < vals[0] / 2.5  # ~4x for O(h)

    def test_startup_ramp_tolerated(self):
        """k=2 tapes have two h/2 substeps before the uniform run."""
        tape = integrate_nonadaptive(CATENARY, 2, 0.125)
        weak = adjoint_sweep(CATENARY, tape)
        assert dual_norm_bound(weak, CATENARY_REF) > 0.0

    def test_non_equidistant_grid_rejected(self):
        tape = integrate_adaptive(CATENARY, 1e-6)
        weak = adjoint_sweep(CATENARY, tape)
        with pytest.raises(ValueError):
            dual_norm_bound(weak, CATENARY_REF)


class TestConvergenceTable:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceTable(parameter="h", values=np.array([0.1, 0.05]),
                             errors={"e": np.array([1.0])})
