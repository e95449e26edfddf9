"""
Tests for the bundled test problems and their analytic reference solutions.

The references are cross-checked three ways: the nominal solution must
satisfy the ODE and initial condition, the classical adjoint must satisfy
the adjoint ODE and terminal condition, and the weak adjoint must be the
running integral of the classical adjoint (checked against quadrature).
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from bdfadjoint import (OdeProblem, adjoint_sweep, catenary_problem, get_problem,
                        integrate_nonadaptive, linear_test_problem, tape_residuals,
                        verify_kkt)
from bdfadjoint.problems import _expm


def _central_derivative(fn, t, eps=1e-6):
    return (np.asarray(fn(t + eps)) - np.asarray(fn(t - eps))) / (2 * eps)


class TestCatenary:
    def setup_method(self):
        self.problem, self.ref = catenary_problem(p=3.0, A=-3.0, t_f=2.0)

    def test_initial_state(self):
        np.testing.assert_allclose(
            self.problem.initial_state,
            [np.cosh(-3.0) / 3.0, np.sinh(-3.0)], rtol=1e-15)

    def test_nominal_satisfies_ode(self):
        """y'(t) == f(t, y(t)) for the closed-form solution."""
        for t in np.linspace(0.05, 1.95, 7):
            lhs = _central_derivative(self.ref.nominal, t)
            rhs = self.problem.rhs(t, self.ref.nominal(t))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-7)

    def test_jacobian_matches_rhs(self):
        """Analytic Jacobian agrees with finite differences of f."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            t = rng.uniform(0.0, 2.0)
            y = rng.uniform(-3.0, 3.0, size=2)
            jac = self.problem.jacobian(t, y)
            eps = 1e-7
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                col = (self.problem.rhs(t, y + e) - self.problem.rhs(t, y - e)) / (2 * eps)
                np.testing.assert_allclose(jac[:, j], col, rtol=1e-6, atol=1e-6)

    def test_classical_adjoint_terminal_condition(self):
        """lambda(t_f) = J'(y(t_f))^T = [1, 0] for J(y) = y_1."""
        np.testing.assert_allclose(self.ref.classical_adjoint(2.0), [1.0, 0.0],
                                   atol=1e-12)

    def test_classical_adjoint_satisfies_adjoint_ode(self):
        """lambda' = -f_y^T lambda along the nominal trajectory."""
        for t in np.linspace(0.1, 1.9, 7):
            lhs = _central_derivative(self.ref.classical_adjoint, t)
            fy = self.problem.jacobian(t, self.ref.nominal(t))
            rhs = -fy.T @ self.ref.classical_adjoint(t)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_adjoint_at_initial_time(self):
        """Hand value: lambda(0) = [1, (2/3) tanh 3]."""
        np.testing.assert_allclose(self.ref.classical_adjoint(0.0),
                                   [1.0, (2.0 / 3.0) * np.tanh(3.0)], rtol=1e-14)

    def test_weak_adjoint_is_integral_of_adjoint(self):
        """Lambda(t) = int_0^t lambda, normalized to Lambda(0) = 0."""
        np.testing.assert_allclose(self.ref.weak_adjoint(0.0), [0.0, 0.0],
                                   atol=1e-14)
        for t in (0.5, 1.25, 2.0):
            expect = [quad(lambda s, j=j: self.ref.classical_adjoint(s)[j],
                           0.0, t, limit=200)[0] for j in range(2)]
            np.testing.assert_allclose(self.ref.weak_adjoint(t), expect,
                                       rtol=1e-9, atol=1e-10)

    def test_weak_adjoint_first_component_is_t(self):
        """lambda_1 == 1 identically, so Lambda_1(t) = t."""
        for t in (0.3, 1.0, 2.0):
            assert abs(self.ref.weak_adjoint(t)[0] - t) < 1e-13

    def test_criterion(self):
        y = np.array([4.0, -2.0])
        assert self.problem.criterion(y) == 4.0
        np.testing.assert_array_equal(self.problem.criterion_gradient(y), [1.0, 0.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            catenary_problem(p=0.0, A=-3.0, t_f=2.0)
        with pytest.raises(ValueError):
            catenary_problem(p=3.0, A=-3.0, t_f=0.0)


def _relative_1norm(got, want):
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


class TestExpm:
    """The references' matrix exponential against scipy.linalg.expm, the
    oracle here only, and the eigendecomposition of a symmetric matrix."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 300.0])
    def test_random_matrices_match_scipy(self, scale):
        """Entries N(0, scale^2 / 50), so that the spectral radius is near
        scale and exp(m) stays finite: within 1e-12 in the relative 1-norm."""
        from scipy.linalg import expm
        rng = np.random.default_rng(20261021)
        for _ in range(3):
            m = scale / np.sqrt(50) * rng.standard_normal((50, 50))
            assert _relative_1norm(_expm(m), expm(m)) <= 1e-12

    def test_heat_adjoint_matches_scipy_and_eigh(self):
        """lambda(t_s) = exp(a^T / 2) c of the d = 400 heat matrix, whose
        1-norm of 3.2e4 takes 15 squarings: within 1e-11 of scipy's and of
        the closed form V exp(w / 2) V^T c."""
        from scipy.linalg import expm
        d = 400
        dx = 1.0 / (d + 1)
        a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                               + np.diag(np.ones(d - 1), -1))
        c = np.full(d, dx)
        w, v = np.linalg.eigh(a)
        got = _expm(a.T * 0.5) @ c
        for want in (expm(a.T * 0.5) @ c, v @ (np.exp(0.5 * w) * (v.T @ c))):
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_zero_matrix_gives_the_identity(self):
        """exp(0) = I exactly, so at t_s the flow is y_s and the weak
        adjoint zero, bit for bit."""
        assert _expm(np.zeros((3, 3))).tolist() == np.eye(3).tolist()
        a = [[-1.0, 2.0, 0.0], [0.5, -3.0, 1.0], [0.0, 1.0, -2.0]]
        y_s = np.array([0.3, -1.7, 2.0 ** -40])
        _, ref = linear_test_problem(a, y_s=y_s, t_s=0.25, t_f=1.0, c=[1.0, 0.5, 0.25])
        assert ref.nominal(0.25).tolist() == y_s.tolist()
        assert ref.weak_adjoint(0.25).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("m, want", [
        ([[np.nan, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, np.e]]),
        ([[np.inf, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, np.e]]),
        ([[1e308, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, np.e]]),
        ([[1.0, np.nan], [2.0, 1.0]], np.full((2, 2), np.nan)),
        ([[1.0, 2.0], [np.inf, 1.0]], None),
        ([[1e308, 1e308], [-1e308, 1.0]], None),
    ])
    def test_non_finite_input_gives_non_finite_output(self, m, want):
        """Without raising: a diagonal m gives exp of its diagonal, as
        scipy's does, and a NaN elsewhere NaN everywhere; an inf or a
        1-norm beyond the floats (whose guard would take log2 of inf)
        leaves no entry finite."""
        from scipy.linalg import expm
        m = np.array(m)
        with np.errstate(all="ignore"):
            got, oracle = _expm(m), expm(m)
        if want is None:
            assert not np.isfinite(got).any() and not np.isfinite(oracle).any()
        else:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(oracle, want)


class TestLinear:
    def test_nilpotent_closed_form(self):
        """a = [[0,1],[0,0]]: y(t) = [y1 + t*y2, y2] exactly."""
        problem, ref = linear_test_problem(
            a=[[0.0, 1.0], [0.0, 0.0]], y_s=[1.0, 1.0], t_s=0.0, t_f=1.0)
        np.testing.assert_allclose(ref.nominal(0.7), [1.7, 1.0], rtol=1e-14)

    def test_nilpotent_adjoint(self):
        """c = e_1: lambda(t) = expm(a^T (t_f - t)) c = [1, t_f - t]."""
        problem, ref = linear_test_problem(
            a=[[0.0, 1.0], [0.0, 0.0]], y_s=[1.0, 1.0], t_s=0.0, t_f=1.0,
            c=[1.0, 0.0])
        for t in (0.0, 0.4, 1.0):
            np.testing.assert_allclose(ref.classical_adjoint(t), [1.0, 1.0 - t],
                                       rtol=1e-13, atol=1e-14)

    def test_decay_adjoint_ode(self):
        """Scalar a: lambda(t) = c * exp(a (t_f - t)); weak = its integral."""
        a = -1.5
        problem, ref = linear_test_problem(a=[[a]], y_s=[2.0], t_s=0.0, t_f=1.0)
        for t in (0.0, 0.5, 1.0):
            np.testing.assert_allclose(ref.classical_adjoint(t),
                                       [np.exp(a * (1.0 - t))], rtol=1e-12)
        got = ref.weak_adjoint(0.5)[0] - ref.weak_adjoint(0.0)[0]
        np.testing.assert_allclose(got, (np.exp(a * 0.5) - np.exp(a)) / (-a),
                                   rtol=1e-9)

    def test_weak_adjoint_matches_quadrature(self):
        """Non-normal, singular a: the closed form agrees with quadrature of
        lambda, and vanishes exactly at t_s."""
        a = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -2.0]]
        t_s, t_f = 0.25, 1.5
        _, ref = linear_test_problem(a, y_s=[1.0, 1.0, 1.0], t_s=t_s,
                                     t_f=t_f, c=[1.0, -1.0, 2.0])
        assert ref.weak_adjoint(t_s).tolist() == [0.0, 0.0, 0.0]
        for t in (0.9, t_f):
            expect = [quad(lambda s, j=j: ref.classical_adjoint(s)[j], t_s, t,
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for j in range(3)]
            np.testing.assert_allclose(ref.weak_adjoint(t), expect,
                                       rtol=1e-12, atol=0.0)

    def test_weak_adjoint_identity_on_heat_matrix(self):
        """Integrating lambda' = -a^T lambda over [t_s, t_f] gives
        a^T Lambda(t_f) = lambda(t_s) - c, here at d = 200."""
        d, nu, t_f = 200, 0.1, 0.5
        dx = 1.0 / (d + 1)
        a = (nu / dx ** 2) * (np.diag(np.full(d, -2.0))
                              + np.diag(np.ones(d - 1), 1)
                              + np.diag(np.ones(d - 1), -1))
        c = np.full(d, dx)
        x = dx * np.arange(1, d + 1)
        _, ref = linear_test_problem(a, y_s=np.sin(np.pi * x), t_s=0.0,
                                     t_f=t_f, c=c)
        expect = ref.classical_adjoint(0.0) - c
        got = a.T @ ref.weak_adjoint(t_f)
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_rejects_criterion_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"criterion vector has shape \(3,\)"):
            linear_test_problem(a=[[-1.0, 0.0], [0.0, -2.0]], y_s=[1.0, 1.0],
                                t_s=0.0, t_f=1.0, c=[1.0, 0.0, 0.0])

    def test_tridiagonal_a_states_band(self):
        """The Jacobian is a itself, read-only; the caller's array is copied,
        not frozen."""
        d = 6
        a = (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
             + np.diag(np.ones(d - 1), -1))
        problem, _ = linear_test_problem(a, y_s=np.ones(d), t_s=0.0, t_f=1.0)
        assert problem.band == (1, 1)
        jac = problem.jacobian(0.0, np.ones(d))
        assert jac is problem.jacobian(0.5, np.zeros(d))
        assert not jac.flags.writeable
        np.testing.assert_array_equal(jac, a)
        assert a.flags.writeable

    @pytest.mark.parametrize("d, offsets, band", [
        (10, (-2, 0), (2, 0)),      # lower bandwidths first
        (10, (0, 3), (0, 3)),
        (5, (-1, 0, 1), (1, 1)),    # 4 band rows < 5
        (4, (-1, 0, 1), None),      # 4 band rows, not fewer than d = 4
        (2, (0,), (0, 0)),
        (1, (0,), None),
    ])
    def test_band_stated_only_when_smaller(self, d, offsets, band):
        """(kl, ku) read off the nonzeros of a, stated when its band storage
        of 2 kl + ku + 1 rows is smaller than the d rows of a."""
        a = sum(np.diag(np.ones(d - abs(k)), k) for k in offsets)
        problem, _ = linear_test_problem(a, y_s=np.ones(d), t_s=0.0, t_f=1.0)
        assert problem.band == band

    def test_dense_and_default_a_state_no_band(self):
        a = np.random.default_rng(1).standard_normal((6, 6))
        problem, _ = linear_test_problem(a, y_s=np.ones(6), t_s=0.0, t_f=1.0)
        assert problem.band is None
        assert get_problem("linear")[0].band is None   # a = [[0, 1], [0, 0]]

    def test_entries_rebuild_a_bit_equal(self):
        """params["a"] lists the entries that are nonzero or -0.0, so a
        problem built from it has the same a, bit for bit; a -0.0 widens no
        band."""
        a = np.diag(np.full(5, -2.0))
        a[4, 0], a[0, 1] = -0.0, 5e-324
        problem, _ = linear_test_problem(a, y_s=np.ones(5), t_s=0.0, t_f=1.0)
        entries = problem.params["a"]
        assert (entries["rows"].tolist(), entries["cols"].tolist()) == (
            [0, 0, 1, 2, 3, 4, 4], [0, 1, 1, 2, 3, 0, 4])
        again, _ = linear_test_problem(entries, y_s=np.ones(5), t_s=0.0, t_f=1.0)
        assert again.jacobian(0.0, np.ones(5)).tobytes() == a.tobytes()
        assert problem.band == again.band == (0, 1)

    def test_rhs_and_jacobian(self):
        problem, _ = linear_test_problem(
            a=[[0.0, 1.0], [-2.0, 0.0]], y_s=[1.0, 0.0], t_s=0.0, t_f=1.0)
        y = np.array([3.0, 4.0])
        np.testing.assert_array_equal(problem.rhs(0.0, y), [4.0, -6.0])
        np.testing.assert_array_equal(problem.jacobian(0.0, y),
                                      [[0.0, 1.0], [-2.0, 0.0]])


class TestBandRhs:
    """A linear problem that states a band evaluates f from it: each row sums
    its band's terms in ascending column order from +0.0, by one expression
    for one state and for stacked states, so the two are bit-equal, and
    within the rounding bound d eps |a| |y| of the dense a @ y.  A problem
    rebuilt from params["a"] has the same band and the same rhs bits."""

    @pytest.mark.parametrize("d, offsets, band", [
        (10, (-2, 0), (2, 0)),
        (10, (0, 3), (0, 3)),
        (5, (-1, 0, 1), (1, 1)),
        (2, (0,), (0, 0)),
    ])
    def test_band_shapes(self, d, offsets, band):
        rng = np.random.default_rng(d + len(offsets))
        a = sum(np.diag(rng.standard_normal(d - abs(k)), k) for k in offsets)
        _assert_band_rhs(a, band, rng)

    def test_signed_zero_and_subnormal_entries(self):
        """A -0.0 outside the tridiagonal widens no band, a subnormal does;
        at y = 0 every row is +0.0, whatever the signs of its products."""
        rng = np.random.default_rng(8)
        a = _tridiagonal(8, rng)
        a[6, 0], a[2, 2], a[1, 3] = -0.0, -0.0, 5e-324
        problem = _assert_band_rhs(a, (1, 2), rng)
        assert problem.rhs(0.0, np.zeros(8)).tobytes() == np.zeros(8).tobytes()

    def test_nan_inside_the_band(self):
        """A NaN entry widens the band; its row is NaN, the others are as
        without it."""
        rng = np.random.default_rng(12)
        a = _tridiagonal(12, rng)
        a[6, 3] = np.nan
        _assert_band_rhs(a, (3, 1), rng)

    def test_entries_in_any_order_rebuild_the_same_problem(self):
        """Entries listed out of order, and a +0.0 entry, give the params,
        band and rhs of the matrix itself."""
        rng = np.random.default_rng(6)
        a = _tridiagonal(6, rng)
        problem, _ = linear_test_problem(a, np.ones(6), 0.0, 1.0)
        entries = problem.params["a"]
        order = rng.permutation(len(entries["rows"]))
        shuffled = {"size": 6, "rows": [*entries["rows"][order].tolist(), 0],
                    "cols": [*entries["cols"][order].tolist(), 5],
                    "values": [*entries["values"][order].tolist(), 0.0]}
        again, _ = linear_test_problem(shuffled, np.ones(6), 0.0, 1.0)
        assert again.band == problem.band == (1, 1)
        for key in ("rows", "cols", "values"):
            assert again.params["a"][key].tobytes() == entries[key].tobytes()
        y = rng.standard_normal(6)
        assert again.rhs(0.0, y).tobytes() == problem.rhs(0.0, y).tobytes()


def _tridiagonal(d, rng):
    return sum(np.diag(rng.standard_normal(d - abs(k)), k) for k in (-1, 0, 1))


def _assert_band_rhs(a, band, rng):
    """The problem of a states band; its rhs of eleven stacked states, of
    magnitudes 1e-3 to 1e3, equals that of each state alone bit for bit and
    is within d eps |a| |y| of a @ y (NaN in the rows of a that hold one);
    the problem rebuilt from params["a"] agrees bit for bit.  Returns the
    problem."""
    d = len(a)
    problem, _ = linear_test_problem(a, np.ones(d), 0.0, 1.0)
    again, _ = linear_test_problem(problem.params["a"], np.ones(d), 0.0, 1.0)
    assert problem.band == again.band == band
    ys = rng.standard_normal((d, 11)) * 10.0 ** rng.integers(-3, 4, (1, 11))
    t = np.linspace(0.0, 1.0, 11)
    stacked = problem.rhs(t, ys)
    assert stacked.shape == (d, 11)
    assert again.rhs(t, ys).tobytes() == stacked.tobytes()
    nan_rows = np.isnan(a).any(axis=1)
    for i in range(11):
        single = problem.rhs(t[i], ys[:, i])
        assert single.tobytes() == stacked[:, i].tobytes()
        np.testing.assert_array_equal(np.isnan(single), nan_rows)
        bound = d * np.finfo(float).eps * (np.abs(a) @ np.abs(ys[:, i]))
        error = np.abs(single - a @ ys[:, i])
        assert np.all(error[~nan_rows] <= bound[~nan_rows])
    return problem


class TestRegistry:
    def test_default_catenary(self):
        problem, ref = get_problem("catenary")
        assert problem.name == "catenary"
        assert problem.dimension == 2
        assert problem.final_time == 2.0

    def test_parameter_override(self):
        problem, _ = get_problem("catenary", p=2.0, A=-1.0, tf=1.5)
        assert problem.final_time == 1.5
        np.testing.assert_allclose(problem.initial_state,
                                   [np.cosh(-1.0) / 2.0, np.sinh(-1.0)])

    def test_linear_registered(self):
        problem, _ = get_problem("linear")
        assert problem.name == "linear"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="catenary"):
            get_problem("lorenz")

    @pytest.mark.parametrize("band", [(-1, 0), (0, 2), (2, 2), (0.5, 0), (1, 0, 0)])
    def test_bad_band_refused(self, band):
        with pytest.raises(ValueError, match="band"):
            OdeProblem(name="bad", dimension=2, initial_time=0.0,
                       final_time=1.0, initial_state=np.zeros(2),
                       rhs=lambda t, y: y, jacobian=lambda t, y: np.eye(2),
                       criterion=lambda y: 0.0,
                       criterion_gradient=lambda y: y, band=band)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            OdeProblem(name="bad", dimension=0, initial_time=0.0,
                       final_time=1.0, initial_state=np.array([]),
                       rhs=lambda t, y: y, jacobian=lambda t, y: np.eye(1),
                       criterion=lambda y: 0.0,
                       criterion_gradient=lambda y: y)
        with pytest.raises(ValueError):
            OdeProblem(name="bad", dimension=1, initial_time=1.0,
                       final_time=1.0, initial_state=np.array([1.0]),
                       rhs=lambda t, y: y, jacobian=lambda t, y: np.eye(1),
                       criterion=lambda y: 0.0,
                       criterion_gradient=lambda y: y)


class TestStackedContract:
    """rhs(t, Y) and jacobian(t, Y) for states Y of shape (d, m), one per
    column, as in SciPy's solve_ivp(vectorized=True); the single-state calls
    are unchanged."""

    def test_catenary_stacked_bit_equal(self):
        problem, _ = get_problem("catenary")
        _assert_stacked_bit_equal(problem, 2.0)
        assert problem.jacobian(0.0, np.zeros(2)).shape == (2, 2)

    def test_robertson_stacked_bit_equal(self, robertson):
        """The test problem behind the replay's finite-difference checks: its
        per-state f_y, which the replay factors, is the stacked f_y the
        adjoint sweep factors, bit for bit."""
        _assert_stacked_bit_equal(robertson, 0.4)
        assert robertson.jacobian(0.0, np.zeros(3)).shape == (3, 3)

    @pytest.mark.parametrize("d", [1, 3, 40])
    def test_linear_stacked_within_rounding(self, d):
        """The stacked rhs is one matrix product a @ Y, which is not bit-equal
        to the matrix-vector products a @ y_i; it is within the rounding
        bound d eps |a| |y_i| of each.  The stacked Jacobian is (d, d, 1), a
        read-only view of a, and a itself for one state."""
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        problem, _ = linear_test_problem(a, rng.standard_normal(d), 0.0, 1.0)
        ys = rng.standard_normal((d, 11))
        t = np.linspace(0.0, 1.0, 11)
        f = problem.rhs(t, ys)
        assert f.shape == (d, 11)
        for i in range(11):
            single = problem.rhs(t[i], ys[:, i])
            bound = d * np.finfo(float).eps * (np.abs(a) @ np.abs(ys[:, i]))
            assert np.all(np.abs(f[:, i] - single) <= bound)
        jac = problem.jacobian(t, ys)
        single = problem.jacobian(0.0, ys[:, 0])
        assert jac.shape == (d, d, 1) and not jac.flags.writeable
        assert np.shares_memory(jac, single)
        np.testing.assert_array_equal(jac[..., 0], single)
        assert problem.jacobian(0.0, ys[:, 0]) is single

    def test_stacked_helpers_check_shapes(self):
        problem, _ = get_problem("catenary")
        ys = np.array([[1.0, 0.5], [2.0, -0.5], [3.0, 1.5]])   # three rows y_i
        t = np.array([0.0, 0.5, 1.0])
        rows = problem.stacked_rhs(t, ys)
        assert rows.shape == (3, 2)
        for i in range(3):
            np.testing.assert_array_equal(rows[i], problem.rhs(t[i], ys[i]))
        jacs = problem.stacked_jacobian(t, ys)
        assert jacs.shape == (3, 2, 2) and jacs.flags.c_contiguous
        for i in range(3):
            np.testing.assert_array_equal(jacs[i], problem.jacobian(t[i], ys[i]))
        heat, _ = linear_test_problem(np.diag([-1.0, -2.0]), [1.0, 1.0], 0.0, 1.0)
        jac = heat.stacked_jacobian(t, ys)   # a's own view, contiguous, not copied
        assert jac.shape == (1, 2, 2) and jac.flags.c_contiguous
        assert np.shares_memory(jac, heat.jacobian(t[0], ys[0]))


def _assert_stacked_bit_equal(problem, t_f):
    """rhs and jacobian of nine stacked states, entries of magnitudes 1e-3
    to 1e3, equal those of one state at a time, bit for bit."""
    d = problem.dimension
    rng = np.random.default_rng(4)
    ys = rng.standard_normal((d, 9)) * 10.0 ** rng.integers(-3, 4, (1, 9))
    t = np.linspace(0.0, t_f, 9)
    f, jac = problem.rhs(t, ys), problem.jacobian(t, ys)
    assert f.shape == (d, 9) and jac.shape == (d, d, 9)
    for i in range(9):
        assert f[:, i].tobytes() == problem.rhs(t[i], ys[:, i]).tobytes()
        assert jac[..., i].tobytes() == problem.jacobian(t[i], ys[:, i]).tobytes()


def _single_state_problems():
    """Catenary variants whose rhs or jacobian is written for one state only:
    a float() of an entry raises on stacked input, and a (d,) or (d, d)
    result has the wrong shape."""
    problem, _ = get_problem("catenary")
    p = problem.params["p"]
    return {
        "rhs float": dataclasses.replace(problem, rhs=lambda t, y: np.array(
            [float(y[1]), p * np.sqrt(1.0 + float(y[1]) ** 2)])),
        "rhs one column": dataclasses.replace(
            problem, rhs=lambda t, y: problem.rhs(0.0, y[:, 0])),
        "jacobian float": dataclasses.replace(problem, jacobian=lambda t, y: np.array(
            [[0.0, 1.0], [0.0, p * float(y[1]) / np.sqrt(1.0 + float(y[1]) ** 2)]])),
        "jacobian (d, d)": dataclasses.replace(
            problem, jacobian=lambda t, y: np.array([[0.0, 1.0], [0.0, 0.5]])),
    }


@pytest.mark.parametrize("case", sorted(_single_state_problems()))
def test_single_state_problem_refused(case):
    """verify_kkt and tape_residuals refuse a problem written for one state
    with a one-line ValueError naming the expected shape, not a report."""
    problem = _single_state_problems()[case]
    catenary, _ = get_problem("catenary")
    tape = integrate_nonadaptive(catenary, 2, 0.125)
    adjoints = adjoint_sweep(catenary, tape)
    n = tape.n_steps
    expected = f"(2, {n})" if case.startswith("rhs") else f"(2, 2, {n}) or (2, 2, 1)"
    calls = [lambda: verify_kkt(problem, tape, adjoints)]
    if case.startswith("rhs"):
        calls.append(lambda: tape_residuals(problem, tape))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        message = str(info.value)
        assert "\n" not in message
        assert f"is not stacked: for states of shape (2, {n})" in message
        assert f"must return shape {expected}" in message
