"""ODE initial value problems with evaluation criteria and analytic references.

Each problem bundles the right-hand side f(t, y), its state Jacobian
f_y(t, y), a scalar criterion J(y) evaluated at the final state, and the
criterion gradient J'(y).  Test problems additionally ship an
:class:`AnalyticReference` holding the exact trajectory y(t), the classical
adjoint lambda(t) solving

    lambda'(t) = -f_y(t, y(t))^T lambda(t),    lambda(t_f) = J'(y(t_f))^T,

and the weak adjoint Lambda(t) = integral of lambda from t_s to t,
normalized so that Lambda(t_s) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OdeProblem",
    "AnalyticReference",
    "catenary_problem",
    "linear_test_problem",
    "get_problem",
    "PROBLEMS",
]


@dataclass(frozen=True)
class OdeProblem:
    """An initial value problem y' = f(t, y), y(t_s) = y_s with a criterion J(y(t_f)).

    Parameters
    ----------
    dimension : int
        State dimension d.
    rhs : callable
        f(t, y) -> array of shape (d,).  Also stacked, in the layout of SciPy's
        ``solve_ivp(vectorized=True)``: for states Y of shape (d, m), one per
        column, and times t of shape (m,), f(t, Y) -> (d, m).
    jacobian : callable
        f_y(t, y) -> array of shape (d, d).  Also stacked: f_y(t, Y) -> (d, d, m),
        or (d, d, 1) where f_y does not depend on the state.  The step loops
        call both per state; the all-steps forms (the tape residuals and
        ``verify``) call them stacked, through :meth:`stacked_rhs` and
        :meth:`stacked_jacobian`, which refuse a problem written for one state
        only with a ValueError.
    criterion : callable
        J(y) -> float, evaluated at the final state.
    criterion_gradient : callable
        J'(y) -> array of shape (d,) (the gradient row).
    initial_time, final_time : float
        Integration interval [t_s, t_f], t_s < t_f, both finite.
    initial_state : ndarray
        y_s, shape (d,), finite.
    name : str
        Registry name used by the CLI and by tape serialization.
    params : dict
        Constructor parameters sufficient to rebuild the problem.
    band : (kl, ku) or None
        Lower and upper bandwidth of f_y, stated by the problem: every entry
        (i, j) of f_y with i - j > kl or j - i > ku is zero.  The step
        solvers then build, factor and solve alpha_0 I - h f_y in LAPACK band
        storage and never read the entries outside the band, so a band
        narrower than f_y's true one solves the wrong matrix (the KKT
        certificate of ``verify`` catches that).  None means dense.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    criterion: Callable[[np.ndarray], float]
    criterion_gradient: Callable[[np.ndarray], np.ndarray]
    initial_time: float
    final_time: float
    initial_state: np.ndarray
    name: str = "custom"
    params: dict = field(default_factory=dict)
    band: Optional[tuple] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not -np.inf < self.initial_time < self.final_time < np.inf:   # NaN fails too
            raise ValueError(
                f"initial_time must precede final_time, both finite, got "
                f"[{self.initial_time}, {self.final_time}]"
            )
        y0 = np.asarray(self.initial_state, dtype=float)
        if y0.shape != (self.dimension,):
            raise ValueError(
                f"initial_state has shape {y0.shape}, expected ({self.dimension},)"
            )
        if not np.isfinite(y0).all():
            raise ValueError(f"initial_state must be finite, got {y0}")
        object.__setattr__(self, "initial_state", y0)
        if self.band is not None:
            band = tuple(self.band)
            if len(band) != 2 or not all(isinstance(w, (int, np.integer))
                                         and 0 <= w < self.dimension for w in band):
                raise ValueError(f"band {self.band} is not two integers in "
                                 f"[0, {self.dimension - 1}]")
            object.__setattr__(self, "band", tuple(int(w) for w in band))

    def stacked_rhs(self, t, ys) -> np.ndarray:
        """(m, d) rows f(t_i, y_i) for the times t (m,) and rows ys (m, d),
        from one stacked rhs call."""
        d, m = self.dimension, len(ys)
        return _stacked(self.rhs, "rhs", t, ys, [(d, m)]).T

    def stacked_jacobian(self, t, ys) -> np.ndarray:
        """(m, d, d) stack f_y(t_i, y_i) for the times t (m,) and rows ys
        (m, d), from one stacked jacobian call, or (1, d, d) for an f_y that
        does not depend on the state."""
        d, m = self.dimension, len(ys)
        return np.moveaxis(_stacked(self.jacobian, "jacobian", t, ys,
                                    [(d, d, m), (d, d, 1)]), 2, 0)


def _stacked(func, name, t, ys, shapes):
    """func(t, ys.T) as a float array of one of the shapes; anything else, or
    an error raised on stacked input, is a ValueError naming the shapes."""
    expected = " or ".join(map(str, shapes))
    try:
        out = np.asarray(func(t, ys.T), dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        got = f"raised {type(exc).__name__}"
    else:
        if out.shape in shapes:
            return out
        got = f"returned shape {out.shape}"
    raise ValueError(f"problem {name} is not stacked: for states of shape "
                     f"{ys.T.shape} it must return shape {expected}, but {got}")


@dataclass(frozen=True)
class AnalyticReference:
    """Closed-form reference solutions for a test problem.

    All three callables take a time t and return an array of shape (d,).
    ``weak_adjoint`` is normalized to vanish at the initial time.
    """

    nominal: Callable[[float], np.ndarray]
    classical_adjoint: Callable[[float], np.ndarray]
    weak_adjoint: Callable[[float], np.ndarray]


def _atan_exp(u):
    """arctan(exp(u)) without overflow for large positive u."""
    u = np.asarray(u, dtype=float)
    out = np.where(u > 0.0, 0.5 * np.pi - np.arctan(np.exp(-np.abs(u))),
                   np.arctan(np.exp(-np.abs(u))))
    return out if out.ndim else float(out)


def _log_cosh(u):
    """log(cosh(u)) without overflow."""
    u = abs(u)
    return u + np.log1p(np.exp(-2.0 * u)) - np.log(2.0)


def catenary_problem(p: float, A: float, t_f: float):
    """Catenary hanging-chain test problem on [0, t_f].

    The second-order ODE y'' = p * sqrt(1 + (y')^2) written as a first-order
    system::

        y1' = y2,        y1(0) = cosh(A) / p,
        y2' = p * sqrt(1 + y2**2),   y2(0) = sinh(A),

    with criterion J(y) = y1.  The exact solution is the catenary

        y(t) = [B + cosh(p t + A) / p,  sinh(p t + A)],

    where A and B are fixed by the initial values (A = asinh(y2(0)),
    B = y1(0) - cosh(A)/p); this constructor takes A directly and uses
    B = 0, so y1(0) = cosh(A)/p.  B only shifts y1 by a constant and has no
    effect on the dynamics, the adjoints, or J'.

    The classical adjoint is

        lambda1(t) = 1,
        lambda2(t) = (sinh(p t_f + A) * sech(p t + A) - tanh(p t + A)) / p,

    and the weak adjoint (antiderivative of lambda, zero at t = 0) is

        Lambda1(t) = t,
        Lambda2(t) = (2 / p**2) * sinh(p t_f + A)
                         * (arctan(e**(p t + A)) - arctan(e**A))
                     - (log(cosh(p t + A)) - log(cosh(A))) / p**2.

    Returns
    -------
    (OdeProblem, AnalyticReference)
    """
    p = float(p)
    A = float(A)
    t_f = float(t_f)
    if not p > 0.0:   # NaN fails too
        raise ValueError(f"catenary parameter p must be positive, got {p}")

    y0 = np.array([np.cosh(A) / p, np.sinh(A)])

    def rhs(t, y):
        return np.array([y[1], p * np.sqrt(1.0 + y[1] ** 2)])

    def jacobian(t, y):
        y2 = y[1]   # a float for one state, (m,) for stacked states
        jac = np.zeros((2, 2) + np.shape(y2))
        jac[0, 1] = 1.0
        jac[1, 1] = p * y2 / np.sqrt(1.0 + y2 ** 2)
        return jac

    def criterion(y):
        return float(y[0])

    def criterion_gradient(y):
        return np.array([1.0, 0.0])

    problem = OdeProblem(
        dimension=2,
        rhs=rhs,
        jacobian=jacobian,
        criterion=criterion,
        criterion_gradient=criterion_gradient,
        initial_time=0.0,
        final_time=t_f,
        initial_state=y0,
        name="catenary",
        params={"p": p, "A": A, "tf": t_f},
    )

    s_f = np.sinh(p * t_f + A)

    def nominal(t):
        u = p * t + A
        return np.array([np.cosh(u) / p, np.sinh(u)])

    def classical_adjoint(t):
        u = p * t + A
        return np.array([1.0, (s_f / np.cosh(u) - np.tanh(u)) / p])

    def weak_adjoint(t):
        u = p * t + A
        second = (2.0 / p**2) * s_f * (_atan_exp(u) - _atan_exp(A)) \
            - (_log_cosh(u) - _log_cosh(A)) / p**2
        return np.array([float(t), second])

    reference = AnalyticReference(nominal, classical_adjoint, weak_adjoint)
    return problem, reference


def linear_test_problem(a, y_s, t_s: float, t_f: float, c=None):
    """Linear-dynamics oracle problem y' = a @ y with criterion J(y) = c @ y.

    All three references are matrix exponentials.  The nominal solution is
    the flow y(t) = expm(a (t - t_s)) @ y_s, the classical adjoint is
    lambda(t) = expm(a^T (t_f - t)) @ c, and the weak adjoint is

        Lambda(t) = expm(a^T (t_f - t)) @ Phi(t - t_s),
        Phi(s) = integral_0^s expm(a^T u) c du,

    where Phi(s) is the top d entries of the last column of
    expm([[a^T, c], [0, 0]] s) (Van Loan, IEEE TAC 1978).  The product form
    makes Lambda(t_s) exactly zero and holds for singular a.

    The problem states the bandwidths (kl, ku) of the nonzeros of a as its
    band when band storage, 2 kl + ku + 1 rows, is smaller than the d rows
    of the dense matrix; otherwise it states none.  The Jacobian is a
    itself, read-only, and a[:, :, None], a view, for stacked states.

    Parameters
    ----------
    a : array_like
        d x d system matrix (a scalar is treated as a 1x1 matrix).
    y_s : array_like
        Initial state of length d.
    t_s, t_f : float
        Integration interval.
    c : array_like, optional
        Criterion vector of length d; defaults to the first unit vector.

    Returns
    -------
    (OdeProblem, AnalyticReference)
    """
    a = np.array(a, dtype=float, ndmin=2)   # a copy, so freezing it is ours
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError(f"system matrix must be square, got shape {a.shape}")
    a.flags.writeable = False
    rows, cols = np.nonzero(a)
    kl, ku = (int(np.max(w, initial=0)) for w in (rows - cols, cols - rows))
    band = (kl, ku) if 2 * kl + ku + 1 < d else None
    y_s = np.atleast_1d(np.asarray(y_s, dtype=float))
    if c is None:
        c = np.zeros(d)
        c[0] = 1.0
    else:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.shape != (d,):
            raise ValueError(f"criterion vector has shape {c.shape}, expected ({d},)")

    def rhs(t, y):
        return a @ y

    stacked = a[:, :, None]   # a read-only view: f_y does not depend on the state

    def jacobian(t, y):
        return stacked if np.ndim(y) == 2 else a

    def criterion(y):
        return float(c @ y)

    def criterion_gradient(y):
        return c.copy()

    problem = OdeProblem(
        dimension=d,
        rhs=rhs,
        jacobian=jacobian,
        criterion=criterion,
        criterion_gradient=criterion_gradient,
        initial_time=float(t_s),
        final_time=float(t_f),
        initial_state=y_s,
        name="linear",
        params={
            "a": a.tolist(),
            "y0": y_s.tolist(),
            "t0": float(t_s),
            "tf": float(t_f),
            "c": c.tolist(),
        },
        band=band,
    )

    # expm is imported on evaluation, so that only converge loads scipy.linalg
    def nominal(t):
        from scipy.linalg import expm
        return expm(a * (t - t_s)) @ y_s

    def classical_adjoint(t):
        from scipy.linalg import expm
        return expm(a.T * (t_f - t)) @ c

    def weak_adjoint(t):
        from scipy.linalg import expm
        augmented = np.zeros((d + 1, d + 1))
        augmented[:d, :d] = a.T
        augmented[:d, d] = c
        phi = expm(augmented * (t - t_s))[:d, d]
        return expm(a.T * (t_f - t)) @ phi

    reference = AnalyticReference(nominal, classical_adjoint, weak_adjoint)
    return problem, reference


def _make_catenary(p=3.0, A=-3.0, tf=2.0):
    return catenary_problem(p, A, tf)


def _make_linear(a=((0.0, 1.0), (0.0, 0.0)), y0=(1.0, 1.0), t0=0.0, tf=1.0,
                 c=None):
    return linear_test_problem(a, y0, t0, tf, c=c)


PROBLEMS = {
    "catenary": _make_catenary,
    "linear": _make_linear,
}


def get_problem(name: str, **params):
    """Look up a shipped problem by registry name.

    Returns (OdeProblem, AnalyticReference).  Unknown names raise ValueError.
    """
    if name not in PROBLEMS:
        known = ", ".join(sorted(PROBLEMS))
        raise ValueError(f"unknown problem {name!r} (available: {known})")
    return PROBLEMS[name](**params)
