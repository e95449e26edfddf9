"""Shared pytest glue: an always-visible acceptance-criteria summary, the
Robertson test problem, a record of the drivers' Newton solves, the adaptive
error estimates derived from a tape, and helpers that read and hand-edit the
base64 arrays of tape and adjoint documents.

test_acceptance.py records one line per criterion through the
`acceptance_log` fixture; the terminal-summary hook prints them after the
test results, whether or not output capturing swallowed the in-test
prints.
"""

import base64
import math

import numpy as np
import pytest

from bdfadjoint import OdeProblem, bdf

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_log():
    def record(line: str) -> None:
        print(line, flush=True)
        _ACCEPTANCE_LINES.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def robertson():
    """Robertson's stiff kinetics on [0, 0.4] from (1, 0, 0), with J = y_2,
    the fast intermediate: a nonlinear problem whose f_yy is large.  Both
    functions also take stacked states (d, m), as OdeProblem asks."""
    def rhs(t, y):
        return np.array([-0.04 * y[0] + 1e4 * y[1] * y[2],
                         0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] ** 2,
                         3e7 * y[1] ** 2])

    def jacobian(t, y):
        zero = np.zeros_like(y[0])   # 0.0 for one state, (m,) zeros for stacked ones
        return np.array([[zero - 0.04, 1e4 * y[2], 1e4 * y[1]],
                         [zero + 0.04, -1e4 * y[2] - 6e7 * y[1], -1e4 * y[1]],
                         [zero, 6e7 * y[1], zero]])

    return OdeProblem(dimension=3, rhs=rhs, jacobian=jacobian,
                      criterion=lambda y: y[1],
                      criterion_gradient=lambda y: np.array([0.0, 1.0, 0.0]),
                      initial_time=0.0, final_time=0.4,
                      initial_state=np.array([1.0, 0.0, 0.0]), name="robertson")


@pytest.fixture
def newton_record(monkeypatch):
    """{t_new: (tolerance, max-norm step residual at the returned y)} of every
    bdf._newton_iterate call, filled in as the drivers run; the last call at a
    node is its accepted attempt."""
    calls = {}
    newton = bdf._newton_iterate

    def recording(problem, t_new, h, alpha0, back, predictor, tol, cache):
        y, iterations = newton(problem, t_new, h, alpha0, back, predictor, tol, cache)
        r = bdf._step_residual(problem, t_new, h, alpha0, back, y)
        calls[t_new] = tol, np.max(np.abs(r))
        return y, iterations

    monkeypatch.setattr(bdf, "_newton_iterate", recording)
    return calls


def error_estimates(problem, tape):
    """(N,) error estimates of an adaptive tape's steps, derived from the tape
    as the driver computes them: for step 0 half the 2-norm of its difference
    from explicit Euler, y_1 - y_0 - h_0 f(t_0, y_0); for step n >= 1
    bdf._error_estimate at the step's order."""
    nodes, states, orders = tape.grid.nodes, tape.states, tape.grid.orders
    euler = 0.5 * (states[1] - states[0] - (nodes[1] - nodes[0]) * problem.rhs(nodes[0], states[0]))
    return np.array([math.sqrt(euler.dot(euler))] + [
        bdf._error_estimate(nodes[:n + 1], states[:n + 1], nodes[n + 1], states[n + 1], orders[n])
        for n in range(1, tape.n_steps)])


def decode_array(field):
    """A writable copy of the array that a document's {"dtype", "shape",
    "base64"} field holds, decoded here independently of the package."""
    data = base64.b64decode(field["base64"])
    return np.frombuffer(data, dtype=field["dtype"]).reshape(field["shape"]).copy()


def encode_array(values, dtype="<f8"):
    """values as a {"dtype", "shape", "base64"} field, encoded here
    independently of the package."""
    array = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": list(array.shape),
            "base64": base64.b64encode(array.tobytes()).decode()}


def edit_array(field, edit):
    """field with its array replaced by edit's: edit gets a writable copy and
    changes it in place, or returns the array to encode instead."""
    values = decode_array(field)
    edited = edit(values)
    return encode_array(values if edited is None else edited, field["dtype"])
