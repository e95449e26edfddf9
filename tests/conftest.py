"""Shared pytest glue: an always-visible acceptance-criteria summary, the
Robertson test problem, a record of the drivers' Newton solves, the adaptive
error estimates derived from a tape, and helpers that read and hand-edit
tape files (a JSON header line and the arrays' raw bytes) and the base64
arrays of adjoint documents, independently of the package.

test_acceptance.py records one line per criterion through the
`acceptance_log` fixture; the terminal-summary hook prints them after the
test results, whether or not output capturing swallowed the in-test
prints.
"""

import base64
import json
import math
from pathlib import Path

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


TAPE_ARRAYS = ("nodes", "orders", "states", "newton.iterations")


def tape_field(header, name):
    """The field of a tape header that a dotted name such as
    "newton.iterations" names."""
    for key in name.split("."):
        header = header[key]
    return header


def tape_bytes(header, payload=b""):
    """The bytes of a tape file: header as one line of sorted-key JSON (json
    writes NaN and Infinity tokens as they are), space-padded so that the
    payload after its newline starts 8-byte aligned, then the payload."""
    line = json.dumps(header, sort_keys=True).encode()
    return line + b" " * (-(len(line) + 1) % 8) + b"\n" + bytes(payload)


def split_tape(path):
    """(header, payload) of the tape file at path: the JSON of its first
    line, and the bytes after that line."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), payload


def read_tape(path):
    """(header, arrays) of the tape file at path, read with json and
    np.frombuffer: arrays maps each name of TAPE_ARRAYS to a writable copy
    of its array, the arrays lying back to back in the payload in that
    order, each as many bytes as its header field's shape needs."""
    header, payload = split_tape(path)
    arrays, offset = {}, 0
    for name in TAPE_ARRAYS:
        field = tape_field(header, name)
        arrays[name] = np.frombuffer(payload, dtype=field["dtype"],
                                     count=math.prod(field["shape"]),
                                     offset=offset).reshape(field["shape"]).copy()
        offset += arrays[name].nbytes
    return header, arrays


def write_tape(path, header, arrays):
    """Write a tape file of header and arrays ({name: array}, names as in
    TAPE_ARRAYS): the arrays back to back in the order of TAPE_ARRAYS, each
    one's header field set to its dtype and shape."""
    payload = []
    for name in TAPE_ARRAYS:
        array = np.ascontiguousarray(arrays[name])
        tape_field(header, name).update(dtype=array.dtype.str, shape=list(array.shape))
        payload.append(array.tobytes())
    Path(path).write_bytes(tape_bytes(header, b"".join(payload)))


def edit_tape(path, edit):
    """Rewrite the tape file at path with edit applied: edit gets its header
    and writable arrays (see read_tape) and changes them in place."""
    header, arrays = read_tape(path)
    edit(header, arrays)
    write_tape(path, header, arrays)


def earlier_tape_bytes(header, arrays, version):
    """The bytes of a tape in the one-line JSON layout of version 1, 2 or 3,
    holding header's document and arrays (see read_tape): version 3 wrote
    each array as its base64 field, version 2 also each step's Newton
    residual, and version 1 each array as a JSON list."""
    doc = json.loads(json.dumps(header))
    encode = ((lambda values: values.tolist()) if version == 1
              else (lambda values: encode_array(values, values.dtype.str)))
    for name, values in arrays.items():
        parent, _, key = name.rpartition(".")
        (tape_field(doc, parent) if parent else doc)[key] = encode(values)
    if version < 3:
        doc["newton"]["residuals"] = encode(np.zeros(len(arrays["orders"])))
    doc["version"] = version
    return (json.dumps(doc, sort_keys=True) + "\n").encode()
