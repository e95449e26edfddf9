"""JSON/CSV serialization for tapes, adjoint results and verification reports.

All documents are versioned and deterministic: single-line JSON with sorted
keys, and nothing time- or environment-dependent is written.  A tape has one
layout for both drivers: its nodes, orders, states and Newton iteration
counts, with the problem, the mode and the driver's parameters; what those
determine (coefficients, Newton tolerances, step residuals, error estimates)
is derived on use, not written.  Every array of a tape, and the adjoint
document's multipliers, is written as its exact little-endian bytes in base64,
{"dtype": "<f8" or "<i8", "shape": [...], "base64": "..."}, and read back as a
read-only view of the decoded bytes, so NaN payloads, signed zeros and
subnormals round-trip bit for bit.  orjson writes everything else, and the
adjoint CSV, each float as the shortest decimal that round-trips (the digits
of Python's repr, in orjson's notation: 0.00001 for 1e-05, 1e16 for 1e+16).
Identical inputs therefore produce byte-identical files.  orjson alone reads
every document and reproduces the exact binary floating-point values; it
returns an integer beyond 64 bits as the equal float.  A document orjson
refuses (NaN or Infinity tokens, a number beyond binary64, a lone surrogate)
cannot be written by this package, and is refused with ValueError.
"""

from __future__ import annotations

import binascii
import csv
import math

import numpy as np
import orjson

from .adjoint import DiscreteAdjoints
from .analysis import ConvergenceTable
from .bdf import IntegrationTape, TimeGrid

__all__ = [
    "FORMAT_VERSION",
    "ADJOINT_VERSION",
    "KKT_VERSION",
    "save_tape",
    "load_tape",
    "tape_sha256",
    "save_adjoint_results",
    "load_adjoint_results",
    "write_adjoint_csv",
    "save_kkt_report",
    "write_convergence_csv",
]

FORMAT_VERSION = 3    # tapes: one layout for both drivers, arrays in base64
ADJOINT_VERSION = 3   # adjoint documents, bound to their tape by its digest
KKT_VERSION = 2       # KKT reports, one record per check
TAPE_FORMAT = "bdf-tape"
ADJOINT_FORMAT = "bdf-adjoint"
KKT_FORMAT = "bdf-kkt"


def _contiguous(obj):
    """orjson's fallback: a non-C-contiguous array encodes as its copy."""
    if isinstance(obj, np.ndarray) and not obj.flags.c_contiguous:
        return np.ascontiguousarray(obj)
    raise TypeError(f"type {type(obj).__name__} is not JSON serializable")


def _dump(doc, path):
    """Write doc as one line of sorted-key JSON.  A value orjson cannot
    encode (an integer beyond 64 bits) raises ValueError before the file is
    opened."""
    try:
        data = orjson.dumps(doc, default=_contiguous, option=orjson.OPT_SORT_KEYS
                            | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError as exc:
        raise ValueError(f"cannot encode {path}: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(data)


def _load_checked(path, expected_format, version=FORMAT_VERSION, data=None):
    """The document of the file at path, whose bytes are data if the caller
    has read them already, checked for its format and version."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise ValueError(f"{path}: not a {expected_format} document")
    if doc.get("version") != version:
        raise ValueError(
            f"{path}: unsupported version {doc.get('version')!r} "
            f"(supported: {version})"
        )
    return doc


def _encoded(values, dtype):
    """values as {"dtype", "shape", "base64"}: the exact bytes of their
    C-ordered array of that dtype, "<f8" or "<i8", in base64."""
    array = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": dtype, "shape": array.shape,
            "base64": binascii.b2a_base64(array, newline=False).decode("ascii")}


def _array(doc, name, dtype, ndim=1):
    """The array that doc[name] encodes (see :func:`_encoded`), a read-only
    view of its decoded bytes.  A field of another dtype, a shape that is not
    ndim non-negative integers, or a payload of another length than the shape
    needs is refused with ValueError."""
    field = doc[name]
    if not isinstance(field, dict) or field.get("dtype") != dtype:
        raise ValueError(f"{name}: not an array of dtype {dtype}")
    shape = field.get("shape")
    if (not isinstance(shape, list) or len(shape) != ndim
            or not all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{name}: shape {shape!r} is not {ndim} non-negative integers")
    try:
        data = binascii.a2b_base64(field["base64"])
    except binascii.Error as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if len(data) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"{name}: {len(data)} bytes do not fill shape {shape}")
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def tape_to_dict(tape: IntegrationTape) -> dict:
    return {
        "format": TAPE_FORMAT,
        "version": FORMAT_VERSION,
        "problem": {
            "name": tape.problem_name,
            "params": tape.problem_params,
            "dimension": tape.dimension,
        },
        "mode": tape.mode,
        "driver_params": tape.driver_params,
        "nodes": _encoded(tape.grid.nodes, "<f8"),
        "orders": _encoded(tape.grid.orders, "<i8"),
        "states": _encoded(tape.states, "<f8"),
        "newton": {"iterations": _encoded(tape.newton_iterations, "<i8")},
    }


def save_tape(tape: IntegrationTape, path) -> None:
    _dump(tape_to_dict(tape), path)


def load_tape(path, data=None) -> IntegrationTape:
    """Rebuild the tape of the file at path, whose bytes are data if the
    caller has read them already.  Its arrays are read-only views of the
    decoded bytes; the coefficients and the Newton tolerances are derived,
    not read, and keys the layout does not have are ignored."""
    doc = _load_checked(path, TAPE_FORMAT, FORMAT_VERSION, data)
    # TimeGrid and IntegrationTape check the shapes against each other
    tape = IntegrationTape(
        problem_name=doc["problem"]["name"],
        problem_params=doc["problem"]["params"],
        dimension=int(doc["problem"]["dimension"]),
        mode=doc["mode"],
        grid=TimeGrid(nodes=_array(doc, "nodes", "<f8"),
                      orders=_array(doc, "orders", "<i8")),
        states=_array(doc, "states", "<f8", ndim=2),
        newton_iterations=_array(doc["newton"], "iterations", "<i8"),
        driver_params=doc.get("driver_params", {}),
    )
    # derived now, so that a tape whose driver's rule cannot be applied (an
    # unknown mode, an adaptive run without rtol) is refused at load
    tape.newton_tolerances
    return tape


def tape_sha256(data) -> str:
    """Hex SHA-256 of the bytes of a tape file: the digest that binds an
    adjoint document to the one tape it was computed from."""
    import hashlib   # here, so that importing the CLI does not load _hashlib

    return hashlib.sha256(data).hexdigest()


def adjoint_results_to_dict(digest, adjoints: DiscreteAdjoints) -> dict:
    return {
        "format": ADJOINT_FORMAT,
        "version": ADJOINT_VERSION,
        "tape_sha256": digest,
        "lambdas": _encoded(adjoints.lambdas, "<f8"),
        # lists, as before: benchmarks/pipeline.py reads the gradient and the
        # jump sizes with json, and benchmarks/test_smoke.py perturbs this line
        "gradient": adjoints.gradient.tolist(),
        "jumps": {"sizes": adjoints.jump_sizes},
    }


def save_adjoint_results(digest, adjoints, path) -> None:
    """Write the adjoints and weak-adjoint jumps of the tape whose file has
    the SHA-256 `digest` (see :func:`tape_sha256`)."""
    _dump(adjoint_results_to_dict(digest, adjoints), path)


def load_adjoint_results(path) -> dict:
    """Returns {"tape_sha256": str, "lambdas", "gradient", "jump_sizes":
    ndarray} as stored, the multipliers a read-only view; the nodes are the
    tape's, so the caller builds the DiscreteAdjoints."""
    doc = _load_checked(path, ADJOINT_FORMAT, ADJOINT_VERSION)
    return {
        "tape_sha256": doc["tape_sha256"],
        "lambdas": _array(doc, "lambdas", "<f8", ndim=2),
        "gradient": np.array(doc["gradient"], dtype=float),
        "jump_sizes": np.array(doc["jumps"]["sizes"], dtype=float),
    }


def write_adjoint_csv(adjoints, path) -> None:
    """Rows (t_n, lambda_n components, Lambda^h(t_n) components), n = 1..N."""
    d = adjoints.lambdas.shape[1]
    header = (["t"]
              + [f"lambda_{j + 1}" for j in range(d)]
              + [f"Lambda_{j + 1}" for j in range(d)])
    block = np.column_stack([adjoints.nodes[1:], adjoints.lambdas,
                             adjoints.node_values[1:]])
    # the block's JSON [[row],[row]] with each "],[" a line break, less its
    # outer brackets, is its CSV body; \r\n as csv writes
    body = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).replace(b"],[", b"\r\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines([memoryview(body)[2:-2], b"\r\n"])


def kkt_report_to_dict(checks) -> dict:
    return {
        "format": KKT_FORMAT,
        "version": KKT_VERSION,
        "checks": {check.name: {"value": check.value, "threshold": check.threshold,
                                "passed": check.passed,
                                "worst": {"step": check.step, "t": check.t}}
                   for check in checks},
        "passed": all(check.passed for check in checks),
    }


def save_kkt_report(checks, path) -> None:
    _dump(kkt_report_to_dict(checks), path)


def write_convergence_csv(table: ConvergenceTable, path) -> None:
    """CSV with the parameter column followed by (error, order) column pairs."""
    names = list(table.errors)
    header = [table.parameter]
    for name in names:
        header += [f"error_{name}", f"order_{name}"]
    orders = {name: table.orders(name) for name in names}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(table.values):
            row = [repr(float(v))]
            for name in names:
                e = table.errors[name][i]
                row.append(repr(float(e)) if np.isfinite(e) else "nan")
                o = orders[name][i]
                row.append(repr(float(o)) if np.isfinite(o) else "")
            writer.writerow(row)
