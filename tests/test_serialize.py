"""
Tests for the on-disk formats: versioned JSON documents and CSV exports.

Round trips must be lossless (arrays of tapes and multipliers are their
exact bytes in base64; other floats are written as the shortest decimal
that round-trips binary64 exactly: repr's digits in orjson's notation),
repeated saves must be byte-identical, and foreign, earlier or
future-versioned files and malformed arrays must be rejected with clear
errors.
"""

import csv
import dataclasses
import hashlib
import json
import math
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfadjoint import (adjoint_sweep, compute_coefficients, get_problem,
                        integrate_adaptive, integrate_nonadaptive,
                        linear_test_problem, load_adjoint_results, load_tape,
                        save_adjoint_results, save_kkt_report, save_tape,
                        verify_kkt)
from bdfadjoint.analysis import COEFFICIENT_TOL, JACOBIAN_TOL, ConvergenceTable
from bdfadjoint.bdf import IntegrationTape, TimeGrid
from bdfadjoint.serialize import (ADJOINT_VERSION, FORMAT_VERSION, KKT_VERSION, _dump,
                                  _load_checked, tape_sha256, tape_to_dict,
                                  write_adjoint_csv, write_convergence_csv)
from conftest import decode_array, encode_array

CATENARY, _ = get_problem("catenary")


def _heat(d):
    """The heat equation on d interior points, nu = 0.1, over [0, 0.5]."""
    dx = 1.0 / (d + 1)
    a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                           + np.diag(np.ones(d - 1), -1))
    return linear_test_problem(a=a, y_s=np.sin(np.pi * dx * np.arange(1, d + 1)),
                               t_s=0.0, t_f=0.5, c=np.full(d, dx))[0]


@pytest.fixture
def tape():
    return integrate_nonadaptive(CATENARY, 2, 0.125)


class TestTapeRoundTrip:
    def test_lossless(self, tape, tmp_path):
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        back = load_tape(path)
        np.testing.assert_array_equal(back.grid.nodes, tape.grid.nodes)
        np.testing.assert_array_equal(back.grid.orders, tape.grid.orders)
        np.testing.assert_array_equal(back.states, tape.states)
        np.testing.assert_array_equal(back.newton_iterations,
                                      tape.newton_iterations)
        assert back.mode == tape.mode
        assert back.problem_name == tape.problem_name
        assert back.problem_params == tape.problem_params
        assert back.driver_params == tape.driver_params

    def test_coefficients_recomputed(self, tape, tmp_path):
        """Coefficients are derived data: not stored, and the loaded grid's
        table is the kernel's output on the loaded nodes."""
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        raw = json.loads(path.read_text())
        assert "coefficients" not in raw
        assert "alphas" not in json.dumps(raw)
        grid = load_tape(path).grid
        for n, k in enumerate(grid.orders):
            np.testing.assert_array_equal(
                grid.alphas[n, :k + 1],
                compute_coefficients(grid.nodes[n + 1 - k:n + 2], k))
        np.testing.assert_array_equal(grid.alphas, tape.grid.alphas)

    def test_stepsizes_derived_not_stored(self, tape, tmp_path):
        """Stepsizes are np.diff(nodes): not written, and derived at load
        bit-equal to the tape's."""
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        assert "stepsizes" not in doc
        back = load_tape(path)
        np.testing.assert_array_equal(back.grid.nodes, tape.grid.nodes)
        np.testing.assert_array_equal(back.grid.stepsizes, tape.grid.stepsizes)
        np.testing.assert_array_equal(back.states, tape.states)

    def test_tolerances_derived_not_stored(self, tmp_path):
        """Newton tolerances are derived at load: not written, and derived
        to the tolerances the driver solved to."""
        tape = integrate_adaptive(CATENARY, 1e-6)
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        assert "tolerances" not in doc["newton"]
        np.testing.assert_array_equal(load_tape(path).newton_tolerances,
                                      tape.newton_tolerances)

    def test_adaptive_round_trip(self, tmp_path):
        tape = integrate_adaptive(CATENARY, 1e-6)
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        back = load_tape(path)
        np.testing.assert_array_equal(back.states, tape.states)
        np.testing.assert_array_equal(back.newton_iterations,
                                      tape.newton_iterations)
        assert back.driver_params == tape.driver_params

    def test_one_layout_for_both_drivers(self, tape):
        """A nonadaptive and an adaptive tape have the same keys, and their
        Newton record holds only the iteration counts: step residuals and
        error estimates are derived from the states, not written."""
        docs = [tape_to_dict(t) for t in (tape, integrate_adaptive(CATENARY, 1e-6))]
        assert set(docs[0]) == set(docs[1]) == {
            "format", "version", "problem", "mode", "driver_params", "nodes",
            "orders", "states", "newton"}
        assert [set(doc["newton"]) for doc in docs] == [{"iterations"}] * 2

    def test_deterministic_bytes(self, tape, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_tape(tape, p1)
        save_tape(tape, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_line_same_document_as_indented(self, tape, tmp_path):
        """One line of sorted-key JSON that parses to the document the earlier
        indent=2 layout held; a tape in that layout still loads."""
        doc = tape_to_dict(tape)
        path = tmp_path / "tape.json"
        _dump(doc, path)
        text = path.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        indented = json.dumps(doc, sort_keys=True, indent=2,
                              default=np.ndarray.tolist) + "\n"
        assert json.loads(text) == json.loads(indented)
        path.write_text(indented)
        np.testing.assert_array_equal(load_tape(path).states, tape.states)


def _significant_digits(text):
    """The digits of a decimal float literal without its sign, point,
    exponent and leading or trailing zeros: '0.00001' and '1e-05' give '1'."""
    mantissa = re.split("[eE]", text.lstrip("-"))[0].replace(".", "")
    return mantissa.strip("0") or "0"


def _float_corpus():
    """Signed zeros, subnormals, the smallest normal, values where the
    notations of repr and orjson differ, 2**70 as a float, and seeded random
    finite bit patterns of magnitude below 1e300 (so that a cumulative sum of
    them stays finite)."""
    fixed = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
             2.2250738585072014e-308, 1e-5, -1.234e-5, 1e-4, 1e-7, 0.1, 1 / 3,
             1.0, -1.5, 1e15, 1e16, 1e17, 2.0 ** 70, 1e22]
    bits = np.random.default_rng(7).integers(0, 2 ** 64, size=2000,
                                             dtype=np.uint64)
    rand = bits.view(np.float64)
    return np.concatenate([fixed, rand[np.abs(rand) < 1e300]])


def _assert_cells_exact(cells, values):
    """Each cell parses back through float() to its value bit for bit, and
    carries repr's significant digits, so it is the shortest round-trip
    decimal whatever its notation."""
    values = np.asarray(values, dtype=float).ravel()
    back = np.array([float(cell) for cell in cells])
    np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))
    for cell, value in zip(cells, values.tolist()):
        assert _significant_digits(cell) == _significant_digits(repr(value)), cell


def _assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFloatEncoding:
    def test_json_document_round_trips(self, tmp_path):
        corpus = _float_corpus()
        path = tmp_path / "doc.json"
        _dump({"values": corpus.tolist()}, path)
        text = path.read_text()
        back = np.array(json.loads(text)["values"])
        np.testing.assert_array_equal(back.view(np.uint64), corpus.view(np.uint64))
        cells = [cell.strip() for cell
                 in text[text.index("[") + 1:text.rindex("]")].split(",")]
        _assert_cells_exact(cells, corpus)

    def test_adjoint_csv_cells_round_trip(self, tmp_path):
        """The corpus in the t and lambda columns, and its reverse as the jump
        sizes whose cumulative sum fills the Lambda column."""
        corpus = _float_corpus()
        adj = _adjoints_like(np.concatenate([[0.0], corpus]), corpus[:, None],
                             corpus[::-1, None])
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(adj, path)
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 1 + corpus.size and raw.endswith(b"\r\n")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "lambda_1", "Lambda_1"]
        cells = np.array(rows[1:])
        lambda_cum = np.cumsum(corpus[::-1])
        assert np.all(np.isfinite(lambda_cum))
        _assert_cells_exact(cells[:, 0], corpus)
        _assert_cells_exact(cells[:, 1], corpus)
        _assert_cells_exact(cells[:, 2], lambda_cum)

    def test_adjoint_csv_heat_cells_round_trip(self, tmp_path):
        """d = 100 heat, k = 2, h = 2**-6: about 7% of the Lambda cells are
        below 1e-4 in magnitude, where repr switches to exponent notation
        (1.23e-05) and orjson 3.8 does not (0.0000123); every cell still
        parses back bit for bit."""
        prob = _heat(100)
        tape = integrate_nonadaptive(prob, 2, 2.0 ** -6)
        adj = adjoint_sweep(prob, tape)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(adj, path)
        with open(path, newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
        values = np.column_stack([tape.grid.nodes[1:], adj.lambdas,
                                  np.cumsum(adj.jump_sizes, axis=0)])
        assert np.any((values != 0.0) & (np.abs(values) < 1e-4))
        _assert_cells_exact(cells, values)


    def test_tape_round_trips_bit_exact(self, tmp_path):
        """The corpus as nodes (sorted and distinct), states and a problem
        parameter: load_tape returns what save_tape was given, bit for bit."""
        corpus = _float_corpus()
        nodes = np.unique(corpus)
        n = nodes.size - 1
        tape = IntegrationTape(
            problem_name="linear", problem_params={"c": corpus.tolist()},
            dimension=2, mode="nonadaptive",
            grid=TimeGrid(nodes=nodes, orders=np.ones(n, dtype=int)),
            states=np.resize(corpus, (n + 1, 2)),
            newton_iterations=np.ones(n, dtype=int))
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        back = load_tape(path)
        _assert_bits_equal(back.grid.nodes, nodes)
        _assert_bits_equal(back.states, tape.states)
        _assert_bits_equal(back.problem_params["c"], corpus)

    def test_adjoint_results_round_trip_bit_exact(self, tmp_path):
        """The corpus as multipliers, gradient and jump sizes:
        load_adjoint_results returns what save_adjoint_results was given,
        bit for bit, with the tape digest as written."""
        corpus = _float_corpus()
        n = corpus.size
        adj = _adjoints_like(None, np.resize(corpus, (n, 2)),
                             np.resize(corpus[::-1], (n, 2)), gradient=corpus)
        digest = hashlib.sha256(b"tape").hexdigest()
        path = tmp_path / "adjoint.json"
        save_adjoint_results(digest, adj, path)
        back = load_adjoint_results(path)
        assert back["tape_sha256"] == digest
        _assert_bits_equal(back["lambdas"], adj.lambdas)
        _assert_bits_equal(back["gradient"], corpus)
        _assert_bits_equal(back["jump_sizes"], adj.jump_sizes)


# the notation edges of orjson's float writer: signed zeros, subnormals, the
# smallest normal, and the neighbours of 1e-5 and 1e16
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 9.999999999999999e-06, 1e-05,
                1.0000000000000001e-05, -1e-05, 9999999999999998.0, 1e16,
                1.0000000000000002e16, -1e16, 1.7976931348623157e308]
_FINITE_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


def _adjoints_like(nodes, lambdas, jump_sizes, gradient=None):
    """A stand-in for DiscreteAdjoints whose nodes, multipliers and jump
    sizes are any floats, not tied to each other; node_values are the
    partial sums of the jumps, as DiscreteAdjoints forms them."""
    sums = np.cumsum(jump_sizes, axis=0)
    return SimpleNamespace(nodes=nodes, lambdas=lambdas, gradient=gradient,
                           jump_sizes=jump_sizes,
                           node_values=np.vstack([np.zeros((1, sums.shape[1])), sums]))


def _per_row_adjoint_csv(adjoints, path):
    """The adjoint CSV writer before the block encode, frozen: one
    orjson.dumps per row of a .tolist() copy."""
    d = adjoints.lambdas.shape[1]
    header = (["t"] + [f"lambda_{j + 1}" for j in range(d)]
              + [f"Lambda_{j + 1}" for j in range(d)])
    rows = np.column_stack([adjoints.nodes[1:], adjoints.lambdas,
                            np.cumsum(adjoints.jump_sizes, axis=0)]).tolist()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(orjson.dumps(row)[1:-1] + b"\r\n" for row in rows)


class TestArrayWriter:
    """Arrays given to _dump go to orjson as they are and write the bytes
    that encoding their .tolist() gives; a tape's arrays and the
    multipliers are written as the bytes of their C-ordered copies."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(_FINITE_BITS | st.sampled_from(_EDGE_FLOATS)
                           | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=60),
           columns=st.integers(1, 4))
    def test_dump_arrays_as_lists(self, values, columns):
        """A document of float64 and int64 arrays, 1-D, 2-D, Fortran-ordered
        and strided, writes the bytes of its .tolist() form."""
        vector = np.array(values)
        block = np.resize(vector, (-(-vector.size // columns), columns))
        doc = {"vector": vector, "block": block, "fortran": np.asfortranarray(block),
               "transposed": block.T, "strided": vector[::2],
               "nested": {"ints": np.arange(-3, vector.size, dtype=np.int64)}}

        def listed(value):
            if isinstance(value, dict):
                return {k: listed(v) for k, v in value.items()}
            return value.tolist()

        with tempfile.TemporaryDirectory() as tmp:
            arrays, lists = Path(tmp) / "arrays.json", Path(tmp) / "lists.json"
            _dump(doc, arrays)
            _dump(listed(doc), lists)
            assert arrays.read_bytes() == lists.read_bytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("order, h, steps", [(1, 0.5, 1), (2, 2.0 ** -5, 17)])
    def test_adjoint_csv_matches_row_writer(self, d, order, h, steps, tmp_path):
        """d = 1, 2 and 5, on a one-step tape and on a 17-step one."""
        prob = _heat(d)
        tape = integrate_nonadaptive(prob, order, h)
        adj = adjoint_sweep(prob, tape)
        assert tape.n_steps == steps
        write_adjoint_csv(adj, tmp_path / "block.csv")
        _per_row_adjoint_csv(adj, tmp_path / "rows.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_adjoint_csv_corpus_matches_row_writer(self, tmp_path):
        corpus = _float_corpus()
        adj = _adjoints_like(np.concatenate([[0.0], corpus]),
                             np.column_stack([corpus, corpus[::-1]]),
                             np.column_stack([corpus[::-1], corpus]))
        write_adjoint_csv(adj, tmp_path / "block.csv")
        _per_row_adjoint_csv(adj, tmp_path / "rows.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_noncontiguous_states_save_same_bytes(self, tmp_path):
        """A tape whose states are Fortran-ordered, or a strided view, saves
        to the bytes of its C-ordered twin, and so do its adjoints."""
        prob = _heat(3)
        tape = integrate_adaptive(prob, rtol=1e-4)
        adj = adjoint_sweep(prob, tape)
        wide = np.zeros((tape.n_steps + 1, 2 * tape.dimension))
        wide[:, ::2] = tape.states
        lam = np.zeros((tape.n_steps, 2 * tape.dimension))
        lam[:, ::2] = adj.lambdas
        twins = [(np.asfortranarray(tape.states), np.asfortranarray(adj.lambdas)),
                 (wide[:, ::2], lam[:, ::2])]
        save_tape(tape, tmp_path / "c.json")
        save_adjoint_results("0" * 64, adj, tmp_path / "c-adj.json")
        for i, (states, lambdas) in enumerate(twins):
            other = dataclasses.replace(tape, states=states)
            other_adj = dataclasses.replace(adj, lambdas=lambdas)
            assert not (other.states.flags.c_contiguous
                        or other_adj.lambdas.flags.c_contiguous)
            save_tape(other, tmp_path / f"{i}.json")
            save_adjoint_results("0" * 64, other_adj, tmp_path / f"{i}-adj.json")
            assert (tmp_path / f"{i}.json").read_bytes() == (tmp_path / "c.json").read_bytes()
            assert ((tmp_path / f"{i}-adj.json").read_bytes()
                    == (tmp_path / "c-adj.json").read_bytes())

    def test_linear_params_hold_the_array(self, tmp_path):
        """linear's params["a"] holds the nonzero entries of its Jacobian,
        the read-only a, as arrays; the tape it writes, loaded back with
        lists, saves to the same bytes and rebuilds the same a."""
        prob = _heat(4)
        a = prob.jacobian(0.0, prob.initial_state)
        assert not a.flags.writeable
        entries = prob.params["a"]
        assert entries["size"] == 4
        assert all(isinstance(entries[k], np.ndarray) for k in ("rows", "cols", "values"))
        rows, cols = np.nonzero(a)
        np.testing.assert_array_equal(entries["rows"], rows)
        np.testing.assert_array_equal(entries["cols"], cols)
        _assert_bits_equal(entries["values"], a[rows, cols])
        tape = integrate_nonadaptive(prob, 2, 0.125)
        save_tape(tape, tmp_path / "tape.json")
        back = load_tape(tmp_path / "tape.json")
        assert isinstance(back.problem_params["a"]["values"], list)
        save_tape(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "tape.json").read_bytes()
        again = get_problem("linear", **back.problem_params)[0]
        _assert_bits_equal(again.jacobian(0.0, prob.initial_state), a)


# -0.0, the smallest and largest subnormals of either sign, infinities, and
# NaNs with payloads, signalling and quiet, of either sign
_EDGE_BITS = [0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
              0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
              0x7FF0000000000001, 0x7FF8000000000001, 0xFFF80000DEADBEEF,
              0x7FF7FFFFFFFFFFFF]
_ANY_BITS = st.integers(0, 2 ** 64 - 1) | st.sampled_from(_EDGE_BITS)


class TestBinaryArrays:
    """Tape arrays and multipliers are written as their bytes in base64."""

    @settings(max_examples=100, deadline=None)
    @given(bits=st.lists(_ANY_BITS, min_size=1, max_size=40),
           nodes=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=20, unique=True),
           d=st.integers(1, 3))
    def test_round_trip_bit_for_bit(self, bits, nodes, d):
        """Any bit pattern in the states, Newton iteration counts and
        multipliers, NaN payloads included, loads back bit for bit, and the
        loaded tape saves to the same bytes; the gradient and the jump sizes,
        JSON lists, carry the finite patterns, subnormals and -0.0 among them."""
        raw = np.array(bits, dtype=np.uint64)
        values = raw.view(np.float64)
        finite = np.append(values[np.isfinite(values)], -0.0)
        nodes = np.sort(nodes)
        n = nodes.size - 1
        tape = IntegrationTape(
            problem_name="catenary", problem_params={}, dimension=d, mode="nonadaptive",
            grid=TimeGrid(nodes=nodes, orders=np.ones(n, dtype=int)),
            states=np.resize(values, (n + 1, d)),
            newton_iterations=np.resize(raw.view(np.int64), n))
        adj = _adjoints_like(nodes, np.resize(values[::-1], (n, d)),
                             np.resize(finite[::-1], (n, d)), gradient=np.resize(finite, d))
        with tempfile.TemporaryDirectory() as tmp:
            path, again, adj_path = (Path(tmp) / name for name in ("t.json", "u.json",
                                                                  "a.json"))
            save_tape(tape, path)
            back = load_tape(path)
            save_tape(back, again)
            assert again.read_bytes() == path.read_bytes()
            save_adjoint_results("0" * 64, adj, adj_path)
            adj_back = load_adjoint_results(adj_path)
        for got, want in ((back.grid.nodes, nodes), (back.states, tape.states),
                          (adj_back["lambdas"], adj.lambdas),
                          (adj_back["gradient"], adj.gradient),
                          (adj_back["jump_sizes"], adj.jump_sizes)):
            assert got.tobytes() == want.tobytes()
        assert back.newton_iterations.tobytes() == tape.newton_iterations.tobytes()
        assert back.grid.orders.tobytes() == tape.grid.orders.tobytes()

    def test_reader_refuses_malformed_fields(self, tape, tmp_path):
        """Another dtype, another rank, a shape that is not non-negative
        integers, a payload longer or shorter than its shape, and one cut
        inside its padding are each refused with ValueError naming the
        field."""
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        states = doc["states"]
        rows, d = states["shape"]
        payload = decode_array(states)
        for field in ({**states, "dtype": "<i8"}, {**states, "dtype": ">f8"},
                      {**states, "shape": [rows * d]}, {**states, "shape": [rows, d, 1]},
                      {**states, "shape": [rows, -d]}, {**states, "shape": [rows, 2.0]},
                      {**states, "shape": [rows, True]}, {**states, "shape": "[1, 2]"},
                      {**states, "shape": [rows + 1, d]},
                      {**states, "base64": encode_array(payload[:-1])["base64"]},
                      {**states, "base64": encode_array(np.vstack([payload, payload[:1]]))[
                          "base64"]},
                      {**states, "base64": states["base64"][:-1]}):
            path.write_text(json.dumps({**doc, "states": field}))
            with pytest.raises(ValueError, match="^states: "):
                load_tape(path)


def _canonical(value, big_ints_as_floats):
    """value with each float as its bit pattern, so that -0.0 differs from
    0.0 and a NaN equals itself; with big_ints_as_floats, an integer beyond
    64 bits (outside [-2**63, 2**64)) counts as the float it equals."""
    if isinstance(value, list):
        return [_canonical(v, big_ints_as_floats) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v, big_ints_as_floats) for k, v in value.items()}
    if (big_ints_as_floats and type(value) is int
            and not -2 ** 63 <= value < 2 ** 64):
        value = float(value)
    if isinstance(value, float):
        return ("float", struct.unpack("<Q", struct.pack("<d", value))[0])
    return (type(value).__name__, value)


def _orjson_refuses(value):
    """NaN, +-Infinity, an integer that overflows binary64, or a lone
    surrogate in a string or key: what json reads and orjson refuses."""
    if isinstance(value, list):
        return any(_orjson_refuses(v) for v in value)
    if isinstance(value, dict):
        return any(_orjson_refuses(k) or _orjson_refuses(v)
                   for k, v in value.items())
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, str):
        return any("\ud800" <= ch <= "\udfff" for ch in value)
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return True
    return False


_EDGE_INTEGERS = [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63,
                  -2 ** 63 - 1, 2 ** 70, -2 ** 70, 10 ** 308, 10 ** 400]
# json writes NaN and Infinity tokens and escapes lone surrogates
_READER_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from(_EDGE_INTEGERS) | st.text(max_size=8)
    | st.sampled_from(["\ud800", "a\udfff", "\ud83d\ude00"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(value=_READER_VALUES, ascii_only=st.booleans())
def test_reader_matches_json(value, ascii_only):
    """A random JSON value inside a document: the package reader returns
    what json.loads returns, floats compared by bits, except that an
    integer beyond 64 bits comes back as the equal float, and a document
    with a token that only json reads is refused with ValueError."""
    doc = {"format": "bdf-tape", "version": FORMAT_VERSION, "value": value}
    text = json.dumps(doc, ensure_ascii=ascii_only)
    try:
        data = text.encode()
    except UnicodeEncodeError:   # a lone surrogate has no UTF-8 form
        text = json.dumps(doc)
        data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        want = json.loads(text)["value"]
        if _orjson_refuses(want):
            with pytest.raises(ValueError):
                _load_checked(path, "bdf-tape")
            return
        got = _load_checked(path, "bdf-tape")["value"]
    assert _canonical(got, False) == _canonical(want, True)


class TestRejection:
    def test_unencodable_document_writes_nothing(self, tmp_path):
        """An integer beyond 64 bits is refused with ValueError before the
        file is opened."""
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError, match="cannot encode"):
            _dump({"params": {"c": [2 ** 70, 0]}}, path)
        assert not path.exists()

    def test_wrong_format_field(self, tape, tmp_path):
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format"):
            load_tape(path)

    def test_future_version(self, tape, tmp_path):
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_tape(path)

    def test_version_2_tape_refused(self, tape, tmp_path):
        """Version 2 also stored each step's Newton residual and, for adaptive
        runs, its error estimate; such a tape is refused by its version."""
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        doc["newton"]["residuals"] = encode_array(np.zeros(tape.n_steps))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"unsupported version 2 \(supported: 3\)"):
            load_tape(path)

    def test_empty_tape(self, tape, tmp_path):
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = encode_array([0.0])
        doc["orders"] = encode_array([], "<i8")
        doc["states"] = encode_array(decode_array(doc["states"])[:1])
        doc["newton"] = {"iterations": encode_array([], "<i8")}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_tape(path)


class TestAdjointRoundTrip:
    def test_lossless(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        tape_path, path = tmp_path / "tape.json", tmp_path / "adjoint.json"
        save_tape(tape, tape_path)
        save_adjoint_results(tape_sha256(tape_path.read_bytes()), adj, path)
        back = load_adjoint_results(path)
        assert back["tape_sha256"] == hashlib.sha256(tape_path.read_bytes()).hexdigest()
        np.testing.assert_array_equal(back["lambdas"], adj.lambdas)
        np.testing.assert_array_equal(back["gradient"], adj.gradient)
        np.testing.assert_array_equal(back["jump_sizes"], adj.jump_sizes)

    def test_jump_times_derived_not_stored(self, tape, tmp_path):
        """The document holds the tape's digest, the multipliers, the
        gradient and the jump sizes, and nothing the tape already holds: no
        problem, no nodes, no jump times (nodes[1:]): the adjoints hold the
        tape's nodes themselves."""
        adj = adjoint_sweep(CATENARY, tape)
        path = tmp_path / "adjoint.json"
        save_adjoint_results("0" * 64, adj, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["format", "gradient", "jumps", "lambdas",
                               "tape_sha256", "version"]
        assert list(doc["jumps"]) == ["sizes"]
        assert doc["version"] == ADJOINT_VERSION == 3
        assert adj.nodes is tape.grid.nodes

    def test_earlier_version_refused(self, tape, tmp_path):
        """Version 1 copied the tape's problem and nodes, version 2 wrote
        the multipliers as a JSON list; such a file is refused by its
        version, and tapes are at version 3."""
        adj = adjoint_sweep(CATENARY, tape)
        path = tmp_path / "adjoint.json"
        save_adjoint_results("0" * 64, adj, path)
        doc = json.loads(path.read_text())
        for version in (1, 2):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError,
                               match=rf"unsupported version {version} \(supported: 3\)"):
                load_adjoint_results(path)
        save_tape(tape, tmp_path / "tape.json")
        assert json.loads((tmp_path / "tape.json").read_text())["version"] == 3

    def test_kkt_report(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        report = verify_kkt(CATENARY, tape, adj)
        path = tmp_path / "kkt.json"
        save_kkt_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "bdf-kkt"
        # the report has its own version; tapes are at version 3
        assert doc["version"] == KKT_VERSION == 2 and FORMAT_VERSION == 3
        assert set(doc) == {"format", "version", "checks", "passed"}
        checks = {c.name: c for c in report}
        assert list(checks) == ["nominal_residual", "adjoint_residual", "initial_residual",
                                "coefficient_defect", "jacobian_defect", "criterion_defect"]
        assert doc["checks"] == {
            c.name: {"value": c.value, "threshold": c.threshold, "passed": c.passed,
                     "worst": {"step": c.step, "t": c.t}} for c in report}
        assert doc["checks"]["coefficient_defect"]["threshold"] == COEFFICIENT_TOL
        assert doc["checks"]["jacobian_defect"]["threshold"] == JACOBIAN_TOL
        assert doc["checks"]["criterion_defect"]["threshold"] == JACOBIAN_TOL
        assert doc["passed"] is True


class TestCsv:
    def test_adjoint_csv_header_and_rows(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(adj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "lambda_1", "lambda_2", "Lambda_1", "Lambda_2"]
        assert len(rows) == 1 + tape.n_steps
        # first data row is t_1 with lambda_1 and the post-jump Lambda(t_1)
        t1 = float(rows[1][0])
        assert t1 == tape.grid.nodes[1]
        np.testing.assert_allclose(
            [float(rows[1][1]), float(rows[1][2])], adj.lambdas[0], rtol=1e-15)
        np.testing.assert_allclose(
            [float(rows[1][3]), float(rows[1][4])], adj(t1), rtol=1e-15)
        # floats round-trip exactly
        assert float(rows[-1][1]) == adj.lambdas[-1][0]

    @pytest.mark.parametrize("problem", ["catenary", "linear"])
    def test_adjoint_csv_bytes_match_row_writer(self, problem, tmp_path):
        """Byte for byte the file of a per-row csv writer with repr cells.
        Every value here prints the same in repr's notation and orjson's
        (no magnitude below 1e-4 or from 1e16 up), so the bytes agree;
        test_adjoint_csv_heat_cells_round_trip covers cells where they
        differ."""
        prob, _ = get_problem(problem)
        tape = integrate_nonadaptive(prob, 3, 0.0625)
        adj = adjoint_sweep(prob, tape)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(adj, path)

        expected = tmp_path / "expected.csv"
        cum = np.cumsum(adj.jump_sizes, axis=0)
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "lambda_1", "lambda_2", "Lambda_1", "Lambda_2"])
            for n in range(tape.n_steps):
                writer.writerow([repr(float(tape.grid.nodes[n + 1]))]
                                + [repr(float(v)) for v in adj.lambdas[n]]
                                + [repr(float(v)) for v in cum[n]])
        assert path.read_bytes() == expected.read_bytes()

    def test_convergence_csv_layout(self, tmp_path):
        hs = np.array([0.25, 0.125, 0.0625])
        table = ConvergenceTable(
            parameter="h", values=hs,
            errors={"tf": 2.0 * hs ** 2, "interior": hs.copy()})
        path = tmp_path / "conv.csv"
        write_convergence_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "error_tf", "order_tf",
                           "error_interior", "order_interior"]
        assert len(rows) == 4
        assert rows[1][2] == ""  # no order for the first sweep point
        assert float(rows[2][2]) == pytest.approx(2.0, abs=1e-12)
        assert float(rows[3][4]) == pytest.approx(1.0, abs=1e-12)
