"""
Tests for the on-disk formats: versioned JSON documents and CSV exports.

Round trips must be lossless (floats are written as the shortest decimal
that round-trips binary64 exactly: repr's digits in orjson's notation),
repeated saves must be byte-identical, and foreign or future-versioned files
must be rejected with clear errors.
"""

import csv
import hashlib
import json
import math
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfadjoint import (adjoint_sweep, assemble_weak_adjoint,
                        compute_coefficients, get_problem,
                        integrate_adaptive, integrate_nonadaptive,
                        linear_test_problem, load_adjoint_results, load_tape,
                        save_adjoint_results, save_kkt_report, save_tape,
                        verify_kkt)
from bdfadjoint.adjoint import DiscreteAdjoints
from bdfadjoint.analysis import COEFFICIENT_TOL, JACOBIAN_TOL, ConvergenceTable
from bdfadjoint.bdf import IntegrationTape, TimeGrid
from bdfadjoint.serialize import (_dump, _load_checked, tape_sha256, tape_to_dict,
                                  write_adjoint_csv, write_convergence_csv)

CATENARY, _ = get_problem("catenary")


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
        """Stepsizes are np.diff(nodes): not written, and a version-1 tape
        that still carries them (the earlier layout) loads unchanged."""
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        assert "stepsizes" not in doc
        doc["stepsizes"] = tape.grid.stepsizes.tolist()
        path.write_text(json.dumps(doc, sort_keys=True, indent=2))
        back = load_tape(path)
        np.testing.assert_array_equal(back.grid.nodes, tape.grid.nodes)
        np.testing.assert_array_equal(back.grid.stepsizes, tape.grid.stepsizes)
        np.testing.assert_array_equal(back.states, tape.states)

    def test_tolerances_derived_not_stored(self, tmp_path):
        """Newton tolerances are derived at load: not written, and a
        version-1 tape that still carries them (the earlier layout) loads
        with the list ignored, to the tolerances the driver solved to."""
        tape = integrate_adaptive(CATENARY, 1e-6)
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        assert "tolerances" not in doc["newton"]
        doc["newton"]["tolerances"] = [1.0] * tape.n_steps
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(load_tape(path).newton_tolerances,
                                      tape.newton_tolerances)

    def test_adaptive_round_trip(self, tmp_path):
        tape = integrate_adaptive(CATENARY, 1e-6)
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        back = load_tape(path)
        np.testing.assert_array_equal(back.states, tape.states)
        np.testing.assert_array_equal(back.error_estimates,
                                      tape.error_estimates)

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
        indented = json.dumps(doc, sort_keys=True, indent=2) + "\n"
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
        tape = SimpleNamespace(
            dimension=1, grid=SimpleNamespace(nodes=np.concatenate([[0.0], corpus])))
        adj = SimpleNamespace(lambdas=corpus[:, None])
        weak = SimpleNamespace(jump_sizes=corpus[::-1, None])
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(tape, adj, weak, path)
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
        d = 100
        dx = 1.0 / (d + 1)
        a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0))
                               + np.diag(np.ones(d - 1), 1)
                               + np.diag(np.ones(d - 1), -1))
        prob, _ = linear_test_problem(a=a, y_s=np.sin(np.pi * dx * np.arange(1, d + 1)),
                                      t_s=0.0, t_f=0.5, c=np.full(d, dx))
        tape = integrate_nonadaptive(prob, 2, 2.0 ** -6)
        adj = adjoint_sweep(prob, tape)
        weak = assemble_weak_adjoint(tape, adj)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(tape, adj, weak, path)
        with open(path, newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
        values = np.column_stack([tape.grid.nodes[1:], adj.lambdas,
                                  np.cumsum(weak.jump_sizes, axis=0)])
        assert np.any((values != 0.0) & (np.abs(values) < 1e-4))
        _assert_cells_exact(cells, values)


    def test_tape_round_trips_bit_exact(self, tmp_path):
        """The corpus as nodes (sorted and distinct), states, Newton
        residuals, error estimates and a problem parameter: load_tape
        returns what save_tape was given, bit for bit."""
        corpus = _float_corpus()
        nodes = np.unique(corpus)
        n = nodes.size - 1
        tape = IntegrationTape(
            problem_name="linear", problem_params={"c": corpus.tolist()},
            dimension=2, mode="nonadaptive",
            grid=TimeGrid(nodes=nodes, orders=np.ones(n, dtype=int)),
            states=np.resize(corpus, (n + 1, 2)),
            newton_iterations=np.ones(n, dtype=int),
            newton_residuals=np.resize(corpus[::-1], n),
            error_estimates=np.resize(corpus, n))
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        back = load_tape(path)
        _assert_bits_equal(back.grid.nodes, nodes)
        for name in ("states", "newton_residuals", "error_estimates"):
            _assert_bits_equal(getattr(back, name), getattr(tape, name))
        _assert_bits_equal(back.problem_params["c"], corpus)

    def test_adjoint_results_round_trip_bit_exact(self, tmp_path):
        """The corpus as multipliers, gradient and jump sizes:
        load_adjoint_results returns what save_adjoint_results was given,
        bit for bit, with the tape digest as written."""
        corpus = _float_corpus()
        n = corpus.size
        adj = DiscreteAdjoints(lambdas=np.resize(corpus, (n, 2)), gradient=corpus)
        weak = SimpleNamespace(jump_sizes=np.resize(corpus[::-1], (n, 2)))
        digest = hashlib.sha256(b"tape").hexdigest()
        path = tmp_path / "adjoint.json"
        save_adjoint_results(digest, adj, weak, path)
        back = load_adjoint_results(path)
        assert back["tape_sha256"] == digest
        _assert_bits_equal(back["adjoints"].lambdas, adj.lambdas)
        _assert_bits_equal(back["adjoints"].gradient, corpus)
        _assert_bits_equal(back["jump_sizes"], weak.jump_sizes)


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
    surrogate in a string or key: what only the json fallback reads."""
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
    integer beyond 64 bits comes back as the equal float from a document
    that has no token only json reads."""
    doc = {"format": "bdf-tape", "version": 1, "value": value}
    text = json.dumps(doc, ensure_ascii=ascii_only)
    try:
        data = text.encode()
    except UnicodeEncodeError:   # a lone surrogate has no UTF-8 form
        text = json.dumps(doc)
        data = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        got = _load_checked(path, "bdf-tape")["value"]
    want = json.loads(text)["value"]
    assert (_canonical(got, False)
            == _canonical(want, not _orjson_refuses(want)))


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

    def test_empty_tape(self, tape, tmp_path):
        path = tmp_path / "tape.json"
        save_tape(tape, path)
        doc = json.loads(path.read_text())
        doc["nodes"] = [0.0]
        doc["stepsizes"] = []
        doc["orders"] = []
        doc["states"] = [doc["states"][0]]
        for key in ("iterations", "residuals"):
            doc["newton"][key] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_tape(path)


class TestAdjointRoundTrip:
    def test_lossless(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        weak = assemble_weak_adjoint(tape, adj)
        tape_path, path = tmp_path / "tape.json", tmp_path / "adjoint.json"
        save_tape(tape, tape_path)
        save_adjoint_results(tape_sha256(tape_path), adj, weak, path)
        back = load_adjoint_results(path)
        assert back["tape_sha256"] == hashlib.sha256(tape_path.read_bytes()).hexdigest()
        np.testing.assert_array_equal(back["adjoints"].lambdas, adj.lambdas)
        np.testing.assert_array_equal(back["adjoints"].gradient, adj.gradient)
        np.testing.assert_array_equal(back["jump_sizes"], weak.jump_sizes)

    def test_jump_times_derived_not_stored(self, tape, tmp_path):
        """The document holds the tape's digest, the multipliers, the
        gradient and the jump sizes, and nothing the tape already holds: no
        problem, no nodes, no jump times (nodes[1:])."""
        adj = adjoint_sweep(CATENARY, tape)
        weak = assemble_weak_adjoint(tape, adj)
        path = tmp_path / "adjoint.json"
        save_adjoint_results("0" * 64, adj, weak, path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["format", "gradient", "jumps", "lambdas",
                               "tape_sha256", "version"]
        assert list(doc["jumps"]) == ["sizes"]
        assert doc["version"] == 2
        np.testing.assert_array_equal(weak.jump_times, tape.grid.nodes[1:])

    def test_earlier_version_refused(self, tape, tmp_path):
        """Version 1 copied the tape's problem and nodes; such a file is
        refused by its version, while tapes stay at version 1."""
        adj = adjoint_sweep(CATENARY, tape)
        path = tmp_path / "adjoint.json"
        save_adjoint_results("0" * 64, adj, assemble_weak_adjoint(tape, adj), path)
        doc = json.loads(path.read_text())
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"unsupported version 1 \(supported: 2\)"):
            load_adjoint_results(path)
        save_tape(tape, tmp_path / "tape.json")
        assert json.loads((tmp_path / "tape.json").read_text())["version"] == 1

    def test_kkt_report(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        report = verify_kkt(CATENARY, tape, adj)
        path = tmp_path / "kkt.json"
        save_kkt_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "bdf-kkt"
        assert doc["nominal_residual"] == report.nominal_residual
        assert doc["thresholds"]["adjoint"] == report.adjoint_threshold
        assert doc["thresholds"]["initial"] == report.initial_threshold
        assert doc["thresholds"]["coefficient"] == COEFFICIENT_TOL
        assert doc["coefficient_defect"] == report.coefficient_defect
        assert doc["jacobian_defect"] == report.jacobian_defect
        assert doc["thresholds"]["jacobian"] == JACOBIAN_TOL
        assert doc["worst"]["jacobian"] == {"step": report.jacobian_worst_step,
                                            "t": report.jacobian_worst_time}
        assert doc["passed"] is True


class TestCsv:
    def test_adjoint_csv_header_and_rows(self, tape, tmp_path):
        adj = adjoint_sweep(CATENARY, tape)
        weak = assemble_weak_adjoint(tape, adj)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(tape, adj, weak, path)
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
            [float(rows[1][3]), float(rows[1][4])], weak(t1), rtol=1e-15)
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
        weak = assemble_weak_adjoint(tape, adj)
        path = tmp_path / "adjoint.csv"
        write_adjoint_csv(tape, adj, weak, path)

        expected = tmp_path / "expected.csv"
        cum = np.cumsum(weak.jump_sizes, axis=0)
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
