"""
Tests for the command-line interface.

Exit-code contract: 0 success, 1 usage/config errors, 2 solver failures,
3 verification failures.  All invocations go through main(argv) so the
tests see exactly what a shell user would.
"""

import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdfadjoint import (bdf, get_problem, integrate_nonadaptive, load_tape,
                        save_tape)
from bdfadjoint.analysis import COEFFICIENT_TOL, JACOBIAN_TOL, coefficient_defects
import bdfadjoint.cli as cli_module
from bdfadjoint.cli import main

CATENARY, _ = get_problem("catenary")


def _integrate(tmp_path, *extra):
    tape = tmp_path / "tape.json"
    rc = main(["integrate", "--problem", "catenary", "--mode", "nonadaptive",
               "--order", "2", "--h", "0.0625", "--out", str(tape), *extra])
    return rc, tape


def _rebind(adj, tape):
    """Bind the adjoint file to the tape file as it is now, after an edit,
    so that verify gets past the binding to the check under test."""
    doc = json.loads(adj.read_text())
    doc["tape_sha256"] = hashlib.sha256(tape.read_bytes()).hexdigest()
    adj.write_text(json.dumps(doc))


class TestIntegrate:
    def test_writes_tape(self, tmp_path, capsys):
        rc, tape = _integrate(tmp_path)
        assert rc == 0
        assert tape.is_file()
        out = capsys.readouterr().out
        assert "steps N=33" in out          # 2/0.0625 + 1 startup substep
        assert "orders in [1, 2]" in out

    def test_reference_step_count(self, tmp_path, capsys):
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--order", "2", "--h", str(2.0 ** -6),
                   "--out", str(tape)])
        assert rc == 0
        assert "steps N=129" in capsys.readouterr().out

    def test_adaptive_mode(self, tmp_path):
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--mode", "adaptive", "--rtol", "1e-6",
                   "--out", str(tape)])
        assert rc == 0
        assert json.loads(tape.read_text())["mode"] == "adaptive"

    def test_missing_stepsize_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--order", "2",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_bad_mode_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--mode", "sometimes", "--order", "2",
                   "--h", "0.25", "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_unknown_problem_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--problem", "lorenz", "--order", "2",
                   "--h", "0.25", "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_noninteger_grid_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--order", "2", "--h", "0.3",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 1

    def test_singular_problem_is_solver_failure(self, tmp_path):
        """linear with a=100, h=0.01: the Newton matrix 1 - h*a is singular."""
        rc = main(["integrate", "--problem", "linear", "--config",
                   str(_write_config(tmp_path, "a = 100", "y0 = 1")),
                   "--tf", "1.0", "--order", "1", "--h", "0.01",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2

    @pytest.mark.parametrize("args", [
        ["--mode", "adaptive", "--rtol", "1e-6", "--atol", "nan"],
        ["--mode", "adaptive", "--rtol", "nan"],
        ["--mode", "adaptive", "--rtol", "0"],
        ["--mode", "adaptive", "--rtol", "1e-6", "--atol", "inf"],
        ["--mode", "adaptive", "--rtol", "inf"],
        ["--order", "2", "--h", "-1"],
        ["--order", "7", "--h", "0.25"],
    ], ids=["atol-nan", "rtol-nan", "rtol-0", "atol-inf", "rtol-inf",
            "h-negative", "order-7"])
    def test_bad_driver_value_is_usage_error(self, tmp_path, args):
        """The drivers' own checks refuse these, with exit 1 and no tape."""
        tape = tmp_path / "t.json"
        rc = main(["integrate", *args, "--out", str(tape)])
        assert rc == 1
        assert not tape.exists()

    @pytest.mark.parametrize("args, config, code", [
        (["--mode", "adaptive", "--rtol", "1e-6", "--A", "nan"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6", "--p", "nan"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6", "--tf", "inf"], None, 1),
        (["--order", "2", "--h", "0.25", "--tf", "inf"], None, 1),
        (["--mode", "adaptive", "--rtol", "1e-6"], "a = nan", 2),
    ], ids=["A-nan", "p-nan", "adaptive-tf-inf", "nonadaptive-tf-inf",
            "linear-a-nan"])
    def test_nonfinite_problem_input_fails_fast(self, tmp_path, args, config,
                                                code):
        """Refused with one error line and no tape: a non-finite initial
        state, end time or p at construction (exit 1), and the NaN first
        step of a NaN matrix entry as a stepsize underflow (exit 2).  Each
        runs in a fresh interpreter, so that a hang fails the test."""
        tape = tmp_path / "t.json"
        if config is not None:
            args = [*args, "--config",
                    str(_write_config(tmp_path, "problem = linear", config,
                                      "y0 = 1"))]
        out = _fresh_python(
            "import json, sys; from bdfadjoint.cli import main; "
            "sys.stderr = sys.stdout; print(main(json.loads(sys.argv[1])))",
            json.dumps(["integrate", *args, "--out", str(tape)]))
        message, rc = out.splitlines()
        assert int(rc) == code
        assert message.startswith("solver failure: stepsize underflow"
                                  if code == 2 else "error: ")
        assert not tape.exists()

    @pytest.mark.parametrize("h", ["1e-9", "5e-324"])
    def test_step_count_beyond_tape_limit_is_usage_error(self, tmp_path,
                                                         capsys, h):
        """--h 1e-9 asks for 2e9 steps of the catenary and --h 5e-324 for
        infinitely many: one line of usage error and no tape, before any
        allocation (a MemoryError or OverflowError traceback before)."""
        tape = tmp_path / "t.json"
        assert main(["integrate", "--order", "2", "--h", h, "--out", str(tape)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: (t_f - t_s) / h = ") and err.count("\n") == 1
        assert f"tape limit of {bdf.MAX_STATE_VALUES} state values" in err
        assert not tape.exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        rc = main(["integrate", "--frobnicate", "1"])
        assert rc == 1

    def test_catenary_defaults_come_from_registry(self, tmp_path):
        """No problem flags: the same tape bytes as the registry's defaults
        spelled out as flags."""
        params = get_problem("catenary")[0].params
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        run = ["integrate", "--order", "2", "--h", "0.125"]
        assert main([*run, "--out", str(implicit)]) == 0
        spelled = [f"--{key}={value!r}" for key, value in params.items()]
        assert main([*run, "--problem", "catenary", *spelled,
                     "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_linear_defaults_come_from_registry(self, tmp_path):
        """A config naming only the problem writes the same tape bytes as one
        spelling out every registry default."""
        def fmt(values):
            return " ".join(repr(float(v)) for v in np.ravel(values))

        params = get_problem("linear")[0].params
        implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
        run = ["integrate", "--order", "2", "--h", "0.125"]
        cfg = _write_config(tmp_path, "problem = linear")
        assert main([*run, "--config", str(cfg), "--out", str(implicit)]) == 0
        lines = ["a = " + "; ".join(fmt(row) for row in params["a"]),
                 *(f"{key} = {fmt(params[key])}" for key in ("y0", "t0", "tf", "c"))]
        cfg = _write_config(tmp_path, "problem = linear", *lines)
        assert main([*run, "--config", str(cfg), "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_import_leaves_quadrature_unloaded(self):
        """Nothing in the package needs scipy.integrate, so importing the
        CLI must not pay for it."""
        _fresh_python("import sys, bdfadjoint.cli; "
                      "assert 'scipy.integrate' not in sys.modules, 'loaded'")

    def test_import_leaves_multiprocessing_unloaded(self):
        """converge forks its workers itself, so importing the CLI loads
        neither multiprocessing nor concurrent.futures."""
        _fresh_python("import sys, bdfadjoint.cli; assert not {'multiprocessing', "
                      "'concurrent.futures'} & set(sys.modules), 'loaded'")

    def test_import_leaves_hashlib_unloaded(self):
        """Only adjoint and verify digest a tape, and they import hashlib
        when they do, so importing the CLI does not load _hashlib."""
        _fresh_python("import sys, bdfadjoint.cli; "
                      "assert '_hashlib' not in sys.modules, 'loaded'")

    def test_stages_leave_linalg_and_sparse_unloaded(self, tmp_path):
        """integrate -> adjoint -> verify of the catenary and of a banded
        linear problem, in one fresh interpreter, import none of
        scipy.linalg, scipy.sparse and scipy.integrate: the step solvers
        bind LAPACK from SciPy's extension and the KKT band is NumPy."""
        heat = _heat_config(tmp_path, 8)
        runs = []
        for name, problem in (("catenary", ["--problem", "catenary"]),
                              ("heat", ["--config", str(heat)])):
            tape, adj = tmp_path / f"{name}.json", tmp_path / f"{name}-adj.json"
            runs += [["integrate", *problem, "--order", "2", "--h", "0.125",
                      "--out", str(tape)],
                     ["adjoint", "--tape", str(tape), "--out", str(adj)],
                     ["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                      "--out", str(tmp_path / f"{name}-kkt.json")]]
        _fresh_python(_STAGES_THEN_CHECK, json.dumps(runs),
                      "scipy.linalg,scipy.sparse,scipy.integrate")
        params = load_tape(tmp_path / "heat.json").problem_params
        assert get_problem("linear", **params)[0].band == (1, 1)

    def test_converge_on_linear_loads_its_reference(self, tmp_path):
        """converge evaluates the linear reference's matrix exponentials, so
        it is the one stage that imports scipy.linalg, and it still runs."""
        argv = ["converge", "--config", str(_heat_config(tmp_path, 8)),
                "--order", "2", "--h", "0.25,0.125",
                "--out", str(tmp_path / "convergence.csv")]
        _fresh_python(_STAGES_THEN_CHECK, json.dumps([argv]), "")

    def test_scipy_linalg_imports_after_bdf(self):
        """Loading SciPy's LAPACK extension first leaves scipy.linalg
        importable afterwards, with the very routines bdf binds and an expm
        bit-equal to this process's."""
        from scipy.linalg import expm
        m = np.array([[-1.5, 2.0, 0.0], [0.25, -3.0, 1e-3], [0.0, 4.0, -0.5]])
        out = _fresh_python(
            "import sys, numpy as np; from bdfadjoint import bdf; "
            "assert 'scipy.linalg' not in sys.modules; "
            "from scipy.linalg import expm, lapack; "
            "assert all(getattr(lapack, f) is getattr(bdf, f) "
            "for f in ('dgetrf', 'dgetrs', 'dgbtrf', 'dgbtrs')); "
            "m = np.array(eval(sys.argv[1])); print(expm(m).tobytes().hex())",
            repr(m.tolist()))
        assert out.strip() == expm(m).tobytes().hex()

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def _fresh_python(code, *args):
    """stdout of code run by a fresh interpreter with this checkout's src
    first on its path and args as sys.argv[1:]; a run that hangs fails the
    test after a minute."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60).stdout


# Runs the CLI argv lists of the JSON sys.argv[1] in turn, each to exit 0,
# then fails if any module of the comma-separated sys.argv[2] was imported.
_STAGES_THEN_CHECK = """
import json, sys
from bdfadjoint.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
loaded = [m for m in sys.argv[2].split(",") if m and m in sys.modules]
assert not loaded, f"imported {loaded}"
"""


def _write_config(tmp_path, *lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\n" + "\n".join(lines) + "\n")
    return cfg


def _heat_config(tmp_path, d, tf=0.5):
    """Config of the tridiagonal d-point heat matrix as the linear problem."""
    dx = 1.0 / (d + 1)
    a = (0.1 / dx ** 2) * (np.diag(np.full(d, -2.0))
                           + np.diag(np.ones(d - 1), 1)
                           + np.diag(np.ones(d - 1), -1))
    y0 = np.sin(np.pi * dx * np.arange(1, d + 1))

    def fmt(values):
        return " ".join(repr(float(v)) for v in values)

    return _write_config(tmp_path, "problem = linear", f"tf = {tf!r}",
                         "a = " + "; ".join(fmt(row) for row in a),
                         "y0 = " + fmt(y0), "c = " + fmt(np.full(d, dx)))


@pytest.fixture
def patched_problems(monkeypatch):
    """Routes the CLI's registry lookups through edit(problem, reference),
    which returns the pair to use; edit = None restores the registry."""
    lookup = cli_module.get_problem

    def install(edit):
        if edit is None:
            monkeypatch.setattr(cli_module, "get_problem", lookup)
        else:
            monkeypatch.setattr(cli_module, "get_problem",
                                lambda name, **params: edit(*lookup(name, **params)))
    return install


class TestConfig:
    def test_config_supplies_settings(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\n"
            "problem = catenary\n"
            "p = 3.0\n"
            "A = -3.0\n"
            "tf = 2.0\n"
            "\n"
            "[run]\n"
            "mode = nonadaptive\n"
            "order = 2\n"
            "h = 0.25\n")
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--config", str(cfg), "--out", str(tape)])
        assert rc == 0
        doc = json.loads(tape.read_text())
        assert doc["driver_params"] == {"order": 2, "h": 0.25}

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nmode = nonadaptive\norder = 2\nh = 0.25\n")
        tape = tmp_path / "tape.json"
        rc = main(["integrate", "--config", str(cfg), "--h", "0.125",
                   "--out", str(tape)])
        assert rc == 0
        assert json.loads(tape.read_text())["driver_params"]["h"] == 0.125

    def test_missing_config_file(self, tmp_path):
        rc = main(["integrate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1


class TestAdjointCommand:
    def test_writes_json_and_csv(self, tmp_path, capsys):
        _, tape = _integrate(tmp_path)
        out = tmp_path / "adjoint.json"
        rc = main(["adjoint", "--tape", str(tape), "--out", str(out)])
        assert rc == 0
        assert out.is_file()
        assert (tmp_path / "adjoint.csv").is_file()
        stdout = capsys.readouterr().out
        assert "gradient=[" in stdout
        with open(tmp_path / "adjoint.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "lambda_1", "lambda_2", "Lambda_1", "Lambda_2"]

    def test_requires_tape(self):
        assert main(["adjoint"]) == 1

    def test_missing_tape_file(self, tmp_path):
        assert main(["adjoint", "--tape", str(tmp_path / "no.json")]) == 1

    def test_problem_mismatch_rejected(self, tmp_path):
        _, tape = _integrate(tmp_path)
        rc = main(["adjoint", "--tape", str(tape), "--problem", "linear",
                   "--out", str(tmp_path / "a.json")])
        assert rc == 1

    @pytest.mark.parametrize("field", ["iterations", "residuals",
                                       "error_estimates"])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_malformed_per_step_record_refused(self, tmp_path, capsys, field,
                                               stage):
        """A per-step array of the wrong length is a usage error at load, not
        a traceback or a pass."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc = json.loads(tape.read_text())
        if field == "error_estimates":
            doc[field] = [1e-9, 1e-9]
        else:
            doc["newton"][field] = doc["newton"][field][:-3]
        tape.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("newton", []), ("problem", []),
                                            ("nodes", {"a": 1})])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_malformed_document_refused(self, tmp_path, capsys, key, value,
                                        stage):
        """A tape whose parts have the wrong JSON type is a usage error at
        load, not a traceback."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc = json.loads(tape.read_text())
        doc[key] = value
        tape.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and err.count("\n") == 1
        assert not out.exists()

    def test_near_singular_step_matrix_is_solver_failure(self, tmp_path, capsys):
        """I - h f_y = [[1, 1], [1, 1 + 1e-15]] on a one-step linear tape:
        integrate needs no Newton iteration, and adjoint refuses the matrix,
        singular to working precision, with exit 2 and no output."""
        cfg = _write_config(tmp_path, "problem = linear", "a = 0 -8; -8 -8e-15",
                            "y0 = 0 0", "tf = 0.125", "c = 1 0")
        tape, out = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--config", str(cfg), "--order", "1",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert "newton iterations total=0 " in capsys.readouterr().out
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 2
        assert "singular or non-finite adjoint matrix" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("mode, edit", [("nonadaptive", "loosen"),
                                            ("adaptive", "loosen"),
                                            ("adaptive", "drop_driver_params"),
                                            ("nonadaptive", "unknown_mode")])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_tolerances_derived_not_trusted(self, tmp_path, capsys, mode, edit,
                                            stage):
        """Every Newton tolerance written into the tape as 1.0 (the earlier
        layout stored them) with states[5][1] moved by 0.1: the list is
        ignored, so adjoint refuses the moved state with exit 1 and verify
        fails its nominal residual with exit 3.  An adaptive tape without
        its driver parameters, or a tape of an unknown mode, cannot have its
        tolerances derived, and is refused at load."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        run = (["--order", "2", "--h", "0.125"] if mode == "nonadaptive"
               else ["--mode", "adaptive", "--rtol", "1e-6"])
        assert main(["integrate", *run, "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc = json.loads(tape.read_text())
        if edit == "loosen":
            doc["newton"]["tolerances"] = [1.0] * len(doc["newton"]["residuals"])
            doc["states"][5][1] += 0.1
        elif edit == "unknown_mode":
            doc["mode"] = "fixed"
        else:
            del doc["driver_params"]
        tape.write_text(json.dumps(doc))
        _rebind(adj, tape)
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        if edit == "loosen" and stage == "verify":
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "verification failed: nominal_residual above threshold\n")
            return
        assert main(argv) == 1
        err = capsys.readouterr().err
        want = {"loosen": "error: tape failed residual validation",
                "unknown_mode": "error: cannot load tape: unknown integration mode 'fixed'",
                "drop_driver_params": "error: cannot load tape: adaptive tape "
                                      "without driver_params.rtol\n"}[edit]
        assert err.startswith(want) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("c0", [float("inf"), float("nan")])
    def test_nonfinite_multipliers_are_solver_failure(self, tmp_path, capsys,
                                                      c0):
        """A linear tape whose criterion vector c is [c0, 0]: the states
        pass validation, the multipliers are not finite, and adjoint refuses
        them with exit 2 and no output, not a NaN gradient with exit 0."""
        tape = tmp_path / "tape.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        doc = json.loads(tape.read_text())
        doc["problem"]["params"]["c"] = [c0, 0.0]
        tape.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 2
        assert "non-finite adjoint multipliers" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    def test_params_beyond_64_bits_read_as_floats(self, tmp_path, capsys):
        """A linear tape whose c holds the integer 2**70: the reader returns
        it as the float 2.0**70, the value the problem computes with, so
        adjoint exits 0 with the gradient and multipliers of a tape whose c
        is [2.0**70, 0.0], bit for bit."""
        tape = tmp_path / "tape.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        doc = json.loads(tape.read_text())
        results = {}
        for name, c in (("int", [2 ** 70, 0]), ("float", [2.0 ** 70, 0.0])):
            doc["problem"]["params"]["c"] = c
            edited, out = tmp_path / f"{name}.json", tmp_path / f"adj_{name}.json"
            edited.write_text(json.dumps(doc))
            assert main(["adjoint", "--tape", str(edited), "--out", str(out)]) == 0
            results[name] = json.loads(out.read_text())
        for key in ("gradient", "lambdas"):
            got = np.array(results["int"][key])
            want = np.array(results["float"][key])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_unencodable_fallback_params_refused(self, tmp_path, capsys):
        """c holds the integer 2**70 in a tape that the json fallback reads
        (a NaN token among the Newton residuals), so the integer stays an
        integer.  The adjoint file no longer copies the params, only the
        tape's digest, so nothing unencodable is left to refuse: adjoint
        exits 0 and writes both files."""
        tape = tmp_path / "tape.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        doc = json.loads(tape.read_text())
        doc["problem"]["params"]["c"] = [2 ** 70, 0]
        doc["newton"]["residuals"][3] = float("nan")
        tape.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["tape_sha256"] == (
            hashlib.sha256(tape.read_bytes()).hexdigest())
        assert out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_overflowing_param_refused(self, tmp_path, capsys, stage):
        """c holds the integer 10**400, beyond binary64: the json fallback
        reads it as an integer, and rebuilding the problem from it is one
        line of usage error, not an OverflowError traceback."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        doc = json.loads(tape.read_text())
        doc["problem"]["params"]["c"] = [10 ** 400, 0]
        tape.write_text(json.dumps(doc))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot rebuild tape problem:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("nan", [False, True], ids=["plain", "nan-token"])
    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_truncated_tape_refused(self, tmp_path, capsys, stage, nan):
        """A tape cut off halfway, or right after a NaN token in its states:
        neither orjson nor the json fallback reads it, so it is one line of
        usage error at load."""
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        if nan:
            doc = json.loads(tape.read_text())
            doc["states"][10][0] = float("nan")
            text = json.dumps(doc)
            tape.write_text(text[:text.index("NaN") + 3])
        else:
            text = tape.read_text()
            tape.write_text(text[:len(text) // 2])
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = {"adjoint": ["adjoint", "--tape", str(tape), "--out", str(out)],
                "verify": ["verify", "--tape", str(tape), "--adjoint-file",
                           str(adj), "--out", str(out)]}[stage]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load tape:") and err.count("\n") == 1
        assert not out.exists()

    def test_nan_state_refused(self, tmp_path, capsys):
        _, tape = _integrate(tmp_path)
        doc = json.loads(tape.read_text())
        doc["states"][10][0] = float("nan")
        tape.write_text(json.dumps(doc))
        out = tmp_path / "a.json"
        rc = main(["adjoint", "--tape", str(tape), "--out", str(out)])
        assert rc == 1
        assert "residual validation" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()


class TestVerifyCommand:
    def _chain(self, tmp_path):
        _, tape = _integrate(tmp_path)
        adj = tmp_path / "adjoint.json"
        main(["adjoint", "--tape", str(tape), "--out", str(adj)])
        return tape, adj

    def test_consistent_pair_passes(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        assert doc["jacobian_defect"] <= doc["thresholds"]["jacobian"]
        out = capsys.readouterr().out
        assert "coefficient invariants: ok" in out
        assert f"jacobian_defect={doc['jacobian_defect']!r} (threshold" in out

    def test_tampered_multipliers_fail(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["lambdas"][4][1] += 1e-3
        adj.write_text(json.dumps(doc))
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert "adjoint_residual" in capsys.readouterr().err

    def test_tampered_jump_table_refused(self, tmp_path, capsys):
        """Multipliers that pass every check with a jump table that is not
        h * lambda: the file is refused and no report is written."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["jumps"]["sizes"][3][1] *= 2.0
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file's jump table does not match its multipliers\n")
        assert not report.exists()

    def test_report_names_worst_steps(self, tmp_path, capsys):
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["lambdas"][4][1] += 1e-3    # multiplier of step 5
        adj.write_text(json.dumps(doc))
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        worst = json.loads(report.read_text())["worst"]
        nodes = json.loads(tape.read_text())["nodes"]
        assert 3 <= worst["adjoint"]["step"] <= 5
        assert worst["adjoint"]["t"] == nodes[worst["adjoint"]["step"]]
        assert 1 <= worst["nominal"]["step"] <= len(nodes) - 1
        assert f"worst at step {worst['adjoint']['step']}," in capsys.readouterr().out

    def test_wrong_jacobian_fails(self, tmp_path, capsys, patched_problems):
        """With f_y scaled by 0.8 in integrate, adjoint and verify alike,
        every KKT residual passes; the check of f_y against differences of
        f refuses the run with exit 3 and names its worst sampled step."""
        patched_problems(lambda problem, reference: (dataclasses.replace(
            problem, jacobian=lambda t, y: 0.8 * problem.jacobian(t, y)), reference))
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert err == "verification failed: jacobian_defect above threshold\n"
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert doc["nominal_residual"] <= doc["thresholds"]["nominal"]
        assert doc["adjoint_residual"] <= doc["thresholds"]["adjoint"]
        assert doc["jacobian_defect"] > doc["thresholds"]["jacobian"] == JACOBIAN_TOL
        worst = doc["worst"]["jacobian"]
        assert worst["t"] == json.loads(tape.read_text())["nodes"][worst["step"]]
        assert (f"jacobian_defect={doc['jacobian_defect']!r} (threshold {JACOBIAN_TOL!r}) "
                f"worst at step {worst['step']}, t={worst['t']!r}\n") in out

    def test_band_narrower_than_jacobian_fails(self, tmp_path, capsys,
                                               patched_problems):
        """An adjoint run whose problem states the band (0, 0) for a
        tridiagonal f_y solves the wrong step matrices; verify forms the full
        f_y^T lambda products, so the KKT certificate refuses its
        multipliers."""
        cfg = _heat_config(tmp_path, 8)
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--config", str(cfg), "--order", "2",
                     "--h", "0.0625", "--out", str(tape)]) == 0
        patched_problems(lambda problem, reference: (
            dataclasses.replace(problem, band=(0, 0)), reference))
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        patched_problems(None)
        capsys.readouterr()
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert "adjoint_residual" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["tape", "adjoint"])
    def test_nan_input_is_verification_failure(self, tmp_path, capsys, target):
        tape, adj = self._chain(tmp_path)
        capsys.readouterr()
        if target == "tape":
            doc = json.loads(tape.read_text())
            doc["states"][10][0] = float("nan")
            tape.write_text(json.dumps(doc))
            _rebind(adj, tape)
        else:
            doc = json.loads(adj.read_text())
            doc["lambdas"][10][0] = float("nan")
            adj.write_text(json.dumps(doc))
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("verification failed:")
        assert err.count("\n") == 1

    def test_perturbed_alpha_violates_invariants(self, tmp_path, capsys,
                                                 monkeypatch):
        """Row 20 of the grid's derived alpha table, as verify derives it
        from the loaded nodes, is off by a relative 1e-10 in alpha_2."""
        tape, adj = self._chain(tmp_path)
        t_21 = json.loads(tape.read_text())["nodes"][21]
        exact = bdf._coefficients

        def perturbed(t, order):
            alphas = exact(t, order)
            # the table is derived per order: t[-1] holds the newest node of
            # every step of this order, alphas[i] their alpha_i
            if order >= 2:
                alphas[2] *= np.where(np.asarray(t[-1]) == t_21, 1.0 + 1e-10, 1.0)
            return alphas

        monkeypatch.setattr(bdf, "_coefficients", perturbed)
        defects = coefficient_defects(*bdf.stencil_table(load_tape(tape)))
        assert np.flatnonzero(defects > COEFFICIENT_TOL).tolist() == [20]
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 3
        assert "coefficient invariants: VIOLATED" in capsys.readouterr().out

    def test_inconsistent_initial_state_fails_report(self, tmp_path, capsys):
        """A tape integrated from y_0 + 1e-6 is consistent with itself, so
        adjoint accepts it; verify refuses it, and kkt.json says so too."""
        shifted = dataclasses.replace(
            CATENARY, initial_state=CATENARY.initial_state + 1e-6)
        tape = tmp_path / "tape.json"
        save_tape(integrate_nonadaptive(shifted, 2, 0.125), tape)
        adj = tmp_path / "adjoint.json"
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        capsys.readouterr()
        report = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "verification failed: initial_residual above threshold\n")
        doc = json.loads(report.read_text())
        assert doc["passed"] is False
        assert doc["initial_residual"] > doc["thresholds"]["initial"]

    @pytest.mark.parametrize("value", [[], "catenary", {"name": "catenary"}])
    def test_malformed_tape_digest_refused(self, tmp_path, capsys, value):
        """A tape_sha256 that is no digest at all binds the file to no
        tape."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["tape_sha256"] = value
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not belong to this tape\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["newton_iteration", "state"])
    def test_adjoint_file_of_other_tape_refused(self, tmp_path, capsys, edit):
        """Tape B is tape A written again by save_tape with one Newton
        iteration count raised by one, or one state moved by 1e-13: the same
        problem and grid, and a pair that passes every residual check.  The
        adjoint file of A binds the bytes of A, so verify refuses it for B
        and writes no report."""
        tape, adj = self._chain(tmp_path)
        a = load_tape(tape)
        if edit == "state":
            states = a.states.copy()
            states[5, 0] += 1e-13
            b = dataclasses.replace(a, states=states)
        else:
            iterations = a.newton_iterations.copy()
            iterations[3] += 1
            b = dataclasses.replace(a, newton_iterations=iterations)
        other = tmp_path / "other.json"
        save_tape(b, other)
        assert other.read_bytes() != tape.read_bytes()
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(other), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not belong to this tape\n")
        assert not out.exists()
        # bound to B, the same multipliers pass: the binding alone refused them
        _rebind(adj, other)
        assert main(["verify", "--tape", str(other), "--adjoint-file", str(adj),
                     "--out", str(out)]) == 0

    def test_version_1_adjoint_file_refused(self, tmp_path, capsys):
        """An adjoint file of the earlier layout (version 1: a copy of the
        tape's problem and nodes instead of its digest) is one line of usage
        error; the fix is to run adjoint on its tape again."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        tape_doc = json.loads(tape.read_text())
        del doc["tape_sha256"]
        doc.update(version=1, problem=tape_doc["problem"], nodes=tape_doc["nodes"])
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load adjoint results:")
        assert "unsupported version 1 (supported: 2)" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("gradient", [[1.0], [1.0, 2.0, 3.0]])
    def test_gradient_of_wrong_length_refused(self, tmp_path, capsys, gradient):
        """A gradient of 1 entry would broadcast and one of 3 would not;
        both are refused as not matching the tape."""
        tape, adj = self._chain(tmp_path)
        doc = json.loads(adj.read_text())
        doc["gradient"] = gradient
        adj.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "kkt.json"
        rc = main(["verify", "--tape", str(tape), "--adjoint-file", str(adj),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: adjoint file does not match the tape dimensions\n")
        assert not out.exists()

    def test_mismatched_pair_is_usage_error(self, tmp_path):
        tape, _ = self._chain(tmp_path)
        other_tape = tmp_path / "other.json"
        main(["integrate", "--order", "2", "--h", "0.125",
              "--out", str(other_tape)])
        other_adj = tmp_path / "other_adj.json"
        main(["adjoint", "--tape", str(other_tape), "--out", str(other_adj)])
        rc = main(["verify", "--tape", str(tape),
                   "--adjoint-file", str(other_adj),
                   "--out", str(tmp_path / "kkt.json")])
        assert rc == 1

    def test_requires_both_files(self, tmp_path):
        tape, _ = self._chain(tmp_path)
        assert main(["verify", "--tape", str(tape)]) == 1


class TestProblemShapes:
    """Problem parameters whose shapes disagree are refused with exit 1 by
    every command that builds the problem."""

    @pytest.mark.parametrize("stage", ["integrate", "adjoint", "converge"])
    def test_criterion_of_wrong_length_refused(self, tmp_path, capsys, stage):
        system = ("a = -1 0; 0 -2", "y0 = 1 1")
        out = tmp_path / "out"
        if stage == "adjoint":
            tape = tmp_path / "tape.json"
            cfg = _write_config(tmp_path, "problem = linear", *system, "c = 1 0")
            assert main(["integrate", "--config", str(cfg), "--order", "1",
                         "--h", "0.25", "--out", str(tape)]) == 0
            doc = json.loads(tape.read_text())
            doc["problem"]["params"]["c"] = [1.0, 0.0, 0.0]
            tape.write_text(json.dumps(doc))
            args = ["adjoint", "--tape", str(tape)]
        else:
            cfg = _write_config(tmp_path, "problem = linear", *system,
                                "c = 1 0 0")
            h = "0.25" if stage == "integrate" else "0.25,0.125"
            args = [stage, "--config", str(cfg), "--order", "1", "--h", h]
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert "criterion vector has shape (3,), expected (2,)" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["adjoint", "verify"])
    def test_problem_of_other_dimension_refused(self, tmp_path, capsys, stage):
        """Tape and adjoint file whose problem params rebuild a 3-dimensional
        problem over 2-wide states."""
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--problem", "linear", "--order", "2",
                     "--h", "0.125", "--out", str(tape)]) == 0
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        params = {"a": (-np.eye(3)).tolist(), "y0": [1.0, 1.0, 1.0],
                  "t0": 0.0, "tf": 1.0, "c": [1.0, 0.0, 0.0]}
        doc = json.loads(tape.read_text())
        doc["problem"]["params"] = params
        tape.write_text(json.dumps(doc))
        _rebind(adj, tape)
        out = tmp_path / "out.json"
        args = (["adjoint", "--tape", str(tape)] if stage == "adjoint" else
                ["verify", "--tape", str(tape), "--adjoint-file", str(adj)])
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: tape dimension does not match the problem\n")
        assert not out.exists()


class TestOutputPath:
    """An --out that cannot be opened for writing, in a missing directory or
    naming a directory, is one line of usage error in every command that
    writes, and nothing is written."""

    def _args(self, tmp_path, stage):
        if stage in ("integrate", "converge"):
            return [stage, "--order", "2",
                    "--h", "0.25" if stage == "integrate" else "0.25,0.125"]
        tape, adj = tmp_path / "tape.json", tmp_path / "adjoint.json"
        assert main(["integrate", "--order", "2", "--h", "0.25",
                     "--out", str(tape)]) == 0
        if stage == "adjoint":
            return ["adjoint", "--tape", str(tape)]
        assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        return ["verify", "--tape", str(tape), "--adjoint-file", str(adj)]

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    @pytest.mark.parametrize("stage", ["integrate", "adjoint", "verify",
                                       "converge"])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, stage, kind):
        args = self._args(tmp_path, stage)
        if kind == "missing-dir":
            out, reason = tmp_path / "nodir" / "out.json", "No such file or directory"
        else:
            out, reason = tmp_path / "outdir", "Is a directory"
            out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_adjoint_out_named_like_its_csv_refused(self, tmp_path, capsys,
                                                    monkeypatch):
        """--out a.csv would have the CSV overwrite the JSON: refused before
        the sweep runs, and nothing is written."""
        args = self._args(tmp_path, "adjoint")
        out = tmp_path / "a.csv"
        monkeypatch.setattr(cli_module, "adjoint_sweep", None)   # never called
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out} would be overwritten by "
                                f"the CSV {out}\n")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_adjoint_unwritable_csv_leaves_no_json(self, tmp_path, capsys):
        """adjoint writes both of its outputs or neither: a directory in the
        CSV's place fails it after the JSON was written, which is removed."""
        args = self._args(tmp_path, "adjoint")
        out, csv_path = tmp_path / "q.json", tmp_path / "q.csv"
        csv_path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {csv_path}: Is a directory\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


@functools.lru_cache(maxsize=None)
def _fuzz_documents():
    """A small valid tape and adjoint document (catenary, k=2, h=1/4)."""
    with tempfile.TemporaryDirectory() as tmp:
        tape, adj = Path(tmp) / "tape.json", Path(tmp) / "adjoint.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["integrate", "--order", "2", "--h", "0.25",
                         "--out", str(tape)]) == 0
            assert main(["adjoint", "--tape", str(tape), "--out", str(adj)]) == 0
        docs = {"tape": json.loads(tape.read_text()),
                "adjoint": json.loads(adj.read_text())}
    # bound to the tape as the test writes it, so that a mutated adjoint
    # document reaches verify's checks
    docs["adjoint"]["tape_sha256"] = hashlib.sha256(
        json.dumps(docs["tape"]).encode()).hexdigest()
    return docs


def _json_paths(value, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Python's json writes and reads NaN and Infinity, so they are included.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_documents_get_documented_exit_codes(data):
    """One value of the tape or adjoint document, at a random path, replaced
    by a random JSON value: adjoint and verify return 0/1/2/3 and raise
    nothing."""
    docs = dict(_fuzz_documents())
    which = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_json_paths(docs[which]))))
    docs[which] = _replaced(docs[which], path, data.draw(_JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp) / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            files[name].write_text(json.dumps(doc))
        for argv in (["adjoint", "--tape", str(files["tape"]),
                      "--out", str(Path(tmp) / "out.json")],
                     ["verify", "--tape", str(files["tape"]), "--adjoint-file",
                      str(files["adjoint"]), "--out", str(Path(tmp) / "kkt.json")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 1, 2, 3)


class TestConvergeCommand:
    def test_h_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--order", "2", "--h", "0.25,0.125,0.0625",
                   "--probe", "1.25", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "error_tf", "order_tf",
                           "error_interior", "order_interior"]
        assert len(rows) == 4
        hs = [float(r[0]) for r in rows[1:]]
        assert hs == sorted(hs, reverse=True)
        stdout = capsys.readouterr().out
        assert "fitted order (tf)" in stdout

    def test_adaptive_rtol_sweep(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["converge", "--mode", "adaptive", "--rtol", "1e-4,1e-6",
                   "--probe", "1.25", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "rtol"
        errs = [float(r[1]) for r in rows[1:]]
        assert errs[1] < errs[0]

    def test_sweep_point_beyond_tape_limit_fails_alone(self, tmp_path, capsys):
        """A sweep point of 2e9 steps fails with one line, before any
        allocation; the other points are computed and written, and the fit
        names the row it excludes in one line, not a Python warning."""
        out = tmp_path / "conv.csv"
        assert main(["converge", "--order", "2", "--h", "0.25,0.125,1e-9",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"sweep point h=1e-09 failed: (t_f - t_s) / h = 2e+09 "
            f"main steps of dimension 2 exceed the tape limit of "
            f"{bdf.MAX_STATE_VALUES} state values; choose a larger h",
            "excluding 1 zero/failed rows from the order fit of 'tf'"]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] == "nan" for row in rows[1:]] == [False, False, True]

    def test_too_few_points_is_usage_error(self, tmp_path):
        rc = main(["converge", "--order", "2", "--h", "0.25",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 1

    @pytest.mark.parametrize("args", [
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "-1"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "nan"],
        ["--order", "2", "--h", "0.25,nan"],
        ["--mode", "adaptive", "--rtol", "1e-4,nan"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-6", "--atol", "inf"],
        ["--mode", "adaptive", "--rtol", "inf,1e-6"],
        ["--order", "2", "--h", "0.25,0.125", "--probe", "nan"],
    ], ids=["atol-negative", "atol-nan", "h-nan", "rtol-nan", "atol-inf",
            "rtol-inf", "probe-nan"])
    def test_bad_sweep_input_is_usage_error(self, tmp_path, args):
        """Refused before any run: not a solver failure, not a NaN row."""
        out = tmp_path / "c.csv"
        rc = main(["converge", *args, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_heat_config_weak_adjoint_second_order(self, tmp_path, capsys):
        """The linear reference's weak adjoint is cheap enough at d = 100 for
        a k = 2 sweep on a heat matrix, whose error at t_f falls at order 2."""
        cfg = _heat_config(tmp_path, 100)
        rc = main(["converge", "--config", str(cfg), "--order", "2",
                   "--h", "0.03125,0.015625,0.0078125,0.00390625",
                   "--probe", "0.25", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        fitted = re.search(r"fitted order \(tf\): (\S+)",
                           capsys.readouterr().out)
        assert 1.9 <= float(fitted.group(1)) <= 2.1

    @pytest.mark.parametrize("hs", ["0.25,0.125", "0.25,0.125,0.0625,0.03125"])
    def test_reference_evaluated_once_per_time(self, tmp_path, hs,
                                               patched_problems):
        """len(probes) + 1 weak-adjoint evaluations, whatever the sweep
        length: the reference does not change between sweep points."""
        times = []

        def counted(problem, reference):
            def weak_adjoint(t):
                times.append(t)
                return reference.weak_adjoint(t)
            return problem, dataclasses.replace(reference, weak_adjoint=weak_adjoint)

        patched_problems(counted)
        rc = main(["converge", "--order", "2", "--h", hs, "--probe", "0.5",
                   "--probe", "1.25", "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert sorted(times) == [0.5, 1.25, 2.0]

    def test_probe_outside_interval(self, tmp_path):
        rc = main(["converge", "--order", "2", "--h", "0.25,0.125",
                   "--probe", "3.5", "--out", str(tmp_path / "c.csv")])
        assert rc == 1


class TestConvergeWorkers:
    """converge runs its sweep points in forked workers, one per CPU of the
    process's affinity mask (faked here); its output does not depend on how
    many there are, and no worker outlives the command."""

    @pytest.fixture(autouse=True)
    def _bounded(self):
        """A run that hangs fails its test after a minute."""
        def expire(signum, frame):
            raise TimeoutError("converge did not end within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def _converge(tmp_path, capture, monkeypatch, cpus, *args):
        """(exit code, CSV bytes or None, stdout, stderr, forks) of one run
        with `cpus` CPUs in the affinity mask, read through the capture
        fixture (capfd sees what workers write to fd 2 themselves)."""
        monkeypatch.setattr(cli_module.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        forks = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(cli_module.os, "fork", counted)
        out = tmp_path / f"conv-{cpus}.csv"
        capture.readouterr()
        rc = main(["converge", *args, "--out", str(out)])
        captured = capture.readouterr()
        with pytest.raises(ChildProcessError):   # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        return (rc, out.read_bytes() if out.exists() else None,
                captured.out.replace(str(out), "<out>"), captured.err, len(forks))

    @pytest.mark.parametrize("args", [
        ["--order", "2", "--h", "0.25,0.125,0.0625,0.03125", "--probe", "1.25"],
        ["--mode", "adaptive", "--rtol", "1e-4,1e-5,1e-6,1e-7", "--probe", "1.25"],
    ], ids=["h", "rtol"])
    def test_output_independent_of_workers(self, tmp_path, capsys, monkeypatch, args):
        serial = self._converge(tmp_path, capsys, monkeypatch, 1, *args)
        assert serial[0] == 0 and serial[4] == 0
        for cpus in (2, 3):
            forked = self._converge(tmp_path, capsys, monkeypatch, cpus, *args)
            assert forked[:4] == serial[:4]
            assert forked[4] == cpus - 1

    def test_failed_points_reported_in_sweep_order(self, tmp_path, capsys,
                                                   monkeypatch):
        """The two failing points are the costliest, so the parent and a
        worker each compute one; their lines still come in sweep order."""
        args = ["--order", "2", "--h", "0.25,2e-9,0.125,1e-9,0.0625"]
        serial = self._converge(tmp_path, capsys, monkeypatch, 1, *args)
        forked = self._converge(tmp_path, capsys, monkeypatch, 3, *args)
        assert forked[:4] == serial[:4]
        assert serial[0] == 0
        failed = [line.split(" failed")[0] for line in serial[3].splitlines()
                  if line.startswith("sweep point")]
        assert failed == ["sweep point h=2e-09", "sweep point h=1e-09"]

    def test_every_point_failed_exits_2(self, tmp_path, capsys, monkeypatch):
        rc, csv_bytes, _, err, forks = self._converge(
            tmp_path, capsys, monkeypatch, 2, "--order", "2", "--h", "2e-9,1e-9")
        assert (rc, csv_bytes, forks) == (2, None, 1)
        lines = err.splitlines()
        assert [line.split(" failed")[0] for line in lines[:2]] == [
            "sweep point h=2e-09", "sweep point h=1e-09"]
        assert lines[2:] == ["solver failure: every sweep point failed"]

    def test_dead_worker_fails_the_run(self, tmp_path, capsys, monkeypatch):
        """A worker that dies without sending its results ends the command
        with one line and exit 2, and writes no table."""
        parent, integrate = os.getpid(), cli_module.integrate_nonadaptive

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return integrate(*args)

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", dying)
        rc, csv_bytes, out, err, forks = self._converge(
            tmp_path, capsys, monkeypatch, 2, "--order", "2", "--h", "0.25,0.125")
        assert (rc, csv_bytes, out, forks) == (2, None, "", 1)
        assert err == "solver failure: a sweep worker ended with exit status 1\n"

    def test_dead_worker_shows_its_traceback(self, tmp_path, capfd, monkeypatch):
        """A worker that dies of an unexpected exception writes its traceback
        to stderr before the command's one line."""
        parent, integrate = os.getpid(), cli_module.integrate_nonadaptive

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("boom")
            return integrate(*args)

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", failing)
        rc, csv_bytes, out, err, forks = self._converge(
            tmp_path, capfd, monkeypatch, 2, "--order", "2", "--h", "0.25,0.125")
        assert (rc, csv_bytes, out, forks) == (2, None, "", 1)
        lines = err.splitlines()
        assert lines[0] == "Traceback (most recent call last):"
        assert lines[-2:] == ["RuntimeError: boom",
                              "solver failure: a sweep worker ended with exit status 1"]

    def test_failing_parent_stops_its_workers(self, tmp_path, capsys, monkeypatch):
        """An exception in the parent's own share kills the workers, which
        would otherwise run on, and reaps them before it propagates."""
        parent = os.getpid()

        def stuck(*args):
            if os.getpid() != parent:
                time.sleep(60)
                os._exit(0)
            raise RuntimeError("parent failed")

        monkeypatch.setattr(cli_module, "integrate_nonadaptive", stuck)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            self._converge(tmp_path, capsys, monkeypatch, 3, "--order", "2",
                           "--h", "0.25,0.125,0.0625")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert time.monotonic() - start < 30
