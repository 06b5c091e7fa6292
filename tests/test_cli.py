import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import periform
from helpers import det_target, gradients, sized_document
from periform.catalog import CATALOG_NAMES, MAX_DIMENSION, MAX_INDEX
from periform.cli import main
from periform.formats import dumps, loads, to_document
from periform.improve import improve
from periform.linalg import PQF
from periform.periodic import PeriodicForm, density


def loads_fr(s):
    from fractions import Fraction

    return Fraction(s)


def write_form(tmp_path, rows, tcols=(), name="form.json"):
    x = PeriodicForm.make(PQF.from_rows(rows), tcols)
    path = tmp_path / name
    path.write_text(dumps(x))
    return str(path)


class TestMin:
    def test_text_output(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]], [[loads_fr("1/2")]])
        assert main(["min", path]) == 0
        out = capsys.readouterr().out
        assert "lambda = 1/4, 2 classes" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]], [[loads_fr("1/2")]])
        assert main(["--json", "min", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == "1/4"
        assert doc["classes"] == 2

    def test_degenerate_flagged_not_fatal(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 1]], [[0, 0]])
        assert main(["min", path]) == 0
        assert "lambda = 0" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["min", str(bad)]) == 2

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        path = write_form(tmp_path, [[1]], [[loads_fr("1/2")]])
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(path).read_text()))
        assert main(["min", "-"]) == 0
        assert "lambda = 1/4, 2 classes" in capsys.readouterr().out

    def test_unreadable_path_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["min", str(missing)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")

    @pytest.mark.parametrize("entry", [
        '"1e3"', '"0.25"', '"1_000"', "true", '"1e200000"', '"' + "7" * 5000 + '"',
        "7" * 5000,
    ])
    def test_rational_outside_grammar_exit_2(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "pform/1", "d": 1, "m": 2, "Q": [["1"]], "t": [[%s]]}' % entry)
        assert main(["min", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("d, m", [(MAX_DIMENSION + 1, 1), (1, MAX_INDEX + 1)],
                             ids=["d-above", "m-above"])
    def test_size_above_limit_exit_2(self, tmp_path, capsys, d, m):
        path = tmp_path / "sized.json"
        path.write_text(json.dumps(sized_document(d, m)))
        assert main(["min", str(path)]) == 2
        assert "must lie in 1.." in capsys.readouterr().err


class TestDensity:
    def test_z3(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert main(["density", path]) == 0
        assert "0.1250000000" in capsys.readouterr().out

    def test_hexagonal_ten_digits(self, tmp_path, capsys):
        path = write_form(tmp_path, [[2, 1], [1, 2]])
        assert main(["density", path]) == 0
        assert "0.2886751346" in capsys.readouterr().out

    def test_degenerate_exit_3(self, tmp_path):
        path = write_form(tmp_path, [[1, 0], [0, 1]], [[0, 0]])
        assert main(["density", path]) == 3


class TestCertify:
    def test_line_isolated(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]], [[loads_fr("1/2")]])
        assert main(["certify", path]) == 0
        assert "IsolatedExtreme" in capsys.readouterr().out

    def test_strict_exit_not_extreme(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 2]])
        assert main(["--strict-exit", "certify", path]) == 1
        assert "NotExtreme" in capsys.readouterr().out

    def test_strict_exit_inconclusive(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["--strict-exit", "certify", path]) == 4

    def test_json_has_witness(self, tmp_path, capsys):
        path = write_form(tmp_path, [[2, 1], [1, 2]])
        assert main(["--json", "certify", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "IsolatedExtreme"
        assert doc["eutaxy"]["tag"] == "interior"
        assert all(float_ok(w) for w in doc["eutaxy"]["witness"])

    def test_degenerate_exit_3(self, tmp_path):
        path = write_form(tmp_path, [[1, 0], [0, 1]], [[0, 0]])
        assert main(["certify", path]) == 3

    @pytest.mark.parametrize("doc", [
        '"d": 2, "m": 1, "Q": [["2", "1"], "12"]',
        '"d": 2, "m": 2, "Q": [["1", "0"], ["0", "1"]], "t": ["01"]',
        '"d": 1, "m": 1, "Q": 5',
        '"d": 1, "m": 2, "Q": [["1"]], "t": null',
        '"d": 1, "m": 2, "Q": [["1"]], "t": [5]',
    ], ids=["Q-string-row", "t-string-row", "Q-number", "t-null", "t-number-row"])
    def test_non_array_rows_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "pform/1", %s}' % doc)
        assert main(["certify", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


def float_ok(s):
    from fractions import Fraction

    return Fraction(s) > 0


class TestImproveCommand:
    def test_improve_diag(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 2]])
        assert main(["--json", "improve", path, "--steps", "500"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["final_verdict"] == "IsolatedExtreme"
        assert abs(float(doc["trajectory"][-1]["delta_over_ball"]) - 0.2886751346) < 1e-3
        values = [
            float(step["delta_over_ball"]) for step in doc["trajectory"]
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_improve_extreme_takes_no_steps(self, tmp_path, capsys):
        path = write_form(tmp_path, [[2, 1], [1, 2]])
        assert main(["improve", path]) == 0
        assert "steps taken: 0" in capsys.readouterr().out

    def test_stalled_text_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("periform.improve"), "improvement_step",
                            lambda x, n, before: None)
        path = write_form(tmp_path, [[1, 0], [0, 2]])
        assert main(["improve", path, "--steps", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["steps taken: 0", "final verdict: NotExtreme",
                             "stalled: no strictly improving step found"]
        assert lines[3].startswith("final delta/volB = ")

    def test_final_density_reads_the_certificate(self, tmp_path, capsys, monkeypatch):
        """Under --json the command adds one step search to those improve
        makes when the final verdict is NotExtreme, for the epsilon it
        prints, and none otherwise; the text report prints no epsilon and
        adds none.  Both report the final form's density."""
        rows = [[1, 0], [0, 2]]
        path = write_form(tmp_path, rows)
        calls = []
        real = importlib.import_module("periform.certify").improvement_step

        def counting(*args):
            calls.append(args)
            return real(*args)

        for name in ("certify", "improve", "cli"):
            mod = importlib.import_module(f"periform.{name}")
            if getattr(mod, "improvement_step", None) is real:
                monkeypatch.setattr(mod, "improvement_step", counting)
        for steps, verdict in ((3, "NotExtreme"), (500, "IsolatedExtreme")):
            calls.clear()
            res = improve(PeriodicForm.make(PQF.from_rows(rows), []), steps=steps)
            assert res.certificate.verdict == verdict
            in_improve = len(calls)
            expected = f"final delta/volB = {density(res.final).delta_over_ball:.10f}"
            calls.clear()
            assert main(["improve", path, "--steps", str(steps)]) == 0
            assert len(calls) == in_improve
            assert capsys.readouterr().out.splitlines()[-1] == expected
            calls.clear()
            assert main(["--json", "improve", path, "--steps", str(steps)]) == 0
            assert len(calls) == in_improve + (verdict == "NotExtreme")
            doc = json.loads(capsys.readouterr().out)
            assert doc["final_verdict"] == verdict
            assert ("improving_epsilon" in doc["certificate"]) == (verdict == "NotExtreme")
            assert doc["final_form"] == to_document(res.final)


class TestCatalog:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "E8" in out and "Leech" in out

    def test_get_a2(self, capsys):
        assert main(["catalog", "get", "A", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["Q"] == [["2", "1"], ["1", "2"]]

    def test_get_writes_file(self, tmp_path):
        out = tmp_path / "e8.json"
        assert main(["catalog", "get", "E8", "-o", str(out)]) == 0
        x = loads(out.read_text())
        assert x.d == 8

    def test_list_json(self, capsys):
        assert main(["--json", "catalog", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"command": "catalog", "names": list(CATALOG_NAMES)}

    def test_unknown_name_exit_2(self, capsys):
        assert main(["catalog", "get", "Nope"]) == 2
        assert capsys.readouterr().err == "error: unknown catalog name: 'Nope'\n"

    @pytest.mark.parametrize("params, message", [
        (["E6", "1"], "E6 takes no parameters"),
        (["A"], "A takes exactly one parameter (the dimension)"),
        (["Dplus", "3", "x"], "Dplus takes exactly one parameter (the dimension)"),
        (["D", "2"], f"D requires 3 <= dimension <= {MAX_DIMENSION}"),
        (["Dplus", "9", "lattice"],
         f"the Dplus lattice variant needs even 8 <= d <= {MAX_DIMENSION}"),
    ])
    def test_parameter_errors_exit_2(self, capsys, params, message):
        assert main(["catalog", "get", *params]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dim", ["1_0", "+3", " 3", "\u0663", "3/1", "3.0", ""],
                             ids=["underscore", "plus", "space", "arabic-indic", "ratio",
                                  "decimal", "empty"])
    @pytest.mark.parametrize("name", ["Zd", "A", "D", "Dplus"])
    def test_dimension_outside_grammar_exit_2(self, name, dim, capsys):
        """Dimensions follow the integer grammar -?[0-9]+ and nothing wider."""
        assert main(["catalog", "get", name, dim]) == 2
        assert "bad integer" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["1_0", "+8", " 8", "\u0668"])
    def test_dplus_lattice_dimension_outside_grammar_exit_2(self, dim, capsys):
        assert main(["catalog", "get", "Dplus", dim, "lattice"]) == 2
        assert "bad integer" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["65", "99999999"])
    @pytest.mark.parametrize("name", ["Zd", "A", "D", "Dplus"])
    def test_dimension_above_limit_exit_2(self, name, dim, capsys):
        """A short argument cannot ask for a huge form: rejected before building."""
        assert main(["catalog", "get", name, dim]) == 2
        assert f"dimension <= {MAX_DIMENSION}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["66", "99999998"])
    def test_dplus_lattice_dimension_above_limit_exit_2(self, dim, capsys):
        assert main(["catalog", "get", "Dplus", dim, "lattice"]) == 2
        assert f"d <= {MAX_DIMENSION}" in capsys.readouterr().err

    def test_dimension_at_limit(self, capsys):
        assert main(["catalog", "get", "Zd", str(MAX_DIMENSION)]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == MAX_DIMENSION

    def test_dplus_lattice(self, capsys):
        assert main(["catalog", "get", "Dplus", "8", "lattice"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 8 and doc["meta"]["params"] == ["8", "lattice"]


class TestCatalogPipelines:
    def test_e8_min_line(self, tmp_path, capsys):
        out = tmp_path / "e8.json"
        assert main(["catalog", "get", "E8", "-o", str(out)]) == 0
        assert main(["min", str(out)]) == 0
        assert "lambda = 2, 120 classes" in capsys.readouterr().out

    def test_k12_density_line(self, tmp_path, capsys):
        out = tmp_path / "k12.json"
        assert main(["catalog", "get", "K12", "-o", str(out)]) == 0
        assert main(["density", str(out)]) == 0
        assert "0.0370370370" in capsys.readouterr().out


class TestCertifyWitness:
    """The interior witness that ``--json certify`` prints reproduces the
    target from the generators, re-verified here on tangent vectors."""

    @pytest.mark.parametrize("s", ["1", "7/3", "1/1152921504606846976"],
                             ids=["1", "7/3", "2^-60"])
    def test_lambda9_witness(self, tmp_path, capsys, s):
        path = tmp_path / "lambda9.json"
        assert main(["catalog", "get", "Lambda9", "-o", str(path)]) == 0
        x = loads(path.read_text())
        path.write_text(dumps(PeriodicForm(x.q.scale(loads_fr(s)), x.tcols)))
        assert main(["--json", "certify", str(path)]) == 0
        eutaxy = json.loads(capsys.readouterr().out)["eutaxy"]
        assert eutaxy["tag"] == "interior"
        x = loads(path.read_text())
        gens, alpha = gradients(x), [loads_fr(a) for a in eutaxy["witness"]]
        assert len(alpha) == len(gens) and min(alpha) > 0
        total = gens[0].scale(alpha[0])
        for g, a in zip(gens[1:], alpha[1:]):
            total = total.add(g.scale(a))
        assert total == det_target(x)


class TestRepresent:
    def test_doubling_line(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]])
        assert main(["represent", path, "--H", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d"] == 1 and doc["m"] == 2
        assert doc["Q"] == [["4"]]
        assert doc["t"] == [["1/2"]]

    def test_roundtrip_into_min(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]])
        out = tmp_path / "rep.json"
        assert main(["represent", path, "--H", "2", "-o", str(out)]) == 0
        assert main(["min", str(out)]) == 0
        assert "lambda = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("h", ["1 0", "1 0; 0 1; 0 0", "1 0 0; 0 1"])
    def test_malformed_h_exit_2(self, tmp_path, capsys, h):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", h]) == 2
        assert capsys.readouterr().err == "error: H must be 2 x 2\n"

    def test_periodic_input_exit_2(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1]], [[loads_fr("1/2")]])
        assert main(["represent", path, "--H", "2"]) == 2
        assert capsys.readouterr().err == "error: represent expects a lattice input (m = 1)\n"

    def test_singular_h_exit_2(self, tmp_path):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", "1 1; 1 1"]) == 2

    @pytest.mark.parametrize(
        "h",
        ["1 x; 0 2", "1.5 0; 0 2", "1_000 0; 0 2", "7" * 5000 + " 0; 0 2"],
        ids=["letter", "1.5", "1_000", "5000-digits"],
    )
    def test_entry_outside_grammar_exit_2(self, tmp_path, capsys, h):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", h]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["1025 0; 0 1", "100000000 0; 0 1", "32 1; 1 33"],
                             ids=["1025", "10^8", "det-1055"])
    def test_index_above_limit_exit_2(self, tmp_path, capsys, h):
        """|det H| - 1 translates: the index is bounded before any is built."""
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", h]) == 2
        assert f"above {MAX_INDEX}" in capsys.readouterr().err

    def test_index_at_limit(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", f"{MAX_INDEX} 0; 0 1"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == MAX_INDEX

    def test_index_at_limit_loads_back(self, tmp_path):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        out = tmp_path / "rep.json"
        assert main(["represent", path, "--H", f"{MAX_INDEX} 0; 0 1", "-o", str(out)]) == 0
        assert loads(out.read_text()).m == MAX_INDEX

    def test_index_at_limit_min(self, tmp_path, capsys):
        """m = MAX_INDEX through `periform min`: m - 1 CVPs for m(m-1)/2 pairs."""
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        out = tmp_path / "rep.json"
        assert main(["represent", path, "--H", f"{MAX_INDEX} 0; 0 1", "-o", str(out)]) == 0
        assert main(["min", str(out)]) == 0
        assert capsys.readouterr().out.startswith("lambda = 1, ")

    def test_2d_sublattice(self, tmp_path, capsys):
        path = write_form(tmp_path, [[1, 0], [0, 1]])
        assert main(["represent", path, "--H", "1 0; 0 2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 2


class TestUnexpectedError:
    """A fault of the program exits 5 with one ``error:`` line, never with a
    code that reads as a verdict or a parse error."""

    # Valid input whose reduced LDL pivots span more than 2^52: the float
    # enumeration refuses it with a ValueError.
    WIDE = [[1, 0], [0, 2 ** 60]]

    @pytest.mark.parametrize("flags", [[], ["--strict-exit"], ["--json", "--strict-exit"]])
    @pytest.mark.parametrize("command", ["certify", "min", "improve"])
    def test_wide_pivots_exit_5(self, tmp_path, capsys, command, flags):
        path = write_form(tmp_path, self.WIDE)
        assert main([*flags, command, path]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: unexpected ValueError: ")
        assert err.count("\n") == 1

    def test_exit_5_without_traceback(self, tmp_path):
        path = write_form(tmp_path, self.WIDE)
        env = dict(os.environ, PYTHONPATH=str(Path(periform.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "periform.cli", "--strict-exit", "certify", path],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 5
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_help_lists_exit_5(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "5 unexpected error" in " ".join(capsys.readouterr().out.split())
