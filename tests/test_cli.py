"""Command-line interface: exit codes, output shapes, file handling."""

import json
import os
import subprocess
import sys
import time

import pytest

import ctlz.cli
from ctlz import ConstraintKripke, model_to_text, structure_to_text, SigmaStructure, LT, brute_force_hom, const_rel
from ctlz.cli import run_command
from ctlz.golden import demo_tree


def run(capsys, *argv):
    rc = run_command(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def cyc_structure(tmp_path):
    s = SigmaStructure(["a", "b", "c"], {LT: [("a", "b"), ("b", "c"), ("c", "a")]})
    p = tmp_path / "cyc.structure"
    p.write_text(structure_to_text(s))
    return str(p)


@pytest.fixture
def chain_structure(tmp_path):
    s = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    p = tmp_path / "ok.structure"
    p.write_text(structure_to_text(s))
    return str(p)


@pytest.fixture
def two_model(tmp_path):
    m = ConstraintKripke(
        nodes=("s0", "s1"),
        edges=(("s0", "s1"), ("s1", "s0"), ("s1", "s1")),
        labels={"s0": frozenset({"p"}), "s1": frozenset()},
        registers={("s0", "x"): 0, ("s1", "x"): 1},
        variables=("x",),
    )
    p = tmp_path / "two.model"
    p.write_text(model_to_text(m))
    return str(p)


# ---------------------------------------------------------------------------
# Formula commands


def test_parse_echoes_canonical_form(capsys):
    rc, out, _ = run(capsys, "parse", "--formula", "E (a U b)")
    assert rc == 0
    assert out.strip() == "E (a U b)"


def test_parse_error_exits_two(capsys):
    rc, out, err = run(capsys, "parse", "--formula", "E (a U")
    assert rc == 2
    assert "error:" in err and "end of input" in err
    assert out == ""


def test_snnf_eliminates_the_negated_order_constraint(capsys):
    rc, out, _ = run(capsys, "snnf", "--formula", "~E G lt(x, X^1 y)")
    assert rc == 0
    assert out.strip() == "A (true U (lt(X^1 y, x) | eq(x, X^1 y)))"


def test_snnf_json(capsys):
    rc, out, _ = run(capsys, "snnf", "--json", "--formula", "~E G lt(x, X^1 y)")
    assert rc == 0
    assert json.loads(out) == {"formula": "A (true U (lt(X^1 y, x) | eq(x, X^1 y)))"}


def test_formula_can_come_from_a_file(capsys, tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("E (a U b)\n")
    rc, out, _ = run(capsys, "parse", "--formula", str(p))
    assert rc == 0
    assert out.strip() == "E (a U b)"


def test_interp_expands_lexicographic_order(capsys):
    rc, out, _ = run(capsys, "interp", "--formula", "E F ltlex(x, y)", "--interp", "lexZ[2]")
    assert rc == 0
    assert out.strip() == "E (true U (lt(x__1, y__1) | eq(x__1, y__1) & lt(x__2, y__2)))"


# ---------------------------------------------------------------------------
# Homomorphism commands


def test_homcheck_cycle_is_a_negative_verdict(capsys, cyc_structure):
    rc, out, _ = run(capsys, "homcheck", "--structure", cyc_structure)
    assert rc == 1
    assert "verdict: no" in out
    assert "reason: cycle" in out
    assert "elements: a b c" in out


def test_homcheck_json_shape(capsys, cyc_structure):
    rc, out, _ = run(capsys, "homcheck", "--json", "--structure", cyc_structure)
    assert rc == 1
    payload = json.loads(out)
    assert payload["verdict"] == "no"
    assert payload["witness"] is None
    assert payload["reason"]["kind"] == "cycle"
    assert payload["reason"]["elements"] == ["a", "b", "c"]


def test_homcheck_positive(capsys, chain_structure):
    rc, out, _ = run(capsys, "homcheck", "--structure", chain_structure)
    assert rc == 0
    assert "verdict: yes" in out
    assert "a = 0" in out and "b = 1" in out


def test_homcheck_long_chain(capsys, tmp_path):
    elements = [f"x{i}" for i in range(1200)]
    s = SigmaStructure(elements, {LT: list(zip(elements, elements[1:]))})
    p = tmp_path / "long.structure"
    p.write_text(structure_to_text(s))
    rc, out, err = run(capsys, "homcheck", "--json", "--structure", str(p))
    assert rc == 0 and err == ""
    assert json.loads(out)["verdict"] == "yes"
    # x0 = 0 < x1 < ... < x9999 = 1 over Q: denominators stay at 9,999
    elements = [f"x{i}" for i in range(10_000)]
    s = SigmaStructure(
        elements,
        {LT: list(zip(elements, elements[1:])), const_rel(0): [("x0",)], const_rel(1): [("x9999",)]},
    )
    p.write_text(structure_to_text(s))
    rc, out, err = run(capsys, "homcheck", "--target", "Q", "--json", "--structure", str(p))
    assert rc == 0 and err == ""
    assert len(out) < 1_000_000
    assert json.loads(out)["witness"]["x1"] == "1/9999"


def test_internal_error_exits_three(capsys, chain_structure, monkeypatch):
    def broken(structure, target):
        raise RuntimeError("boom")

    monkeypatch.setattr(ctlz.cli, "decide_hom", broken)
    rc, out, err = run(capsys, "homcheck", "--structure", chain_structure)
    assert rc == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_brutehom_scans_from_the_bottom(capsys, chain_structure):
    rc, out, _ = run(capsys, "brutehom", "--structure", chain_structure, "--bound", "2")
    assert rc == 0
    assert "a = -2" in out and "b = -1" in out


@pytest.mark.parametrize("target", ["Z", "N", "negZ", "Q"])
def test_brutehom_negative_bound_finds_no_witness(capsys, chain_structure, target):
    # no value lies in [-bound, bound]: a negative answer, never a crash
    rc, out, err = run(capsys, "brutehom", "--structure", chain_structure, "--target", target,
                       "--bound", "-1", "--json")
    assert (rc, err) == (1, "")
    assert json.loads(out)["reason"] == {"kind": "no_witness_within_bound", "bound": -1}
    s = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    assert brute_force_hom(s, -1, target) is None


def test_missing_file_is_an_input_error(capsys, tmp_path):
    rc, out, err = run(capsys, "homcheck", "--structure", str(tmp_path / "nope"))
    assert rc == 2
    assert "error:" in err


def test_malformed_input_files_are_input_errors(capsys, tmp_path):
    model = tmp_path / "bad.model"
    model.write_text("SHAPE graph\nVARS x\nNODES\ns0\nEDGES\ns0 s0 s0\n")
    structure = tmp_path / "bad.structure"
    structure.write_text("ELEMENTS\na b\n")
    assert run(capsys, "mc", "--model", str(model), "--formula", "E X p") == (
        2, "", "error: bad edge line 's0 s0 s0'\n")
    assert run(capsys, "homcheck", "--structure", str(structure)) == (
        2, "", "error: element ids cannot contain spaces: 'a b'\n")
    # a zero denominator is an input error, not a ZeroDivisionError
    model.write_text("SHAPE graph\nVARS x\nNODES\ns0\nEDGES\ns0 s0\nREGISTERS\ns0 x 1/0\n")
    structure.write_text("ELEMENTS\na\nREL eqc[1/0]\na\n")
    assert run(capsys, "mc", "--model", str(model), "--formula", "E X p") == (
        2, "", "error: bad register value '1/0'\n")
    assert run(capsys, "homcheck", "--structure", str(structure), "--target", "Q") == (
        2, "", "error: bad relation name 'eqc[1/0]'\n")


def test_mc_refuses_a_constraint_variable_without_a_register(capsys, tmp_path):
    model = tmp_path / "one.model"
    model.write_text("SHAPE graph\nVARS x\nNODES\ns0\nEDGES\ns0 s0\nREGISTERS\ns0 x 0\n")
    assert run(capsys, "mc", "--model", str(model), "--formula", "E X lt(x, X^1 y)") == (
        2, "", "error: constraint variable 'y' has no register\n")


@pytest.mark.parametrize("registers, argv, text", [
    ("s0 x 1", ["--domain", "allenZ", "--formula", "E X eq(x, X^1 x)"],
     "register value 1 of variable 'x' at node 's0' is not in domain allenZ"),
    ("s0 x (1,3)\ns0 y 2", ["--formula", "E X lt(x, y)"],
     "register value (1, 3) of variable 'x' at node 's0' is not in domain Z"),
    ("s0 x 1/2", ["--formula", "E X mod[1,2](x)"],
     "register value Fraction(1, 2) of variable 'x' at node 's0' is not in domain Z"),
    ("s0 x 1/2", ["--domain", "N", "--formula", "E X lt(x, X^1 x)"],
     "register value Fraction(1, 2) of variable 'x' at node 's0' is not in domain N"),
])
def test_mc_refuses_a_register_value_outside_the_domain(capsys, tmp_path, registers, argv, text):
    model = tmp_path / "one.model"
    variables = "x y" if " y " in registers else "x"
    model.write_text(f"SHAPE graph\nVARS {variables}\nNODES\ns0\nEDGES\ns0 s0\nREGISTERS\n{registers}\n")
    assert run(capsys, "mc", "--model", str(model), *argv) == (2, "", f"error: {text}\n")


def test_abstract_refuses_a_register_value_outside_the_domain(capsys, tmp_path):
    model = tmp_path / "tree.model"
    model.write_text("SHAPE tree 1 1\nVARS x y\nNODES\neps\n1\nREGISTERS\neps x (1,3)\neps y 2\n1 x 0\n1 y 0\n")
    assert run(capsys, "abstract", "--model", str(model), "--formula", "E X lt(x, X^1 y)") == (
        2, "", "error: register value (1, 3) of variable 'x' at node 'eps' is not in domain Z\n")


@pytest.mark.parametrize("command", ["abstract", "extract"])
@pytest.mark.parametrize("levels", [2, 4])
def test_a_relation_the_domain_lacks_is_refused_at_any_tree_depth(capsys, tmp_path, command, levels):
    # the constraint reads three levels down: the two-level tree has no
    # window for it, and is refused all the same
    nodes = ["eps", "1", "11", "111"][:levels]
    model = tmp_path / "chain.model"
    registers = "".join(f"{n} x {i}\n" for i, n in enumerate(nodes))
    model.write_text(f"SHAPE tree 1 {levels - 1}\nVARS x\nNODES\n" + "\n".join(nodes) + f"\nREGISTERS\n{registers}")
    argv = [command, "--model", str(model), "--formula", "E X mod[1,2](X^3 x)", "--domain", "Q"]
    assert run(capsys, *argv) == (2, "", "error: Q does not interpret mod[1,2]\n")


@pytest.mark.parametrize("command", ["abstract", "extract"])
def test_a_relation_the_domain_lacks_is_refused_before_the_model_checks(capsys, tmp_path, command):
    # the tree has no register for x, which `abstract --model` refuses too;
    # both commands name the relation first
    model = tmp_path / "noreg.model"
    model.write_text("SHAPE tree 1 1\nVARS y\nNODES\neps\n1\nREGISTERS\neps y 0\n1 y 1\n")
    argv = [command, "--model", str(model), "--formula", "E X mod[1,2](X^3 x)", "--domain", "Q"]
    assert run(capsys, *argv) == (2, "", "error: Q does not interpret mod[1,2]\n")


# ---------------------------------------------------------------------------
# MSO commands


def test_emit_and_eval_round_trip(capsys, chain_structure, cyc_structure, tmp_path):
    rc, out, _ = run(capsys, "emit-mso", "--structure", chain_structure, "--target", "Z_order_only")
    assert rc == 0
    sentence = tmp_path / "sent.mso"
    sentence.write_text(out)
    rc, out, _ = run(capsys, "eval-mso", "--structure", chain_structure, "--formula", str(sentence))
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = run(capsys, "eval-mso", "--structure", cyc_structure, "--formula", str(sentence))
    assert rc == 1 and out.strip() == "false"


def test_emit_mso_refuses_an_oversize_constant_span(capsys, tmp_path):
    s = SigmaStructure(["a", "b"], {const_rel(0): [("a",)], const_rel(160): [("b",)], LT: [("a", "b")]})
    p = tmp_path / "wide.structure"
    p.write_text(structure_to_text(s))
    start = time.perf_counter()
    rc, out, err = run(capsys, "emit-mso", "--structure", str(p), "--target", "Z")
    assert time.perf_counter() - start < 0.5
    assert (rc, out) == (2, "")
    assert err.startswith("error: constant span 0..160 exceeds 40") and err.count("\n") == 1
    s = SigmaStructure(["a", "b"], {const_rel(-3): [("a",)], const_rel(3): [("b",)]})
    p.write_text(structure_to_text(s))
    rc, out, _ = run(capsys, "emit-mso", "--structure", str(p), "--target", "Z")
    assert rc == 0 and out.startswith("(and")


def test_eval_mso_reports_each_bound_subformula(capsys, cyc_structure):
    # equal B subformulas are one object, and each occurrence reports its
    # largest witness
    b1 = "(B X (exists x (and (in x X) (lt x x))))"
    b2 = "(forall y (B X (exists x (and (in x X) (lt x y)))))"
    formula = f"(and {b1} (and {b2} (and {b1} {b2})))"
    rc, out, _ = run(capsys, "eval-mso", "--json", "--structure", cyc_structure, "--formula", formula)
    assert rc == 0
    entry = '      {\n        "max_size": %s,\n        "var": "X"\n      }'
    entries = [entry % "null", entry % "3"] * 2
    expected = (
        '{\n  "diagnostics": {\n    "bounded_sets": [\n'
        + ",\n".join(entries)
        + '\n    ]\n  },\n  "value": true\n}\n'
    )
    assert out == expected


@pytest.mark.parametrize("body, max_size", [
    ("(true)", 2),
    ("(or (true) (subset X X))", 2),  # the disjunction is decided before it reads X
    ("(subset X X)", 2),
    ("(false)", None),
])
def test_eval_mso_bound_size_when_the_body_ignores_the_set(capsys, tmp_path, body, max_size):
    # every subset satisfies a body that holds without reading X, so the
    # largest one is the whole structure
    p = tmp_path / "ab.structure"
    p.write_text("ELEMENTS\na\nb\n")
    rc, out, _ = run(capsys, "eval-mso", "--json", "--structure", str(p), "--formula", f"(B X {body})")
    assert rc == 0
    assert json.loads(out) == {"diagnostics": {"bounded_sets": [{"max_size": max_size, "var": "X"}]}, "value": True}


def test_eval_mso_handles_deeply_nested_sentences(capsys, cyc_structure):
    depth = 3_000
    formula = "(not " * depth + "(B X (exists x (in x X)))" + ")" * depth
    rc, out, _ = run(capsys, "eval-mso", "--json", "--structure", cyc_structure, "--formula", formula)
    assert rc == 0
    assert json.loads(out) == {"diagnostics": {"bounded_sets": [{"max_size": 3, "var": "X"}]}, "value": True}
    rc, out, _ = run(capsys, "eval-mso", "--structure", cyc_structure, "--formula", "(not " + formula + ")")
    assert rc == 1 and out == "false\n"



@pytest.mark.parametrize("rows", [[], [("a", "b")]])
def test_eval_mso_refuses_an_atom_of_the_wrong_arity_whatever_the_data(capsys, tmp_path, rows):
    # the arity is checked against the structure's relation before any
    # evaluation, so an empty relation and a short-circuit do not hide it
    p = tmp_path / "lt.structure"
    p.write_text(structure_to_text(SigmaStructure(["a", "b"], {LT: rows})))
    for formula in ("(exists x (lt x))", "(exists x (and (false) (lt x)))"):
        rc, out, err = run(capsys, "eval-mso", "--structure", str(p), "--formula", formula)
        assert (rc, out) == (2, "")
        assert "atom arity does not match the relation" in err
    rc, out, _ = run(capsys, "eval-mso", "--structure", str(p), "--formula", "(exists x (other x))")
    assert (rc, out) == (1, "false\n")  # a relation the structure does not list is false


def test_eval_mso_quantifies_over_no_element(capsys, tmp_path):
    p = tmp_path / "empty.structure"
    p.write_text("ELEMENTS\n")
    rc, out, _ = run(capsys, "eval-mso", "--structure", str(p), "--formula", "(exists x (true))")
    assert (rc, out) == (1, "false\n")
    rc, out, _ = run(capsys, "eval-mso", "--structure", str(p), "--formula", "(forall x (false))")
    assert (rc, out) == (0, "true\n")

# ---------------------------------------------------------------------------
# Model checking and search


def test_mc_text_and_json(capsys, two_model):
    rc, out, _ = run(capsys, "mc", "--model", two_model, "--formula", "E G ~p")
    assert rc == 0
    assert "verdict: sat" in out and "nodes: s1" in out
    rc, out, _ = run(capsys, "mc", "--json", "--model", two_model, "--formula", "E G ~p")
    assert json.loads(out) == {"nodes": ["s1"], "verdict": "sat"}
    rc, out, _ = run(capsys, "mc", "--model", two_model, "--formula", "A G p")
    assert rc == 1
    assert "verdict: unsat" in out


def test_sat_writes_the_model(capsys, tmp_path):
    out_path = tmp_path / "found.model"
    rc, out, _ = run(
        capsys, "sat", "--formula", "E F eqc[5](x)", "--range", "7", "--out", str(out_path)
    )
    assert rc == 0
    assert "satisfying node: s0" in out
    assert "s0 x 5" in out_path.read_text()


def test_sat_reports_exhausted_bounds(capsys):
    rc, out, _ = run(capsys, "sat", "--formula", "E (eqc[1](x) & eqc[2](x))")
    assert rc == 1
    assert "NO-MODEL-WITHIN-BOUNDS" in out


def test_sat_runs_are_reproducible(capsys):
    args = ("sat", "--json", "--formula", "E (lt(x, X^1 x) & X mod[0,3](x))")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert json.loads(first[1])["verdict"] == "sat"


# ---------------------------------------------------------------------------
# Abstraction commands


def test_abstract_and_extract_on_a_tree(capsys, tmp_path):
    model_path = tmp_path / "demo.model"
    model_path.write_text(model_to_text(demo_tree()))
    formula = "E (lt(x1, X^1 x2) & X eq(x1, x2))"
    rc, out, _ = run(capsys, "abstract", "--formula", formula, "--model", str(model_path))
    assert rc == 0
    assert "SHAPE tree 2 3" in out
    # golden labels, under the model-safe proposition prefix
    assert "1 ap0 ap1" in out and "112 ap1" in out
    rc, out, _ = run(capsys, "extract", "--formula", formula, "--model", str(model_path))
    assert rc == 0
    assert "ELEMENTS" in out and "eps.x1" in out


def test_abstract_without_model_prints_the_table(capsys):
    rc, out, _ = run(capsys, "abstract", "--formula", "E (lt(x, X^1 y) U eqc[5](x))")
    assert rc == 0
    assert "E (X ap0 U ap1)" in out
    assert "ap0 := lt(x, X^1 y)  depth 1" in out
    assert "ap1 := eqc[5](x)  depth 0" in out


# ---------------------------------------------------------------------------
# Selftest


def test_selftest_passes(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert "7 passed, 0 failed" in out
    assert "fail" not in out.replace("0 failed", "")


# ---------------------------------------------------------------------------
# One argument parser per process


def _outcomes(capsys, commands):
    results = []
    for argv in commands:
        try:
            rc = run_command(list(argv))
        except SystemExit as exc:  # a usage error
            rc = ("usage", exc.code)
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def test_the_shared_parser_keeps_no_state(capsys, monkeypatch, two_model):
    commands = [
        ("mc", "--json", "--model", two_model, "--formula", "E G ~p"),
        ("mc", "--model", two_model, "--formula", "E G ~p"),
        ("sat", "--full-sweep", "--max-nodes", "1", "--range", "2", "--formula", "E F eqc[2](x)"),
        ("sat", "--max-nodes", "1", "--range", "2", "--formula", "E F eqc[2](x)"),
        ("sat", "--range", "2"),
        ("sat", "--range", "2"),
    ]
    shared = _outcomes(capsys, commands)
    monkeypatch.setattr(ctlz.cli, "_build_parser", ctlz.cli._build_parser.__wrapped__)
    fresh = [_outcomes(capsys, [argv])[0] for argv in commands]
    assert shared == fresh
    assert shared[-1][0] == ("usage", 2) and "required: --formula" in shared[-1][2]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import ctlz.cli\n"
        "print(len(built))\n"
        "ctlz.cli.run_command(['parse', '--formula', 'p'])\n"
        "first = len(built)\n"
        "ctlz.cli.run_command(['parse', '--formula', 'q'])\n"
        "print(first, len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(ctlz.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    at_import, _, _, counts = done.stdout.splitlines()
    first, after = counts.split()
    assert at_import == "0" and int(first) > 0 and after == first


def test_no_subcommand_but_eval_mso_loads_numpy(tmp_path, two_model, chain_structure):
    # the MSO evaluator, and numpy with it, loads on first use: importing
    # the package and running every other subcommand leaves both unloaded
    tree = tmp_path / "demo.model"
    tree.write_text(model_to_text(demo_tree()))
    formula = "E (lt(x1, X^1 x2) & X eq(x1, x2))"
    commands = [
        ["parse", "--formula", "E (a U b)"],
        ["nnf", "--formula", "~E (a U b)"],
        ["snnf", "--formula", "~E G lt(x, X^1 y)"],
        ["abstract", "--formula", formula, "--model", str(tree)],
        ["extract", "--formula", formula, "--model", str(tree)],
        ["homcheck", "--structure", chain_structure],
        ["brutehom", "--structure", chain_structure],
        ["emit-mso", "--structure", chain_structure],
        ["mc", "--model", two_model, "--formula", "E X p"],
        ["sat", "--formula", "E F eqc[2](x)", "--max-nodes", "1"],
        ["interp", "--formula", "E X ltlex(x, y)", "--interp", "lexZ[2]"],
        ["selftest"],
    ]
    code = (
        "import argparse, contextlib, io, sys\n"
        "import ctlz, ctlz.cli\n"
        f"commands = {commands!r}\n"
        "for argv in commands:\n"
        "    for extra in ([], ['--json']):\n"
        "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "            rc = ctlz.cli.run_command(argv + extra)\n"
        "        assert rc in (0, 1), (argv, rc, err.getvalue())\n"
        "parser = ctlz.cli._build_parser()\n"
        "names = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices\n"
        "assert set(names) - {argv[0] for argv in commands} == {'eval-mso'}\n"
        "assert set(ctlz.__all__) <= set(dir(ctlz))\n"
        "print(sorted(m for m in ('numpy', 'ctlz.msoeval') if m in sys.modules))\n"
        "assert ctlz.eval_finite is ctlz.msoeval.eval_finite\n"
        "assert ctlz.eval_finite_slow is ctlz.msoeval.eval_finite_slow\n"
        "namespace = {}\n"
        "exec('from ctlz import *', namespace)\n"
        "print(sorted(set(ctlz.__all__) - set(namespace)))\n"
    )
    src = os.path.dirname(os.path.dirname(ctlz.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, unbound = done.stdout.splitlines()
    assert loaded == "[]" and unbound == "[]"
