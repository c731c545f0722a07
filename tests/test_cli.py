"""Command-line interface: exit codes, output shapes, file handling."""

import json
import time

import pytest

import ctlz.cli
from ctlz import ConstraintKripke, model_to_text, structure_to_text, SigmaStructure, LT, const_rel
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


def test_missing_file_is_an_input_error(capsys, tmp_path):
    rc, out, err = run(capsys, "homcheck", "--structure", str(tmp_path / "nope"))
    assert rc == 2
    assert "error:" in err


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
