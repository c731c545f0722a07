"""Bounded model search and the abstraction round-trip checker."""

import random
from fractions import Fraction
from functools import partial

import pytest

from ctlz import (
    ConstraintKripke,
    DomainError,
    Q_DOMAIN,
    Z_DOMAIN,
    check_ctlstar,
    model_to_text,
    parse_formula,
    parse_path_formula,
    to_snnf,
    validate_model,
)
from ctlz.satsearch import (
    SatSearchError,
    candidate_values,
    eval_bounded,
    find_model,
    reduction_consistency,
)
from ctlz import modelcheck, satsearch
from ctlz.cli import run_command
from ctlz.golden import demo_tree
from conftest import random_tree_model, random_xonly_formula


# ---------------------------------------------------------------------------
# Candidate pools


def test_pool_contains_boundaries_constants_and_residues():
    f = parse_formula("E F eqc[5](x)")
    assert candidate_values(f, 7) == [-7, 0, 5, 7]
    # the constant drops out when it cannot fit in the range
    assert candidate_values(f, 3) == [-3, 0, 3]
    g = parse_formula("E (lt(x, X^1 x) & mod[1,3](x))")
    # one minimum-magnitude representative per residue class modulo 3
    assert candidate_values(g, 5) == [-5, -1, 0, 1, 5]


def test_pool_for_a_large_range_holds_one_value_per_residue():
    # each residue class is read near 0, so a wide range costs no more than a narrow one
    r = 10**6
    assert candidate_values(parse_formula("E F p"), r) == [-r, 0, r]
    g = parse_formula("E (mod[1,3](x) U mod[0,4](X^1 x))")
    assert candidate_values(g, r) == [-r, -1, 0, 1, 2, r]


def test_full_sweep_pool():
    g = parse_formula("E (lt(x, X^1 x) & mod[1,3](x))")
    assert candidate_values(g, 5, full_sweep=True) == list(range(-5, 6))


def test_pool_is_stable_under_witness_normalization():
    for text in (
        "E G ~lt(x, X^1 y)",
        "E (~eqc[3](x) U mod[1,2](y))",
        "E F ~eq(x, X^2 y)",
    ):
        f = parse_formula(text)
        assert candidate_values(f, 6) == candidate_values(to_snnf(f, Z_DOMAIN), 6)


# ---------------------------------------------------------------------------
# Model search


def test_simple_reachability_target():
    model, node = find_model(parse_formula("E F eqc[5](x)"), register_range=7)
    assert model.nodes == ["s0"] or tuple(model.nodes) == ("s0",)
    assert node == "s0"
    assert model.gamma("s0", "x") == 5
    assert sorted(model.edges) == [("s0", "s0")]


def test_found_models_are_valid_and_verified():
    rng = random.Random(5)
    texts = [
        "E (lt(x, X^1 x))",
        "E (mod[1,2](x) & X mod[0,2](x))",
        "E (p U eqc[2](x))",
        "A X lt(x, X^1 x) | E F eqc[0](x)",
    ]
    for text in texts:
        f = parse_formula(text)
        found = find_model(f)
        assert found is not None, text
        model, node = found
        validate_model(model)
        assert node in check_ctlstar(model, f)


def test_search_is_deterministic():
    f = parse_formula("E (lt(x, X^1 x) & X mod[0,3](x))")
    a = find_model(f)
    b = find_model(f)
    assert a is not None
    assert model_to_text(a[0]) == model_to_text(b[0])
    assert a[1] == b[1]


def test_unsatisfiable_within_bounds():
    # a strictly increasing run cannot live on one node
    assert find_model(parse_formula("E G lt(x, X^1 x)"), max_nodes=1) is None
    # equality with two different constants never holds
    f = parse_formula("E (eqc[1](x) & eqc[2](x))")
    assert find_model(f) is None


def test_complete_graph_over_the_window_limit_is_not_swept(monkeypatch):
    # the complete graph on 3 nodes has 3^11 windows at depth 10, over the
    # window limit; the first model is sparse and well within it
    f = parse_formula("E (eqc[0](x) & X eqc[1](x) & X X eqc[2](x) & lt(x, X^10 x))")
    model, node = find_model(f, Z_DOMAIN, 3, 5)
    assert sorted(model.edges) == [("s0", "s1"), ("s1", "s0"), ("s2", "s0")]
    assert node == "s2"
    # under a limit of 8 windows the masks swept pass the complete graph's
    # 9 windows at depth 1 before the first model, 5 edges, turns up
    for module in (modelcheck, satsearch):
        monkeypatch.setattr(module, "WINDOW_LIMIT", 8)
    g = parse_formula("E X eqc[-1](x) & E X eqc[0](x) & E X eqc[1](x) & E lt(x, X^1 x)")
    model, node = find_model(g, Z_DOMAIN, 3, 1)
    assert len(model.edges) == 5 and node == "s0"


def test_rational_domain_search():
    f = parse_formula("E (lt(x, y) & lt(y, x))")
    assert find_model(f, Q_DOMAIN) is None
    g = parse_formula("E (mod[1,2](x))")
    with pytest.raises(Exception):
        find_model(g, Q_DOMAIN)


def test_rational_constants_enter_the_pool_over_q(capsys):
    f = parse_formula("E F eqc[1/2](x)")
    assert candidate_values(f, 1, Q_DOMAIN) == [-1, 0, Fraction(1, 2), 1]
    assert candidate_values(f, 1, Q_DOMAIN, full_sweep=True) == [-1, 0, Fraction(1, 2), 1]
    model, node = find_model(f, Q_DOMAIN, 1, 1)
    assert model.registers[(node, "x")] == Fraction(1, 2)
    assert run_command(["sat", "--formula", "E F eqc[1/2](x)", "--domain", "Q", "--range", "1"]) == 0
    assert "s0 x 1/2" in capsys.readouterr().out
    # the integer domains hold no fraction, and Z does not interpret the relation
    assert candidate_values(f, 1, Z_DOMAIN) == [-1, 0, 1]
    with pytest.raises(DomainError):
        find_model(f, Z_DOMAIN, 1, 1)
    # an integral fraction enters as its int, as before
    assert candidate_values(parse_formula("E eqc[2/2](x)"), 1, Q_DOMAIN) == [-1, 0, 1]


def test_labels_only_enumerated_when_needed():
    model, node = find_model(parse_formula("E X p"))
    assert "p" in model.label(sorted(model.nodes)[0]) or any(
        "p" in model.label(v) for v in model.nodes
    )
    bare, _ = find_model(parse_formula("E X eqc[0](x)"))
    assert all(model_label == frozenset() for model_label in bare.labels.values())


# ---------------------------------------------------------------------------
# Bounded tree evaluation


def test_eval_bounded_on_the_demo_tree():
    t = demo_tree()
    assert eval_bounded(t, "", parse_formula("E X lt(x1, X^1 x2)"))
    assert eval_bounded(t, "", parse_formula("E (lt(x1, X^1 x2) & X eq(x1, x2))"))
    assert not eval_bounded(t, "221", parse_formula("E X lt(x1, x2)"))


def test_eval_bounded_ignores_too_short_branches():
    t = random_tree_model(random.Random(1), depth=1, k=1)
    # a lookahead of three steps cannot fit into a depth-one tree
    f = parse_formula("E X X X true")
    assert not eval_bounded(t, t.nodes[0] if "" not in t.nodes else "", f)


def test_eval_bounded_rejects_until():
    with pytest.raises(SatSearchError, match="below the top level"):
        eval_bounded(demo_tree(), "", parse_formula("E (p U q)"))


# ---------------------------------------------------------------------------
# Reduction consistency


def test_reduction_consistency_on_the_demo_tree():
    rep = reduction_consistency(demo_tree(), parse_formula("E (lt(x1, X^1 x2) & X eq(x1, x2))"))
    assert rep.holds_concrete
    assert rep.forward_checked and rep.backward_checked
    assert rep.issues == ()


def test_reduction_consistency_without_constraints():
    rep = reduction_consistency(demo_tree(), parse_formula("E X true"))
    assert rep.holds_concrete and rep.issues == ()


def test_reduction_consistency_rejects_graphs_and_until():
    g = ConstraintKripke(("a",), (("a", "a"),), {"a": frozenset()}, {("a", "x"): 0}, ("x",))
    with pytest.raises(SatSearchError, match="tree-shaped"):
        reduction_consistency(g, parse_formula("E X true"))
    with pytest.raises(SatSearchError, match="tree-shaped"):
        eval_bounded(g, "a", parse_formula("E X true"))
    with pytest.raises(SatSearchError, match="below the top level"):
        reduction_consistency(demo_tree(), parse_formula("E (p U q)"))


def test_reduction_consistency_random_trees():
    rng = random.Random(41)
    clean = 0
    for _ in range(60):
        t = random_tree_model(rng, depth=2, k=2, value_range=3)
        f = random_xonly_formula(rng, t.variables, (), max_depth=2, negate_constraints=False)
        rep = reduction_consistency(t, f)
        assert rep.issues == (), (str(f), rep)
        clean += 1
    assert clean == 60


def test_bounded_evaluation_has_no_depth_limit():
    t = demo_tree()
    depth = 10**4
    chain = " & ".join(["lt(x1, X^1 x2)"] * depth)
    cases = (
        # the tree is three levels deep, so no path reads that far ahead
        ("E " + "X " * depth + "p", False),
        ("A " + "X " * depth + "p", True),
        ("E (" + chain + ")", eval_bounded(t, "", parse_formula("E lt(x1, X^1 x2)"))),
        ("A (" + chain + ")", eval_bounded(t, "", parse_formula("A lt(x1, X^1 x2)"))),
        (" & ".join(["E X lt(x1, X^1 x2)"] * depth), eval_bounded(t, "", parse_formula("E X lt(x1, X^1 x2)"))),
    )
    for text, expected in cases:
        f = parse_formula(text)
        assert eval_bounded(t, "", f) == expected, text[:20]
        rep = reduction_consistency(t, f)
        assert rep.holds_concrete == expected and rep.issues == (), text[:20]
    # negation is outside strong negation normal form, so only evaluated
    assert eval_bounded(t, "", parse_formula("~" * depth + "E X p")) == eval_bounded(t, "", parse_formula("E X p"))


def test_bounded_evaluation_refuses_before_evaluating():
    t = demo_tree()
    # the shape is checked up front, so no short circuit hides a right operand
    with pytest.raises(SatSearchError, match="supported shape: p U q$"):
        eval_bounded(t, "", parse_path_formula("false & (p U q)"))
    with pytest.raises(SatSearchError, match="supported shape: X p$"):
        eval_bounded(t, "", parse_path_formula("true | X p"))
    with pytest.raises(SatSearchError, match="supported shape: X p$"):
        eval_bounded(t, "", parse_path_formula("true & X p"))
    # the shape check reports the leftmost offending node
    with pytest.raises(SatSearchError, match="supported shape: p U q$"):
        reduction_consistency(t, parse_path_formula("E X p & (p U q) & X q"))


def test_registers_the_harness_cannot_read_are_refused():
    # a variable the tree has no register for, with the text of abstract --model
    with pytest.raises(SatSearchError, match="^constraint variable 'x' has no register$"):
        reduction_consistency(demo_tree(), parse_formula("E X lt(x, X^1 x)"))
    with pytest.raises(SatSearchError, match="^constraint variable 'x' has no register$"):
        eval_bounded(demo_tree(), "", parse_formula("false & E X lt(x, X^1 x)"))
    # a value outside the domain, refused before any verdict
    t = random_tree_model(random.Random(3), depth=2, k=2)
    t.registers[("12", "x")] = Fraction(1, 2)
    for check in (partial(eval_bounded, t, ""), partial(reduction_consistency, t)):
        with pytest.raises(SatSearchError, match="register value Fraction.* at node '12' is not in domain Z"):
            check(parse_formula("E X mod[1,2](x)"))
    # the value is in Q, where the relations are checked before any window is read
    steps = [(v, v + c) for v in ("1", "2") for c in "12"]
    expected = any(t.registers[(v, "x")] < t.registers[(w, "x")] for v, w in steps)
    assert eval_bounded(t, "", parse_formula("E X lt(x, X^1 x)"), Q_DOMAIN) == expected
    with pytest.raises(DomainError, match="Q does not interpret mod"):
        eval_bounded(t, "", parse_formula("true | E X mod[1,2](x)"), Q_DOMAIN)


def test_a_hit_the_checker_rejects_is_an_internal_error(monkeypatch, capsys):
    import ctlz.satsearch

    monkeypatch.setattr(ctlz.satsearch, "check_ctlstar", lambda model, formula, dom: frozenset())
    with pytest.raises(RuntimeError, match="disagrees"):
        find_model(parse_formula("E F eqc[5](x)"), register_range=7)
    assert run_command(["sat", "--formula", "E F eqc[5](x)", "--range", "7"]) == 3
    assert "internal error: RuntimeError" in capsys.readouterr().err
