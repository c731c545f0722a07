"""Window expansion, the LTL tableau, and the branching-time checkers."""

import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import ctlz
import ctlz.modelcheck as modelcheck
from ctlz import (
    All,
    And,
    BoolConst,
    Constraint,
    ConstraintKripke,
    EQ,
    Exists,
    LT,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    Z_DOMAIN,
    DomainError,
    const_rel,
    domain_by_name,
    mod_rel,
    parse_formula,
    parse_path_formula,
)
from ctlz.modelcheck import (
    ModelCheckError,
    WINDOW_LIMIT,
    _compile,
    check_ctl_oracle,
    check_ctlstar,
    expand_windows,
    ltl_to_buchi,
)
from conftest import (
    all_lassos,
    lasso_eval,
    random_ctl_formula,
    random_graph_model,
)


def _two_state_model():
    return ConstraintKripke(
        nodes=("s0", "s1"),
        edges=(("s0", "s1"), ("s1", "s0"), ("s1", "s1")),
        labels={"s0": frozenset({"p"}), "s1": frozenset()},
        registers={("s0", "x"): 0, ("s1", "x"): 1},
        variables=("x",),
    )


# ---------------------------------------------------------------------------
# Window expansion


def test_windows_are_paths_of_the_requested_length():
    m = _two_state_model()
    w0 = expand_windows(m, 0)
    assert sorted(w0.windows) == [("s0",), ("s1",)]
    w1 = expand_windows(m, 1)
    assert sorted(w1.windows) == [("s0", "s1"), ("s1", "s0"), ("s1", "s1")]


def test_window_successors_shift_by_one():
    m = _two_state_model()
    wm = expand_windows(m, 1)
    cls, members = wm.classes
    for w, c in zip(wm.windows, cls):
        for j in members[c]:
            v = wm.windows[j]
            assert v[:-1] == w[1:]
            assert (w[-1], v[-1]) in m.edges


def test_window_labels_carry_constraint_propositions():
    m = _two_state_model()
    c = Constraint(const_rel(1), ((0, "x"),))
    wm = expand_windows(m, 1, (c,))
    assert wm.constraints == (c,)
    by_window = dict(zip(wm.windows, wm.bits))
    assert by_window == {("s0", "s1"): 0, ("s1", "s0"): 1, ("s1", "s1"): 1}


def test_window_labels_follow_offsets():
    m = _two_state_model()
    c = Constraint(LT, ((0, "x"), (1, "x")))  # x now < x next
    wm = expand_windows(m, 1, (c,))
    by_window = dict(zip(wm.windows, wm.bits))
    assert by_window[("s0", "s1")] == 1
    assert by_window[("s1", "s0")] == 0


def test_window_labels_ask_the_domain_once_per_constraint():
    m = _two_state_model()
    constraints = (Constraint(const_rel(1), ((0, "x"),)), Constraint(LT, ((0, "x"), (1, "x"))))
    asked = []

    class CountingZ(type(Z_DOMAIN)):
        def supports(self, rel):
            asked.append(rel)
            return super().supports(rel)

    wm = expand_windows(m, 1, constraints, CountingZ())
    assert asked == [const_rel(1), LT]
    assert wm.windows == [("s0", "s1"), ("s1", "s0"), ("s1", "s1")]
    assert wm.bits == [0b10, 0b01, 0b01]
    # an unsupported relation is refused with the domain's own message,
    # and a window graph over the limit is refused before any labelling
    q = domain_by_name("Q")
    refused = Constraint(mod_rel(1, 2), ((0, "x"),))
    with pytest.raises(DomainError) as caught:
        expand_windows(m, 1, (refused,), q)
    with pytest.raises(DomainError) as direct:
        q.eval_relation(mod_rel(1, 2), (0,))
    assert str(caught.value) == str(direct.value)
    nodes = tuple(f"v{i}" for i in range(15))
    big = ConstraintKripke(nodes, tuple((a, b) for a in nodes for b in nodes), {},
                           {(v, "x"): 0 for v in nodes}, ("x",))
    with pytest.raises(ModelCheckError, match=str(WINDOW_LIMIT)):
        expand_windows(big, 3, (refused,), q)


def test_windows_reject_trees():
    t = ConstraintKripke(("",), (), {"": frozenset()}, {}, (), shape=("tree", 1, 0))
    with pytest.raises(ModelCheckError, match="graph-shaped"):
        expand_windows(t, 1)


def test_window_limit():
    n = 15
    nodes = tuple(f"v{i}" for i in range(n))
    m = ConstraintKripke(
        nodes=nodes,
        edges=tuple((a, b) for a in nodes for b in nodes),
        labels={v: frozenset() for v in nodes},
        registers={},
        variables=(),
    )
    with pytest.raises(ModelCheckError, match=str(WINDOW_LIMIT)):
        expand_windows(m, 3)


# ---------------------------------------------------------------------------
# Tableau automata


def test_invariant_needs_one_state_and_no_acceptance():
    b = ltl_to_buchi(parse_path_formula("G p"))
    assert len(b.states) == 1
    assert b.untils == ()


def test_until_needs_an_acceptance_set():
    b = ltl_to_buchi(parse_path_formula("p U q"))
    assert len(b.states) == 2
    assert b.untils == (Until(Prop("p"), Prop("q")),)
    # fulfilling q marks the edge, postponing on p does not
    assert sorted((pos, marks) for pos, _, _, marks in b.transitions[b.states[0]]) == [(1, 0), (2, 1)]


def test_one_edge_per_tableau_branch():
    # seven Untils over ten propositions: 2,188 states and over two
    # million (state, letter) targets with an explicit alphabet
    conj = " & ".join(f"(p{i} U q{i % 3})" for i in range(7))
    b = ltl_to_buchi(parse_path_formula(conj))
    assert len(b.propositions) == 10
    assert len(b.states) == 129
    assert sum(len(edges) for edges in b.transitions.values()) == 2_315


def test_tableau_rejects_constraints_and_quantifiers():
    c = Constraint(EQ, ((0, "x"), (0, "x")))
    with pytest.raises(ModelCheckError, match="propositions only"):
        ltl_to_buchi(Until(Prop("p"), c))
    with pytest.raises(ModelCheckError, match="propositions only"):
        ltl_to_buchi(Exists(Prop("p")))


def test_tableau_requires_negation_normal_form():
    with pytest.raises(ModelCheckError, match="negation normal form"):
        ltl_to_buchi(Not(Next(Prop("p"))))


def test_no_cap_on_tracked_propositions():
    # sixteen propositions: more than an explicit alphabet could hold
    props = [f"p{i}" for i in range(16)]
    psi = parse_path_formula(" & ".join(f"({a} U {b})" for a, b in zip(props[::2], props[1::2])))
    assert ltl_to_buchi(psi).propositions == tuple(props)
    rng = random.Random(37)
    hits = 0
    for _ in range(6):
        m = random_graph_model(rng, rng.randint(2, 3), props=props, p_prop=0.7)
        sat = check_ctlstar(m, Exists(psi))
        for start in m.nodes:
            found = any(
                lasso_eval(m, list(states), loop, psi, Z_DOMAIN)
                for states, loop in all_lassos(m, start, 8)
            )
            assert found == (start in sat), start
        hits += len(sat)
    assert hits > 0


_REBUILT = "A (false U A eqc[0](X^2 y) | p U mod[1,2](X^2 y)) | ~E A E mod[1,2](X^2 y)"


def _edge_tables(text: str) -> str:
    """The compiled automata of a formula, as text: per path quantifier,
    in the plan's order, its edge table, mark count and tracked inputs.
    The automaton cache is cleared first, so every call builds them anew."""
    modelcheck._automaton.cache_clear()
    _, _, order, paths = _compile.__wrapped__(parse_formula(text))
    return repr([(str(f), *paths[f][:2], [str(g) for g in paths[f][2]], sorted(paths[f][3]))
                 for f in order if f in paths])


def test_automata_do_not_depend_on_node_addresses():
    # the formula's nodes are freed and built again between compiles, at
    # other addresses; the automata must be the same in every process
    tables = set()
    junk = []
    for i in range(30):
        tables.add(_edge_tables(_REBUILT))
        junk.append([parse_path_formula(f"p{j} U q{i}") for j in range(i)])
    assert len(tables) == 1
    src = os.path.dirname(os.path.dirname(ctlz.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
               PYTHONHASHSEED="random")
    code = f"import test_modelcheck as t; print(t._edge_tables({_REBUILT!r}))"
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=os.path.dirname(__file__),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == next(iter(tables))


def test_formulas_of_one_path_shape_share_one_automaton(monkeypatch):
    built = []
    tableau = modelcheck.ltl_to_buchi
    monkeypatch.setattr(modelcheck, "ltl_to_buchi", lambda psi: built.append(psi) or tableau(psi))
    _compile.cache_clear()
    modelcheck._automaton.cache_clear()
    _compile(parse_formula("E (lt(x, y) U eq(y, z))"))
    _compile(parse_formula("E (lt(u, v) U eq(v, w))"))
    assert [str(psi) for psi in built] == ["__c0 U __c1"]


# ---------------------------------------------------------------------------
# CTL* checking against the lasso oracle


def _random_path_formula(rng, variables, props, depth):
    if depth == 0:
        roll = rng.random()
        if roll < 0.4 and props:
            f = Prop(rng.choice(props))
        else:
            rel = rng.choice([LT, EQ, const_rel(0), const_rel(1), mod_rel(0, 2)])
            arity = rel.arity
            args = tuple(
                (rng.randint(0, 1), rng.choice(variables)) for _ in range(arity)
            )
            f = Constraint(rel, args)
        return Not(f) if rng.random() < 0.3 else f
    kids = lambda: _random_path_formula(rng, variables, props, depth - 1)
    roll = rng.random()
    if roll < 0.2:
        return And(kids(), kids())
    if roll < 0.4:
        return Or(kids(), kids())
    if roll < 0.6:
        return Next(kids())
    if roll < 0.8:
        return Until(kids(), kids())
    return Release(kids(), kids())


def test_existential_verdicts_match_exhaustive_lassos():
    rng = random.Random(23)
    agreements = 0
    for _ in range(60):
        m = random_graph_model(rng, rng.randint(2, 3), props=("p",), p_prop=0.5)
        psi = _random_path_formula(rng, m.variables, ["p"], rng.randint(1, 2))
        sat = check_ctlstar(m, Exists(psi))
        for start in m.nodes:
            found = any(
                lasso_eval(m, list(states), loop, psi, Z_DOMAIN)
                for states, loop in all_lassos(m, start, 8)
            )
            assert found == (start in sat), (start, str(psi))
            agreements += 1
    assert agreements >= 120


# path formulas with nested quantifiers and negated constraints: A psi is
# labelled through the negation of psi's rewritten form, E ~psi through
# the negation of psi itself
_NESTED_PATHS = (
    "X (E G ~lt(x, X^1 x)) U (p & A X ~eqc[1](x))",
    "~(E F ~mod[0,2](x)) R (q | X ~A (p U ~eq(x, X^1 x)))",
    "G (~lt(X^1 x, x) | E X A F ~p) & F ~E (q R ~eqc[0](x))",
    "~(X (A G p) & ~eq(x, X^1 x)) U E (~q U A X ~lt(x, X^1 x))",
)


def test_universal_is_the_dual_of_existential():
    rng = random.Random(29)
    from ctlz.formulas import negate

    for i in range(40 + len(_NESTED_PATHS)):
        m = random_graph_model(rng, rng.randint(2, 4), props=("p", "q"), p_prop=0.5)
        if i < 40:
            psi = _random_path_formula(rng, m.variables, ["p", "q"], rng.randint(1, 2))
        else:
            psi = parse_path_formula(_NESTED_PATHS[i - 40].replace("x", m.variables[0]))
        left = check_ctlstar(m, All(psi))
        right = frozenset(m.nodes) - check_ctlstar(m, Exists(negate(psi)))
        assert left == right, str(psi)


def test_nested_quantifiers():
    m = _two_state_model()
    # from s1 one may loop in s1 forever, where p never holds
    assert check_ctlstar(m, parse_formula("E G ~p")) == frozenset({"s1"})
    # every run from s0 immediately leaves the p-state
    assert check_ctlstar(m, parse_formula("A X A X true")) == frozenset({"s0", "s1"})
    assert check_ctlstar(m, parse_formula("E (eqc[0](x) & X eqc[1](x))")) == frozenset(
        {"s0"}
    )
    # a state satisfying E F (p & E G ~p) must reach s0 yet continue avoiding p
    assert check_ctlstar(m, parse_formula("E F (p & E X G ~p)")) == frozenset(
        {"s0", "s1"}
    )


def _three_cycle(p_holds: bool):
    nodes = ("c0", "c1", "c2")
    return ConstraintKripke(
        nodes=nodes,
        edges=(("c0", "c1"), ("c1", "c2"), ("c2", "c0")),
        labels={v: frozenset({"p"} if p_holds else ()) for v in nodes},
        registers={},
        variables=(),
    )


_NESTED_2000 = "E X " * 2_000 + "p"


def test_deeply_nested_quantifiers(tmp_path, capsys):
    from ctlz import model_to_text
    from ctlz.cli import run_command

    f = parse_formula(_NESTED_2000)
    assert check_ctlstar(_three_cycle(True), f) == frozenset({"c0", "c1", "c2"})
    assert check_ctlstar(_three_cycle(False), f) == frozenset()
    model = tmp_path / "cycle.model"
    model.write_text(model_to_text(_three_cycle(True)))
    assert run_command(["mc", "--model", str(model), "--formula", _NESTED_2000, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"nodes": ["c0", "c1", "c2"], "verdict": "sat"}


def test_product_memory_follows_the_reached_nodes():
    """Ten independent Untils give 1,025 automaton states, so a dense
    states x windows table on 10^4 windows would take over 80 MB.  Each
    node here may postpone only one Until, so the product reaches about
    three states per window and its search stays far below that."""
    k, n = 10, 10_000
    f = parse_formula("E (" + " & ".join(f"(p{2 * i} U p{2 * i + 1})" for i in range(k)) + ")")
    nodes = [f"v{j}" for j in range(n)]
    labels = {
        v: frozenset(f"p{2 * i + 1}" for i in range(k) if i != j % k) | {f"p{2 * (j % k)}"}
        for j, v in enumerate(nodes)
    }
    model = ConstraintKripke(nodes, [(v, nodes[(j + 1) % n]) for j, v in enumerate(nodes)], labels, {}, [])
    assert check_ctlstar(_three_cycle(False), f) == frozenset()  # compiles the automaton
    tracemalloc.start()
    try:
        sat = check_ctlstar(model, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sat == frozenset(nodes)
    assert peak < 20 * 2**20 < 1_025 * n * 8, peak


_DISJUNCTS = ("X (q & X q)", "X (p & X q)", "X X p")


def _or_chain(depth: int) -> str:
    """E (d0 | (d1 | ... d_depth)): a right-nested chain of depth Ors,
    the disjuncts cycling through _DISJUNCTS."""
    return "E (" + " | (".join(_DISJUNCTS[i % 3] for i in range(depth + 1)) + ")" * (depth + 1)


def test_deeply_nested_disjunctions(tmp_path, capsys):
    from ctlz import model_to_text
    from ctlz.cli import run_command

    short = parse_path_formula(" | ".join(_DISJUNCTS))
    rng = random.Random(41)
    models = [random_graph_model(rng, 3, props=("p", "q"), p_prop=0.5) for _ in range(4)]
    for depth in (2_000, 10_000):
        f = parse_formula(_or_chain(depth))
        for m in models[: 4 if depth == 2_000 else 1]:
            expected = frozenset(
                start for start in m.nodes
                if any(lasso_eval(m, list(states), loop, short, Z_DOMAIN) for states, loop in all_lassos(m, start, 5))
            )
            assert check_ctlstar(m, f) == expected == check_ctlstar(m, Exists(short))
    model = tmp_path / "m.model"
    model.write_text(model_to_text(models[0]))
    sat = check_ctlstar(models[0], Exists(short))
    assert sat
    assert run_command(["mc", "--model", str(model), "--formula", _or_chain(2_000), "--json"]) == 0
    nodes = [v for v in models[0].nodes if v in sat]
    assert json.loads(capsys.readouterr().out) == {"nodes": nodes, "verdict": "sat"}


def test_constraints_across_steps():
    m = _two_state_model()
    # the s0/s1 alternation keeps changing x, so both states admit such a run
    diff = parse_formula("E G (lt(x, X^1 x) | lt(X^1 x, x))")
    assert check_ctlstar(m, diff) == frozenset({"s0", "s1"})
    # but the s1 self-loop repeats x, so no state forces change forever
    assert check_ctlstar(m, parse_formula("A G (lt(x, X^1 x) | lt(X^1 x, x))")) == frozenset()
    assert check_ctlstar(m, parse_formula("E F eq(x, X^1 x)")) == frozenset({"s0", "s1"})


# ---------------------------------------------------------------------------
# The independent fixpoint oracle


def test_oracle_agrees_with_the_tableau_checker():
    rng = random.Random(31)
    for _ in range(80):
        m = random_graph_model(rng, rng.randint(2, 4), props=("p", "q"), p_prop=0.5)
        f = random_ctl_formula(rng, m.variables, ["p", "q"], depth=rng.randint(1, 3))
        assert check_ctl_oracle(m, f) == check_ctlstar(m, f), str(f)


def test_oracle_checks_deep_nesting_on_an_explicit_stack():
    f = Prop("p")
    for _ in range(10_000):
        f = Exists(Next(f))
    for p_holds in (True, False):
        m = _three_cycle(p_holds)
        expected = frozenset(m.nodes) if p_holds else frozenset()
        assert check_ctl_oracle(m, f) == check_ctlstar(m, f) == expected


def test_checkers_refuse_a_constraint_variable_without_a_register():
    m = _two_state_model()
    for check in (check_ctlstar, check_ctl_oracle):
        with pytest.raises(ModelCheckError, match="^constraint variable 'y' has no register$"):
            check(m, parse_formula("E X lt(x, X^1 y)"))


def test_checkers_refuse_a_register_value_outside_the_domain():
    """The first offending register in register order is named, with its
    variable and the domain; 1, True and Fraction(1) are equal but only
    the first is an integer."""
    from fractions import Fraction

    cases = [  # the second register, the domain, and the value and node named
        (2, "allenZ", "1 of variable 'x' at node 's0'"),
        ((1, 3), "Z", "(1, 3) of variable 'x' at node 's1'"),
        (Fraction(1, 2), "N", "Fraction(1, 2) of variable 'x' at node 's1'"),
        (True, "Z", "True of variable 'x' at node 's1'"),
        (Fraction(1), "Z", "Fraction(1, 1) of variable 'x' at node 's1'"),
        (-1, "N", "-1 of variable 'x' at node 's1'"),
    ]
    for second, domain, named in cases:
        m = _two_state_model()
        m.registers = {("s0", "x"): 1, ("s1", "x"): second}
        for check in (check_ctlstar, check_ctl_oracle):
            with pytest.raises(ModelCheckError) as refused:
                check(m, parse_formula("E X eq(x, x)"), domain_by_name(domain))
            assert str(refused.value) == f"register value {named} is not in domain {domain}"
    m = _two_state_model()
    m.registers = {("s0", "x"): 1, ("s1", "x"): Fraction(1, 2)}
    assert check_ctlstar(m, parse_formula("E lt(x, X^1 x)"), domain_by_name("Q")) == frozenset({"s1"})


def test_oracle_rejects_nested_path_operators():
    m = _two_state_model()
    with pytest.raises(ModelCheckError, match="CTL fragment"):
        check_ctl_oracle(m, parse_formula("E G F p"))


def test_checker_normalizes_its_input():
    m = _two_state_model()
    f = parse_formula("~E F p")
    assert check_ctlstar(m, f) == frozenset()
    g = parse_formula("~E X ~eqc[1](x)")
    assert check_ctlstar(m, g) == frozenset({"s0"})
