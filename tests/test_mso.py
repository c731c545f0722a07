"""MSO layer: s-expressions, emitters, relativization, finite evaluation."""

import dataclasses
import hashlib
import random

import pytest

from ctlz import (
    EQ,
    LT,
    SigmaStructure,
    const_rel,
    decide_hom,
    emit_core_formula,
    emit_hom_sentence,
    emit_tree_encoding,
    eval_finite,
    eval_finite_slow,
    formula_class,
    mod_rel,
    parse_sexpr,
    relativize,
    to_sexpr,
)
from ctlz.formulas import CONSTANT, TableEntry, AbstractionTable, Constraint, _children, postorder, transform
from ctlz.mso import (
    Atom,
    BoundSet,
    Conj,
    Disj,
    ExistsFO,
    ExistsSet,
    ForallFO,
    ForallSet,
    Implies,
    In,
    MSO_TRUE,
    MsoBool,
    MsoError,
    MsoFormula,
    Neg,
    Subset,
    VarEq,
    _free_names,
    conj_all,
    fo_free,
    set_free,
)
from ctlz import msoeval
from ctlz.msoeval import MAX_ELEMENTS
from conftest import SIGMA0, random_sigma0_structure


# ---------------------------------------------------------------------------
# S-expressions


def test_sexpr_round_trip_handmade():
    f = ExistsSet(
        "X",
        ForallFO(
            "x",
            Implies(In("x", "X"), Disj(Atom("lt", ("x", "x")), VarEq("x", "x"))),
        ),
    )
    assert parse_sexpr(to_sexpr(f)) == f


def test_sexpr_round_trip_bound_quantifier():
    f = BoundSet("X", Subset("X", "X"))
    text = to_sexpr(f)
    assert parse_sexpr(text) == f


def test_sexpr_rejects_garbage():
    with pytest.raises(MsoError):
        parse_sexpr("(and (in x))")
    with pytest.raises(MsoError):
        parse_sexpr("(exists1 x")


def _random_mso(rng, depth, fo_scope, set_scope, names):
    def leaf():
        options = []
        if fo_scope:
            options.append(lambda: Atom("lt", (rng.choice(fo_scope), rng.choice(fo_scope))))
            options.append(lambda: Atom("eqc[0]", (rng.choice(fo_scope),)))
            options.append(lambda: VarEq(rng.choice(fo_scope), rng.choice(fo_scope)))
        if fo_scope and set_scope:
            options.append(lambda: In(rng.choice(fo_scope), rng.choice(set_scope)))
        if set_scope:
            options.append(lambda: Subset(rng.choice(set_scope), rng.choice(set_scope)))
        options.append(lambda: MsoBool(rng.random() < 0.5))
        return rng.choice(options)()

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.2:
        return leaf()
    if roll < 0.3:
        return Neg(_random_mso(rng, depth - 1, fo_scope, set_scope, names))
    if roll < 0.55:
        op = rng.choice([Conj, Disj, Implies])
        return op(
            _random_mso(rng, depth - 1, fo_scope, set_scope, names),
            _random_mso(rng, depth - 1, fo_scope, set_scope, names),
        )
    if roll < 0.8:
        var = f"v{names[0]}"
        names[0] += 1
        op = rng.choice([ExistsFO, ForallFO])
        return op(var, _random_mso(rng, depth - 1, fo_scope + [var], set_scope, names))
    var = f"V{names[0]}"
    names[0] += 1
    op = rng.choice([ExistsSet, ForallSet, BoundSet])
    return op(var, _random_mso(rng, depth - 1, fo_scope, set_scope + [var], names))


def test_sexpr_round_trip_random():
    rng = random.Random(8)
    for _ in range(60):
        f = _random_mso(rng, 3, [], [], [0])
        assert parse_sexpr(to_sexpr(f)) == f
        # nodes are interned: equal sentences are one object
        text = to_sexpr(f)
        assert parse_sexpr(text) is parse_sexpr(text) is f


def test_nodes_are_interned_dataclasses():
    assert Atom("lt", ["x", "y"]) is Atom("lt", ("x", "y"))
    assert Atom("lt", ["x", "y"]).args == ("x", "y")
    with pytest.raises(MsoError, match="empty relation name"):
        Atom("", ("x",))
    # nodes stay dataclasses: field lists are read from outside the package
    assert [f.name for f in dataclasses.fields(ExistsFO("x", MSO_TRUE))] == ["var", "body"]


def test_deep_sentences_parse_print_and_evaluate():
    depth = 10_000
    s = SigmaStructure(["a", "b"], {LT: [("a", "a"), ("a", "b")]})
    guard = Atom("lt", ("w", "w"))  # holds at a only
    atoms = [Atom(f"r{i % 7}", ("x",)) if i % 3 else Atom("lt", ("x", "x")) for i in range(depth)]
    sentences = {
        "not": parse_sexpr("(not " * depth + "(lt x x)" + ")" * depth),
        "exists": parse_sexpr("(exists x " * depth + "(lt x x)" + ")" * depth),
        "conj": conj_all(atoms),
    }
    for name, f in sentences.items():
        assert parse_sexpr(to_sexpr(f)) is f, name
        assert repr(f).endswith(")" * depth)
        assert formula_class(f) == "MSO"
        closed = f if name == "exists" else ExistsFO("x", f)
        assert fo_free(f) == (frozenset() if name == "exists" else {"x"})
        assert not fo_free(closed)
        assert formula_class(BoundSet("X", closed)) == "WMSO+B"
        # an even number of negations; no element is in the r relations
        expected = name != "conj"
        assert eval_finite(closed, s) == expected, name
        assert eval_finite(relativize(closed, guard, "w"), s) == expected, name


# sha256 of the emitted text for each target, over the part of sigma0 it
# supports; a change here changes every emitted sentence file
_EMITTED_SHA256 = {
    "Z": "1011d772bd9471c4478b08eacccfe116816ace66cf90d38bcef24d684f8e0b35",
    "N": "749a44790309609477616997811ce188eeea66c644a8af5acaaf3dfe766173e5",
    "negZ": "6de9ec2a2d999983d91c70d8e9e00958d2b8f13966d032cad45633147b0e9b3c",
    "Z_order_only": "afa460999ccd954dafcff68451c7f4c85c8408d4443b14c0a640787ccbf6925f",
}


def test_emitted_sentence_text_is_stable():
    supported = {
        "Z": SIGMA0,
        "N": [r for r in SIGMA0 if r.kind != "constant"],
        "negZ": [r for r in SIGMA0 if r.kind != "constant"],
        "Z_order_only": [LT],
    }
    for target, digest in _EMITTED_SHA256.items():
        text = to_sexpr(emit_hom_sentence(list(supported[target]), target))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, target


# ---------------------------------------------------------------------------
# Classification


def test_formula_class():
    plain = ExistsFO("x", Atom("lt", ("x", "x")))
    assert formula_class(plain) == "MSO"
    bounded = BoundSet("X", In("x", "X"))
    assert formula_class(bounded) == "WMSO+B"
    assert formula_class(Conj(bounded, plain)) == "boolean_combination"
    assert formula_class(Neg(bounded)) == "boolean_combination"


# ---------------------------------------------------------------------------
# Core emitters


def test_reach_is_reflexive_transitive_closure():
    edge = Atom("lt", ("x", "y"))
    reach = emit_core_formula("reach", edge, args=("a", "b"))
    assert sorted(fo_free(reach)) == ["a", "b"]
    s = SigmaStructure(["a", "b", "c", "d"], {LT: [("a", "b"), ("b", "c")]})
    truth = lambda u, v: eval_finite(reach, s, {"a": u, "b": v})
    assert truth("a", "c") and truth("a", "a")
    assert not truth("a", "d") and not truth("c", "a")


def test_restricted_reach_stays_inside_the_set():
    edge = Atom("lt", ("x", "y"))
    reach = emit_core_formula("reach_restricted", edge, args=("a", "b", "Z"))
    s = SigmaStructure(["a", "b", "c"], {LT: [("a", "b"), ("b", "c")]})
    env_all = {"a": "a", "b": "c", "Z": ["a", "b", "c"]}
    env_gap = {"a": "a", "b": "c", "Z": ["a", "c"]}
    assert eval_finite(reach, s, env_all)
    assert not eval_finite(reach, s, env_gap)


def test_ecycle_detects_a_cycle():
    edge = Atom("lt", ("x", "y"))
    cyc = emit_core_formula("ecycle", edge)
    assert not fo_free(cyc) and not set_free(cyc)
    acyclic = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    looped = SigmaStructure(["a", "b"], {LT: [("a", "b"), ("b", "a")]})
    assert not eval_finite(cyc, acyclic)
    assert eval_finite(cyc, looped)


def test_bounded_paths_is_in_the_bounded_class():
    edge = Atom("lt", ("x", "y"))
    bp = emit_core_formula("bpaths", edge, args=("a", "b"))
    assert formula_class(bp) == "WMSO+B"


def test_edge_formula_free_variables_are_checked():
    with pytest.raises(MsoError, match="free variables"):
        emit_core_formula("reach", Atom("lt", ("x", "z")), args=("a", "b"))
    with pytest.raises(MsoError, match="unknown core formula"):
        emit_core_formula("loop", Atom("lt", ("x", "y")))


# ---------------------------------------------------------------------------
# Relativization agrees with restricting the structure


def _restrict(s: SigmaStructure, keep) -> SigmaStructure:
    keep = set(keep)
    return SigmaStructure(
        [e for e in s.elements if e in keep],
        {
            rel: [t for t in rows if all(e in keep for e in t)]
            for rel, rows in s.interpretation.items()
        },
    )


def test_relativize_matches_restriction():
    rng = random.Random(17)
    guard_rel = const_rel(0)  # reuse a unary symbol as the guard predicate
    checked = 0
    while checked < 120:
        s = random_sigma0_structure(rng, rng.randint(1, 4), 0.3, 0.4)
        keep = [e for (e,) in s.interpretation[guard_rel]]
        if not keep:
            continue
        f = _random_mso(rng, rng.randint(1, 3), [], [], [0])
        guarded = relativize(f, Atom(guard_rel.name, ("w",)), "w")
        left = eval_finite(guarded, s)
        right = eval_finite(f, _restrict(s, keep))
        assert left == right, to_sexpr(f)
        checked += 1


def test_relativize_requires_a_named_guard_variable():
    with pytest.raises(MsoError):
        relativize(MSO_TRUE, Atom("u", ("w", "v")), "w")


# ---------------------------------------------------------------------------
# Homomorphism sentences


def test_hom_sentence_classes_by_target():
    sig = [LT, EQ, const_rel(0), mod_rel(1, 2)]
    # bound quantifiers sit under connectives in every emitted sentence
    for target, symbols in [
        ("Z", sig),
        ("Z_order_only", [LT]),
        ("N", [LT, EQ, mod_rel(1, 2)]),
        ("negZ", [LT, EQ]),
    ]:
        assert formula_class(emit_hom_sentence(symbols, target)) == "boolean_combination"


def test_hom_sentence_rejects_unsupported_symbols():
    with pytest.raises(MsoError, match="does not support"):
        emit_hom_sentence([LT, const_rel(0)], "N")
    with pytest.raises(MsoError, match="only the order symbol"):
        emit_hom_sentence([LT, EQ], "Z_order_only")


def test_hom_sentence_agrees_with_decision_on_small_structures():
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    rng = random.Random(18)
    for _ in range(40):
        s = random_sigma0_structure(rng, rng.randint(1, 3), 0.25, 0.25)
        assert eval_finite(sentence, s) == decide_hom(s, "Z").verdict


def test_hom_sentence_order_only_detects_cycles():
    sentence = emit_hom_sentence([LT], "Z_order_only")
    acyclic = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    looped = SigmaStructure(["a", "b", "c"], {LT: [("a", "b"), ("b", "c"), ("c", "a")]})
    assert eval_finite(sentence, acyclic)
    assert not eval_finite(sentence, looped)


def test_bound_quantifier_diagnostics():
    s = SigmaStructure(["a", "b", "c"], {LT: [("a", "b")]})
    f = BoundSet("X", Subset("X", "X"))
    diag = {}
    assert eval_finite(f, s, diagnostics=diag)
    (entry,) = diag["bounded_sets"]
    assert entry["var"] == "X"
    assert entry["max_size"] == 3  # every subset satisfies the trivial body
    # without a diagnostics sink the answer is the same
    assert eval_finite(f, s)


# ---------------------------------------------------------------------------
# Tree encoding


def test_tree_encoding_shapes():
    c = Constraint(LT, ((0, "x"), (1, "x")))
    table = AbstractionTable((TableEntry(c, "p", 1),))
    alpha = ExistsFO("x", Atom("lt", ("x", "x")))
    beta, alpha_e = emit_tree_encoding(alpha, ["x"], 2, table)
    beta_text = to_sexpr(beta)
    assert "q1" in beta_text  # the register child carries its marker
    assert parse_sexpr(to_sexpr(alpha_e)) == alpha_e
    with pytest.raises(MsoError):
        emit_tree_encoding(alpha, [], 2, table)
    with pytest.raises(MsoError):
        emit_tree_encoding(alpha, ["x"], 0, table)


# ---------------------------------------------------------------------------
# Evaluator


def test_fast_and_slow_evaluators_agree():
    rng = random.Random(19)
    for _ in range(150):
        s = random_sigma0_structure(rng, rng.randint(1, 3), 0.3, 0.4)
        f = _random_mso(rng, rng.randint(1, 3), [], [], [0])
        assert eval_finite(f, s) == eval_finite_slow(f, s), to_sexpr(f)


def _random_reusing_mso(rng, depth, built):
    """A formula over the names x, y (first order) and X, Y (sets): its
    quantifiers rebind those names, and its subformulas reuse earlier ones,
    as the same object or as an equal copy."""
    if built and rng.random() < 0.25:
        f = rng.choice(built)
        return f if rng.random() < 0.5 else parse_sexpr(to_sexpr(f))
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        f = rng.choice([
            lambda: Atom("lt", (rng.choice("xy"), rng.choice("xy"))),
            lambda: Atom("eqc[0]", (rng.choice("xy"),)),
            lambda: VarEq(rng.choice("xy"), rng.choice("xy")),
            lambda: In(rng.choice("xy"), rng.choice("XY")),
            lambda: Subset(rng.choice("XY"), rng.choice("XY")),
        ])()
    elif roll < 0.3:
        f = Neg(_random_reusing_mso(rng, depth - 1, built))
    elif roll < 0.55:
        op = rng.choice([Conj, Disj, Implies])
        f = op(_random_reusing_mso(rng, depth - 1, built), _random_reusing_mso(rng, depth - 1, built))
    elif roll < 0.8:
        op = rng.choice([ExistsFO, ForallFO])
        f = op(rng.choice("xy"), _random_reusing_mso(rng, depth - 1, built))
    else:
        op = rng.choice([ExistsSet, ForallSet, BoundSet])
        f = op(rng.choice("XY"), _random_reusing_mso(rng, depth - 1, built))
    built.append(f)
    return f


def test_rebound_names_and_shared_subtrees_match_slow_evaluator(monkeypatch):
    # a quantifier hides the outer value of the name it binds, whether the
    # value comes from the assignment or from an outer quantifier that
    # loops over its values
    two = SigmaStructure(["a", "b"], {})
    cases = [
        (parse_sexpr("(and (in x X) (exists x (not (in x X))))"), two, {"x": "a", "X": ["a"]}),
        (parse_sexpr("(exists x (and (in x X) (exists x (not (in x X)))))"), two, {"X": ["a"]}),
    ]
    rng = random.Random(23)
    for _ in range(200):
        s = random_sigma0_structure(rng, rng.randint(1, 3), 0.3, 0.4)
        env = {v: rng.choice(s.elements) for v in "xy"}
        env.update({v: [e for e in s.elements if rng.random() < 0.5] for v in "XY"})
        cases.append((_random_reusing_mso(rng, 4, []), s, env))
    for limit in (msoeval.CELL_LIMIT, 1):  # 1: every quantifier loops over its values
        monkeypatch.setattr(msoeval, "CELL_LIMIT", limit)
        for f, s, env in cases:
            assert eval_finite(f, s, env) == eval_finite_slow(f, s, env), (limit, to_sexpr(f), env)


def test_plans_are_never_mixed_between_sentences():
    s = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    yes = parse_sexpr("(exists x (exists y (lt x y)))")
    no = parse_sexpr("(exists x (exists y (lt y y)))")
    for _ in range(3):
        assert eval_finite(yes, s)
        assert not eval_finite(no, s)
    # a sentence freed before the next one is built may hand on its id:
    # only the root is new here, so it tends to take the freed root's place
    for k in range(40):
        f = ExistsFO("x", yes.body if k % 2 else no.body)
        assert eval_finite(f, s) == bool(k % 2)
        del f


def test_plan_has_one_node_per_distinct_subtree():
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    assert len(msoeval._plan(sentence).nodes) <= 678
    body = ExistsFO("x", In("x", "X"))
    f = Conj(BoundSet("X", body), BoundSet("X", parse_sexpr(to_sexpr(body))))
    # a node with a B at or below it keeps one node per tree position, so
    # each B occurrence reports on its own: Conj, two B nodes, one body
    assert len(msoeval._plan(f).nodes) == 5


def test_assignment_forms():
    s = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    f = In("x", "X")
    assert eval_finite(f, s, {"x": "a", "X": ["a"]})
    assert not eval_finite(f, s, {"x": "b", "X": ["a"]})
    with pytest.raises(MsoError, match="without assignment"):
        eval_finite(f, s, {"x": "a"})
    with pytest.raises(MsoError, match="unknown element"):
        eval_finite(f, s, {"x": "zz", "X": []})


def test_size_guard():
    big = SigmaStructure([f"e{i}" for i in range(MAX_ELEMENTS + 1)], {LT: []})
    with pytest.raises(MsoError, match="at most"):
        eval_finite(MSO_TRUE, big)


def _descending_matrix(rng, depth, fo, so):
    """A random quantifier-free formula over the names fo and so whose
    two-variable leaves mostly name their variables in descending order
    (lt y x, = y x, sub Y X): their tables come out against the evaluator's
    fixed axis order unless sorted, and meet ascending ones in connectives."""

    def two(scope):
        pair = rng.sample(scope, 2) if len(scope) > 1 else scope * 2
        return tuple(sorted(pair, reverse=rng.random() < 0.7))

    if depth > 0:
        op = rng.choice([Conj, Disj, Implies])
        return op(_descending_matrix(rng, depth - 1, fo, so), _descending_matrix(rng, depth - 1, fo, so))
    options = [lambda: Atom("lt", two(fo)), lambda: VarEq(*two(fo)), lambda: Atom("eqc[0]", (rng.choice(fo),))]
    if so:
        options += [lambda: Subset(*two(so)), lambda: In(rng.choice(fo), rng.choice(so))]
    leaf = rng.choice(options)()
    return Neg(leaf) if rng.random() < 0.4 else leaf


DESCENDING_SENTENCES = [
    "(exists x0 (exists x1 (and (lt x1 x0) (not (lt x0 x1)))))",
    "(forall x0 (exists x1 (or (lt x1 x0) (eqc[0] x0))))",
    "(exists x0 (exists x1 (exists x2 (and (lt x2 x0) (and (lt x1 x2) (not (= x1 x0)))))))",
    "(existsset X0 (existsset X1 (exists x0 (and (in x0 X0) (and (subset X1 X0) (not (subset X0 X1)))))))",
]


def _descending_cases():
    """Prenex sentences over two or three first-order and up to two set
    names, on structures of one to five elements."""
    rng = random.Random(29)
    sentences = [parse_sexpr(text) for text in DESCENDING_SENTENCES]
    for _ in range(150):
        fo = [f"x{k}" for k in range(rng.randint(2, 3))]
        so = [f"X{k}" for k in range(rng.randint(0, 2))]
        f = _descending_matrix(rng, 2, fo, so)
        binders = [(rng.choice([ExistsFO, ForallFO]), v) for v in fo]
        binders += [(rng.choice([ExistsSet, ForallSet, BoundSet]), v) for v in so]
        rng.shuffle(binders)
        for op, v in binders:
            f = op(v, f)
        sentences.append(f)
    return [(f, random_sigma0_structure(rng, rng.randint(1, 5), 0.3, 0.3)) for f in sentences for _ in range(2)]


def test_descending_leaves_match_slow_evaluator(monkeypatch):
    cases = _descending_cases()
    for limit in (msoeval.CELL_LIMIT, 1):  # 1: every quantifier loops over its values
        monkeypatch.setattr(msoeval, "CELL_LIMIT", limit)
        for f, s in cases:
            want = eval_finite_slow(f, s)
            assert eval_finite(f, s) == want, (limit, to_sexpr(f))
            # a diagnostics sink makes each B evaluate its body
            assert eval_finite(f, s, diagnostics={}) == want, (limit, to_sexpr(f))


def test_every_value_has_its_axes_in_the_fixed_order(monkeypatch):
    # first-order axes before set axes, names ascending: then combine only
    # inserts length-one axes and never transposes an operand
    seen = []

    def check(value, n):
        arr, axes = value
        assert list(axes) == sorted(axes)
        assert arr.shape == tuple(n if kind == "fo" else 1 << n for kind, _ in axes)
        seen.append(len(axes))

    leaf, inner = msoeval._Evaluator._leaf, msoeval._Evaluator._inner

    def checked_leaf(self, i, env):
        value = leaf(self, i, env)
        check(value, self.n)
        return value

    def checked_inner(self, i, env):
        value = yield from inner(self, i, env)
        check(value, self.n)
        return value

    monkeypatch.setattr(msoeval._Evaluator, "_leaf", checked_leaf)
    monkeypatch.setattr(msoeval._Evaluator, "_inner", checked_inner)
    cases = _descending_cases()[:120]
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    rng = random.Random(31)
    cases += [(sentence, random_sigma0_structure(rng, n, 0.2, 0.1)) for n in (1, 2, 3, 4)]
    for limit in (msoeval.CELL_LIMIT, 1):
        monkeypatch.setattr(msoeval, "CELL_LIMIT", limit)
        for f, s in cases:
            eval_finite(f, s)
    assert max(seen) >= 3 and seen.count(2) > 100


def test_both_evaluators_refuse_an_atom_of_the_wrong_arity():
    for rows in ([], [("a", "b")]):
        s = SigmaStructure(["a", "b"], {LT: rows})
        for text in ("(exists x (lt x))", "(exists x (and (false) (lt x)))"):
            for evaluate in (eval_finite, eval_finite_slow):
                with pytest.raises(MsoError, match="atom arity does not match the relation"):
                    evaluate(parse_sexpr(text), s)


# ---------------------------------------------------------------------------
# Miniscoping: the plan for structures on which a node could outgrow the
# cell budget evaluates the sentence with its quantifiers pushed in


EMPTY = SigmaStructure([], {LT: []})

EMPTY_SENTENCES = [
    "(exists x (true))",
    "(forall x (false))",
    "(exists x (lt x x))",
    "(forall x (lt x x))",
    "(not (exists x (true)))",
    "(forall x (exists y (true)))",
    "(existsset X (forall x (in x X)))",
    "(forallset X (exists x (false)))",
    "(and (forall x (false)) (exists y (or (true) (lt y y))))",
    "(forall x (and (true) (forall y (lt x y))))",
    "(exists x (and (true) (exists y (true))))",
    "(forall x (-> (true) (and (false) (lt x x))))",
]


def _run_plan(f, s, env, scoped):
    """f evaluated on s under env on its plain or its scoped plan, whatever
    the structure's size."""
    ev = msoeval._Evaluator(s, None)
    plan = msoeval._plan(f, scoped=True) if scoped else msoeval._plan(f)
    return ev.run(plan, msoeval._convert_assignment(env, ev.index))


def _scoping_mso(rng, depth):
    """A random formula over x, y, z and X, Y for the rewrite: quantifiers
    over and/or/implies chains whose operands mention different names,
    guarded bodies, binders that rebind an outer name, and B nodes."""
    if depth <= 0:
        return rng.choice([
            lambda: Atom("lt", (rng.choice("xyz"), rng.choice("xyz"))),
            lambda: Atom("eqc[0]", (rng.choice("xyz"),)),
            lambda: VarEq(rng.choice("xyz"), rng.choice("xyz")),
            lambda: In(rng.choice("xyz"), rng.choice("XY")),
            lambda: Subset(rng.choice("XY"), rng.choice("XY")),
            lambda: MsoBool(rng.random() < 0.5),
        ])()
    roll = rng.random()
    if roll < 0.1:
        return Neg(_scoping_mso(rng, depth - 1))
    if roll < 0.35:  # a chain, its links and/or/implies
        f = _scoping_mso(rng, depth - 1)
        for _ in range(rng.randint(1, 3)):
            f = rng.choice([Conj, Disj, Implies])(_scoping_mso(rng, depth - 1), f)
        return f
    var = rng.choice("xyz")
    if roll < 0.55:  # forall v (G -> A & B) or exists v (G & (A | B))
        op, guard, split = rng.choice([(ForallFO, Implies, Conj), (ExistsFO, Conj, Disj)])
        body = split(_scoping_mso(rng, depth - 1), _scoping_mso(rng, depth - 1))
        return op(var, guard(Atom("eqc[0]", (var,)), body))
    if roll < 0.85:
        return rng.choice([ExistsFO, ForallFO])(var, _scoping_mso(rng, depth - 1))
    return rng.choice([ExistsSet, ForallSet, BoundSet])(rng.choice("XY"), _scoping_mso(rng, depth - 1))


def _scoping_cases():
    rng = random.Random(41)
    cases = []
    for _ in range(200):
        s = random_sigma0_structure(rng, 5, 0.3, 0.4)
        env = {v: rng.choice(s.elements) for v in "xyz"}
        env.update({v: [e for e in s.elements if rng.random() < 0.5] for v in "XY"})
        cases.append((_scoping_mso(rng, 3), s, env))
    return cases


def test_scoped_sentence_keeps_the_free_names():
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    for f in [sentence] + [f for f, _, _ in _scoping_cases()]:
        assert _free_names(transform(f, msoeval._scope_step)) == _free_names(f), to_sexpr(f)


def test_both_plans_match_slow_evaluator_on_five_elements(monkeypatch):
    cases = _scoping_cases()
    changed = sum(transform(f, msoeval._scope_step) is not f for f, _, _ in cases)
    assert changed > 100
    for limit in (msoeval.CELL_LIMIT, 1):  # 1: every quantifier loops over its values
        monkeypatch.setattr(msoeval, "CELL_LIMIT", limit)
        for f, s, env in cases:
            want = eval_finite_slow(f, s, env)
            for scoped in (False, True):
                assert _run_plan(f, s, env, scoped) == want, (limit, scoped, to_sexpr(f), env)
            assert eval_finite(f, s, env) == want, (limit, to_sexpr(f), env)


def test_first_order_quantifiers_on_the_empty_structure():
    # no element: exists is false and forall is true, whatever the body
    for text in EMPTY_SENTENCES:
        f = parse_sexpr(text)
        want = eval_finite_slow(f, EMPTY)
        assert eval_finite(f, EMPTY) == want, text
        for scoped in (False, True):
            assert _run_plan(f, EMPTY, {}, scoped) == want, (scoped, text)
    assert not eval_finite(parse_sexpr("(exists x (true))"), EMPTY)
    assert eval_finite(parse_sexpr("(forall x (false))"), EMPTY)


def test_dropping_a_vacuous_quantifier_fails_on_the_empty_structure(monkeypatch, request):
    # the rewrite keeps a quantifier over a name its body does not mention:
    # dropping it is sound on every structure but the empty one
    def dropping_step(f, scope):
        if scope is not None and scope[1] not in _free_names(f)[scope[0] in (ExistsSet, ForallSet)]:
            return f
        return (yield from scope_step(f, scope))

    def mismatches(s):
        msoeval._plan.cache_clear()
        sentences = map(parse_sexpr, EMPTY_SENTENCES)
        return [to_sexpr(f) for f in sentences if _run_plan(f, s, {}, True) != eval_finite_slow(f, s)]

    scope_step = msoeval._scope_step
    request.addfinalizer(msoeval._plan.cache_clear)  # drop the plans the broken rewrite built
    one = SigmaStructure(["a"], {LT: [("a", "a")]})
    assert mismatches(EMPTY) == mismatches(one) == []
    monkeypatch.setattr(msoeval, "_scope_step", dropping_step)
    assert mismatches(one) == []
    assert "(exists x (true))" in mismatches(EMPTY)


def test_scoped_plan_has_one_node_per_distinct_subtree():
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    scoped = transform(sentence, msoeval._scope_step)
    assert scoped is not sentence
    assert len(msoeval._plan(sentence, scoped=True).nodes) == len(postorder(scoped)) == 859
    assert len(msoeval._plan(sentence).nodes) == len(postorder(sentence)) == 678


def test_node_classes_expose_their_children_as_dataclass_fields():
    """The benchmark's tracer counts ``mso.sentence_nodes`` by walking
    ``dataclasses.fields`` of each node as a tree, so every node class
    must stay a dataclass whose fields hold its subformulas."""
    classes = (MsoBool, Atom, VarEq, In, Subset, Neg, Conj, Disj, Implies,
               ExistsFO, ForallFO, ExistsSet, ForallSet, BoundSet)
    for cls in classes:
        assert dataclasses.is_dataclass(cls)
        assert tuple(f.name for f in dataclasses.fields(cls)) == cls._fields
        assert set(cls._kids) == {f.name for f in dataclasses.fields(cls) if f.type == "MsoFormula"}
    total, todo = 0, [emit_hom_sentence(list(SIGMA0), "Z")]
    while todo:
        node = todo.pop()
        total += 1
        todo += [v for f in dataclasses.fields(node) if isinstance(v := getattr(node, f.name), MsoFormula)]
    assert total == 26_439


def test_deep_sentences_evaluate_on_the_scoped_plan(monkeypatch):
    depth = 10_000
    # lt holds everywhere but at (e4, e0)
    elements = [f"e{i}" for i in range(5)]
    s = SigmaStructure(elements, {LT: [(a, b) for a in elements for b in elements if (a, b) != ("e4", "e0")]})
    # each conjunct mentions x or y alone and the rest of the chain both,
    # so forall y splits the chain down to its last link
    links = [Atom("lt", ("x", "x")), Atom("lt", ("y", "y"))]
    chain = ForallFO("x", ForallFO("y", conj_all([links[i % 2] for i in range(depth - 1)] + [Atom("lt", ("x", "y"))])))
    plan = msoeval._plan(chain, scoped=True)
    assert type(plan.nodes[plan.root].body) is Conj
    atoms = [Atom(f"r{i % 7}", ("x",)) if i % 3 else Atom("lt", ("x", "x")) for i in range(depth)]
    sentences = [
        (chain, False),
        (ExistsFO("x", parse_sexpr("(not " * depth + "(lt x x)" + ")" * depth)), True),
        (parse_sexpr("(exists x " * depth + "(lt x x)" + ")" * depth), True),
        (ExistsFO("x", conj_all(atoms)), False),
    ]
    monkeypatch.setattr(msoeval, "CELL_LIMIT", 4)  # five elements outgrow it: the scoped plan runs
    for f, want in sentences:
        assert eval_finite(f, s) == want
        hits = msoeval._plan.cache_info().hits
        msoeval._plan(f, scoped=True)  # eval_finite built it: a cache hit
        assert msoeval._plan.cache_info().hits == hits + 1


# ---------------------------------------------------------------------------
# Diagnostics: B-free nodes are shared, and every B occurrence still
# reports as on a plan with one node per tree position


class _PerPositionPlan:
    """The plan that diagnostics requests used to run on, kept here as the
    reference: one node per tree position, nothing shared."""

    peak = msoeval._Plan.peak

    def __init__(self, sentence):
        self.nodes, self.kind, self.kids, self.fo, self.so, self.names = [], [], [], [], [], []
        self.peaks, self.layouts = {}, {}
        self.root = self._add(sentence)
        self.atoms = {f for f in self.nodes if type(f) is Atom}
        self.widest = (max(map(len, self.fo)), max(map(len, self.so)))

    def _add(self, f):
        kids = tuple(self._add(c) for c in _children(f))
        fo, so = _free_names(f)
        self.nodes.append(f)
        self.kind.append(msoeval._KINDS.index(type(f)))
        self.kids.append(kids)
        self.fo.append(tuple(sorted(fo)))
        self.so.append(tuple(sorted(so)))
        self.names.append(tuple(sorted(fo | so)))
        return len(self.nodes) - 1


def _diagnostics_cases():
    """(sentence, structure, assignment) triples on 0-6 elements: the
    sentences emitted for every target the sigma0 signature allows, and
    random formulas with repeated and nested B."""
    rng = random.Random(43)
    unpinned = [r for r in SIGMA0 if r.kind != CONSTANT]
    emitted = [emit_hom_sentence(list(SIGMA0), "Z"), emit_hom_sentence([LT], "Z_order_only"),
               emit_hom_sentence(unpinned, "N"), emit_hom_sentence(unpinned, "negZ")]
    cases = [(f, random_sigma0_structure(rng, n, 0.2, 0.2), {}) for f in emitted for n in range(7)]
    formulas = [_random_reusing_mso(rng, 5, []) for _ in range(100)] + [_scoping_mso(rng, 3) for _ in range(100)]
    for f in formulas:
        if rng.random() < 0.5:  # f again, under a binder of one of its names
            f = rng.choice([Conj, Disj, Implies])(f, rng.choice([ExistsFO, ForallFO])(rng.choice("xyz"), f))
        s = random_sigma0_structure(rng, rng.randint(1 if fo_free(f) else 0, 6), 0.3, 0.4)
        env = {v: rng.choice(s.elements) for v in "xyz" if s.elements}
        env.update({v: [e for e in s.elements if rng.random() < 0.5] for v in "XY"})
        cases.append((f, s, env))
    return cases


def test_diagnostics_match_the_per_position_plan(monkeypatch):
    cases = _diagnostics_cases()
    references = {f: _PerPositionPlan(f) for f, _, _ in cases}
    # some B occurrence repeats: a plan sharing it would report it once
    assert sum(len(msoeval._plan(f).nodes) > len(postorder(f)) for f in references) > 10
    heavy = emit_hom_sentence(list(SIGMA0), "Z")
    reported = 0
    for limit in (msoeval.CELL_LIMIT, 1):  # 1: every quantifier loops over its values
        monkeypatch.setattr(msoeval, "CELL_LIMIT", limit)
        for f, s, env in cases:
            if limit == 1 and f is heavy and len(s.elements) == 6:
                continue  # about 18 s on either plan
            ev = msoeval._Evaluator(s, {})
            want = ev.run(references[f], msoeval._convert_assignment(env, ev.index)), ev.diagnostics
            diagnostics = {}
            got = eval_finite(f, s, env, diagnostics=diagnostics), diagnostics
            assert got == want, (limit, to_sexpr(f), s.elements, env)
            reported += len(want[1].get("bounded_sets", []))
    assert reported > 100
