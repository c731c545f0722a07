"""Models, structures, file formats, abstraction and extraction."""

import json
import random
from fractions import Fraction

import pytest

from ctlz import (
    AbstractionTable,
    Constraint,
    ConstraintKripke,
    EQ,
    LT,
    SigmaStructure,
    StructureError,
    TableEntry,
    abstract_model,
    const_rel,
    decide_hom,
    element_id,
    extract_constraint_graph,
    gamma_map,
    model_from_text,
    model_to_text,
    structure_from_text,
    structure_to_text,
    tree_shape,
    validate_model,
    validate_structure,
    Z_DOMAIN,
)
from ctlz.formulas import abstract_constraints, interp_rel, parse_formula, to_snnf
from ctlz.structures import json_text
from conftest import random_graph_model, random_tree_model


def _graph():
    return ConstraintKripke(
        ["s0", "s1"],
        {("s0", "s1"), ("s1", "s0"), ("s1", "s1")},
        {"s0": frozenset({"p"})},
        {("s0", "x"): 0, ("s1", "x"): 5},
        ["x"],
    )


def _two_level_tree(values):
    nodes = ["", "1", "2"]
    edges = {("", "1"), ("", "2")}
    registers = {(n, "x"): values[n] for n in nodes}
    return ConstraintKripke(nodes, edges, {}, registers, ["x"], tree_shape(2, 1))


# ---------------------------------------------------------------------------
# Validation


def test_graph_must_be_total():
    m = _graph()
    m.edges.discard(("s1", "s0"))
    m.edges.discard(("s1", "s1"))
    with pytest.raises(StructureError, match="not total"):
        validate_model(m)
    # the message names the first node, in node order, without a successor
    nodes = ["n3", "n0", "n2", "n1"]
    edges = {("n0", "n3"), ("n1", "n0")}
    m = ConstraintKripke(nodes, edges, {}, {(n, "x"): 0 for n in nodes}, ["x"])
    with pytest.raises(StructureError, match=r"^graph is not total: node 'n3' has no successor$"):
        validate_model(m)
    m.edges.add(("n3", "n2"))
    with pytest.raises(StructureError, match=r"^graph is not total: node 'n2' has no successor$"):
        validate_model(m)


def test_edge_endpoints_must_exist():
    m = _graph()
    m.edges.add(("s0", "ghost"))
    with pytest.raises(StructureError, match="unknown node"):
        validate_model(m)


def test_every_register_must_be_present():
    m = _graph()
    del m.registers[("s1", "x")]
    with pytest.raises(StructureError, match="missing register"):
        validate_model(m)


def test_reserved_prop_rejected_by_default():
    m = _graph()
    m.labels["s0"] = frozenset({"__c0"})
    with pytest.raises(StructureError, match="reserved"):
        validate_model(m)
    validate_model(m, allow_reserved=True)


def test_tree_nodes_prefix_closed_and_bounded():
    t = _two_level_tree({"": 0, "1": 1, "2": 2})
    validate_model(t)
    bad = ConstraintKripke(["", "11"], set(), {}, {("", "x"): 0, ("11", "x"): 1}, ["x"], tree_shape(2, 2))
    with pytest.raises(StructureError, match="prefix closed"):
        validate_model(bad)
    deep = ConstraintKripke(
        ["", "1", "11"],
        set(),
        {},
        {("", "x"): 0, ("1", "x"): 0, ("11", "x"): 0},
        ["x"],
        tree_shape(2, 1),
    )
    with pytest.raises(StructureError, match="deeper"):
        validate_model(deep)


def test_structure_validation():
    s = SigmaStructure(["a", "b"], {LT: [("a", "b")]})
    validate_structure(s)
    with pytest.raises(StructureError, match="unknown element"):
        validate_structure(SigmaStructure(["a"], {LT: [("a", "c")]}))
    with pytest.raises(StructureError, match="ary"):
        validate_structure(SigmaStructure(["a"], {LT: [("a",)]}))
    with pytest.raises(StructureError, match="duplicate"):
        validate_structure(SigmaStructure(["a", "a"], {}))


# ---------------------------------------------------------------------------
# File formats


def test_model_text_round_trip_graph():
    m = _graph()
    assert model_from_text(model_to_text(m)) == m


def test_model_text_round_trip_tree():
    t = _two_level_tree({"": 3, "1": -1, "2": 0})
    text = model_to_text(t)
    assert "SHAPE tree 2 1" in text
    assert "\neps x 3" in text  # the root is written as eps
    assert model_from_text(text) == t


def test_model_text_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        m = random_graph_model(rng, rng.randint(1, 4), ("x", "y"), props=("p", "q"))
        assert model_from_text(model_to_text(m)) == m
        t = random_tree_model(rng, depth=2, k=2, variables=("x",), props=("p",))
        assert model_from_text(model_to_text(t)) == t


def test_model_text_round_trip_keeps_register_types():
    # Fraction(2) == 2, so equal models may still differ in a register's
    # type: a whole Fraction must be written as 2/1, not as the integer 2
    registers = {("s0", "x"): Fraction(2), ("s0", "y"): Fraction(1, 2),
                 ("s1", "x"): -3, ("s1", "y"): (Fraction(-4), 5)}
    m = ConstraintKripke(["s0", "s1"], {("s0", "s1"), ("s1", "s0")}, {}, registers, ["x", "y"])
    text = model_to_text(m)
    assert "s0 x 2/1" in text and "s1 y (-4/1,5)" in text
    back = model_from_text(text).registers

    def typed(v):
        return tuple(map(typed, v)) if isinstance(v, tuple) else (type(v), v)

    assert {k: typed(v) for k, v in back.items()} == {k: typed(v) for k, v in registers.items()}


def test_model_file_comments_and_blank_lines():
    text = """# a tiny model
SHAPE graph
VARS x

NODES
s0
EDGES
s0 s0   # self loop
REGISTERS
s0 x 7
"""
    m = model_from_text(text)
    assert m.nodes == ["s0"] and m.registers[("s0", "x")] == 7


def test_model_file_fraction_and_tuple_registers():
    text = """SHAPE graph
VARS x
NODES
s0
EDGES
s0 s0
REGISTERS
s0 x 1/2
"""
    assert model_from_text(text).registers[("s0", "x")] == Fraction(1, 2)
    text2 = text.replace("1/2", "(1,2)")
    assert model_from_text(text2).registers[("s0", "x")] == (1, 2)


def test_model_file_errors():
    with pytest.raises(StructureError, match="SHAPE"):
        model_from_text("VARS x\nNODES\ns0\n")
    with pytest.raises(StructureError, match="bad register value"):
        model_from_text("SHAPE graph\nVARS x\nNODES\ns0\nEDGES\ns0 s0\nREGISTERS\ns0 x pi\n")
    with pytest.raises(StructureError):
        model_from_text("SHAPE tree 2\nVARS x\nNODES\neps\nREGISTERS\neps x 0\n")


_GRAPH_HEAD = "SHAPE graph\nVARS x\nNODES\ns0\nEDGES\ns0 s0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "model file must start with a SHAPE line"),
        ("# only a comment\n\nVARS x\n", "model file must start with a SHAPE line"),
        ("SHAPE cube\nVARS x\n", "bad SHAPE line 'SHAPE cube'"),
        ("SHAPE tree two 1\nVARS x\n", "bad SHAPE line 'SHAPE tree two 1'"),
        ("SHAPE graph\n", "model file needs a VARS line after SHAPE"),
        ("SHAPE graph\nNODES\ns0\n", "model file needs a VARS line after SHAPE"),
        ("SHAPE graph\nVARS,x y\nNODES\ns0\n", "bad VARS line 'VARS,x y'"),
        ("SHAPE graph\nVARSx\nNODES\ns0\n", "bad VARS line 'VARSx'"),
        ("SHAPE graph\nVARS x\ns0\nNODES\ns0\n", "unexpected line 's0' before any section"),
        (_GRAPH_HEAD + "s0 s0 s0\n", "bad edge line 's0 s0 s0'"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x\n", "bad register line 's0 x'"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x 1 2\n", "bad register line 's0 x 1 2'"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x 1/0\n", "bad register value '1/0'"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x (2,-3/00)\n", "bad register value '-3/00'"),
        ("SHAPE tree 2 1\nVARS x\nNODES\neps\n0\n", "bad tree node id '0'"),
        ("SHAPE tree 2 1\nVARS x\nNODES\neps\nREGISTERS\nroot x 0\n", "bad tree node id 'root'"),
        (_GRAPH_HEAD + "REGISTERS\n", "missing register value for ('s0', 'x')"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x 0\ns0 z 0\n", "register entry ('s0', 'z') outside nodes x variables"),
        (_GRAPH_HEAD + "REGISTERS\ns0 x 0\ns9 x 0\n", "register entry ('s9', 'x') outside nodes x variables"),
        (_GRAPH_HEAD + "LABELS\ns9 p\nREGISTERS\ns0 x 0\n", "label on unknown node 's9'"),
    ],
)
def test_model_reader_error_texts(text, message):
    with pytest.raises(StructureError) as info:
        model_from_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "body, message",
    [
        # the first malformed line in file order is the one reported
        ("EDGES\ns0\ns0 s0 s0\n", "bad edge line 's0'"),
        ("REGISTERS\ns0 x\nEDGES\ns0\n", "bad register line 's0 x'"),
        ("EDGES\ns0\nREGISTERS\ns0 x\n", "bad edge line 's0'"),
        ("REGISTERS\ns0 x pi\ns0 x\n", "bad register value 'pi'"),
        ("REGISTERS\ns0 x\ns0 x pi\n", "bad register line 's0 x'"),
    ],
)
def test_model_reader_reports_the_first_malformed_line(body, message):
    with pytest.raises(StructureError) as info:
        model_from_text("SHAPE graph\nVARS x\nNODES\ns0\n" + body)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "body, message",
    [
        ("EDGES\neps 0\neps\n", "bad tree node id '0'"),
        ("EDGES\neps\neps 0\n", "bad edge line 'eps'"),
        ("REGISTERS\n0 x 1\neps x\n", "bad tree node id '0'"),
        ("REGISTERS\neps x\n0 x 1\n", "bad register line 'eps x'"),
        ("REGISTERS\neps x pi\n0 x 1\n", "bad register value 'pi'"),
        ("REGISTERS\n0 x pi\n", "bad tree node id '0'"),
        ("LABELS\n0 p\nREGISTERS\neps x\n", "bad tree node id '0'"),
    ],
)
def test_tree_reader_reports_the_first_malformed_line(body, message):
    with pytest.raises(StructureError) as info:
        model_from_text("SHAPE tree 2 1\nVARS x\nNODES\neps\n1\n" + body)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "structure file must start with ELEMENTS"),
        ("a\nELEMENTS\n", "structure file must start with ELEMENTS"),
        ("ELEMENTS\na b\n", "element ids cannot contain spaces: 'a b'"),
        ("ELEMENTS\na\tb\nc\nREL lt\nc c\n", "element ids cannot contain whitespace: 'a\\tb'"),
        ("ELEMENTS\na\xa0b\n", "element ids cannot contain whitespace: 'a\\xa0b'"),
        ("ELEMENTS\na \tb\n", "element ids cannot contain spaces: 'a \\tb'"),
        ("ELEMENTS\na\nREL lt\na z\n", "lt tuple ('a', 'z') mentions an unknown element"),
        ("ELEMENTS\na\nb\na\n", "duplicate elements"),
        ("ELEMENTS\na b\nREL nope[\n", "element ids cannot contain spaces: 'a b'"),
        ("ELEMENTS\na\nREL nope[\nREL __x\n", "bad relation name 'nope['"),
        ("ELEMENTS\na\nREL lt\na a a\nREL nope[\n", "bad relation name 'nope['"),
        ("ELEMENTS\na\nREL eqc[1/0]\na\n", "bad relation name 'eqc[1/0]'"),
        # a repeated header continues an interpreted relation of fixed arity
        ("ELEMENTS\na\nREL ltlex\na a a\nREL ltlex\na a\n", "ltlex is 3-ary, got tuple ('a', 'a')"),
    ],
)
def test_structure_reader_error_texts(text, message):
    with pytest.raises(StructureError) as info:
        structure_from_text(text)
    assert str(info.value) == message


def test_structure_text_round_trip():
    s = SigmaStructure(
        ["a", "b", "c"],
        {LT: [("a", "b"), ("b", "c")], EQ: [], const_rel(0): [("a",)]},
    )
    text = structure_to_text(s)
    assert text.startswith("ELEMENTS\n")
    back = structure_from_text(text)
    assert back.elements == s.elements
    assert {r.name: sorted(t) for r, t in back.interpretation.items()} == {
        r.name: sorted(t) for r, t in s.interpretation.items()
    }


def test_repeated_interpreted_header_continues_the_relation():
    s = structure_from_text("ELEMENTS\na\nb\nc\nREL ltlex\na b c\nREL lt\nREL ltlex\nb c a\n")
    ltlex = interp_rel("ltlex", 3)
    assert s.interpretation == {ltlex: [("a", "b", "c"), ("b", "c", "a")], LT: []}
    # a header with no row yet leaves the arity to a later section
    empty_first = structure_from_text("ELEMENTS\na\nREL ltlex\nREL ltlex\na a a\nREL ltlex\na a a\n")
    assert empty_first.interpretation == {ltlex: [("a", "a", "a")] * 2}


def test_structure_file_errors():
    with pytest.raises(StructureError, match="ELEMENTS"):
        structure_from_text("REL lt\na b\n")
    with pytest.raises(StructureError):
        structure_from_text("ELEMENTS\na\nREL lt\na b c\n")


def _random_json(rng, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice([
            None, True, False, 0, -7, 2**70, 0.5, -1e-300, "", "a b", "line\nbreak",
            "quote \" and \\", "caf\u00e9", ",\n    ", "[", "{}",
        ])
    members = [_random_json(rng, depth - 1) for _ in range(rng.choice([0, 1, 2, 5, 40]))]
    if roll < 0.7:
        return members
    return {rng.choice(["a", "b", "x1", "x10", "\u00e9", "k y", str(i)]) + str(i): m for i, m in enumerate(members)}


def test_json_text_is_the_indented_json():
    # flat containers take the C encoder; the text is json.dumps(indent=2)
    rng = random.Random(41)
    flat = 0
    for _ in range(400):
        payload = {f"k{rng.randint(0, 9)}": _random_json(rng, rng.randint(0, 3)) for _ in range(rng.randint(0, 4))}
        for sort_keys in (False, True):
            assert json_text(payload, sort_keys) == json.dumps(payload, indent=2, sort_keys=sort_keys), payload
        flat += any(type(v) in (list, dict) and v and all(type(m) not in (list, dict) for m in v) for v in payload.values())
    assert flat >= 100
    # x0 = 0 < x1 < ... < x9999 = 1 over Q: a witness map of 10^4 fractions
    elements = [f"x{i}" for i in range(10_000)]
    chain = SigmaStructure(
        elements,
        {LT: list(zip(elements, elements[1:])), const_rel(0): [("x0",)], const_rel(1): [("x9999",)]},
    )
    for decision in (decide_hom(chain, "Q"), decide_hom(SigmaStructure(["a", "b"], {LT: [("a", "b"), ("b", "a")]}), "Z")):
        text = decision.to_json(elements if decision.verdict else ["a", "b"])
        assert text == json.dumps(json.loads(text), indent=2)


# ---------------------------------------------------------------------------
# Abstraction on trees


def _lt_step_table():
    c = Constraint(LT, ((0, "x"), (1, "x")))
    return AbstractionTable((TableEntry(c, "p", 1),))


def test_abstract_model_places_props_by_window():
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    out = abstract_model(t, _lt_step_table(), Z_DOMAIN)
    assert out.label("1") == frozenset({"p"})  # 1 < 5 seen from the parent
    assert out.label("2") == frozenset()
    assert out.label("") == frozenset()  # no ancestor window at the root


def test_abstract_model_rejects_existing_table_prop():
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    t.labels["1"] = frozenset({"p"})
    with pytest.raises(StructureError, match="already carries"):
        abstract_model(t, _lt_step_table(), Z_DOMAIN)


def test_abstract_model_rejects_graphs_and_unknown_vars():
    with pytest.raises(StructureError, match="tree"):
        abstract_model(_graph(), _lt_step_table(), Z_DOMAIN)
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    bad = AbstractionTable((TableEntry(Constraint(LT, ((0, "y"), (1, "y"))), "p", 1),))
    with pytest.raises(StructureError, match="register"):
        abstract_model(t, bad, Z_DOMAIN)


def test_abstract_model_refuses_a_register_value_outside_the_domain():
    for values, named in (({"": 1, "1": (1, 3), "2": 0}, "(1, 3) of variable 'x' at node '1'"),
                          ({"": Fraction(1, 2), "1": 5, "2": 0}, "Fraction(1, 2) of variable 'x' at node 'eps'")):
        with pytest.raises(StructureError) as refused:
            abstract_model(_two_level_tree(values), _lt_step_table(), Z_DOMAIN)
        assert str(refused.value) == f"register value {named} is not in domain Z"


def test_extract_reads_rows_off_labels():
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    labeled = abstract_model(t, _lt_step_table(), Z_DOMAIN)
    graph = extract_constraint_graph(labeled, _lt_step_table())
    rows = graph.interpretation[LT]
    assert rows == [(element_id("", "x"), element_id("1", "x"))]
    assert set(graph.elements) == {element_id(n, "x") for n in t.nodes}


def test_extract_requires_deep_enough_label():
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    t.labels[""] = frozenset({"p"})
    with pytest.raises(StructureError, match="ancestors"):
        extract_constraint_graph(t, _lt_step_table())


@pytest.mark.parametrize(
    "formula", ["E (lt(x, X^1 x) & eq(x, x))", "E (eq(x, X^1 x) & X eq(x, x) & eq(X^1 x, X^1 x))"]
)
def test_extract_rows_equal_the_list_dedupe_on_a_large_tree(formula):
    # the second formula's eq(x, x) at depth 0 and eq(X^1 x, X^1 x) at
    # depth 1 give every labelled node the same row twice
    rng = random.Random(7)
    nodes, frontier = [""], [""]
    for _ in range(11):
        frontier = [v + i for v in frontier for i in "12"]
        nodes += frontier
    assert len(nodes) > 4000
    registers = {(v, "x"): rng.randint(-1, 1) for v in nodes}
    tree = ConstraintKripke(nodes, {(v[:-1], v) for v in nodes if v}, {}, registers, ["x"], tree_shape(2, 11))
    _, table = abstract_constraints(to_snnf(parse_formula(formula), Z_DOMAIN))
    tree = abstract_model(tree, table, Z_DOMAIN)
    expected = {}
    for entry in table:
        rows = expected.setdefault(entry.constraint.relation, [])
        for v in tree.nodes:
            if entry.prop in tree.label(v):
                s, u = v[: len(v) - entry.depth], v[len(v) - entry.depth:]
                row = tuple(element_id(s + u[:off], var) for off, var in entry.constraint.args)
                if row not in rows:
                    rows.append(row)
    graph = extract_constraint_graph(tree, table)
    assert list(graph.interpretation) == list(expected)
    assert graph.interpretation == expected


def test_gamma_map_is_registers_by_element_id():
    t = _two_level_tree({"": 1, "1": 5, "2": 0})
    gm = gamma_map(t)
    assert gm[element_id("1", "x")] == 5
    assert len(gm) == 3


def test_round_trip_gamma_verifies_extracted_graph():
    rng = random.Random(11)
    c = Constraint(LT, ((0, "x"), (1, "x")))
    table = AbstractionTable((TableEntry(c, "p", 1),))
    from ctlz import verify_hom

    for _ in range(30):
        t = random_tree_model(rng, depth=2, k=2, variables=("x",), value_range=3)
        labeled = abstract_model(t, table, Z_DOMAIN)
        graph = extract_constraint_graph(labeled, table)
        assert verify_hom(graph, gamma_map(t), "Z")
