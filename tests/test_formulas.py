"""Parsing, printing, normal forms, abstraction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctlz import (
    All,
    And,
    BoolConst,
    Constraint,
    EQ,
    Exists,
    FALSE,
    FormulaError,
    LT,
    Next,
    Not,
    Or,
    Prop,
    Release,
    TRUE,
    Until,
    Z_DOMAIN,
    abstract_constraints,
    const_rel,
    count_e,
    format_formula,
    interp_rel,
    is_nnf,
    is_snnf,
    is_state_formula,
    max_constraint_depth,
    mod_rel,
    negate,
    parse_formula,
    parse_path_formula,
    propositions_of,
    relation_from_name,
    substitute_props,
    to_nnf,
    to_snnf,
    variables_of,
)
from ctlz.formulas import constraints_of


# ---------------------------------------------------------------------------
# Parsing and printing

# 10^4 nested quantified steps and a 10^4-long conjunction, both in the
# canonical text the printer produces
_DEEP_NEXT = "E X " * 10_000 + "~eqc[5](X^1 x)"
_LONG_AND = "E (" + " & ".join(["~lt(x, X^1 y)", "p"] * 5_000) + ")"


@pytest.mark.parametrize("text", [_DEEP_NEXT, _LONG_AND], ids=["deep-next", "long-and"])
def test_deep_and_long_formulas_need_no_recursion(text):
    f = parse_formula(text)
    assert format_formula(f) == text
    if text is _DEEP_NEXT:
        assert parse_formula("E X (" * 10_000 + "~eqc[5](X^1 x)" + ")" * 10_000) is f
    nnf = to_nnf(f)
    assert is_nnf(nnf) and to_nnf(Not(Not(f))) is nnf and negate(negate(nnf)) is nnf
    sn = to_snnf(f, Z_DOMAIN)
    assert is_snnf(sn)
    abstracted, table = abstract_constraints(sn)
    assert substitute_props(abstracted, table) is sn
    assert max_constraint_depth(abstracted) == 0


def test_precedence_or_under_and():
    f = parse_path_formula("a | b & c")
    assert f == Or(Prop("a"), And(Prop("b"), Prop("c")))


def test_precedence_until_binds_tighter_than_and():
    f = parse_path_formula("a U b & c")
    assert f == And(Until(Prop("a"), Prop("b")), Prop("c"))


def test_until_is_right_associative():
    f = parse_path_formula("a U b U c")
    assert f == Until(Prop("a"), Until(Prop("b"), Prop("c")))
    assert format_formula(f) == "a U b U c"


def test_unary_binds_tightest():
    assert parse_path_formula("~a U b") == Until(Not(Prop("a")), Prop("b"))
    assert parse_path_formula("X a & b") == And(Next(Prop("a")), Prop("b"))


def test_quantifier_scopes_over_body():
    f = parse_formula("E (a U b)")
    assert f == Exists(Until(Prop("a"), Prop("b")))


def test_constraint_terms_and_depth():
    f = parse_path_formula("lt(X^2 x, y)")
    assert f == Constraint(LT, ((2, "x"), (0, "y")))
    assert max_constraint_depth(f) == 2
    assert f.depth == 2


def test_plain_x_term_means_offset_zero():
    f = parse_path_formula("eq(x, X^1 x)")
    assert f.args == ((0, "x"), (1, "x"))


def test_bool_constants_parse():
    assert parse_path_formula("true") == TRUE
    assert parse_path_formula("false") == FALSE


def test_relation_name_forms():
    assert relation_from_name("eqc[5]").params == (5,)
    assert relation_from_name("eqc[1/2]").params == (Fraction(1, 2),)
    assert relation_from_name("mod[1,3]").params == (1, 3)
    assert relation_from_name("lt") == LT
    free = relation_from_name("edge", 2)
    assert free.arity == 2 and free == interp_rel("edge", 2)
    assert relation_from_name("eqc[-3/06]").params == (Fraction(-1, 2),)
    with pytest.raises(FormulaError, match=r"^bad relation name 'eqc\[1/00\]'$"):
        relation_from_name("eqc[1/00]")


def test_fraction_constants_round_trip_in_formula_text():
    f = parse_path_formula("eqc[1/2](x)")
    assert f.relation.params == (Fraction(1, 2),)
    assert parse_path_formula(format_formula(f)) == f
    with pytest.raises(FormulaError, match="denominator"):
        parse_path_formula("eqc[1/0](x)")
    with pytest.raises(FormulaError, match="modulo"):
        parse_path_formula("mod[1/2,3](x)")


def test_reserved_prefix_rejected():
    with pytest.raises(FormulaError, match="reserved prefix"):
        relation_from_name("__c0")
    with pytest.raises(FormulaError):
        parse_path_formula("__p & a")


def test_parse_error_carries_position():
    with pytest.raises(FormulaError) as info:
        parse_formula("E (a U )")
    assert info.value.line == 1
    assert info.value.column == 8


def test_state_formula_required_at_top_level():
    with pytest.raises(FormulaError, match="path quantifier"):
        parse_formula("a U b")
    assert parse_formula("E (a U b)") is not None


def test_is_state_formula():
    assert is_state_formula(parse_formula("E X a"))
    assert is_state_formula(parse_formula("a & E (b U c)"))
    assert not is_state_formula(parse_path_formula("X a"))
    assert not is_state_formula(parse_path_formula("lt(x, y)"))
    assert is_state_formula(parse_formula(_DEEP_NEXT))
    assert not is_state_formula(parse_path_formula(_LONG_AND[3:-1] + " & X p"))


def test_equal_formulas_are_one_node():
    text = "E (~lt(x, X^1 y) U (p & A X eqc[1/2](z)))"
    assert parse_formula(text) is parse_formula(text)
    assert And(Prop("a"), Prop("b")) is And(left=Prop("a"), right=Prop("b"))
    assert Constraint(LT, [(0, "x"), (1, "y")]) is parse_path_formula("lt(x, X^1 y)")
    # eqc[2] and eqc[2/1] print alike but only the first is an integer constant
    assert parse_path_formula("eqc[2](x)") is not parse_path_formula("eqc[2/1](x)")
    with pytest.raises(AttributeError):
        Prop("a").name = "b"
    deep = parse_formula(_DEEP_NEXT)
    assert hash(deep) == hash(parse_formula(_DEEP_NEXT))
    assert repr(deep).startswith("Exists(sub=Next(sub=Exists(") and repr(deep).endswith(")" * 20_003)
    assert repr(Constraint(EQ, ((0, "x"), (0, "y")))) == (
        "Constraint(relation=RelationSymbol(name='eq', arity=2, kind='equal', params=()), "
        "args=((0, 'x'), (0, 'y')))"
    )


_REL = st.sampled_from([LT, EQ, const_rel(0), const_rel(5), mod_rel(1, 3)])


@st.composite
def _constraints(draw):
    rel = draw(_REL)
    args = tuple(
        (draw(st.integers(0, 2)), draw(st.sampled_from(["x", "y"])))
        for _ in range(rel.arity)
    )
    return Constraint(rel, args)


_FORMULAS = st.recursive(
    st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.sampled_from(["a", "b", "p1"]).map(Prop),
        _constraints(),
    ),
    lambda sub: st.one_of(
        sub.map(Not),
        sub.map(Next),
        sub.map(Exists),
        sub.map(All),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Until(*t)),
        st.tuples(sub, sub).map(lambda t: Release(*t)),
    ),
    max_leaves=12,
)


@given(_FORMULAS)
@settings(max_examples=150)
def test_print_parse_round_trip(f):
    assert parse_path_formula(format_formula(f)) == f


@given(_FORMULAS)
@settings(max_examples=150)
def test_nnf_properties(f):
    nnf = to_nnf(f)
    assert is_nnf(nnf)
    assert to_nnf(nnf) == nnf
    assert to_nnf(Not(Not(f))) == nnf


@given(_FORMULAS)
@settings(max_examples=100)
def test_negate_is_an_involution_up_to_nnf(f):
    assert negate(negate(to_nnf(f))) == to_nnf(f)


# ---------------------------------------------------------------------------
# Strong negation normal form


def test_snnf_keeps_negated_props():
    sn = to_snnf(parse_formula("E (~a U ~lt(x, y))"), Z_DOMAIN)
    assert is_snnf(sn)
    assert sn == Exists(Until(Not(Prop("a")), Or(
        Constraint(LT, ((0, "y"), (0, "x"))),
        Constraint(EQ, ((0, "x"), (0, "y"))),
    )))


def test_snnf_order_negation_needs_no_witness():
    sn = to_snnf(parse_formula("E G ~lt(x, X^1 y)"), Z_DOMAIN)
    assert set(variables_of(sn)) == {"x", "y"}


def test_snnf_witnesses_shared_per_negated_constraint():
    sn = to_snnf(parse_formula("E ((~eqc[5](x)) U X ~eqc[5](x))"), Z_DOMAIN)
    assert set(variables_of(sn)) == {"__y0", "x"}
    sn2 = to_snnf(parse_formula("E ((~eqc[5](x)) U ~eqc[7](y))"), Z_DOMAIN)
    assert set(variables_of(sn2)) == {"__y0", "__y1", "x", "y"}


def test_snnf_witness_sits_at_constraint_depth():
    sn = to_snnf(parse_formula("E ~eqc[5](X^2 x)"), Z_DOMAIN)
    offsets = {off for c in constraints_of(sn) for off, _ in c.args}
    assert offsets == {2}


@given(_FORMULAS)
@settings(max_examples=100)
def test_snnf_output_is_snnf(f):
    assert is_snnf(to_snnf(f, Z_DOMAIN))


# ---------------------------------------------------------------------------
# Abstraction


def test_abstraction_replaces_constraints_with_nested_next():
    f = to_snnf(parse_formula("E (lt(x, X^1 y) U eqc[5](x))"), Z_DOMAIN)
    abstracted, table = abstract_constraints(f)
    assert format_formula(abstracted) == "E (X __p0 U __p1)"
    entries = [(str(e.constraint), e.prop, e.depth) for e in table]
    assert entries == [("lt(x, X^1 y)", "__p0", 1), ("eqc[5](x)", "__p1", 0)]
    assert propositions_of(abstracted) == ["__p0", "__p1"]


def test_abstraction_reuses_prop_for_repeated_constraint():
    f = parse_formula("E (lt(x, y) U X lt(x, y))")
    abstracted, table = abstract_constraints(f)
    assert len(table) == 1
    assert format_formula(abstracted) == "E (__p0 U X __p0)"


def test_abstraction_custom_prefix():
    f = parse_formula("E X lt(x, y)")
    abstracted, table = abstract_constraints(f, prop_prefix="ap")
    assert propositions_of(abstracted) == ["ap0"]


def test_substitute_props_inverts_abstraction():
    f = to_snnf(parse_formula("E ((lt(x, X^1 x) | eq(x, y)) U mod[1,3](X^2 y))"), Z_DOMAIN)
    abstracted, table = abstract_constraints(f)
    assert substitute_props(abstracted, table) == f


@given(_FORMULAS)
@settings(max_examples=100)
def test_substitution_round_trip_random(f):
    sn = to_snnf(f, Z_DOMAIN)
    abstracted, table = abstract_constraints(sn)
    assert substitute_props(abstracted, table) == sn


def test_count_e_counts_distinct_exists_after_nnf():
    f = parse_formula("(E X a) & (A X ((E X a) | (E X b)))")
    assert count_e(f) == (2, 3)
    g = parse_formula("~(A X a)")
    assert count_e(g) == (1, 2)
