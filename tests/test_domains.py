"""Concrete domains: relation semantics, negation tables, interpretations."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctlz import (
    ALLEN_DOMAIN,
    Constraint,
    DomainError,
    EQ,
    LT,
    N_DOMAIN,
    NEGZ_DOMAIN,
    Q_DOMAIN,
    Z_DOMAIN,
    abstract_constraints,
    apply_interpretation,
    component_name,
    const_rel,
    domain_by_name,
    format_formula,
    interpretation_by_name,
    mod_rel,
    parse_formula,
    relation_from_name,
    to_snnf,
)
from ctlz.cli import run_command
from ctlz.domains import ALLEN_RELATIONS, LexDomain, PositiveExistential, instantiate


def test_order_and_equality_on_integers():
    assert Z_DOMAIN.eval_relation(LT, (3, 5))
    assert not Z_DOMAIN.eval_relation(LT, (5, 3))
    assert not Z_DOMAIN.eval_relation(LT, (4, 4))
    assert Z_DOMAIN.eval_relation(EQ, (4, 4))
    assert not Z_DOMAIN.eval_relation(EQ, (4, 5))


def test_constant_and_modulo_relations():
    assert Z_DOMAIN.eval_relation(const_rel(5), (5,))
    assert not Z_DOMAIN.eval_relation(const_rel(5), (6,))
    assert Z_DOMAIN.eval_relation(mod_rel(2, 3), (-7,))  # -7 = 2 - 3*3
    assert Z_DOMAIN.eval_relation(mod_rel(0, 2), (-4,))
    assert not Z_DOMAIN.eval_relation(mod_rel(1, 2), (-4,))


def test_value_membership_per_domain():
    assert Z_DOMAIN.check_value(-3) and Z_DOMAIN.check_value(0)
    assert not Z_DOMAIN.check_value(True)
    assert not Z_DOMAIN.check_value(Fraction(1, 2))
    assert N_DOMAIN.check_value(0) and not N_DOMAIN.check_value(-1)
    assert NEGZ_DOMAIN.check_value(-1) and not NEGZ_DOMAIN.check_value(0)
    assert Q_DOMAIN.check_value(Fraction(1, 2)) and Q_DOMAIN.check_value(2)


def test_rational_domain_signature():
    assert Q_DOMAIN.supports(const_rel(Fraction(1, 2)))
    assert not Z_DOMAIN.supports(const_rel(Fraction(1, 2)))
    assert not Q_DOMAIN.supports(mod_rel(1, 3))
    assert Z_DOMAIN.supports(mod_rel(1, 3))


def test_domain_by_name():
    assert domain_by_name("Z") is Z_DOMAIN
    assert domain_by_name("N") is N_DOMAIN
    assert domain_by_name("negZ") is NEGZ_DOMAIN
    assert domain_by_name("Q") is Q_DOMAIN
    assert domain_by_name("allenZ") is ALLEN_DOMAIN
    assert domain_by_name("lexZ[2]").name == "lexZ[2]"
    with pytest.raises(DomainError, match="unknown domain"):
        domain_by_name("R")


# ---------------------------------------------------------------------------
# Negation tables: the table entry must hold exactly when the relation fails,
# whenever a witness can range over enough of the universe.


def _universe(dom):
    if dom is ALLEN_DOMAIN:
        return [(s, e) for s in range(-2, 3) for e in range(s + 1, 3)]
    if isinstance(dom, LexDomain):
        return list(itertools.product((-1, 0, 1), repeat=dom.width))
    if dom is N_DOMAIN:
        return list(range(0, 13))
    if dom is NEGZ_DOMAIN:
        return list(range(-13, 0))
    if dom is Q_DOMAIN:
        base = [Fraction(k, 2) for k in range(-12, 13)]
        return base
    return list(range(-8, 9))


def _relations_for(dom):
    if dom is ALLEN_DOMAIN:
        return [relation_from_name(name) for name in ALLEN_RELATIONS]
    if isinstance(dom, LexDomain):
        return [relation_from_name("ltlex"), relation_from_name("eqlex")]
    rels = [LT, EQ]
    for c in (0, 2, 5):
        if dom.supports(const_rel(c)):
            rels.append(const_rel(c))
    if dom is NEGZ_DOMAIN:
        rels.append(const_rel(-3))
    if dom is Q_DOMAIN:
        rels.append(const_rel(Fraction(1, 2)))
    for rel in (mod_rel(0, 2), mod_rel(1, 2), mod_rel(2, 3)):
        if dom.supports(rel):
            rels.append(rel)
    return rels


@pytest.mark.parametrize(
    "dom", [Z_DOMAIN, N_DOMAIN, NEGZ_DOMAIN, Q_DOMAIN, ALLEN_DOMAIN, LexDomain(2)], ids=lambda d: d.name
)
def test_negation_table_complements_relation(dom):
    universe = _universe(dom)
    for rel in _relations_for(dom):
        entry = dom.negation_formula(rel)
        for values in itertools.product(universe, repeat=rel.arity):
            direct = dom.eval_relation(rel, values)
            negated = entry.eval(dom, values, universe)
            assert direct != negated, (dom.name, rel.name, values)


def test_negation_table_rejects_unsupported_relation():
    with pytest.raises(DomainError):
        Q_DOMAIN.negation_formula(mod_rel(1, 3))
    with pytest.raises(DomainError):
        Z_DOMAIN.negation_formula(const_rel(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Allen's interval relations


@st.composite
def _interval(draw):
    a = draw(st.integers(-10, 9))
    b = draw(st.integers(a + 1, 10))
    return (a, b)


@given(_interval(), _interval())
@settings(max_examples=300)
def test_allen_relations_partition_interval_pairs(i, j):
    holding = [
        name
        for name in ALLEN_RELATIONS
        if ALLEN_DOMAIN.eval_relation(relation_from_name(name), (i, j))
    ]
    assert len(holding) == 1


def test_allen_value_membership():
    assert ALLEN_DOMAIN.check_value((1, 3))
    assert not ALLEN_DOMAIN.check_value((3, 1))
    assert not ALLEN_DOMAIN.check_value((2, 2))
    assert not ALLEN_DOMAIN.check_value(3)


def test_allen_negations_use_the_builtin_eq():
    # eq(x, y) and the eq of a negation entry are one constraint, so they
    # get one proposition, and the SNNF prints back to the same formula
    f = parse_formula("E (eq(x, y) & ~b(x, y))")
    snnf = to_snnf(f, ALLEN_DOMAIN)
    assert parse_formula(format_formula(snnf)) == snnf
    _, table = abstract_constraints(snnf)
    assert [format_formula(e.constraint) for e in table] == [
        f"{name}(x, y)" for name in ("eq",) + ALLEN_RELATIONS[1:-1]
    ]
    for name in ALLEN_RELATIONS:
        snnf = to_snnf(parse_formula(f"E ~{name}(x, X^1 y)"), ALLEN_DOMAIN)
        assert parse_formula(format_formula(snnf)) == snnf


def test_abstract_command_gives_allen_eq_one_proposition(capsys):
    assert run_command(["abstract", "--domain", "allenZ", "--formula", "E (eq(x, y) & ~b(x, y))"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "E (ap0 & (ap1 | ap2 | ap3 | ap4 | ap5 | ap6 | ap7 | ap8 | ap9 | ap10 | ap11 | ap0))"
    assert lines[1] == "ap0 := eq(x, y)  depth 0"
    assert lines[2:] == [f"ap{k} := {name}(x, y)  depth 0" for k, name in enumerate(ALLEN_RELATIONS[1:-1], 1)]


def test_allen_spot_checks():
    before = relation_from_name("b")
    meets = relation_from_name("m")
    during = relation_from_name("d")
    assert ALLEN_DOMAIN.eval_relation(before, ((0, 1), (2, 3)))
    assert ALLEN_DOMAIN.eval_relation(meets, ((0, 2), (2, 3)))
    assert ALLEN_DOMAIN.eval_relation(during, ((1, 2), (0, 3)))


# ---------------------------------------------------------------------------
# Lexicographic tuples


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=200)
def test_lex_relations_match_tuple_comparison(u, v):
    lex = domain_by_name("lexZ[2]")
    assert lex.eval_relation(relation_from_name("ltlex"), (u, v)) == (u < v)
    assert lex.eval_relation(relation_from_name("eqlex"), (u, v)) == (u == v)


def test_lex_value_membership():
    lex = domain_by_name("lexZ[3]")
    assert lex.check_value((1, 2, 3))
    assert not lex.check_value((1, 2))
    assert not lex.check_value([1, 2, 3])


# ---------------------------------------------------------------------------
# Existential interpretations


def test_interpretations_by_name():
    assert interpretation_by_name("identity").tuple_width == 1
    assert interpretation_by_name("allenZ").tuple_width == 2
    assert interpretation_by_name("lexZ[3]").tuple_width == 3
    with pytest.raises(DomainError):
        interpretation_by_name("nope")


def test_lex_interpretation_expands_components():
    interp = interpretation_by_name("lexZ[2]")
    f = parse_formula("E X ltlex(x, X^1 y)")
    out = apply_interpretation(interp, f)
    text = format_formula(out)
    for name in (
        component_name("x", 1),
        component_name("x", 2),
        component_name("y", 1),
        component_name("y", 2),
    ):
        assert name in text
    assert "ltlex" not in text


def test_identity_interpretation_keeps_source_shape():
    interp = interpretation_by_name("identity")
    f = parse_formula("E (lt(x, X^1 x) U eq(x, x))")
    out = apply_interpretation(interp, f)
    text = format_formula(out)
    assert component_name("x", 1) in text


def _body_truth(body, values: tuple) -> bool:
    """Truth in (Z, <, =) of an interpretation body whose argument i is
    the tuple values[i]."""
    width = len(values[0])
    terms = {f"a{i}_{j}": (0, f"y{i * width + j}") for i in range(len(values)) for j in range(width)}
    return PositiveExistential(0, instantiate(body, terms)).eval(Z_DOMAIN, sum(values, ()), ())


@pytest.mark.parametrize("name", ["lexZ[1]", "lexZ[2]", "lexZ[3]", "allenZ"])
def test_interpretation_bodies_agree_with_tuple_domain(name):
    # lexZ[n] relations are Python's tuple order and equality, allenZ's
    # are _allen_truth on valid intervals
    interp = interpretation_by_name(name)
    dom = domain_by_name(name)
    universe = _universe(dom)
    for rel_name, arity, body in interp.relations:
        rel = relation_from_name(rel_name)
        for values in itertools.product(universe, repeat=arity):
            assert _body_truth(body, values) == dom.eval_relation(rel, values), (rel_name, values)


def test_allen_domain_body_is_check_value():
    body = interpretation_by_name("allenZ").domain_body
    for pair in itertools.product(range(-2, 3), repeat=2):
        assert _body_truth(body, (pair,)) == ALLEN_DOMAIN.check_value(pair), pair


def test_relation_test_agrees_with_eval_relation():
    # the per-kind closures keep the per-tuple arity check and its text
    rels = [LT, EQ, const_rel(0), const_rel(-3), const_rel(Fraction(1, 2)), mod_rel(1, 3), mod_rel(0, 2)]
    values = [-4, -1, 0, 1, 2, 7, Fraction(1, 2), Fraction(-5, 3)]
    for dom in (Z_DOMAIN, N_DOMAIN, NEGZ_DOMAIN, Q_DOMAIN):
        for rel in (r for r in rels if dom.supports(r)):
            holds = dom.relation_test(rel)
            for k in (1, 2, 3):
                for v in itertools.product(values, repeat=k):
                    if k != rel.arity:
                        with pytest.raises(DomainError, match=re.escape(f"{rel.name} is {rel.arity}-ary, got {k} values")):
                            holds(v)
                    else:
                        assert holds(v) == dom.eval_relation(rel, v), (dom, rel, v)
