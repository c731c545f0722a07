"""Concrete constraint domains and existential interpretations.

The integer domain carries <, =, =_c for every integer c, and x = a
(mod b); N and negZ are its restrictions to the nonnegative and the
negative integers; Q drops modulo and allows rational constants.  On top
of these, structures whose elements are tuples (lexicographic n-tuples,
Allen intervals) are reduced to the integer domain by existential
interpretations.

Each domain ships a negation table: for every relation it supports, a
positive existential formula equivalent to the complement.  The tables
are what makes strong negation normal form possible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce

from .formulas import (
    CONSTANT,
    EQUAL,
    INTERPRETED,
    LESS,
    MODULO,
    All,
    And,
    Constraint,
    EQ,
    FALSE,
    Formula,
    LT,
    Or,
    Release,
    RelationSymbol,
    TRUE,
    is_state_formula,
    mod_rel,
    parse_path_formula,
    rewrite,
    subformulas,
)


class DomainError(ValueError):
    """A relation or value does not fit the domain."""


# ---------------------------------------------------------------------------
# Bodies of negation-table entries and interpretations are ordinary
# formulas over offset-0 placeholder variables: y0, y1, ... for the
# parameters, z0, ... for the existential witnesses, and a{i}_{j} for
# component j of argument i of an interpreted atom.


def instantiate(body: Formula, terms: dict) -> Formula:
    """body with each placeholder variable replaced by its (offset,
    variable) term in ``terms``."""

    def visit(f: Formula):
        if type(f) is Constraint:
            return Constraint(f.relation, [terms[var] for _, var in f.args])
        return None

    return rewrite(body, visit)


def _entry_terms(params, witnesses) -> dict:
    """Placeholder y{i} -> params[i] and z{q} -> witnesses[q]."""
    terms = {f"y{i}": p for i, p in enumerate(params)}
    terms.update((f"z{q}", w) for q, w in enumerate(witnesses))
    return terms


@dataclass(frozen=True)
class PositiveExistential:
    """exists z0..z{m-1}: body, with body a positive combination of
    constraints over the parameters y0, y1, ... and the witnesses."""

    fresh_count: int
    body: Formula

    def instantiate(self, args: tuple, depth: int, fresh_vars: tuple[str, ...]) -> Formula:
        """The body with parameter i at args[i] and witness q at offset
        ``depth`` on fresh_vars[q]."""
        return instantiate(self.body, _entry_terms(args, [(depth, var) for var in fresh_vars]))

    def eval(self, dom: "ConcreteDomain", params: tuple, witness_candidates) -> bool:
        """Truth under the domain, searching witnesses over the candidates."""
        nodes = list(subformulas(self.body))[::-1]  # each after its subformulas
        for witnesses in itertools.product(witness_candidates, repeat=self.fresh_count):
            values = _entry_terms(params, witnesses)
            truth = {}
            for node in nodes:
                if type(node) is Constraint:
                    truth[node] = dom.eval_relation(node.relation, tuple(values[var] for _, var in node.args))
                elif type(node) is And:
                    truth[node] = truth[node.left] and truth[node.right]
                else:
                    truth[node] = truth[node.left] or truth[node.right]
            if truth[self.body]:
                return True
        return False


# ---------------------------------------------------------------------------
# Domains


class ConcreteDomain:
    """A named structure: element universe plus relation evaluators."""

    name: str
    element_kind: str
    width = 1  # components per element; tuple-valued domains override

    def supports(self, rel: RelationSymbol) -> bool:
        raise NotImplementedError

    def check_value(self, value) -> bool:
        raise NotImplementedError

    def eval_relation(self, rel: RelationSymbol, values: tuple) -> bool:
        self._require(rel)
        return self._holds(rel, values)

    def relation_test(self, rel: RelationSymbol):
        """The truth of ``rel`` as a function of its value tuple, for a
        caller that evaluates many tuples: whether the domain interprets
        ``rel`` is checked once, here."""
        self._require(rel)
        return partial(self._holds, rel)

    def _require(self, rel: RelationSymbol) -> None:
        if not self.supports(rel):
            raise DomainError(f"{self.name} does not interpret {rel.name}")

    def _holds(self, rel: RelationSymbol, values: tuple) -> bool:
        raise NotImplementedError

    def negation_formula(self, rel: RelationSymbol) -> PositiveExistential:
        raise NotImplementedError

    def __repr__(self):
        return f"<domain {self.name}>"


# not x < y  iff  y < x or x = y;  not x = y  iff  x < y or y < x
_ORDER_NEGATIONS = {
    LESS: PositiveExistential(0, parse_path_formula("lt(y1, y0) | eq(y0, y1)")),
    EQUAL: PositiveExistential(0, parse_path_formula("lt(y0, y1) | lt(y1, y0)")),
}
_EVERYTHING = PositiveExistential(0, parse_path_formula("eq(y0, y0)"))
_AROUND_WITNESS = parse_path_formula("lt(y0, z0) | lt(z0, y0)")


class _NumericDomain(ConcreteDomain):
    """Shared evaluator for the integer-like and rational domains."""

    allow_modulo = True

    def supports(self, rel: RelationSymbol) -> bool:
        if rel.kind in (LESS, EQUAL):
            return True
        if rel.kind == CONSTANT:
            return self._constant_ok(rel.params[0])
        if rel.kind == MODULO:
            return self.allow_modulo
        return False

    def _constant_ok(self, c) -> bool:
        return isinstance(c, int)

    def relation_test(self, rel: RelationSymbol):
        """One closure per relation kind, so that a tuple costs its arity
        check and one comparison; a tuple of the wrong arity goes to
        ``_holds``, which raises."""
        self._require(rel)
        n = rel.arity
        if rel.kind == LESS:
            return lambda v: v[0] < v[1] if len(v) == n else self._holds(rel, v)
        if rel.kind == EQUAL:
            return lambda v: v[0] == v[1] if len(v) == n else self._holds(rel, v)
        if rel.kind == CONSTANT:
            c = rel.params[0]
            return lambda v: v[0] == c if len(v) == n else self._holds(rel, v)
        a, b = rel.params
        return lambda v: v[0] % b == a if len(v) == n else self._holds(rel, v)

    def _holds(self, rel: RelationSymbol, values: tuple) -> bool:
        if len(values) != rel.arity:
            raise DomainError(f"{rel.name} is {rel.arity}-ary, got {len(values)} values")
        if rel.kind == LESS:
            return values[0] < values[1]
        if rel.kind == EQUAL:
            return values[0] == values[1]
        if rel.kind == CONSTANT:
            return values[0] == rel.params[0]
        a, b = rel.params
        return values[0] % b == a

    def negation_formula(self, rel: RelationSymbol) -> PositiveExistential:
        self._require(rel)
        if rel.kind in _ORDER_NEGATIONS:
            return _ORDER_NEGATIONS[rel.kind]
        if rel.kind == CONSTANT:
            if not self._negatable_constant(rel.params[0]):
                # c falls outside the universe, so x = c never holds and
                # the complement is everything
                return _EVERYTHING
            # not x = c  iff  exists z: z = c and (x < z or z < x)
            return PositiveExistential(1, And(Constraint(rel, [(0, "z0")]), _AROUND_WITNESS))
        a, b = rel.params
        # not x = a (mod b)  iff  x = c (mod b) for some c != a
        return PositiveExistential(0, reduce(Or, (Constraint(mod_rel(c, b), [(0, "y0")]) for c in range(b) if c != a)))

    def _negatable_constant(self, c) -> bool:
        return True


class ZDomain(_NumericDomain):
    name = "Z"
    element_kind = "integer"

    def check_value(self, value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


class NDomain(_NumericDomain):
    name = "N"
    element_kind = "nonnegative integer"

    def check_value(self, value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def _negatable_constant(self, c) -> bool:
        # the witness-based entry needs the constant inside the universe
        return isinstance(c, int) and c >= 0


class NegZDomain(_NumericDomain):
    name = "negZ"
    element_kind = "negative integer"

    def check_value(self, value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value < 0

    def _negatable_constant(self, c) -> bool:
        return isinstance(c, int) and c < 0


class QDomain(_NumericDomain):
    name = "Q"
    element_kind = "rational"
    allow_modulo = False

    def check_value(self, value) -> bool:
        return isinstance(value, (int, Fraction)) and not isinstance(value, bool)

    def _constant_ok(self, c) -> bool:
        return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


# Allen's thirteen interval relations, each on pairs (s, e) with s < e.

ALLEN_RELATIONS = ("b", "a", "m", "mi", "o", "oi", "d", "di", "s", "si", "f", "fi", "eq")


def _allen_truth(name: str, i: tuple, j: tuple) -> bool:
    s1, e1 = i
    s2, e2 = j
    if name == "b":
        return e1 < s2
    if name == "a":
        return e2 < s1
    if name == "m":
        return e1 == s2
    if name == "mi":
        return e2 == s1
    if name == "o":
        return s1 < s2 < e1 < e2
    if name == "oi":
        return s2 < s1 < e2 < e1
    if name == "d":
        return s2 < s1 and e1 < e2
    if name == "di":
        return s1 < s2 and e2 < e1
    if name == "s":
        return s1 == s2 and e1 < e2
    if name == "si":
        return s1 == s2 and e2 < e1
    if name == "f":
        return e1 == e2 and s2 < s1
    if name == "fi":
        return e1 == e2 and s1 < s2
    if name == "eq":
        return s1 == s2 and e1 == e2
    raise DomainError(f"unknown Allen relation {name!r}")


# the complement of one relation is the disjunction of the other twelve;
# the parser reads eq as the built-in EQ, which is Allen's eq on intervals
_ALLEN_NEGATIONS = {
    name: PositiveExistential(0, parse_path_formula(" | ".join(f"{n}(y0, y1)" for n in ALLEN_RELATIONS if n != name)))
    for name in ALLEN_RELATIONS
}


class AllenDomain(ConcreteDomain):
    """Integer intervals [s, e] with s < e under Allen's relations.

    The thirteen relations partition the pairs of valid intervals, so
    every complement is a positive disjunction of the other twelve."""

    name = "allenZ"
    element_kind = "interval"
    width = 2

    def supports(self, rel: RelationSymbol) -> bool:
        if rel.kind == EQUAL:
            return True  # interval equality is Allen's eq
        return rel.kind == INTERPRETED and rel.name in ALLEN_RELATIONS and rel.arity == 2

    def check_value(self, value) -> bool:
        return (
            isinstance(value, tuple)
            and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
            and value[0] < value[1]
        )

    def _holds(self, rel: RelationSymbol, values: tuple) -> bool:
        name = "eq" if rel.kind == EQUAL else rel.name
        return _allen_truth(name, values[0], values[1])

    def negation_formula(self, rel: RelationSymbol) -> PositiveExistential:
        self._require(rel)
        return _ALLEN_NEGATIONS["eq" if rel.kind == EQUAL else rel.name]


_LEX_NEGATIONS = {
    "ltlex": PositiveExistential(0, parse_path_formula("ltlex(y1, y0) | eqlex(y0, y1)")),
    "eqlex": PositiveExistential(0, parse_path_formula("ltlex(y0, y1) | ltlex(y1, y0)")),
}


class LexDomain(ConcreteDomain):
    """Integer n-tuples under strict lexicographic order and equality."""

    def __init__(self, width: int):
        if width < 1:
            raise DomainError("lexZ needs width >= 1")
        self.width = width
        self.name = f"lexZ[{width}]"
        self.element_kind = f"integer {width}-tuple"

    def supports(self, rel: RelationSymbol) -> bool:
        return rel.kind == INTERPRETED and rel.name in ("ltlex", "eqlex") and rel.arity == 2

    def check_value(self, value) -> bool:
        return (
            isinstance(value, tuple)
            and len(value) == self.width
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        )

    def _holds(self, rel: RelationSymbol, values: tuple) -> bool:
        if rel.name == "ltlex":
            return values[0] < values[1]
        return values[0] == values[1]

    def negation_formula(self, rel: RelationSymbol) -> PositiveExistential:
        self._require(rel)
        return _LEX_NEGATIONS[rel.name]


Z_DOMAIN = ZDomain()
N_DOMAIN = NDomain()
NEGZ_DOMAIN = NegZDomain()
Q_DOMAIN = QDomain()
ALLEN_DOMAIN = AllenDomain()


def domain_by_name(name: str) -> ConcreteDomain:
    if name == "Z":
        return Z_DOMAIN
    if name == "N":
        return N_DOMAIN
    if name == "negZ":
        return NEGZ_DOMAIN
    if name == "Q":
        return Q_DOMAIN
    if name == "allenZ":
        return ALLEN_DOMAIN
    m = re.fullmatch(r"lexZ\[(\d+)\]", name)
    if m:
        return LexDomain(int(m.group(1)))
    raise DomainError(f"unknown domain {name!r}")


# ---------------------------------------------------------------------------
# Existential interpretations into the integer domain


@dataclass(frozen=True)
class ExistentialInterpretation:
    """Reduction of a tuple-valued domain to (Z, <, =).

    Every source variable x becomes ``tuple_width`` target variables
    x__1 ... x__n; a source atom r(t1, ..., tk) becomes r's body with
    a{i}_{j} at component j + 1 of t(i+1).  Unless the interpretation is
    marked total, an A G conjunct asserts the domain body, over a0_{j},
    for every source variable.
    """

    name: str
    tuple_width: int
    relations: tuple  # tuple[(name, arity, body), ...]
    domain_body: Formula | None
    total: bool


def component_name(var: str, j: int) -> str:
    """Target variable for component j (1-based) of source variable var."""
    return f"{var}__{j}"


def _component_terms(args, width: int) -> dict:
    """Placeholder a{i}_{j} -> component j + 1 of args[i]."""
    return {f"a{i}_{j}": (off, component_name(var, j + 1)) for i, (off, var) in enumerate(args) for j in range(width)}


def apply_interpretation(interp: ExistentialInterpretation, f: Formula) -> Formula:
    """Rewrite f over the source signature into a formula over (Z, <, =)."""
    if not is_state_formula(f):
        raise DomainError("apply_interpretation expects a state formula")
    table = {name: (arity, body) for name, arity, body in interp.relations}
    source_vars: set[str] = set()

    def visit(f: Formula):
        if not isinstance(f, Constraint):
            return None
        rel = f.relation
        if rel.name not in table:
            raise DomainError(f"interpretation {interp.name} has no relation {rel.name!r}")
        arity, body = table[rel.name]
        if rel.arity != arity:
            raise DomainError(f"{rel.name} is {arity}-ary in interpretation {interp.name}")
        source_vars.update(var for _, var in f.args)
        return instantiate(body, _component_terms(f.args, interp.tuple_width))

    rewritten = rewrite(f, visit)
    if interp.total:
        return rewritten
    conjunct: Formula = TRUE
    if interp.domain_body is not None and source_vars:
        conjunct = reduce(And, (
            instantiate(interp.domain_body, _component_terms([(0, var)], interp.tuple_width))
            for var in sorted(source_vars)
        ))
    return And(rewritten, All(Release(FALSE, conjunct)))


def identity_interpretation(rels: tuple[RelationSymbol, ...] = (LT, EQ)) -> ExistentialInterpretation:
    """Width-1 interpretation mapping each relation to itself."""
    relations = tuple(
        (r.name, r.arity, Constraint(r, [(0, f"a{i}_0") for i in range(r.arity)])) for r in rels
    )
    return ExistentialInterpretation("identity", 1, relations, None, False)


def lex_interpretation(width: int) -> ExistentialInterpretation:
    """lexZ[n]: tuples compared lexicographically, components in (Z, <, =)."""
    if width < 1:
        raise DomainError("lexZ needs width >= 1")
    eq = [Constraint(EQ, [(0, f"a0_{j}"), (0, f"a1_{j}")]) for j in range(width)]
    lt = [Constraint(LT, [(0, f"a0_{j}"), (0, f"a1_{j}")]) for j in range(width)]
    ltlex = reduce(Or, (reduce(And, eq[:j] + lt[j:j + 1]) for j in range(width)))
    return ExistentialInterpretation(
        f"lexZ[{width}]", width, (("ltlex", 2, ltlex), ("eqlex", 2, reduce(And, eq))), None, True
    )


# allenZ: interval i is (s1, e1), interval j is (s2, e2)
_INTERVAL_ENDS = {"s1": (0, "a0_0"), "e1": (0, "a0_1"), "s2": (0, "a1_0"), "e2": (0, "a1_1")}
_ALLEN_BODIES = {
    "b": "lt(e1, s2)",
    "a": "lt(e2, s1)",
    "m": "eq(e1, s2)",
    "mi": "eq(e2, s1)",
    "o": "lt(s1, s2) & lt(s2, e1) & lt(e1, e2)",
    "oi": "lt(s2, s1) & lt(s1, e2) & lt(e2, e1)",
    "d": "lt(s2, s1) & lt(e1, e2)",
    "di": "lt(s1, s2) & lt(e2, e1)",
    "s": "eq(s1, s2) & lt(e1, e2)",
    "si": "eq(s1, s2) & lt(e2, e1)",
    "f": "eq(e1, e2) & lt(s2, s1)",
    "fi": "eq(e1, e2) & lt(s1, s2)",
    "eq": "eq(s1, s2) & eq(e1, e2)",
}
_ALLEN_INTERPRETATION = ExistentialInterpretation(
    "allenZ",
    2,
    tuple((n, 2, instantiate(parse_path_formula(_ALLEN_BODIES[n]), _INTERVAL_ENDS)) for n in ALLEN_RELATIONS),
    parse_path_formula("lt(a0_0, a0_1)"),
    False,
)


def allen_interpretation() -> ExistentialInterpretation:
    """allenZ: intervals as (start, end) pairs with start < end."""
    return _ALLEN_INTERPRETATION


def interpretation_by_name(name: str) -> ExistentialInterpretation:
    if name == "allenZ":
        return allen_interpretation()
    if name == "identity":
        return identity_interpretation()
    m = re.fullmatch(r"lexZ\[(\d+)\]", name)
    if m:
        return lex_interpretation(int(m.group(1)))
    raise DomainError(f"no interpretation named {name!r}")
