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
from functools import partial

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
    FreshNames,
    LT,
    Or,
    Release,
    RelationSymbol,
    TRUE,
    const_rel,
    interp_rel,
    is_state_formula,
    mod_rel,
    rewrite,
)


class DomainError(ValueError):
    """A relation or value does not fit the domain."""


# ---------------------------------------------------------------------------
# Positive boolean bodies shared by negation tables and interpretations.
# Atom references are tagged tuples:
#   ("y", i)      parameter i of a negation entry
#   ("z", q)      existential witness q
#   ("arg", i, j) component j of argument i of an interpreted atom


@dataclass(frozen=True)
class PosAtom:
    relation: RelationSymbol
    refs: tuple


@dataclass(frozen=True)
class PosAnd:
    left: object
    right: object


@dataclass(frozen=True)
class PosOr:
    left: object
    right: object


def pos_and_all(parts):
    parts = list(parts)
    if not parts:
        return None
    node = parts[0]
    for p in parts[1:]:
        node = PosAnd(node, p)
    return node


def pos_or_all(parts):
    parts = list(parts)
    if not parts:
        return None
    node = parts[0]
    for p in parts[1:]:
        node = PosOr(node, p)
    return node


@dataclass(frozen=True)
class PositiveExistential:
    """exists z1..zm: body, with body a positive combination of atoms."""

    arity: int
    fresh_count: int
    body: object

    def instantiate(self, args: tuple, depth: int, fresh_vars: tuple[str, ...]) -> Formula:
        """Build the path formula with parameter i at args[i] and witness
        q at offset ``depth`` on fresh_vars[q]."""

        def term(ref):
            tag = ref[0]
            if tag == "y":
                return args[ref[1]]
            if tag == "z":
                return (depth, fresh_vars[ref[1]])
            raise DomainError(f"unexpected reference {ref!r} in negation entry")

        return _positive_formula(self.body, term)

    def eval(self, dom: "ConcreteDomain", params: tuple, witness_candidates) -> bool:
        """Truth under the domain, searching witnesses over the candidates."""

        def truth(node, env) -> bool:
            if isinstance(node, PosAtom):
                values = []
                for ref in node.refs:
                    if ref[0] == "y":
                        values.append(params[ref[1]])
                    else:
                        values.append(env[ref[1]])
                return dom.eval_relation(node.relation, tuple(values))
            if isinstance(node, PosAnd):
                return truth(node.left, env) and truth(node.right, env)
            if isinstance(node, PosOr):
                return truth(node.left, env) or truth(node.right, env)
            raise TypeError(f"not a body node: {node!r}")

        if self.fresh_count == 0:
            return truth(self.body, ())
        for env in itertools.product(witness_candidates, repeat=self.fresh_count):
            if truth(self.body, env):
                return True
        return False


def _positive_formula(body, term) -> Formula:
    """The formula of a positive body, each atom reference turned into an
    (offset, variable) argument by ``term``; built on an explicit stack,
    left operand first."""
    done: list = []
    stack: list = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, PosAtom):
            done.append(Constraint(node.relation, tuple(term(r) for r in node.refs)))
        elif isinstance(node, (PosAnd, PosOr)):
            stack += [And if isinstance(node, PosAnd) else Or, node.right, node.left]
        elif node is And or node is Or:
            right = done.pop()
            done.append(node(done.pop(), right))
        else:
            raise TypeError(f"not a body node: {node!r}")
    return done[0]


def _atom(rel: RelationSymbol, *refs) -> PosAtom:
    return PosAtom(rel, tuple(refs))


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
        if rel.kind == LESS:
            # not x < y  iff  y < x or x = y
            return PositiveExistential(2, 0, PosOr(_atom(LT, ("y", 1), ("y", 0)), _atom(EQ, ("y", 0), ("y", 1))))
        if rel.kind == EQUAL:
            return PositiveExistential(2, 0, PosOr(_atom(LT, ("y", 0), ("y", 1)), _atom(LT, ("y", 1), ("y", 0))))
        if rel.kind == CONSTANT:
            if not self._negatable_constant(rel.params[0]):
                # c falls outside the universe, so x = c never holds and
                # the complement is everything
                return PositiveExistential(1, 0, _atom(EQ, ("y", 0), ("y", 0)))
            # not x = c  iff  exists z: z = c and (x < z or z < x)
            body = PosAnd(
                _atom(rel, ("z", 0)),
                PosOr(_atom(LT, ("y", 0), ("z", 0)), _atom(LT, ("z", 0), ("y", 0))),
            )
            return PositiveExistential(1, 1, body)
        a, b = rel.params
        # not x = a (mod b)  iff  x = c (mod b) for some c != a
        return PositiveExistential(1, 0, pos_or_all(_atom(mod_rel(c, b), ("y", 0)) for c in range(b) if c != a))

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
        name = "eq" if rel.kind == EQUAL else rel.name
        others = [_atom(interp_rel(n, 2), ("y", 0), ("y", 1)) for n in ALLEN_RELATIONS if n != name]
        return PositiveExistential(2, 0, pos_or_all(others))


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
        ltlex = interp_rel("ltlex", 2)
        eqlex = interp_rel("eqlex", 2)
        if rel.name == "ltlex":
            body = PosOr(_atom(ltlex, ("y", 1), ("y", 0)), _atom(eqlex, ("y", 0), ("y", 1)))
        else:
            body = PosOr(_atom(ltlex, ("y", 0), ("y", 1)), _atom(ltlex, ("y", 1), ("y", 0)))
        return PositiveExistential(2, 0, body)


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


def negation_formula(dom: ConcreteDomain, rel: RelationSymbol) -> PositiveExistential:
    return dom.negation_formula(rel)


# ---------------------------------------------------------------------------
# Existential interpretations into the integer domain


@dataclass(frozen=True)
class ExistentialInterpretation:
    """Reduction of a tuple-valued domain to (Z, <, =).

    Every source variable x becomes ``tuple_width`` target variables
    x__1 ... x__n; a source atom r(t1, ..., tk) becomes the quantifier
    free formula for r over the components, with the entry's existential
    witnesses shared per relation symbol and placed at the occurrence's
    depth.  Unless the interpretation is marked total, an A G conjunct
    asserts the per-variable domain formula everywhere.
    """

    name: str
    tuple_width: int
    source_arities: tuple  # tuple[(name, arity), ...]
    relation_bodies: tuple  # tuple[(name, fresh_count, body), ...]
    domain_body: object  # body over ("arg", 0, j) refs, or None
    domain_fresh: int
    total: bool

    def source_arity(self, name: str) -> int:
        for n, arity in self.source_arities:
            if n == name:
                return arity
        raise DomainError(f"interpretation {self.name} has no relation {name!r}")

    def body_for(self, name: str):
        for n, fresh_count, body in self.relation_bodies:
            if n == name:
                return fresh_count, body
        raise DomainError(f"interpretation {self.name} has no relation {name!r}")


def component_name(var: str, j: int) -> str:
    """Target variable for component j (1-based) of source variable var."""
    return f"{var}__{j}"


def apply_interpretation(interp: ExistentialInterpretation, f: Formula) -> Formula:
    """Rewrite f over the source signature into a formula over (Z, <, =)."""
    if not is_state_formula(f):
        raise DomainError("apply_interpretation expects a state formula")
    fresh = FreshNames("__z")
    shared: dict[str, tuple[str, ...]] = {}  # witness variables per relation symbol

    def build(body, args, depth, zvars) -> Formula:
        def term(ref):
            tag = ref[0]
            if tag == "arg":
                i, j = ref[1], ref[2]
                off, var = args[i]
                return (off, component_name(var, j + 1))
            if tag == "z":
                return (depth, zvars[ref[1]])
            raise DomainError(f"unexpected reference {ref!r} in interpretation body")

        return _positive_formula(body, term)

    source_vars: set[str] = set()

    def visit(f: Formula):
        if not isinstance(f, Constraint):
            return None
        rel = f.relation
        declared = interp.source_arity(rel.name)
        if rel.arity != declared:
            raise DomainError(f"{rel.name} is {declared}-ary in interpretation {interp.name}")
        source_vars.update(var for _, var in f.args)
        fresh_count, body = interp.body_for(rel.name)
        if rel.name not in shared:
            shared[rel.name] = tuple(fresh.take() for _ in range(fresh_count))
        return build(body, f.args, f.depth, shared[rel.name])

    rewritten = rewrite(f, visit)
    if interp.total:
        return rewritten

    conjunct: Formula = TRUE
    if interp.domain_body is not None and source_vars:
        parts = []
        wfresh = FreshNames("__w")
        for var in sorted(source_vars):
            zvars = tuple(wfresh.take() for _ in range(interp.domain_fresh))
            parts.append(build(interp.domain_body, ((0, var),), 0, zvars))
        node = parts[0]
        for p in parts[1:]:
            node = And(node, p)
        conjunct = node
    return And(rewritten, All(Release(FALSE, conjunct)))


def identity_interpretation(rels: tuple[RelationSymbol, ...] = (LT, EQ)) -> ExistentialInterpretation:
    """Width-1 interpretation mapping each relation to itself."""
    bodies = tuple(
        (r.name, 0, _atom(r, *[("arg", i, 0) for i in range(r.arity)])) for r in rels
    )
    arities = tuple((r.name, r.arity) for r in rels)
    return ExistentialInterpretation(
        name="identity",
        tuple_width=1,
        source_arities=arities,
        relation_bodies=bodies,
        domain_body=None,
        domain_fresh=0,
        total=False,
    )


def lex_interpretation(width: int) -> ExistentialInterpretation:
    """lexZ[n]: tuples compared lexicographically, components in (Z, <, =)."""
    if width < 1:
        raise DomainError("lexZ needs width >= 1")
    lt_parts = []
    for j in range(width):
        prefix = [_atom(EQ, ("arg", 0, l), ("arg", 1, l)) for l in range(j)]
        prefix.append(_atom(LT, ("arg", 0, j), ("arg", 1, j)))
        lt_parts.append(pos_and_all(prefix))
    eq_body = pos_and_all(_atom(EQ, ("arg", 0, j), ("arg", 1, j)) for j in range(width))
    bodies = (("ltlex", 0, pos_or_all(lt_parts)), ("eqlex", 0, eq_body))
    return ExistentialInterpretation(
        name=f"lexZ[{width}]",
        tuple_width=width,
        source_arities=(("ltlex", 2), ("eqlex", 2)),
        relation_bodies=bodies,
        domain_body=None,
        domain_fresh=0,
        total=True,
    )


def allen_interpretation() -> ExistentialInterpretation:
    """allenZ: intervals as (start, end) pairs with start < end."""
    s1, e1 = ("arg", 0, 0), ("arg", 0, 1)
    s2, e2 = ("arg", 1, 0), ("arg", 1, 1)
    bodies = {
        "b": _atom(LT, e1, s2),
        "a": _atom(LT, e2, s1),
        "m": _atom(EQ, e1, s2),
        "mi": _atom(EQ, e2, s1),
        "o": pos_and_all([_atom(LT, s1, s2), _atom(LT, s2, e1), _atom(LT, e1, e2)]),
        "oi": pos_and_all([_atom(LT, s2, s1), _atom(LT, s1, e2), _atom(LT, e2, e1)]),
        "d": pos_and_all([_atom(LT, s2, s1), _atom(LT, e1, e2)]),
        "di": pos_and_all([_atom(LT, s1, s2), _atom(LT, e2, e1)]),
        "s": pos_and_all([_atom(EQ, s1, s2), _atom(LT, e1, e2)]),
        "si": pos_and_all([_atom(EQ, s1, s2), _atom(LT, e2, e1)]),
        "f": pos_and_all([_atom(EQ, e1, e2), _atom(LT, s2, s1)]),
        "fi": pos_and_all([_atom(EQ, e1, e2), _atom(LT, s1, s2)]),
        "eq": pos_and_all([_atom(EQ, s1, s2), _atom(EQ, e1, e2)]),
    }
    return ExistentialInterpretation(
        name="allenZ",
        tuple_width=2,
        source_arities=tuple((n, 2) for n in ALLEN_RELATIONS),
        relation_bodies=tuple((n, 0, bodies[n]) for n in ALLEN_RELATIONS),
        domain_body=_atom(LT, ("arg", 0, 0), ("arg", 0, 1)),
        domain_fresh=0,
        total=False,
    )


def interpretation_by_name(name: str) -> ExistentialInterpretation:
    if name == "allenZ":
        return allen_interpretation()
    if name == "identity":
        return identity_interpretation()
    m = re.fullmatch(r"lexZ\[(\d+)\]", name)
    if m:
        return lex_interpretation(int(m.group(1)))
    raise DomainError(f"no interpretation named {name!r}")
