"""Formula layer: AST, parser, printer, and the rewriting passes.

State and path formulas of CTL* extended with atomic constraints
``r(X^i1 x1, ..., X^ik xk)`` whose relation symbols are interpreted by a
concrete domain.  Disjunction, the universal path quantifier A, and the
release operator R are first-class nodes so that negation normal form is
closed under the representation; F and G exist only in the concrete
syntax and are desugared while parsing (F psi = true U psi,
G psi = false R psi).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

LESS = "less"
EQUAL = "equal"
CONSTANT = "constant"
MODULO = "modulo"
INTERPRETED = "interpreted"

_KEYWORDS = {"E", "A", "X", "U", "R", "F", "G", "true", "false"}
RESERVED_PREFIX = "__"


class FormulaError(ValueError):
    """Syntax, arity, or well-formedness problem in a formula."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class RelationSymbol:
    """A relation name together with its arity and interpretation kind.

    ``params`` holds the constant for eqc[c] and the pair (a, b) for
    mod[a,b]; it is empty for lt, eq and interpreted symbols.
    """

    name: str
    arity: int
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind == MODULO:
            a, b = self.params
            if not (isinstance(a, int) and isinstance(b, int) and b >= 2 and 0 <= a < b):
                raise FormulaError(f"malformed modulo parameters {self.params!r}: need 0 <= a < b, b >= 2")
            if self.arity != 1:
                raise FormulaError("modulo relations are unary")
        elif self.kind == CONSTANT:
            if len(self.params) != 1 or self.arity != 1:
                raise FormulaError("constant relations are unary with one parameter")
        elif self.kind in (LESS, EQUAL):
            if self.arity != 2:
                raise FormulaError(f"{self.name} must be binary")
        elif self.kind != INTERPRETED:
            raise FormulaError(f"unknown relation kind {self.kind!r}")

    def __str__(self) -> str:
        return self.name


LT = RelationSymbol("lt", 2, LESS)
EQ = RelationSymbol("eq", 2, EQUAL)


def const_rel(c) -> RelationSymbol:
    """The unary relation =_c, written eqc[c]."""
    return RelationSymbol(f"eqc[{c}]", 1, CONSTANT, (c,))


def mod_rel(a: int, b: int) -> RelationSymbol:
    """The unary relation x = a (mod b), written mod[a,b]."""
    return RelationSymbol(f"mod[{a},{b}]", 1, MODULO, (a, b))


def interp_rel(name: str, arity: int) -> RelationSymbol:
    return RelationSymbol(name, arity, INTERPRETED)


def relation_from_name(name: str, arity: int | None = None) -> RelationSymbol:
    """Parse a relation name as it appears in files and CLI arguments."""
    if name == "lt":
        return LT
    if name == "eq":
        return EQ
    m = re.fullmatch(r"eqc\[(-?\d+(?:/\d+)?)\]", name)
    if m:
        text = m.group(1)
        value = Fraction(text) if "/" in text else int(text)
        return const_rel(value)
    m = re.fullmatch(r"mod\[(-?\d+),(-?\d+)\]", name)
    if m:
        return mod_rel(int(m.group(1)), int(m.group(2)))
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise FormulaError(f"bad relation name {name!r}")
    if name.startswith(RESERVED_PREFIX):
        raise FormulaError(f"relation name {name!r} uses the reserved prefix")
    return interp_rel(name, 2 if arity is None else arity)


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Common base; concrete nodes are frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class BoolConst(Formula):
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    sub: Formula


@dataclass(frozen=True)
class All(Formula):
    sub: Formula


@dataclass(frozen=True)
class Next(Formula):
    sub: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Constraint(Formula):
    """Atomic constraint r(X^i1 x1, ..., X^ik xk); args are (offset, var)."""

    relation: RelationSymbol
    args: tuple  # tuple[tuple[int, str], ...]

    def __post_init__(self):
        if len(self.args) != self.relation.arity:
            raise FormulaError(
                f"{self.relation.name} expects {self.relation.arity} arguments, got {len(self.args)}"
            )
        for off, var in self.args:
            if not isinstance(off, int) or off < 0:
                raise FormulaError(f"constraint offset must be a nonnegative integer, got {off!r}")

    @property
    def depth(self) -> int:
        return max(off for off, _ in self.args)


_BINARY = (And, Or, Until, Release)
_UNARY = (Not, Exists, All, Next)


# ---------------------------------------------------------------------------
# Printing

_PREC_OR = 1
_PREC_AND = 2
_PREC_UR = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Until, Release)):
        return _PREC_UR
    if isinstance(f, _UNARY):
        return _PREC_UNARY
    return _PREC_ATOM


def _term_text(off: int, var: str) -> str:
    return var if off == 0 else f"X^{off} {var}"


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse_formula inverts it exactly."""

    def wrap(sub: Formula, minimum: int) -> str:
        text = go(sub)
        return f"({text})" if _prec(sub) < minimum else text

    def go(f: Formula) -> str:
        if isinstance(f, Prop):
            return f.name
        if isinstance(f, BoolConst):
            return "true" if f.value else "false"
        if isinstance(f, Constraint):
            args = ", ".join(_term_text(off, var) for off, var in f.args)
            return f"{f.relation.name}({args})"
        if isinstance(f, Not):
            return "~" + wrap(f.sub, _PREC_UNARY)
        if isinstance(f, Exists):
            return "E " + wrap(f.sub, _PREC_UNARY)
        if isinstance(f, All):
            return "A " + wrap(f.sub, _PREC_UNARY)
        if isinstance(f, Next):
            return "X " + wrap(f.sub, _PREC_UNARY)
        if isinstance(f, And):
            # left associative: the right child needs parens at equal level
            return wrap(f.left, _PREC_AND) + " & " + wrap(f.right, _PREC_AND + 1)
        if isinstance(f, Or):
            return wrap(f.left, _PREC_OR) + " | " + wrap(f.right, _PREC_OR + 1)
        if isinstance(f, Until):
            return wrap(f.left, _PREC_UR + 1) + " U " + wrap(f.right, _PREC_UR)
        if isinstance(f, Release):
            return wrap(f.left, _PREC_UR + 1) + " R " + wrap(f.right, _PREC_UR)
        raise TypeError(f"not a formula: {f!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<WS>[ \t\r]+)
      | (?P<NL>\n)
      | (?P<RAT>-?\d+/\d+)
      | (?P<INT>-?\d+)
      | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<SYM>[~&|()\[\],^])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col_base = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", line, pos - col_base + 1)
        kind = m.lastgroup
        if kind == "NL":
            line += 1
            col_base = m.end()
        elif kind != "WS":
            tokens.append(_Token(kind, m.group(), line, m.start() - col_base + 1))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - col_base + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        raise FormulaError(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise FormulaError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def parse(self) -> Formula:
        f = self.parse_or()
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(f"trailing input starting at {tok.text!r}")
        return f

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek().text == "|":
            self.next()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_ur()
        while self.peek().text == "&":
            self.next()
            f = And(f, self.parse_ur())
        return f

    def parse_ur(self) -> Formula:
        f = self.parse_unary()
        tok = self.peek()
        if tok.text in ("U", "R") and tok.kind == "ID":
            self.next()
            right = self.parse_ur()  # right associative
            return Until(f, right) if tok.text == "U" else Release(f, right)
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.next()
            return Not(self.parse_unary())
        if tok.kind == "ID" and tok.text in ("E", "A", "X", "F", "G"):
            self.next()
            sub = self.parse_unary()
            if tok.text == "E":
                return Exists(sub)
            if tok.text == "A":
                return All(sub)
            if tok.text == "X":
                return Next(sub)
            if tok.text == "F":
                return Until(TRUE, sub)
            return Release(FALSE, sub)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            f = self.parse_or()
            self.expect(")")
            return f
        if tok.kind != "ID":
            self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")
        if tok.text == "true":
            self.next()
            return TRUE
        if tok.text == "false":
            self.next()
            return FALSE
        if tok.text in _KEYWORDS:
            self.fail(f"keyword {tok.text!r} cannot start an atom here")
        name_tok = self.next()
        follower = self.peek().text
        if follower == "[":
            rel = self.parse_bracket_relation(name_tok)
            return self.parse_constraint_args(rel, name_tok)
        if follower == "(":
            if name_tok.text.startswith(RESERVED_PREFIX):
                raise FormulaError(
                    f"relation name {name_tok.text!r} uses the reserved prefix", name_tok.line, name_tok.column
                )
            if name_tok.text == "lt":
                rel = LT
            elif name_tok.text == "eq":
                rel = EQ
            else:
                rel = None  # interpreted; arity fixed by the argument list
            return self.parse_constraint_args(rel, name_tok)
        if name_tok.text.startswith(RESERVED_PREFIX):
            raise FormulaError(
                f"proposition {name_tok.text!r} uses the reserved prefix", name_tok.line, name_tok.column
            )
        return Prop(name_tok.text)

    def parse_bracket_relation(self, name_tok: _Token) -> RelationSymbol:
        self.expect("[")
        params = [self.parse_number()]
        while self.peek().text == ",":
            self.next()
            params.append(self.parse_number())
        self.expect("]")
        if name_tok.text == "eqc":
            if len(params) != 1:
                raise FormulaError("eqc takes one parameter", name_tok.line, name_tok.column)
            return const_rel(params[0])
        if name_tok.text == "mod":
            if len(params) != 2:
                raise FormulaError("mod takes two parameters", name_tok.line, name_tok.column)
            try:
                return mod_rel(params[0], params[1])
            except FormulaError as exc:
                raise FormulaError(str(exc), name_tok.line, name_tok.column) from None
        raise FormulaError(f"unknown bracketed relation {name_tok.text!r}", name_tok.line, name_tok.column)

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "INT":
            raise FormulaError(f"expected an integer, found {tok.text!r}", tok.line, tok.column)
        return int(tok.text)

    def parse_number(self):
        if self.peek().kind == "RAT":
            tok = self.next()
            try:
                return Fraction(tok.text)
            except ZeroDivisionError:
                raise FormulaError(f"zero denominator in {tok.text!r}", tok.line, tok.column) from None
        return self.parse_int()

    def parse_constraint_args(self, rel: RelationSymbol | None, name_tok: _Token) -> Constraint:
        self.expect("(")
        args = [self.parse_term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.parse_term())
        self.expect(")")
        if rel is None:
            rel = interp_rel(name_tok.text, len(args))
        if len(args) != rel.arity:
            raise FormulaError(
                f"{rel.name} expects {rel.arity} arguments, got {len(args)}", name_tok.line, name_tok.column
            )
        return Constraint(rel, tuple(args))

    def parse_term(self) -> tuple[int, str]:
        tok = self.peek()
        offset = 0
        if tok.kind == "ID" and tok.text == "X":
            self.next()
            self.expect("^")
            offset = self.parse_int()
            if offset < 0:
                raise FormulaError("offsets must be nonnegative", tok.line, tok.column)
            tok = self.peek()
        if tok.kind != "ID" or tok.text in _KEYWORDS:
            self.fail("expected a variable")
        if tok.text.startswith(RESERVED_PREFIX):
            self.fail(f"variable {tok.text!r} uses the reserved prefix")
        return (offset, self.next().text)


def parse_formula(text: str) -> Formula:
    """Parse formula text and require the result to be a state formula."""
    f = _Parser(_tokenize(text)).parse()
    if not is_state_formula(f):
        raise FormulaError("temporal operators and constraints must sit under a path quantifier")
    return f


def parse_path_formula(text: str) -> Formula:
    """Parse formula text allowing a bare path formula at the top."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Structural queries


def is_state_formula(f: Formula) -> bool:
    if isinstance(f, (Prop, BoolConst)):
        return True
    if isinstance(f, (Exists, All)):
        return True
    if isinstance(f, Not):
        return is_state_formula(f.sub)
    if isinstance(f, (And, Or)):
        return is_state_formula(f.left) and is_state_formula(f.right)
    return False


def subformulas(f: Formula) -> Iterable[Formula]:
    yield f
    if isinstance(f, _UNARY):
        yield from subformulas(f.sub)
    elif isinstance(f, _BINARY):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def constraints_of(f: Formula) -> list[Constraint]:
    """Distinct atomic constraints in first-occurrence order."""
    seen = []
    for sub in subformulas(f):
        if isinstance(sub, Constraint) and sub not in seen:
            seen.append(sub)
    return seen


def variables_of(f: Formula) -> list[str]:
    """Distinct constraint variables in first-occurrence order."""
    seen = []
    for sub in subformulas(f):
        if isinstance(sub, Constraint):
            for _, var in sub.args:
                if var not in seen:
                    seen.append(var)
    return seen


def propositions_of(f: Formula) -> list[str]:
    seen = []
    for sub in subformulas(f):
        if isinstance(sub, Prop) and sub.name not in seen:
            seen.append(sub.name)
    return seen


def max_constraint_depth(f: Formula) -> int:
    depths = [sub.depth for sub in subformulas(f) if isinstance(sub, Constraint)]
    return max(depths, default=0)


def constants_of(f: Formula) -> set:
    return {sub.relation.params[0] for sub in subformulas(f) if isinstance(sub, Constraint) and sub.relation.kind == CONSTANT}


def moduli_of(f: Formula) -> set[int]:
    return {sub.relation.params[1] for sub in subformulas(f) if isinstance(sub, Constraint) and sub.relation.kind == MODULO}


def is_nnf(f: Formula) -> bool:
    """Negation only in front of propositions and constraints."""
    for sub in subformulas(f):
        if isinstance(sub, Not) and not isinstance(sub.sub, (Prop, Constraint)):
            return False
    return True


def is_snnf(f: Formula) -> bool:
    """Negation only in front of propositions."""
    for sub in subformulas(f):
        if isinstance(sub, Not) and not isinstance(sub.sub, Prop):
            return False
    return True


# ---------------------------------------------------------------------------
# Negation normal form


def negate(f: Formula) -> Formula:
    """Dual of f with negations pushed to the leaves."""
    if isinstance(f, BoolConst):
        return FALSE if f.value else TRUE
    if isinstance(f, (Prop, Constraint)):
        return Not(f)
    if isinstance(f, Not):
        return to_nnf(f.sub)
    if isinstance(f, And):
        return Or(negate(f.left), negate(f.right))
    if isinstance(f, Or):
        return And(negate(f.left), negate(f.right))
    if isinstance(f, Exists):
        return All(negate(f.sub))
    if isinstance(f, All):
        return Exists(negate(f.sub))
    if isinstance(f, Next):
        return Next(negate(f.sub))
    if isinstance(f, Until):
        return Release(negate(f.left), negate(f.right))
    if isinstance(f, Release):
        return Until(negate(f.left), negate(f.right))
    raise TypeError(f"not a formula: {f!r}")


def to_nnf(f: Formula) -> Formula:
    if isinstance(f, (Prop, BoolConst, Constraint)):
        return f
    if isinstance(f, Not):
        return negate(f.sub)
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Exists):
        return Exists(to_nnf(f.sub))
    if isinstance(f, All):
        return All(to_nnf(f.sub))
    if isinstance(f, Next):
        return Next(to_nnf(f.sub))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Strong negation normal form


class FreshNames:
    """Deterministic __-prefixed name supply."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.counter = 0

    def take(self) -> str:
        name = f"{self.prefix}{self.counter}"
        self.counter += 1
        return name


def to_snnf(f: Formula, dom) -> Formula:
    """Eliminate negated constraints using the domain's negation tables.

    A negated constraint ~r(X^i1 x1, ..., X^ik xk) of depth d becomes the
    table entry instantiated at the original arguments, with the entry's
    existential witnesses placed at offset d on fresh variables.  The
    fresh variables are shared between occurrences of the same negated
    constraint.
    """
    f = to_nnf(f)
    fresh = FreshNames("__y")
    assigned: dict[Constraint, tuple[str, ...]] = {}

    def witness_vars(c: Constraint, count: int) -> tuple[str, ...]:
        if c not in assigned:
            assigned[c] = tuple(fresh.take() for _ in range(count))
        return assigned[c]

    def go(f: Formula) -> Formula:
        if isinstance(f, Not):
            if isinstance(f.sub, Constraint):
                c = f.sub
                entry = dom.negation_formula(c.relation)
                names = witness_vars(c, entry.fresh_count)
                return entry.instantiate(c.args, c.depth, names)
            return f  # negated proposition
        if isinstance(f, (Prop, BoolConst, Constraint)):
            return f
        if isinstance(f, _UNARY):
            return type(f)(go(f.sub))
        if isinstance(f, _BINARY):
            return type(f)(go(f.left), go(f.right))
        raise TypeError(f"not a formula: {f!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Counting E-subformulas and constraint abstraction


def count_e(f: Formula) -> tuple[int, int]:
    """(number of distinct E-subformulas after NNF, that number plus one).

    The second component is the branching degree d sufficient for tree
    models of the abstracted formula.
    """
    nnf = to_nnf(f)
    distinct = {sub for sub in subformulas(nnf) if isinstance(sub, Exists)}
    return (len(distinct), len(distinct) + 1)


@dataclass(frozen=True)
class TableEntry:
    constraint: Constraint
    prop: str
    depth: int


@dataclass(frozen=True)
class AbstractionTable:
    entries: tuple[TableEntry, ...]

    def prop_for(self, c: Constraint) -> str:
        for entry in self.entries:
            if entry.constraint == c:
                return entry.prop
        raise KeyError(str(c))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _nested_next(sub: Formula, depth: int) -> Formula:
    for _ in range(depth):
        sub = Next(sub)
    return sub


def abstract_constraints(f: Formula, prop_prefix: str = "__p") -> tuple[Formula, AbstractionTable]:
    """Replace each distinct constraint R_i of depth d_i by X^{d_i} p_i.

    Requires strong NNF; the fresh propositions are numbered in first
    occurrence order and never collide with existing propositions.
    """
    if not is_snnf(f):
        raise FormulaError("constraint abstraction expects strong negation normal form")
    existing = set(propositions_of(f))
    fresh = FreshNames(prop_prefix)
    order: list[Constraint] = []
    names: dict[Constraint, str] = {}

    for c in constraints_of(f):
        name = fresh.take()
        while name in existing:
            name = fresh.take()
        order.append(c)
        names[c] = name

    def go(f: Formula) -> Formula:
        if isinstance(f, Constraint):
            return _nested_next(Prop(names[f]), f.depth)
        if isinstance(f, (Prop, BoolConst)):
            return f
        if isinstance(f, _UNARY):
            return type(f)(go(f.sub))
        if isinstance(f, _BINARY):
            return type(f)(go(f.left), go(f.right))
        raise TypeError(f"not a formula: {f!r}")

    table = AbstractionTable(tuple(TableEntry(c, names[c], c.depth) for c in order))
    return go(f), table


def substitute_props(f: Formula, table: AbstractionTable) -> Formula:
    """Replace X^{d_i} p_i back by R_i; inverse of abstract_constraints."""
    targets = {}
    for entry in table:
        targets[_nested_next(Prop(entry.prop), entry.depth)] = entry.constraint

    def go(f: Formula) -> Formula:
        if f in targets:
            return targets[f]
        if isinstance(f, (Prop, BoolConst, Constraint)):
            return f
        if isinstance(f, _UNARY):
            return type(f)(go(f.sub))
        if isinstance(f, _BINARY):
            return type(f)(go(f.left), go(f.right))
        raise TypeError(f"not a formula: {f!r}")

    return go(f)
