"""Formula layer: the node core, the CTL* AST, parser, printer, and the
rewriting passes.

State and path formulas of CTL* extended with atomic constraints
``r(X^i1 x1, ..., X^ik xk)`` whose relation symbols are interpreted by a
concrete domain.  Disjunction, the universal path quantifier A, and the
release operator R are first-class nodes so that negation normal form is
closed under the representation; F and G exist only in the concrete
syntax and are desugared while parsing (F psi = true U psi,
G psi = false R psi).

The node core serves both syntaxes, the CTL* formulas here and the MSO
sentences of ``mso``.  Nodes are interned (hash-consed): building a node
whose fields equal those of a live node returns that node, so structural
equality is identity, hashing costs O(1) whatever the depth, and a
formula is a DAG of its distinct nodes.  Each node class names its
fields and, among them, its subformula fields; from those come
``_children``, the generic ``repr``, ``postorder`` (every distinct node,
children first) and ``rebuild``.  Every structural query reads
``postorder``, so it costs the distinct nodes, not the occurrences; the
one state classifier, ``classify_states``, is among them.  Every
rewriting pass is a step on one engine, ``transform``, which runs
generator frames on an explicit stack and rewrites each distinct (node,
context) pair once: ``rewrite`` is the step without context, negation
normal form the step whose context is the polarity, and ``mso`` adds
substitution, relativization and the tree encoding.  A step that ends by
rebuilding its node from the rewritten children hands that rebuild to
the engine, which does it in the step's place, so a nesting level keeps
at most one frame alive.  The parser is an operator-precedence loop over
the token strings of one regex pass; a line and column are worked out
only for an error.  No pass recurses, so formula nesting depth is not
bounded by Python's recursion limit.
"""

from __future__ import annotations

import operator
import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Callable, Optional

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
_BUILTIN = {"lt": LT, "eq": EQ}


def const_rel(c) -> RelationSymbol:
    """The unary relation =_c, written eqc[c]; a rational c is written
    with its denominator, so eqc[2/1] is not the integer eqc[2]."""
    text = f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else c
    return RelationSymbol(f"eqc[{text}]", 1, CONSTANT, (c,))


def mod_rel(a: int, b: int) -> RelationSymbol:
    """The unary relation x = a (mod b), written mod[a,b]."""
    return RelationSymbol(f"mod[{a},{b}]", 1, MODULO, (a, b))


def interp_rel(name: str, arity: int) -> RelationSymbol:
    return RelationSymbol(name, arity, INTERPRETED)


def relation_from_name(name: str, arity: int | None = None) -> RelationSymbol:
    """Parse a relation name as it appears in files and CLI arguments."""
    if name in _BUILTIN:
        return _BUILTIN[name]
    m = re.fullmatch(r"eqc\[(-?\d+(?:/0*[1-9]\d*)?)\]", name)  # no zero denominator
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
# Node core: the interned nodes of both syntaxes and the passes over them

# key -> live node; an entry goes away with its node, and a key holds the
# node's children, so no child dies while a parent's entry is live
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _intern(cls, values: tuple, key: tuple) -> "Node":
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        _NODES[key] = node
    return node


class Node:
    """Common base of the interned nodes, CTL* formulas and MSO sentences.

    A node class lists its fields in ``_fields`` and, among them, the
    fields holding child nodes in ``_kids``; those come last.  Nodes are
    built from positional or keyword field values, equal field values
    give the very same node, and fields cannot be reassigned.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple = ()
    _kids: tuple = ()

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args += tuple(kwargs.pop(name) for name in cls._fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields ({', '.join(cls._fields)})")
        return _intern(cls, args, (cls, *args))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return _render(self, _repr_pieces)


def _children(f: Node) -> list:
    return [getattr(f, name) for name in f._kids]


def _render(f: Node, pieces) -> str:
    """Text of f: ``pieces(node, minimum)`` lists strings and
    (subformula, minimum precedence) items, expanded left to right on a
    stack."""
    out = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(reversed(pieces(*item)))
    return "".join(out)


def _repr_pieces(f: Node, _minimum: int) -> list:
    parts: list = [f"{type(f).__name__}("]
    for i, name in enumerate(f._fields):
        value = getattr(f, name)
        parts.append(f"{', ' if i else ''}{name}=")
        parts.append((value, 0) if name in f._kids else repr(value))
    parts.append(")")
    return parts


def postorder(f: Node, skip=None) -> list:
    """The distinct nodes of f, children before parents, left to right;
    a node for which ``skip`` is true is left out with all below it."""
    order: list = []
    seen: set = set()
    stack: list = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # (node,): its children are listed
            order.append(g[0])
        elif g not in seen and not (skip and skip(g)):
            seen.add(g)
            if g._kids:
                stack += [(g,), *[getattr(g, name) for name in reversed(g._kids)]]
            else:
                order.append(g)  # a leaf is listed at once
    return order


def transform(f: Node, step, ctx=None) -> Node:
    """Rewrite f on an explicit stack of generator frames.

    ``step(node, ctx)`` is a generator: it yields (subformula, context)
    pairs, is sent back the rewrite of each, and returns the rewrite of
    the node, or ends with ``return (yield from rebuild(node, ctx))``.
    Each distinct (node, context) pair is rewritten once, so a DAG costs
    its distinct nodes, not its tree size.  A rebuild takes the slot of
    the step that ends with it, so a nesting level holds at most one
    frame, and none where the step only rebuilds."""
    done: dict = {}
    frames = [((f, ctx), step(f, ctx))]
    value = None
    while frames:
        key, frame = frames[-1]
        if type(frame) is not list:
            try:
                request = frame.send(value)
            except StopIteration as stop:
                frames.pop()
                value = done[key] = stop.value
                continue
            if type(request) is not list:
                value = done.get(request)
                if value is None:
                    frames.append((request, step(*request)))
                continue
            # the step ends, and its rebuild takes the slot
            if next(frame, None) is not None:
                raise RuntimeError("a step ends with its rebuild")
            frame = request
            frame += (_children(frame[0]), [])
            frames[-1] = (key, frame)
        else:  # a rebuild: [node, ctx, class, children, their rewrites]
            frame[4].append(value)
        node, sub_ctx, cls, kids, new = frame
        done_kids = len(new)
        if done_kids < len(kids):
            request = kids[done_kids], sub_ctx
            value = done.get(request)
            if value is None:
                frames.append((request, step(*request)))
            continue
        frames.pop()
        if cls is not type(node) or not all(map(operator.is_, new, kids)):
            node = cls(*[getattr(node, name) for name in node._fields[:len(node._fields) - len(kids)]], *new)
        value = done[key] = node
    return value


def rebuild(f: Node, ctx, cls=None):
    """The end of a step that rewrites f's children under ``ctx`` and
    builds f again from them, as a ``cls`` node when given; f itself when
    that changes nothing: ``return (yield from rebuild(f, ctx))``.  It
    hands ``transform`` one request, a list where other requests are
    (node, context) pairs, and ``transform`` does the rebuild in the
    step's place."""
    if not f._kids and cls in (None, type(f)):
        return f  # a leaf: nothing to rewrite, no request
    yield [f, ctx, cls or type(f)]


def rewrite(f: Node, visit: Callable[[Node], Optional[Node]]) -> Node:
    """Rebuild f bottom-up, calling ``visit`` once on each distinct node,
    in preorder, left to right.  A node for which ``visit`` returns a
    formula is replaced by it and not entered; on None the node's
    children are rewritten and the node is rebuilt with its own type."""

    def step(node, _):
        replacement = visit(node)
        if replacement is None:
            return (yield from rebuild(node, None))
        return replacement

    return transform(f, step)


# ---------------------------------------------------------------------------
# AST: CTL* formulas


class Formula(Node):
    """A CTL* state or path formula."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class Prop(Formula):
    __slots__ = _fields = ("name",)


class BoolConst(Formula):
    __slots__ = _fields = ("value",)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Not(Formula):
    __slots__ = _fields = _kids = ("sub",)


class And(Formula):
    __slots__ = _fields = _kids = ("left", "right")


class Or(Formula):
    __slots__ = _fields = _kids = ("left", "right")


class Exists(Formula):
    __slots__ = _fields = _kids = ("sub",)


class All(Formula):
    __slots__ = _fields = _kids = ("sub",)


class Next(Formula):
    __slots__ = _fields = _kids = ("sub",)


class Until(Formula):
    __slots__ = _fields = _kids = ("left", "right")


class Release(Formula):
    __slots__ = _fields = _kids = ("left", "right")


class Constraint(Formula):
    """Atomic constraint r(X^i1 x1, ..., X^ik xk); args are (offset, var)."""

    __slots__ = _fields = ("relation", "args")

    def __new__(cls, relation: RelationSymbol, args):
        args = tuple((off, var) for off, var in args)
        if len(args) != relation.arity:
            raise FormulaError(f"{relation.name} expects {relation.arity} arguments, got {len(args)}")
        for off, var in args:
            if not isinstance(off, int) or off < 0:
                raise FormulaError(f"constraint offset must be a nonnegative integer, got {off!r}")
        return _intern(cls, (relation, args), (cls, relation, args))

    @property
    def depth(self) -> int:
        return max(off for off, _ in self.args)


_UNARY = (Not, Exists, All, Next)


# ---------------------------------------------------------------------------
# Printing

_PREC_OR, _PREC_AND, _PREC_UR, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5

_PREFIX_TEXT = {Not: "~", Exists: "E ", All: "A ", Next: "X "}
# infix text, minimum precedence of the left and of the right operand:
# & and | associate to the left, U and R to the right
_INFIX = {
    And: (" & ", _PREC_AND, _PREC_AND + 1),
    Or: (" | ", _PREC_OR, _PREC_OR + 1),
    Until: (" U ", _PREC_UR + 1, _PREC_UR),
    Release: (" R ", _PREC_UR + 1, _PREC_UR),
}
_PREC = {Or: _PREC_OR, And: _PREC_AND, Until: _PREC_UR, Release: _PREC_UR,
         **dict.fromkeys(_UNARY, _PREC_UNARY)}


def _term_text(off: int, var: str) -> str:
    return var if off == 0 else f"X^{off} {var}"


def _syntax_pieces(f: Formula, minimum: int) -> list:
    cls = type(f)
    if cls in _PREFIX_TEXT:
        parts = [_PREFIX_TEXT[cls], (f.sub, _PREC_UNARY)]
    elif cls in _INFIX:
        text, left, right = _INFIX[cls]
        parts = [(f.left, left), text, (f.right, right)]
    elif cls is Prop:
        parts = [f.name]
    elif cls is BoolConst:
        parts = ["true" if f.value else "false"]
    elif cls is Constraint:
        args = ", ".join(_term_text(off, var) for off, var in f.args)
        parts = [f"{f.relation.name}({args})"]
    else:
        raise TypeError(f"not a formula: {f!r}")
    if _PREC.get(cls, _PREC_ATOM) < minimum:
        return ["(", *parts, ")"]
    return parts


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse_formula inverts it exactly."""
    return _render(f, _syntax_pieces)


# ---------------------------------------------------------------------------
# Parsing

# a token is its text: a rational, an integer, a name, a symbol, or any
# other non-blank character, which starts no token and is refused
_TOKEN_RE = re.compile(r"-?\d+/\d+|-?\d+|[A-Za-z_][A-Za-z0-9_]*|[~&|()\[\],^]|[^ \t\r\n]")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _NAME_START | frozenset("~&|()[],^")

# prefix operators bind tightest; among the binary ones U and R bind
# tighter than &, which binds tighter than |
_PREFIX_OPS = {"~": Not, "E": Exists, "A": All, "X": Next,
               "F": lambda sub: Until(TRUE, sub), "G": lambda sub: Release(FALSE, sub)}
_BINARY_OPS = {"|": Or, "&": And, "U": Until, "R": Release}
_BOOL_CONSTANTS = {"true": TRUE, "false": FALSE}


class _Parser:
    """Operator-precedence parser over the token strings of one regex
    pass, "" ending them.  A token's kind is read off its text, and a
    line and column are worked out only when parsing fails."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.pos = 0
        for i, tok in enumerate(self.tokens):
            # \d, which starts a number, matches what isdecimal accepts
            if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS and not tok.isdecimal():
                self.fail(f"unexpected character {tok!r}", i)

    def fail(self, message: str, at: int | None = None):
        """Raise at token ``at``, the current one by default."""
        text = self.text
        offset = [*(m.start() for m in _TOKEN_RE.finditer(text)), len(text)][self.pos if at is None else at]
        line = text.count("\n", 0, offset) + 1
        raise FormulaError(message, line, offset - text.rfind("\n", 0, offset)) from None

    def expect(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def parse(self) -> Formula:
        """Operator-precedence loop: operands and pending operators ("("
        marks, prefix and binary operator texts) sit on explicit stacks."""
        operands: list[Formula] = []
        operators: list[str] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok in _PREFIX_OPS or tok == "(":
                operators.append(tok)
                self.pos += 1
                continue
            operands.append(self.parse_atom())
            while True:
                while operators and operators[-1] in _PREFIX_OPS:
                    operands.append(_PREFIX_OPS[operators.pop()](operands.pop()))
                tok = tokens[self.pos]
                if tok in _BINARY_OPS:
                    break
                # the operand ends a group: close it at ")" or at the end
                self._reduce(operands, operators, _PREC_OR)
                if not operators:
                    if tok:
                        self.fail(f"trailing input starting at {tok!r}")
                    return operands.pop()
                self.expect(")")
                operators.pop()
            self.pos += 1
            prec = _PREC[_BINARY_OPS[tok]]
            # left operands of & and | take equal precedence, those of the
            # right-associative U and R only tighter
            self._reduce(operands, operators, prec + 1 if prec == _PREC_UR else prec)
            operators.append(tok)

    @staticmethod
    def _reduce(operands: list, operators: list, minimum: int) -> None:
        while operators and operators[-1] in _BINARY_OPS:
            cls = _BINARY_OPS[operators[-1]]
            if _PREC[cls] < minimum:
                return
            operators.pop()
            right = operands.pop()
            operands.append(cls(operands.pop(), right))

    def parse_atom(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok[:1] not in _NAME_START:
            self.fail(f"expected a formula, found {tok or 'end of input'!r}")
        if tok in _KEYWORDS:
            if tok not in _BOOL_CONSTANTS:
                self.fail(f"keyword {tok!r} cannot start an atom here")
            self.pos += 1
            return _BOOL_CONSTANTS[tok]
        name = self.pos
        self.pos += 1
        follower = self.tokens[self.pos]
        if follower == "[":
            return self.parse_constraint_args(self.parse_bracket_relation(name), name)
        if follower == "(":
            if tok.startswith(RESERVED_PREFIX):
                self.fail(f"relation name {tok!r} uses the reserved prefix", name)
            # an interpreted name's arity is fixed by the argument list
            return self.parse_constraint_args(_BUILTIN.get(tok), name)
        if tok.startswith(RESERVED_PREFIX):
            self.fail(f"proposition {tok!r} uses the reserved prefix", name)
        return Prop(tok)

    def parse_list(self, opener: str, parse_item, closer: str) -> list:
        """The comma-separated items between opener and closer."""
        self.expect(opener)
        items = [parse_item()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            items.append(parse_item())
        self.expect(closer)
        return items

    def parse_bracket_relation(self, name: int) -> RelationSymbol:
        params = self.parse_list("[", self.parse_number, "]")
        tok = self.tokens[name]
        if tok == "eqc":
            if len(params) != 1:
                self.fail("eqc takes one parameter", name)
            return const_rel(params[0])
        if tok == "mod":
            if len(params) != 2:
                self.fail("mod takes two parameters", name)
            try:
                return mod_rel(params[0], params[1])
            except FormulaError as exc:
                self.fail(str(exc), name)
        self.fail(f"unknown bracketed relation {tok!r}", name)

    def parse_int(self) -> int:
        tok = self.tokens[self.pos]
        if "/" in tok or not tok.lstrip("-")[:1].isdecimal():
            self.fail(f"expected an integer, found {tok!r}")
        self.pos += 1
        return int(tok)

    def parse_number(self):
        tok = self.tokens[self.pos]
        if "/" not in tok:
            return self.parse_int()
        try:
            value = Fraction(tok)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {tok!r}")
        self.pos += 1
        return value

    def parse_constraint_args(self, rel: RelationSymbol | None, name: int) -> Constraint:
        args = self.parse_list("(", self.parse_term, ")")
        if rel is None:
            rel = interp_rel(self.tokens[name], len(args))
        if len(args) != rel.arity:
            self.fail(f"{rel.name} expects {rel.arity} arguments, got {len(args)}", name)
        return Constraint(rel, tuple(args))

    def parse_term(self) -> tuple[int, str]:
        tok = self.tokens[self.pos]
        offset = 0
        if tok == "X":
            at = self.pos
            self.pos += 1
            self.expect("^")
            offset = self.parse_int()
            if offset < 0:
                self.fail("offsets must be nonnegative", at)
            tok = self.tokens[self.pos]
        if tok[:1] not in _NAME_START or tok in _KEYWORDS:
            self.fail("expected a variable")
        if tok.startswith(RESERVED_PREFIX):
            self.fail(f"variable {tok!r} uses the reserved prefix")
        self.pos += 1
        return (offset, tok)


def parse_formula(text: str) -> Formula:
    """Parse formula text and require the result to be a state formula."""
    f = _Parser(text).parse()
    if not is_state_formula(f):
        raise FormulaError("temporal operators and constraints must sit under a path quantifier")
    return f


def parse_path_formula(text: str) -> Formula:
    """Parse formula text allowing a bare path formula at the top."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Structural queries


def classify_states(f: Formula, quantifier_ok=None) -> dict:
    """Each distinct node of f, in ``postorder``, mapped to None when it is a
    state formula, else to the first node, left operands first, that keeps
    it from being one, such as a quantifier that ``quantifier_ok`` refuses."""
    first: dict = {}
    for g in postorder(f):
        cls = type(g)
        if cls is Not:
            first[g] = first[g.sub]
        elif cls is And or cls is Or:
            first[g] = first[g.left] or first[g.right]  # nodes are true, None false
        elif cls is Exists or cls is All:
            first[g] = None if quantifier_ok is None or quantifier_ok(g) else g
        else:
            first[g] = None if cls is Prop or cls is BoolConst else g
    return first


def is_state_formula(f: Formula) -> bool:
    """Boolean combination of propositions, constants and path quantifiers."""
    return classify_states(f)[f] is None


def constraints_of(f: Formula) -> list[Constraint]:
    """Distinct atomic constraints in first-occurrence order."""
    return [g for g in postorder(f) if isinstance(g, Constraint)]


def variables_of(f: Formula) -> list[str]:
    """Distinct constraint variables in first-occurrence order."""
    return list(dict.fromkeys(var for c in constraints_of(f) for _, var in c.args))


def propositions_of(f: Formula) -> list[str]:
    return [g.name for g in postorder(f) if isinstance(g, Prop)]


def max_constraint_depth(f: Formula) -> int:
    return max((c.depth for c in constraints_of(f)), default=0)


def is_nnf(f: Formula) -> bool:
    """Negation only in front of propositions and constraints."""
    return all(isinstance(g.sub, (Prop, Constraint)) for g in postorder(f) if isinstance(g, Not))


def is_snnf(f: Formula) -> bool:
    """Negation only in front of propositions."""
    return all(isinstance(g.sub, Prop) for g in postorder(f) if isinstance(g, Not))


# ---------------------------------------------------------------------------
# Negation normal form

_DUAL = {And: Or, Or: And, Exists: All, All: Exists, Next: Next, Until: Release, Release: Until}


def _nnf_step(f: Formula, negated: bool):
    """``transform`` step: f, or its negation when ``negated``, with
    negations pushed to the leaves."""
    cls = type(f)
    if cls is Not:
        return (yield f.sub, not negated)
    if cls in _DUAL:
        return (yield from rebuild(f, negated, _DUAL[cls] if negated else cls))
    if cls is BoolConst:
        return (FALSE if f.value else TRUE) if negated else f
    if cls is Prop or cls is Constraint:
        return Not(f) if negated else f
    raise TypeError(f"not a formula: {f!r}")


def negate(f: Formula) -> Formula:
    """Dual of f with negations pushed to the leaves."""
    return transform(f, _nnf_step, True)


def to_nnf(f: Formula) -> Formula:
    return transform(f, _nnf_step, False)


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
    fresh = FreshNames("__y")
    assigned: dict[Constraint, tuple[str, ...]] = {}

    def visit(f: Formula) -> Optional[Formula]:
        if isinstance(f, Not) and isinstance(f.sub, Constraint):
            c = f.sub
            entry = dom.negation_formula(c.relation)
            if c not in assigned:
                assigned[c] = tuple(fresh.take() for _ in range(entry.fresh_count))
            return entry.instantiate(c.args, c.depth, assigned[c])
        return None

    return rewrite(to_nnf(f), visit)


# ---------------------------------------------------------------------------
# Counting E nodes and constraint abstraction


def count_e(f: Formula) -> tuple[int, int]:
    """(number of distinct E nodes of the NNF, that number plus one).

    The second component is the branching degree d sufficient for tree
    models of the abstracted formula.
    """
    n = sum(isinstance(g, Exists) for g in postorder(to_nnf(f)))
    return (n, n + 1)


@dataclass(frozen=True)
class TableEntry:
    constraint: Constraint
    prop: str
    depth: int


@dataclass(frozen=True)
class AbstractionTable:
    entries: tuple[TableEntry, ...]

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
    names: dict[Constraint, str] = {}
    for c in constraints_of(f):
        name = fresh.take()
        while name in existing:
            name = fresh.take()
        names[c] = name

    def visit(f: Formula) -> Optional[Formula]:
        return _nested_next(Prop(names[f]), f.depth) if isinstance(f, Constraint) else None

    table = AbstractionTable(tuple(TableEntry(c, name, c.depth) for c, name in names.items()))
    return rewrite(f, visit), table


def substitute_props(f: Formula, table: AbstractionTable) -> Formula:
    """Replace X^{d_i} p_i back by R_i; inverse of abstract_constraints."""
    targets = {_nested_next(Prop(entry.prop), entry.depth): entry.constraint for entry in table}
    return rewrite(f, targets.get)
