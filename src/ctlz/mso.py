"""Monadic second-order formulas with a bounding quantifier.

The AST covers first-order and set variables, relation atoms, the usual
connectives, weak set quantification, and B (there is a common finite
bound on the size of all satisfying sets).  Builders produce the
reachability toolkit (reach, restricted reach, cycle existence, path
sets, bounded paths) and the per-signature sentences characterizing
homomorphism existence into the integer domains; everything prints to a
stable parenthesized prefix text that reparses to an identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .formulas import CONSTANT, EQUAL, LESS, MODULO, RelationSymbol


class MsoError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


class MsoFormula:
    __slots__ = ()

    def __str__(self) -> str:
        return to_sexpr(self)


@dataclass(frozen=True)
class MsoBool(MsoFormula):
    value: bool


MSO_TRUE = MsoBool(True)
MSO_FALSE = MsoBool(False)


@dataclass(frozen=True)
class Atom(MsoFormula):
    relation: str
    args: tuple

    def __post_init__(self):
        if not self.relation:
            raise MsoError("empty relation name")
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class VarEq(MsoFormula):
    left: str
    right: str


@dataclass(frozen=True)
class In(MsoFormula):
    element: str
    container: str


@dataclass(frozen=True)
class Subset(MsoFormula):
    left: str
    right: str


@dataclass(frozen=True)
class Neg(MsoFormula):
    sub: MsoFormula


@dataclass(frozen=True)
class Conj(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@dataclass(frozen=True)
class Disj(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@dataclass(frozen=True)
class Implies(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@dataclass(frozen=True)
class ExistsFO(MsoFormula):
    var: str
    body: MsoFormula


@dataclass(frozen=True)
class ForallFO(MsoFormula):
    var: str
    body: MsoFormula


@dataclass(frozen=True)
class ExistsSet(MsoFormula):
    var: str
    body: MsoFormula


@dataclass(frozen=True)
class ForallSet(MsoFormula):
    var: str
    body: MsoFormula


@dataclass(frozen=True)
class BoundSet(MsoFormula):
    var: str
    body: MsoFormula


_FO_QUANT = (ExistsFO, ForallFO)
_SET_QUANT = (ExistsSet, ForallSet, BoundSet)
_BINARY = (Conj, Disj, Implies)


def conj_all(parts) -> MsoFormula:
    parts = list(parts)
    if not parts:
        return MSO_TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Conj(p, out)
    return out


def disj_all(parts) -> MsoFormula:
    parts = list(parts)
    if not parts:
        return MSO_FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Disj(p, out)
    return out


# ---------------------------------------------------------------------------
# Variable bookkeeping


def fo_free(formula: MsoFormula) -> frozenset:
    if isinstance(formula, Atom):
        return frozenset(formula.args)
    if isinstance(formula, VarEq):
        return frozenset((formula.left, formula.right))
    if isinstance(formula, In):
        return frozenset((formula.element,))
    if isinstance(formula, (MsoBool, Subset)):
        return frozenset()
    if isinstance(formula, Neg):
        return fo_free(formula.sub)
    if isinstance(formula, _BINARY):
        return fo_free(formula.left) | fo_free(formula.right)
    if isinstance(formula, _FO_QUANT):
        return fo_free(formula.body) - {formula.var}
    if isinstance(formula, _SET_QUANT):
        return fo_free(formula.body)
    raise MsoError(f"unknown node {formula!r}")


def set_free(formula: MsoFormula) -> frozenset:
    if isinstance(formula, In):
        return frozenset((formula.container,))
    if isinstance(formula, Subset):
        return frozenset((formula.left, formula.right))
    if isinstance(formula, (MsoBool, Atom, VarEq)):
        return frozenset()
    if isinstance(formula, Neg):
        return set_free(formula.sub)
    if isinstance(formula, _BINARY):
        return set_free(formula.left) | set_free(formula.right)
    if isinstance(formula, _FO_QUANT):
        return set_free(formula.body)
    if isinstance(formula, _SET_QUANT):
        return set_free(formula.body) - {formula.var}
    raise MsoError(f"unknown node {formula!r}")


def all_names(formula: MsoFormula) -> set:
    """Every variable name occurring in the tree, free or bound."""
    out: set = set()
    todo = [formula]
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            out.update(f.args)
        elif isinstance(f, VarEq):
            out.update((f.left, f.right))
        elif isinstance(f, In):
            out.update((f.element, f.container))
        elif isinstance(f, Subset):
            out.update((f.left, f.right))
        elif isinstance(f, Neg):
            todo.append(f.sub)
        elif isinstance(f, _BINARY):
            todo.append(f.left)
            todo.append(f.right)
        elif isinstance(f, _FO_QUANT + _SET_QUANT):
            out.add(f.var)
            todo.append(f.body)
    return out


def _fresh(preferred: str, avoid) -> str:
    if preferred not in avoid:
        return preferred
    i = 1
    while f"{preferred}{i}" in avoid:
        i += 1
    return f"{preferred}{i}"


def subst_fo(formula: MsoFormula, mapping: dict) -> MsoFormula:
    """Rename free first-order occurrences, renaming binders on capture."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return formula
    if isinstance(formula, MsoBool):
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.relation, tuple(mapping.get(a, a) for a in formula.args))
    if isinstance(formula, VarEq):
        return VarEq(mapping.get(formula.left, formula.left), mapping.get(formula.right, formula.right))
    if isinstance(formula, In):
        return In(mapping.get(formula.element, formula.element), formula.container)
    if isinstance(formula, Subset):
        return formula
    if isinstance(formula, Neg):
        return Neg(subst_fo(formula.sub, mapping))
    if isinstance(formula, _BINARY):
        return type(formula)(subst_fo(formula.left, mapping), subst_fo(formula.right, mapping))
    if isinstance(formula, _SET_QUANT):
        return type(formula)(formula.var, subst_fo(formula.body, mapping))
    if isinstance(formula, _FO_QUANT):
        inner = {k: v for k, v in mapping.items() if k != formula.var}
        if not inner:
            return formula
        var = formula.var
        body = formula.body
        if var in inner.values() and fo_free(body) & inner.keys():
            renamed = _fresh(var, all_names(body) | set(inner.values()) | set(inner))
            body = subst_fo(body, {var: renamed})
            var = renamed
        return type(formula)(var, subst_fo(body, inner))
    raise MsoError(f"unknown node {formula!r}")


# ---------------------------------------------------------------------------
# Printer and parser: parenthesized prefix text


_INLINE_WIDTH = 72


def _parts(formula: MsoFormula) -> list:
    if isinstance(formula, MsoBool):
        return ["true" if formula.value else "false"]
    if isinstance(formula, Atom):
        return [formula.relation, *formula.args]
    if isinstance(formula, VarEq):
        return ["=", formula.left, formula.right]
    if isinstance(formula, In):
        return ["in", formula.element, formula.container]
    if isinstance(formula, Subset):
        return ["subset", formula.left, formula.right]
    if isinstance(formula, Neg):
        return ["not", formula.sub]
    if isinstance(formula, Conj):
        return ["and", formula.left, formula.right]
    if isinstance(formula, Disj):
        return ["or", formula.left, formula.right]
    if isinstance(formula, Implies):
        return ["->", formula.left, formula.right]
    if isinstance(formula, ExistsFO):
        return ["exists", formula.var, formula.body]
    if isinstance(formula, ForallFO):
        return ["forall", formula.var, formula.body]
    if isinstance(formula, ExistsSet):
        return ["existsset", formula.var, formula.body]
    if isinstance(formula, ForallSet):
        return ["forallset", formula.var, formula.body]
    if isinstance(formula, BoundSet):
        return ["B", formula.var, formula.body]
    raise MsoError(f"unknown node {formula!r}")


def _flat(formula: MsoFormula) -> str:
    items = [_flat(p) if isinstance(p, MsoFormula) else p for p in _parts(formula)]
    return "(" + " ".join(items) + ")"


def to_sexpr(formula: MsoFormula, indent: int = 0) -> str:
    flat = _flat(formula)
    if len(flat) + indent <= _INLINE_WIDTH:
        return flat
    parts = _parts(formula)
    head = [p for p in parts if not isinstance(p, MsoFormula)]
    tail = [p for p in parts if isinstance(p, MsoFormula)]
    pad = " " * (indent + 2)
    lines = ["(" + " ".join(head)]
    for sub in tail:
        lines.append(pad + to_sexpr(sub, indent + 2))
    return "\n".join(lines) + ")"


_QUANT_TOKENS = {
    "exists": ExistsFO,
    "forall": ForallFO,
    "existsset": ExistsSet,
    "forallset": ForallSet,
    "B": BoundSet,
}


def _tokenize_sexpr(text: str):
    tokens = []
    cur = []
    for ch in text:
        if ch == "(" or ch == ")":
            if cur:
                tokens.append("".join(cur))
                cur = []
            tokens.append(ch)
        elif ch.isspace():
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def parse_sexpr(text: str) -> MsoFormula:
    tokens = _tokenize_sexpr(text)
    pos = 0

    def fail(msg):
        raise MsoError(f"{msg} at token {pos}")

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        if tokens[pos] != "(":
            fail(f"expected '(' but saw {tokens[pos]!r}")
        pos += 1
        if pos >= len(tokens):
            fail("unexpected end of input")
        head = tokens[pos]
        pos += 1
        if head == "(" or head == ")":
            fail("expected an operator or relation name")
        node = build(head)
        if pos >= len(tokens) or tokens[pos] != ")":
            fail("expected ')'")
        pos += 1
        return node

    def name():
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "()":
            fail("expected a variable name")
        out = tokens[pos]
        pos += 1
        return out

    def build(head):
        nonlocal pos
        if head == "true":
            return MSO_TRUE
        if head == "false":
            return MSO_FALSE
        if head == "not":
            return Neg(parse())
        if head == "and":
            return Conj(parse(), parse())
        if head == "or":
            return Disj(parse(), parse())
        if head == "->":
            return Implies(parse(), parse())
        if head == "=":
            return VarEq(name(), name())
        if head == "in":
            return In(name(), name())
        if head == "subset":
            return Subset(name(), name())
        if head in _QUANT_TOKENS:
            return _QUANT_TOKENS[head](name(), parse())
        args = []
        while pos < len(tokens) and tokens[pos] not in "()":
            args.append(tokens[pos])
            pos += 1
        return Atom(head, tuple(args))

    out = parse()
    if pos != len(tokens):
        fail("trailing input")
    return out


# ---------------------------------------------------------------------------
# Classifier


def formula_class(formula: MsoFormula) -> str:
    """One of "MSO", "WMSO+B", "boolean_combination"."""

    def has_bound(f) -> bool:
        if isinstance(f, BoundSet):
            return True
        if isinstance(f, Neg):
            return has_bound(f.sub)
        if isinstance(f, _BINARY):
            return has_bound(f.left) or has_bound(f.right)
        if isinstance(f, _FO_QUANT + _SET_QUANT):
            return has_bound(f.body)
        return False

    if not has_bound(formula):
        return "MSO"
    if isinstance(formula, (Neg,) + _BINARY):
        return "boolean_combination"
    return "WMSO+B"


# ---------------------------------------------------------------------------
# Core emitters: reachability and bounded paths


def _check_edge(edge: MsoFormula, edge_vars: tuple) -> None:
    if len(edge_vars) != 2 or edge_vars[0] == edge_vars[1]:
        raise MsoError("edge variables must be two distinct names")
    if fo_free(edge) != frozenset(edge_vars):
        raise MsoError(
            f"edge formula must have exactly the free variables {edge_vars}, got {sorted(fo_free(edge))}"
        )


def _reach(edge: MsoFormula, ex: str, ey: str, a: str, b: str) -> MsoFormula:
    avoid = all_names(edge) | {a, b}
    X = _fresh("X", avoid)
    Y = _fresh("Y", avoid | {X})
    step = ForallFO(ex, ForallFO(ey, Implies(conj_all([In(ex, Y), In(ey, X), edge]), In(ey, Y))))
    return ExistsSet(X, ForallSet(Y, Implies(Conj(In(a, Y), step), In(b, Y))))


def _reach_restricted(edge: MsoFormula, ex: str, ey: str, a: str, b: str, Z: str) -> MsoFormula:
    avoid = all_names(edge) | {a, b, Z}
    Y = _fresh("Y", avoid)
    step = ForallFO(ex, ForallFO(ey, Implies(conj_all([In(ex, Y), In(ey, Z), edge]), In(ey, Y))))
    closure = ForallSet(Y, Implies(Subset(Y, Z), Implies(Conj(In(a, Y), step), In(b, Y))))
    return Conj(In(a, Z), closure)


def _ecycle(edge: MsoFormula, ex: str, ey: str) -> MsoFormula:
    back = subst_fo(edge, {ex: ey, ey: ex})
    return ExistsFO(ex, ExistsFO(ey, Conj(_reach(edge, ex, ey, ex, ey), back)))


def _path(edge: MsoFormula, ex: str, ey: str, a: str, b: str, Z: str) -> MsoFormula:
    avoid = all_names(edge) | {a, b, Z}
    px = _fresh(ex, avoid)
    py = _fresh(ey, avoid | {px})
    body = Conj(
        Disj(
            _reach_restricted(edge, ex, ey, px, py, Z),
            _reach_restricted(edge, ex, ey, py, px, Z),
        ),
        Conj(
            _reach_restricted(edge, ex, ey, a, px, Z),
            _reach_restricted(edge, ex, ey, px, b, Z),
        ),
    )
    return ForallFO(px, Implies(In(px, Z), ForallFO(py, Implies(In(py, Z), body))))


def _bpaths(edge: MsoFormula, ex: str, ey: str, a: str, b: str) -> MsoFormula:
    Z = _fresh("Z", all_names(edge) | {a, b})
    return BoundSet(Z, _path(edge, ex, ey, a, b, Z))


def emit_core_formula(kind: str, edge: MsoFormula, edge_vars=("x", "y"), args=None) -> MsoFormula:
    """reach / reach_restricted / ecycle / path / bpaths over the edge
    relation given as a formula with the two named free variables."""
    edge_vars = tuple(edge_vars)
    _check_edge(edge, edge_vars)
    ex, ey = edge_vars
    if kind == "reach":
        a, b = args if args else ("a", "b")
        return _reach(edge, ex, ey, a, b)
    if kind == "reach_restricted":
        a, b, Z = args if args else ("a", "b", "Z")
        return _reach_restricted(edge, ex, ey, a, b, Z)
    if kind == "ecycle":
        if args:
            raise MsoError("ecycle is a sentence, no argument names expected")
        return _ecycle(edge, ex, ey)
    if kind == "path":
        a, b, Z = args if args else ("a", "b", "Z")
        return _path(edge, ex, ey, a, b, Z)
    if kind == "bpaths":
        a, b = args if args else ("a", "b")
        return _bpaths(edge, ex, ey, a, b)
    raise MsoError(f"unknown core formula kind {kind!r}")


# ---------------------------------------------------------------------------
# Relativization


def relativize(formula: MsoFormula, guard: MsoFormula, guard_var: str | None = None) -> MsoFormula:
    """Restrict all quantifiers to the extension of the unary guard."""
    free = fo_free(guard)
    if guard_var is None:
        if len(free) != 1:
            raise MsoError("guard must have exactly one free first-order variable")
        guard_var = next(iter(free))
    elif free != frozenset((guard_var,)):
        raise MsoError("guard must have exactly the declared free variable")

    def guard_at(v: str) -> MsoFormula:
        return subst_fo(guard, {guard_var: v})

    def set_guard(V: str) -> MsoFormula:
        w = _fresh("w", all_names(guard) | {V})
        return ForallFO(w, Implies(In(w, V), guard_at(w)))

    def walk(f: MsoFormula) -> MsoFormula:
        if isinstance(f, (MsoBool, Atom, VarEq, In, Subset)):
            return f
        if isinstance(f, Neg):
            return Neg(walk(f.sub))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, ExistsFO):
            return ExistsFO(f.var, Conj(guard_at(f.var), walk(f.body)))
        if isinstance(f, ForallFO):
            return ForallFO(f.var, Implies(guard_at(f.var), walk(f.body)))
        if isinstance(f, ExistsSet):
            return ExistsSet(f.var, Conj(set_guard(f.var), walk(f.body)))
        if isinstance(f, ForallSet):
            return ForallSet(f.var, Implies(set_guard(f.var), walk(f.body)))
        if isinstance(f, BoundSet):
            return BoundSet(f.var, Conj(set_guard(f.var), walk(f.body)))
        raise MsoError(f"unknown node {f!r}")

    return walk(formula)


# ---------------------------------------------------------------------------
# Homomorphism-existence sentences


def _signature_symbols(signature):
    if hasattr(signature, "signature"):
        signature = signature.signature
    out = list(signature)
    for rel in out:
        if not isinstance(rel, RelationSymbol):
            raise MsoError(f"not a relation symbol: {rel!r}")
    return out


def emit_hom_sentence(signature, target: str) -> MsoFormula:
    """The sentence holding on exactly the structures that map into the
    target: Z_order_only, Z, N, or negZ."""
    symbols = _signature_symbols(signature)
    lt_name, eq_name = "lt", "eq"
    consts: list = []
    const_names: dict = {}
    mods: list = []
    mod_names: dict = {}
    for rel in symbols:
        if rel.kind == LESS:
            lt_name = rel.name
        elif rel.kind == EQUAL:
            if target == "Z_order_only":
                raise MsoError("target Z_order_only supports only the order symbol")
            eq_name = rel.name
        elif rel.kind == CONSTANT:
            if target != "Z" or not isinstance(rel.params[0], int):
                raise MsoError(f"target {target} does not support {rel.name}")
            consts.append(rel.params[0])
            const_names[rel.params[0]] = rel.name
        elif rel.kind == MODULO:
            if target == "Z_order_only":
                raise MsoError("target Z_order_only supports only the order symbol")
            mods.append(rel.params)
            mod_names[rel.params] = rel.name
        else:
            raise MsoError(f"target {target} does not support {rel.name}")
    consts = sorted(set(consts))
    mods = sorted(set(mods))

    def lt(x, y):
        return Atom(lt_name, (x, y))

    def eq(x, y):
        return Atom(eq_name, (x, y))

    if target == "Z_order_only":
        edge = lt("x", "y")
        return Conj(
            Neg(_ecycle(edge, "x", "y")),
            ForallFO("x", ForallFO("y", _bpaths(edge, "x", "y", "x", "y"))),
        )

    # the order relation up to declared equality: ~ o I(<) o ~
    sim_edge = Disj(eq("x", "y"), eq("y", "x"))

    def phi_sim(a, b):
        return _reach(sim_edge, "x", "y", a, b)

    u, v = "u", "v"
    phi_lt_edge = ExistsFO(
        u, ExistsFO(v, conj_all([phi_sim("x", u), lt(u, v), phi_sim(v, "y")]))
    )

    def ecycle_lt():
        return _ecycle(phi_lt_edge, "x", "y")

    def modcon() -> MsoFormula:
        disjuncts = []
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                a1, b1 = mods[i]
                a2, b2 = mods[j]
                if (a2 - a1) % gcd(b1, b2) != 0:
                    disjuncts.append(
                        ExistsFO(
                            "x1",
                            ExistsFO(
                                "x2",
                                conj_all(
                                    [
                                        phi_sim("x1", "x2"),
                                        Atom(mod_names[mods[i]], ("x1",)),
                                        Atom(mod_names[mods[j]], ("x2",)),
                                    ]
                                ),
                            ),
                        )
                    )
        return disj_all(disjuncts)

    if target in ("N", "negZ"):
        if target == "N":
            bounded_paths = ForallFO(
                "y", BoundSet("Z", ExistsFO("x", _path(phi_lt_edge, "x", "y", "x", "y", "Z")))
            )
        else:
            bounded_paths = ForallFO(
                "x", BoundSet("Z", ExistsFO("y", _path(phi_lt_edge, "x", "y", "x", "y", "Z")))
            )
        parts = [Neg(ecycle_lt()), bounded_paths]
        if mods:
            parts.append(Neg(modcon()))
        return conj_all(parts)

    if target != "Z":
        raise MsoError(f"unknown target {target!r}")

    m = min([0] + consts)
    M = max([0] + consts)

    leq_edge = disj_all([lt("x", "y"), eq("x", "y"), eq("y", "x")])

    def reach_leq(a, b):
        return _reach(leq_edge, "x", "y", a, b)

    const_disj_y = disj_all([Atom(const_names[c], ("y",)) for c in consts])
    const_disj_z = disj_all([Atom(const_names[c], ("z",)) for c in consts])
    bounded = ExistsFO(
        "y",
        ExistsFO(
            "z",
            conj_all([const_disj_y, const_disj_z, reach_leq("y", "x"), reach_leq("x", "z")]),
        ),
    )

    def bounded_at(var):
        return subst_fo(bounded, {"x": var})

    greater = Conj(
        Neg(bounded),
        ExistsFO("y", Conj(bounded_at("y"), reach_leq("y", "x"))),
    )
    smaller = Conj(
        Neg(bounded),
        ExistsFO("y", Conj(bounded_at("y"), reach_leq("x", "y"))),
    )
    free_guard = Neg(bounded)

    # the bounded part: a partition X_m .. X_M acting as the value map
    def X(i):
        return f"X{i}"

    idx = list(range(m, M + 1))
    phi_part = ForallFO(
        "x",
        disj_all(
            [
                conj_all([In("x", X(i))] + [Neg(In("x", X(j))) for j in idx if j != i])
                for i in idx
            ]
        ),
    )
    phi_lt_part = ForallFO(
        "x",
        ForallFO(
            "y",
            conj_all(
                [
                    Neg(conj_all([lt("x", "y"), In("x", X(i)), In("y", X(j))]))
                    for i in idx
                    for j in idx
                    if i >= j
                ]
            ),
        ),
    )
    phi_eq_part = ForallFO(
        "x",
        ForallFO(
            "y",
            conj_all(
                [
                    Neg(conj_all([eq("x", "y"), In("x", X(i)), In("y", X(j))]))
                    for i in idx
                    for j in idx
                    if i != j
                ]
            ),
        ),
    )
    phi_const = (
        ForallFO(
            "x",
            conj_all([Implies(Atom(const_names[c], ("x",)), In("x", X(c))) for c in consts]),
        )
        if consts
        else MSO_TRUE
    )
    phi_mod = (
        ForallFO(
            "x",
            conj_all(
                [
                    Implies(
                        Atom(mod_names[(a, b)], ("x",)),
                        disj_all([In("x", X(i)) for i in idx if i % b == a]),
                    )
                    for (a, b) in mods
                ]
            ),
        )
        if mods
        else MSO_TRUE
    )
    psi = conj_all([phi_part, phi_lt_part, phi_eq_part, phi_const, phi_mod])
    for i in reversed(idx):
        psi = ExistsSet(X(i), psi)
    phi_b = relativize(psi, bounded, "x")

    phi_z_core = Conj(
        Neg(ecycle_lt()),
        ForallFO("x", ForallFO("y", _bpaths(phi_lt_edge, "x", "y", "x", "y"))),
    )
    phi_n_core = Conj(
        Neg(ecycle_lt()),
        ForallFO("y", BoundSet("Z", ExistsFO("x", _path(phi_lt_edge, "x", "y", "x", "y", "Z")))),
    )
    phi_negn_core = Conj(
        Neg(ecycle_lt()),
        ForallFO("x", BoundSet("Z", ExistsFO("y", _path(phi_lt_edge, "x", "y", "x", "y", "Z")))),
    )

    return conj_all(
        [
            phi_b,
            relativize(phi_z_core, free_guard, "x"),
            relativize(phi_n_core, greater, "x"),
            relativize(phi_negn_core, smaller, "x"),
            Neg(modcon()),
        ]
    )


# ---------------------------------------------------------------------------
# Extended-tree encoding


def _succ(index: int, a: str, b: str) -> Atom:
    return Atom(f"succ_{index}", (a, b))


def emit_tree_encoding(alpha: MsoFormula, variables, d: int, table, props=None):
    """Encode the constraint graph of a d-branching tree with register
    variables inside a (d + len(variables))-branching tree: the i-th
    extra child of each tree node stands for the pair (node, variable i).

    Returns (beta, alpha_e): beta constrains the shape (extra children
    carry exactly their q-proposition, their descendants are blank, and
    q-propositions occur nowhere else); alpha_e restates alpha over the
    encoded graph, with every relation atom unfolded through the label
    table.  Emission only; nothing here evaluates over infinite trees.
    """
    variables = list(variables)
    m = len(variables)
    if d < 1 or m < 1:
        raise MsoError("need at least one direction and one variable")
    entries = list(table)
    by_relation: dict = {}
    for entry in entries:
        by_relation.setdefault(entry.constraint.relation.name, []).append(entry)

    q_props = [f"q{i}" for i in range(1, m + 1)]
    alphabet = list(q_props) + [entry.prop for entry in entries]
    if props:
        for p in props:
            if p not in alphabet:
                alphabet.append(p)

    total = d + m
    any_succ = disj_all([_succ(j, "x", "y") for j in range(1, total + 1)])
    main_succ = disj_all([_succ(j, "x", "y") for j in range(1, d + 1)])

    def root(r):
        return Neg(ExistsFO("p", subst_fo(any_succ, {"x": "p", "y": r})))

    def main(var):
        return ExistsFO("r", Conj(root("r"), _reach(main_succ, "x", "y", "r", var)))

    def qnode(var):
        return disj_all([Atom(q, (var,)) for q in q_props])

    beta_children = []
    for i in range(1, m + 1):
        want = conj_all(
            [Atom(q_props[i - 1], ("y",))]
            + [Neg(Atom(q_props[j - 1], ("y",))) for j in range(1, m + 1) if j != i]
        )
        beta_children.append(
            ForallFO(
                "x",
                ForallFO("y", Implies(Conj(main("x"), _succ(d + i, "x", "y")), want)),
            )
        )
    blank = conj_all([Neg(Atom(p, ("z",))) for p in alphabet])
    below = ExistsFO(
        "w",
        Conj(
            subst_fo(any_succ, {"x": "y", "y": "w"}),
            _reach(any_succ, "x", "y", "w", "z"),
        ),
    )
    beta_blank = ForallFO(
        "y", ForallFO("z", Implies(Conj(qnode("y"), below), blank))
    )
    beta_where = ForallFO(
        "y",
        Implies(
            qnode("y"),
            ExistsFO(
                "x",
                Conj(main("x"), disj_all([_succ(d + i, "x", "y") for i in range(1, m + 1)])),
            ),
        ),
    )
    beta = conj_all(beta_children + [beta_blank, beta_where])

    relativized = relativize(alpha, qnode("x"), "x")
    avoid = all_names(relativized) | {"x", "y"}

    def rewrite_atom(atom: Atom) -> MsoFormula:
        if atom.relation not in by_relation:
            return atom
        disjuncts = []
        for entry in by_relation[atom.relation]:
            cargs = entry.constraint.args
            if len(cargs) != len(atom.args):
                raise MsoError(f"arity mismatch for {atom.relation}")
            depth = entry.depth
            w = [_fresh(f"w{t}", avoid | set(atom.args)) for t in range(depth + 1)]
            for word in product(range(1, d + 1), repeat=depth):
                parts = [_succ(word[t], w[t], w[t + 1]) for t in range(depth)]
                parts.append(Atom(entry.prop, (w[depth],)))
                for t, (offset, var) in enumerate(cargs):
                    if var not in variables:
                        raise MsoError(f"constraint variable {var!r} is not a register variable")
                    q_index = d + variables.index(var) + 1
                    parts.append(_succ(q_index, w[offset], atom.args[t]))
                body = conj_all(parts)
                for name in reversed(w):
                    body = ExistsFO(name, body)
                disjuncts.append(body)
        return disj_all(disjuncts)

    def walk(f: MsoFormula) -> MsoFormula:
        if isinstance(f, Atom):
            return rewrite_atom(f)
        if isinstance(f, (MsoBool, VarEq, In, Subset)):
            return f
        if isinstance(f, Neg):
            return Neg(walk(f.sub))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, _FO_QUANT + _SET_QUANT):
            return type(f)(f.var, walk(f.body))
        raise MsoError(f"unknown node {f!r}")

    return beta, walk(relativized)
