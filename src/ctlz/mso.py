"""Monadic second-order formulas with a bounding quantifier.

The AST covers first-order and set variables, relation atoms, the usual
connectives, weak set quantification, and B (there is a common finite
bound on the size of all satisfying sets).  Builders produce the
reachability toolkit (reach, restricted reach, cycle existence, path
sets, bounded paths) and the per-signature sentences characterizing
homomorphism existence into the integer domains; everything prints to a
stable parenthesized prefix text that reparses to the same sentence.

Nodes are interned on the node core of the CTL* formula layer: building
a node whose fields equal those of a live node returns that node, so
equality is identity, hashing is O(1), and an emitted or parsed sentence
is a DAG from birth (the sigma0 Z sentence has 26,439 tree nodes but 678
distinct ones).  Each node class is a frozen dataclass whose fields
annotated ``MsoFormula`` are its child nodes.  The passes here run on
that core: ``postorder`` over distinct nodes, the free names kept on each
node once worked out, and ``transform`` steps for substitution,
relativization and the tree encoding, each rewriting a distinct (node,
context) pair once.  The printer works out each distinct node's flat
width bottom-up and then writes the text in one pass; the parser is a
stack loop.  No pass recurses, so nesting depth is not bounded by
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from math import gcd

from .formulas import CONSTANT, EQUAL, LESS, MODULO, Node, RelationSymbol, _children, _intern, postorder, rebuild, transform


class MsoError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST: interned, immutable nodes


class MsoFormula(Node):
    """An MSO formula; each node class is a frozen dataclass whose fields
    annotated ``MsoFormula`` hold its child nodes."""

    __slots__ = ()
    _free = None  # (free first-order names, free set names), see _free_names

    def __str__(self) -> str:
        return to_sexpr(self)


def _node(cls):
    """A node class: a frozen dataclass whose equality stays identity and
    whose repr and construction come from the node core."""
    cls = dataclass(frozen=True, init=False, repr=False, eq=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    cls._kids = tuple(f.name for f in fields(cls) if f.type == "MsoFormula")
    return cls


@_node
class MsoBool(MsoFormula):
    value: bool


MSO_TRUE = MsoBool(True)
MSO_FALSE = MsoBool(False)


@_node
class Atom(MsoFormula):
    relation: str
    args: tuple

    def __new__(cls, relation: str, args):
        if not relation:
            raise MsoError("empty relation name")
        args = tuple(args)
        return _intern(cls, (relation, args), (cls, relation, args))


@_node
class VarEq(MsoFormula):
    left: str
    right: str


@_node
class In(MsoFormula):
    element: str
    container: str


@_node
class Subset(MsoFormula):
    left: str
    right: str


@_node
class Neg(MsoFormula):
    sub: MsoFormula


@_node
class Conj(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@_node
class Disj(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@_node
class Implies(MsoFormula):
    left: MsoFormula
    right: MsoFormula


@_node
class ExistsFO(MsoFormula):
    var: str
    body: MsoFormula


@_node
class ForallFO(MsoFormula):
    var: str
    body: MsoFormula


@_node
class ExistsSet(MsoFormula):
    var: str
    body: MsoFormula


@_node
class ForallSet(MsoFormula):
    var: str
    body: MsoFormula


@_node
class BoundSet(MsoFormula):
    var: str
    body: MsoFormula


_FO_QUANT = (ExistsFO, ForallFO)
_SET_QUANT = (ExistsSet, ForallSet, BoundSet)
_QUANT = _FO_QUANT + _SET_QUANT
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


def _names_in(f: MsoFormula) -> tuple:
    """The variable names a node mentions itself, binders included."""
    if isinstance(f, Atom):
        return f.args
    return tuple(v for v in map(f.__getattribute__, f._fields) if type(v) is str)


_NONE = frozenset()


def _own_free(f: MsoFormula) -> tuple:
    """Free names of f from those of its children."""
    if isinstance(f, Atom):
        return frozenset(f.args), _NONE
    if isinstance(f, VarEq):
        return frozenset((f.left, f.right)), _NONE
    if isinstance(f, In):
        return frozenset((f.element,)), frozenset((f.container,))
    if isinstance(f, Subset):
        return _NONE, frozenset((f.left, f.right))
    if isinstance(f, Neg):
        return f.sub._free
    if isinstance(f, _BINARY):
        (lf, ls), (rf, rs) = f.left._free, f.right._free
        return lf | rf, ls | rs
    if isinstance(f, _FO_QUANT):
        fo, so = f.body._free
        return fo - {f.var}, so
    if isinstance(f, _SET_QUANT):
        fo, so = f.body._free
        return fo, so - {f.var}
    return _NONE, _NONE


def _free_names(f: MsoFormula) -> tuple:
    """(free first-order names, free set names) of f; worked out once per
    node and kept on it."""
    if f._free is None:
        for g in postorder(f, lambda g: g._free is not None):
            object.__setattr__(g, "_free", _own_free(g))
    return f._free


def fo_free(formula: MsoFormula) -> frozenset:
    return _free_names(formula)[0]


def set_free(formula: MsoFormula) -> frozenset:
    return _free_names(formula)[1]


def all_names(formula: MsoFormula) -> set:
    """Every variable name occurring in the formula, free or bound."""
    return {v for g in postorder(formula) for v in _names_in(g)}


def _fresh(preferred: str, avoid) -> str:
    if preferred not in avoid:
        return preferred
    i = 1
    while f"{preferred}{i}" in avoid:
        i += 1
    return f"{preferred}{i}"


def subst_fo(formula: MsoFormula, mapping: dict) -> MsoFormula:
    """Rename free first-order occurrences, renaming binders on capture."""
    mapping = tuple((k, v) for k, v in mapping.items() if k != v)
    return transform(formula, _subst_step, mapping) if mapping else formula


def _subst_step(f: MsoFormula, mapping: tuple):
    get = dict(mapping).get
    if isinstance(f, Atom):
        return Atom(f.relation, tuple(get(a, a) for a in f.args))
    if isinstance(f, VarEq):
        return VarEq(get(f.left, f.left), get(f.right, f.right))
    if isinstance(f, In):
        return In(get(f.element, f.element), f.container)
    if not isinstance(f, _FO_QUANT):
        return (yield from rebuild(f, mapping))
    inner = tuple((k, v) for k, v in mapping if k != f.var)
    if not inner:
        return f
    var, body = f.var, f.body
    keys, values = {k for k, _ in inner}, {v for _, v in inner}
    if var in values and fo_free(body) & keys:
        renamed = _fresh(var, all_names(body) | values | keys)
        body = yield body, ((var, renamed),)
        var = renamed
    return type(f)(var, (yield body, inner))


# ---------------------------------------------------------------------------
# Printer and parser: parenthesized prefix text


_INLINE_WIDTH = 72

# head token -> (what follows it: n a variable name, f a formula; builder)
_FORMS = {
    "true": ("", lambda: MSO_TRUE),
    "false": ("", lambda: MSO_FALSE),
    "not": ("f", Neg),
    "and": ("ff", Conj),
    "or": ("ff", Disj),
    "->": ("ff", Implies),
    "=": ("nn", VarEq),
    "in": ("nn", In),
    "subset": ("nn", Subset),
    "exists": ("nf", ExistsFO),
    "forall": ("nf", ForallFO),
    "existsset": ("nf", ExistsSet),
    "forallset": ("nf", ForallSet),
    "B": ("nf", BoundSet),
}
_TOKEN = {build: head for head, (_, build) in _FORMS.items() if isinstance(build, type)}


def _head(f: MsoFormula) -> str:
    """The node's text up to its child nodes, without the parenthesis."""
    if isinstance(f, MsoBool):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return " ".join((f.relation, *f.args))
    return " ".join((_TOKEN[type(f)], *_names_in(f)))


def to_sexpr(formula: MsoFormula) -> str:
    """The formula on one line when it fits in the inline width, else its
    head on the first line and each subformula indented below it."""
    heads: dict = {}
    width: dict = {}  # node -> length of its one-line text
    for g in postorder(formula):
        heads[g] = _head(g)
        width[g] = 2 + len(heads[g]) + sum(1 + width[c] for c in _children(g))
    out: list = []
    stack: list = [(formula, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, at = item
        out.append("(" + heads[f])
        stack.append(")")
        # a subformula of a node that fits fits too, whatever its indent
        sep = " " if width[f] + at <= _INLINE_WIDTH else "\n" + " " * (at + 2)
        for c in reversed(_children(f)):
            stack += [(c, at + 2), sep]
    return "".join(out)


def parse_sexpr(text: str) -> MsoFormula:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg):
        raise MsoError(f"{msg} at token {pos}")

    # open nodes as [what follows the head, builder, parts read]; the
    # bottom entry reads the whole formula
    stack: list = [["f", None, []]]
    while True:
        steps, build, parts = stack[-1]
        if len(parts) == len(steps):
            if build is None:
                break
            if pos >= len(tokens) or tokens[pos] != ")":
                fail("expected ')'")
            pos += 1
            stack.pop()
            stack[-1][2].append(build(*parts))
        elif steps[len(parts)] == "n":
            if pos >= len(tokens) or tokens[pos] in "()":
                fail("expected a variable name")
            parts.append(tokens[pos])
            pos += 1
        else:
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
            if head in _FORMS:
                stack.append([*_FORMS[head], []])
                continue
            start = pos  # a relation atom: its arguments run up to a parenthesis
            while pos < len(tokens) and tokens[pos] not in "()":
                pos += 1
            stack.append(["", partial(Atom, head, tokens[start:pos]), []])
    if pos != len(tokens):
        fail("trailing input")
    return parts[0]


# ---------------------------------------------------------------------------
# Classifier


def formula_class(formula: MsoFormula) -> str:
    """One of "MSO", "WMSO+B", "boolean_combination"."""
    if not any(isinstance(g, BoundSet) for g in postorder(formula)):
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

    def step(f: MsoFormula, ctx):
        if not isinstance(f, _QUANT):
            return (yield from rebuild(f, ctx))
        body = yield f.body, ctx
        guarded = guard_at(f.var) if isinstance(f, _FO_QUANT) else set_guard(f.var)
        link = Implies if isinstance(f, (ForallFO, ForallSet)) else Conj
        return type(f)(f.var, link(guarded, body))

    return transform(formula, step)


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

    no_cycle = Neg(_ecycle(phi_lt_edge, "x", "y"))

    def paths_bounded(outer, inner):
        """forall outer B Z exists inner: Z is an lt-path between x and y."""
        return ForallFO(outer, BoundSet("Z", ExistsFO(inner, _path(phi_lt_edge, "x", "y", "x", "y", "Z"))))

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
        parts = [no_cycle, paths_bounded("y", "x") if target == "N" else paths_bounded("x", "y")]
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

    phi_z_core = Conj(no_cycle, ForallFO("x", ForallFO("y", _bpaths(phi_lt_edge, "x", "y", "x", "y"))))
    return conj_all(
        [
            phi_b,
            relativize(phi_z_core, free_guard, "x"),
            relativize(Conj(no_cycle, paths_bounded("y", "x")), greater, "x"),
            relativize(Conj(no_cycle, paths_bounded("x", "y")), smaller, "x"),
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

    def step(f: MsoFormula, ctx):
        if isinstance(f, Atom):
            return rewrite_atom(f)
        return (yield from rebuild(f, ctx))

    return beta, transform(relativized, step)
