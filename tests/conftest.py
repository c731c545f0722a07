"""Shared generators and oracles for the test suite.

The random generators take an explicit Random instance so every test is
reproducible from its seed.  The lasso evaluator is an independent
path-semantics oracle: it never touches the tableau pipeline.
"""

import itertools
import random

from ctlz import (
    EQ,
    LT,
    And,
    BoolConst,
    Constraint,
    ConstraintKripke,
    Exists,
    All,
    Next,
    Not,
    Or,
    Prop,
    Release,
    SigmaStructure,
    Until,
    const_rel,
    mod_rel,
    tree_shape,
)

SIGMA0 = (
    LT,
    EQ,
    const_rel(0),
    const_rel(2),
    mod_rel(0, 2),
    mod_rel(1, 2),
    mod_rel(1, 3),
)

SIGMA0_UNARY = tuple(r for r in SIGMA0 if r.arity == 1)


# ---------------------------------------------------------------------------
# Structures


def random_sigma0_structure(rng: random.Random, n: int, p_bin: float = 0.1, p_un: float = 0.1) -> SigmaStructure:
    """Random structure over the full sigma0 signature; every relation is
    declared even when its interpretation came out empty."""
    elems = [f"e{i}" for i in range(n)]
    interp = {}
    for rel in SIGMA0:
        rows = []
        if rel.arity == 2:
            for a in elems:
                for b in elems:
                    if rng.random() < p_bin:
                        rows.append((a, b))
        else:
            for a in elems:
                if rng.random() < p_un:
                    rows.append((a,))
        interp[rel] = rows
    return SigmaStructure(elems, interp)


def all_one_element_structures():
    """Every sigma0 structure on a single element: 2 binary self-loop bits
    and 5 unary bits, 128 structures in total."""
    out = []
    for bits in itertools.product((False, True), repeat=len(SIGMA0)):
        interp = {}
        for rel, present in zip(SIGMA0, bits):
            if not present:
                interp[rel] = []
            elif rel.arity == 2:
                interp[rel] = [("e0", "e0")]
            else:
                interp[rel] = [("e0",)]
        out.append(SigmaStructure(["e0"], interp))
    return out


# ---------------------------------------------------------------------------
# Models


def random_graph_model(
    rng: random.Random,
    n: int,
    variables=("x",),
    value_range: int = 3,
    p_edge: float = 0.4,
    props=(),
    p_prop: float = 0.4,
) -> ConstraintKripke:
    """Random total-edge graph model with integer registers in
    [-value_range, value_range]."""
    nodes = [f"s{i}" for i in range(n)]
    edges = {(a, b) for a in nodes for b in nodes if rng.random() < p_edge}
    for a in nodes:
        if not any(e[0] == a for e in edges):
            edges.add((a, rng.choice(nodes)))
    labels = {}
    for v in nodes:
        have = frozenset(p for p in props if rng.random() < p_prop)
        if have:
            labels[v] = have
    registers = {
        (v, x): rng.randint(-value_range, value_range) for v in nodes for x in variables
    }
    return ConstraintKripke(nodes, edges, labels, registers, list(variables), ("graph",))


def random_tree_model(
    rng: random.Random,
    depth: int = 2,
    k: int = 2,
    variables=("x",),
    value_range: int = 3,
    props=(),
    p_prop: float = 0.4,
) -> ConstraintKripke:
    """Full k-ary tree of the given depth with random registers."""
    nodes = [""]
    frontier = [""]
    for _ in range(depth):
        frontier = [p + str(i) for p in frontier for i in range(1, k + 1)]
        nodes.extend(frontier)
    edges = {(v, v + str(i)) for v in nodes for i in range(1, k + 1) if v + str(i) in set(nodes)}
    labels = {}
    for v in nodes:
        have = frozenset(p for p in props if rng.random() < p_prop)
        if have:
            labels[v] = have
    registers = {
        (v, x): rng.randint(-value_range, value_range) for v in nodes for x in variables
    }
    return ConstraintKripke(nodes, edges, labels, registers, list(variables), tree_shape(k, depth))


# ---------------------------------------------------------------------------
# Lasso oracle: path semantics on an eventually periodic path


def _ring_succ(length: int, loop_start: int):
    return [i + 1 if i + 1 < length else loop_start for i in range(length)]


def lasso_eval(model: ConstraintKripke, states, loop_start: int, formula, dom) -> bool:
    """Truth of a path formula at position 0 of the infinite path
    states[0] .. states[-1] (states[loop_start] ..)^omega.  State
    subformulas beyond propositions are not supported here on purpose:
    the oracle must stay independent of the model checker."""
    length = len(states)
    succ = _ring_succ(length, loop_start)

    def follow(i: int, steps: int) -> int:
        for _ in range(steps):
            i = succ[i]
        return i

    def table(f) -> list:
        if isinstance(f, BoolConst):
            return [f.value] * length
        if isinstance(f, Prop):
            return [f.name in model.label(states[i]) for i in range(length)]
        if isinstance(f, Constraint):
            out = []
            for i in range(length):
                values = tuple(
                    model.gamma(states[follow(i, off)], var) for off, var in f.args
                )
                out.append(dom.eval_relation(f.relation, values))
            return out
        if isinstance(f, Not):
            return [not v for v in table(f.sub)]
        if isinstance(f, And):
            left, right = table(f.left), table(f.right)
            return [a and b for a, b in zip(left, right)]
        if isinstance(f, Or):
            left, right = table(f.left), table(f.right)
            return [a or b for a, b in zip(left, right)]
        if isinstance(f, Next):
            sub = table(f.sub)
            return [sub[succ[i]] for i in range(length)]
        if isinstance(f, Until):
            left, right = table(f.left), table(f.right)
            acc = list(right)
            for _ in range(length):
                nxt = [acc[i] or (left[i] and acc[succ[i]]) for i in range(length)]
                if nxt == acc:
                    break
                acc = nxt
            return acc
        if isinstance(f, Release):
            left, right = table(f.left), table(f.right)
            acc = [True] * length
            for _ in range(length + 1):
                nxt = [right[i] and (left[i] or acc[succ[i]]) for i in range(length)]
                if nxt == acc:
                    break
                acc = nxt
            return acc
        raise ValueError(f"lasso oracle does not handle {type(f).__name__}")

    return table(formula)[0]


def all_lassos(model: ConstraintKripke, start, max_len: int):
    """Every lasso (states, loop_start) from start with at most max_len
    states before closing."""
    out = []

    def walk(path):
        last = path[-1]
        for i, v in enumerate(path):
            if (last, v) in model.edges:
                out.append((tuple(path), i))
        if len(path) < max_len:
            for s in model.successors(last):
                walk(path + [s])

    walk([start])
    return out


# ---------------------------------------------------------------------------
# Formula generators


def _random_constraint(rng: random.Random, variables, max_offset: int = 1) -> Constraint:
    rel = rng.choice(SIGMA0)
    args = tuple(
        (rng.randint(0, max_offset), rng.choice(list(variables)))
        for _ in range(rel.arity)
    )
    return Constraint(rel, args)


def random_ctl_formula(rng: random.Random, variables, props, depth: int = 3, max_offset: int = 1):
    """State formula in the fragment the fixpoint oracle accepts:
    boolean combinations of quantified Next/Until/Release whose operands
    are literals or nested state formulas."""

    def arg(d: int):
        roll = rng.random()
        if roll < 0.35:
            return _random_constraint(rng, variables, max_offset)
        if roll < 0.45:
            return Not(_random_constraint(rng, variables, max_offset))
        return state(d - 1)

    def state(d: int):
        if d <= 0:
            roll = rng.random()
            if roll < 0.5 and props:
                return Prop(rng.choice(list(props)))
            return BoolConst(roll < 0.75)
        roll = rng.random()
        quant = Exists if rng.random() < 0.5 else All
        if roll < 0.15 and props:
            return Prop(rng.choice(list(props)))
        if roll < 0.3:
            return Not(state(d - 1))
        if roll < 0.45:
            return And(state(d - 1), state(d - 1))
        if roll < 0.6:
            return Or(state(d - 1), state(d - 1))
        if roll < 0.75:
            return quant(Next(arg(d)))
        if roll < 0.9:
            return quant(Until(arg(d), arg(d)))
        return quant(Release(arg(d), arg(d)))

    return state(depth)


def random_sigma0_formula(rng: random.Random, variables, max_negated: int = 2):
    """Closed state formula over sigma0 constraints in negation normal
    form with at most max_negated negated constraint leaves."""
    budget = [max_negated]

    def literal():
        c = _random_constraint(rng, variables)
        if budget[0] > 0 and rng.random() < 0.35:
            budget[0] -= 1
            return Not(c)
        return c

    def path(d: int):
        if d <= 0:
            return literal()
        roll = rng.random()
        if roll < 0.25:
            return literal()
        if roll < 0.45:
            return Next(path(d - 1))
        if roll < 0.6:
            return And(path(d - 1), path(d - 1))
        if roll < 0.75:
            return Or(path(d - 1), path(d - 1))
        if roll < 0.9:
            return Until(path(d - 1), path(d - 1))
        return Release(path(d - 1), path(d - 1))

    def state(d: int):
        quant = Exists if rng.random() < 0.7 else All
        body = path(d)
        if rng.random() < 0.3 and d > 0:
            return And(quant(body), state(d - 1))
        return quant(body)

    return state(2)


def random_xonly_formula(rng: random.Random, variables, props, max_depth: int = 2,
                         negate_constraints: bool = True):
    """State formula whose path bodies use only X over literals, the
    shape the bounded tree evaluator accepts.  With negate_constraints
    off the result is already in strong negation normal form."""

    def body(d: int):
        roll = rng.random()
        if roll < 0.3 or d <= 0:
            if props and rng.random() < 0.3:
                p = Prop(rng.choice(list(props)))
                return Not(p) if rng.random() < 0.3 else p
            c = _random_constraint(rng, variables, max_offset=min(1, d))
            if negate_constraints and rng.random() < 0.25:
                return Not(c)
            return c
        if roll < 0.55:
            return Next(body(d - 1))
        if roll < 0.8:
            return And(body(d - 1), body(d - 1))
        return Or(body(d - 1), body(d - 1))

    quant = Exists if rng.random() < 0.6 else All
    f = quant(body(max_depth))
    if rng.random() < 0.25:
        g = (Exists if rng.random() < 0.6 else All)(body(max_depth))
        f = And(f, g) if rng.random() < 0.5 else Or(f, g)
    return f
