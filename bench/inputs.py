"""Seeded input generators for the benchmark.

Everything here is plain standard library and never imports ``ctlz``:
the inputs depend on the seed alone, so the same seed gives byte-identical
formula, model and structure texts whatever the state of the program.
Each generator takes an explicit ``random.Random``.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The criterion signature of the acceptance tests: name and arity.
SIGMA0 = (
    ("lt", 2),
    ("eq", 2),
    ("eqc[0]", 1),
    ("eqc[2]", 1),
    ("mod[0,2]", 1),
    ("mod[1,2]", 1),
    ("mod[1,3]", 1),
)

# ---------------------------------------------------------------------------
# Fixed suites.  Each row is (formula, max_nodes, register_range, expect_model).
# Acceptance searches run at 3 nodes; the five exhaustive misses that cost
# 1.7-22.5 s each at 3 nodes run at 2, so that one round stays near seven
# seconds.

SAT_SUITE = (
    ("E F eqc[5](x)", 3, 7, True),
    ("E (lt(x, X^1 y) U eqc[100](y))", 3, 100, True),
    ("E G mod[0,2](x)", 3, 5, True),
    ("E (mod[1,2](x) & X mod[0,2](x))", 3, 5, True),
    ("E X X eqc[2](x)", 3, 5, True),
    ("A G (mod[0,2](x) | mod[1,2](x))", 3, 5, True),
    ("E (eqc[0](x) & X (eqc[2](x) & X eqc[0](x)))", 3, 5, True),
    ("E (lt(x, X^1 x) & X lt(X^1 x, x))", 3, 5, True),
    ("E (p U (q & eqc[2](x)))", 3, 5, True),
    ("A X E F eqc[0](x)", 3, 5, True),
)

UNSAT_SUITE = (
    ("E lt(x, x)", 3, 5, False),
    ("E (eqc[1](x) & eqc[2](x))", 2, 5, False),
    ("E G lt(x, X^1 x)", 3, 5, False),
    ("E (mod[0,2](x) & mod[1,2](x))", 2, 5, False),
    ("E (eqc[0](x) & lt(x, X^1 x) & X eqc[0](x))", 3, 5, False),
    ("A (true U false)", 3, 5, False),
    ("E (lt(x, y) & lt(y, x))", 2, 5, False),
    ("E F (eqc[5](x) & eqc[2](x))", 2, 7, False),
    ("E (lt(x, X^1 x) & eq(x, X^1 x))", 3, 5, False),
    ("E X (mod[1,3](x) & eqc[0](x))", 2, 5, False),
)

# Interpreted suites, searched directly over the tuple domain and through
# the reduction to (Z, <, =) at equal bounds, component range 2 (tuples)
# and 3 (intervals).  Misses that cost 5-17 s at 2 nodes run at 1.
LEX_SUITE = (
    ("E F ltlex(x, y)", 2, 2, True),
    ("E X eqlex(x, y)", 2, 2, True),
    ("E (ltlex(x, y) & X ltlex(y, x))", 2, 2, True),
    ("E (ltlex(x, y) & ltlex(y, x))", 1, 2, False),
    ("E G eqlex(x, y)", 2, 2, True),
    ("E (eqlex(x, y) U ltlex(x, y))", 2, 2, True),
    ("A G (ltlex(x, y) | eqlex(x, y) | ltlex(y, x))", 2, 2, True),
    ("E (ltlex(x, y) & eqlex(x, y))", 1, 2, False),
    ("E X X ltlex(y, x)", 2, 2, True),
    ("E (ltlex(x, x))", 2, 2, False),
    ("A X eqlex(x, x)", 2, 2, True),
    ("E F (ltlex(x, y) & X eqlex(x, y))", 2, 2, True),
    ("E (ltlex(x, y) U eqlex(y, x))", 2, 2, True),
    ("A F eqlex(x, x)", 2, 2, True),
    ("E (eqlex(x, y) & ltlex(y, x))", 1, 2, False),
    ("E G ltlex(x, X^1 x)", 2, 2, False),
    ("E F ltlex(x, X^1 x)", 2, 2, True),
    ("E (ltlex(X^1 x, x) & X ltlex(x, y))", 2, 2, True),
    ("A G eqlex(x, X^1 x) | E F ltlex(x, y)", 2, 2, True),
    ("E (ltlex(x, y) & X (ltlex(y, x) & X ltlex(x, y)))", 2, 2, True),
)

ALLEN_SUITE = (
    ("E F m(x, y)", 2, 3, True),
    ("E X eq(x, y)", 2, 3, True),
    ("E (d(x, y) | m(x, y))", 2, 3, True),
    ("E (b(x, y) & b(y, x))", 1, 3, False),
    ("E G eq(x, y)", 2, 3, True),
    ("E (m(x, y) & mi(x, y))", 1, 3, False),
    ("E F (o(x, y) | m(x, y) | b(x, y))", 2, 3, True),
    ("E (eq(x, y) U m(x, y))", 2, 3, True),
    ("E (s(x, y) & f(x, y))", 1, 3, False),
    ("A X eq(x, x)", 2, 3, True),
)

# Formulas with a model whose values sit strictly between the default
# pool's anchors: x < y < z < w inside [-5, 5] on one node, and a value
# between 0 and 5 on two.  Expected verdict: a model exists.
GAP_FORMULAS = (
    ("E (lt(x, y) & lt(y, z) & lt(z, w))", 1, 5, True),
    ("E (eqc[0](x) & lt(x, y) & lt(y, X^1 x) & X eqc[5](x))", 2, 5, True),
)


# ---------------------------------------------------------------------------
# Formula text


def term(offset: int, var: str) -> str:
    return f"X^{offset} {var}" if offset else var


def random_constraint(rng: random.Random, variables, max_offset: int = 1) -> str:
    name, arity = rng.choice(SIGMA0)
    args = [term(rng.randint(0, max_offset), rng.choice(variables)) for _ in range(arity)]
    return f"{name}({', '.join(args)})"


def criterion07_formula(rng: random.Random, max_negated: int = 2) -> tuple:
    """Closed state formula over sigma0 constraints on register x, in
    negation normal form with at most max_negated negated constraint
    leaves (the criterion-07 shape).  Returns (text, negated leaves)."""
    budget = [max_negated]

    def literal() -> str:
        c = random_constraint(rng, ("x",))
        if budget[0] > 0 and rng.random() < 0.35:
            budget[0] -= 1
            return f"~{c}"
        return c

    def path(d: int) -> str:
        if d <= 0:
            return literal()
        roll = rng.random()
        if roll < 0.25:
            return literal()
        if roll < 0.45:
            return f"X ({path(d - 1)})"
        op = "&" if roll < 0.6 else "|" if roll < 0.75 else "U" if roll < 0.9 else "R"
        return f"({path(d - 1)} {op} {path(d - 1)})"

    def state(d: int) -> str:
        quant = "E" if rng.random() < 0.7 else "A"
        body = f"{quant} ({path(d)})"
        if rng.random() < 0.3 and d > 0:
            return f"({body} & {state(d - 1)})"
        return body

    text = state(2)
    return text, max_negated - budget[0]


# Temporal shapes of the model-checking formulas.  A fixed shape per slot
# keeps window depth and automaton size comparable from seed to seed; the
# leaves are seeded.  The CTL shapes stay in the fragment the fixpoint
# oracle accepts: quantified X/U/R over literals or state formulas.
CTL_SHAPES = (
    "E X {a}",
    "A ({a} U {b})",
    "E ({a} R {b})",
    "A X (E ({a} U {b}))",
    "(E ({a} U {b})) & (A X {c})",
    "E ({a} U (A X {b}))",
    "(A ({a} R {b})) | (E X {c})",
)

CTLSTAR_SHAPES = (
    "(F {a}) & (G {b})",
    "({a} U {b}) | (G {c})",
    "G (F {a})",
    "F (G ({a} | {b}))",
    "(X {a}) U ({b} R {c})",
    "({a} U {b}) U {c}",
    "G ({a} | F {b})",
)


def random_constraint_xy(rng: random.Random, variables, first_offset=None) -> str:
    """Order, equality or congruence constraint with offsets up to 2."""
    def offset(first: bool) -> int:
        return first_offset if first and first_offset is not None else rng.randint(0, 2)

    roll = rng.random()
    if roll < 0.6:
        name = "lt" if roll < 0.4 else "eq"
        a = term(offset(True), rng.choice(variables))
        b = term(offset(False), rng.choice(variables))
        return f"{name}({a}, {b})"
    name = rng.choice(("mod[0,2]", "mod[1,2]", "eqc[0]", "eqc[1]"))
    return f"{name}({term(offset(True), rng.choice(variables))})"


def literal(rng: random.Random, variables, props) -> str:
    """Proposition, constraint, or the negation of either."""
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(props)
    if roll < 0.45:
        return "~" + rng.choice(props)
    c = random_constraint_xy(rng, variables)
    return f"~{c}" if roll < 0.55 else c


def shaped_formula(rng: random.Random, shape: str, variables, props) -> str:
    """Fill a shape's leaves.  Leaf a is a constraint reaching two steps
    ahead, so every formula has window depth 2."""
    a = random_constraint_xy(rng, variables, first_offset=2)
    if rng.random() < 0.25:
        a = f"~{a}"
    return shape.format(a=a, b=literal(rng, variables, props), c=literal(rng, variables, props))


def nested_next(depth: int) -> str:
    """E X E X ... p, nested depth times: true exactly where a path of
    that length reaches p."""
    return "E X (" * depth + "p" + ")" * depth


# ---------------------------------------------------------------------------
# Models


def graph_model(rng: random.Random, n: int, variables=("x", "y"), props=("p", "q"),
                value_range: int = 3) -> dict:
    """Graph with out-degree 2-4 per node (4-24 node models keep at
    least two distinct successors), random labels and integer registers.
    With depth-2 formulas the window count stays under 16 n."""
    nodes = [f"s{i}" for i in range(n)]
    edges = []
    for i in range(n):
        k = min(n, rng.randint(2, 4))
        for j in sorted(rng.sample(range(n), k)):
            edges.append((i, j))
    labels = {}
    for i in range(n):
        on = [p for p in props if rng.random() < 0.4]
        if on:
            labels[i] = on
    registers = [
        (i, x, rng.randint(-value_range, value_range)) for i in range(n) for x in variables
    ]
    return {"nodes": nodes, "edges": edges, "labels": labels, "registers": registers,
            "variables": list(variables)}


def model_text(model: dict) -> str:
    """Model file text in the documented format (docs/formats.md)."""
    nodes = model["nodes"]
    lines = ["SHAPE graph", "VARS " + " ".join(model["variables"]), "NODES"]
    lines.extend(nodes)
    lines.append("EDGES")
    lines.extend(f"{nodes[a]} {nodes[b]}" for a, b in model["edges"])
    if model["labels"]:
        lines.append("LABELS")
        lines.extend(f"{nodes[i]} {' '.join(ps)}" for i, ps in sorted(model["labels"].items()))
    lines.append("REGISTERS")
    lines.extend(f"{nodes[i]} {x} {v}" for i, x, v in model["registers"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structures.  A structure is {"elements": [...], "relations": {name: [tuple]}}
# with relation names in file syntax.


def _value_text(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def layered_dag(rng: random.Random, n: int, target: str) -> dict:
    """Structure with a planted homomorphism: element values grow with
    the layer, order edges only go to later layers, equalities only join
    equal values, and constants and congruences hold at the planted
    values.  Depth stays at 60 layers or fewer.  Verdict: yes."""
    layers = max(2, min(60, n // 50))
    elements = [f"e{i}" for i in range(n)]
    layer = sorted(rng.randrange(layers) for _ in range(n))
    step = 6
    if target == "Q":
        value = [Fraction(layer[i] * step) + Fraction(rng.randrange(6), 2) for i in range(n)]
    else:
        value = [layer[i] * step + rng.randrange(step) for i in range(n)]
    if target == "negZ":
        value = [v - (layers + 1) * step for v in value]
    by_layer: dict = {}
    for i in range(n):
        by_layer.setdefault(layer[i], []).append(i)
    next_start = {}
    for lay in by_layer:
        later = [by_layer[m][0] for m in by_layer if m > lay]
        next_start[lay] = min(later) if later else n
    lt = []
    for i in range(n):
        later = range(next_start[layer[i]], min(n, next_start[layer[i]] + 3 * n // layers))
        for j in rng.sample(later, min(len(later), rng.randint(1, 3))):
            lt.append((i, j))
    eq = []
    for members in by_layer.values():
        by_value: dict = {}
        for i in members:
            by_value.setdefault(value[i], []).append(i)
        for group in by_value.values():
            for a, b in zip(group, group[1:]):
                if rng.random() < 0.3:
                    eq.append((a, b))
    relations = {"lt": lt, "eq": eq}
    if target in ("Z", "Q"):
        for i in rng.sample(range(n), 2):
            name = f"eqc[{_value_text(value[i])}]"
            relations.setdefault(name, []).append((i,))
    if target != "Q":
        for b in (2, 3):
            for i in rng.sample(range(n), max(1, n // 20)):
                relations.setdefault(f"mod[{value[i] % b},{b}]", []).append((i,))
    return _named(elements, relations)


def with_cycle(rng: random.Random, structure: dict) -> dict:
    """Close one order edge into a cycle.  Verdict: no."""
    lt = structure["relations"]["lt"]
    a, b = lt[rng.randrange(len(lt))]
    relations = dict(structure["relations"])
    relations["lt"] = lt + [(b, a)]
    return {"elements": structure["elements"], "relations": relations}


def squeezed_window(rng: random.Random, n: int) -> dict:
    """A strict chain of k + 1 elements between eqc[0] and eqc[c] with
    c < k, padded with a free layered part: no over Z (too few integers
    in the window), yes over Q."""
    k = rng.randint(8, 40)
    c = rng.randint(1, k - 1)
    base = layered_dag(rng, n - (k + 1), "Q")
    relations = {name: list(rows) for name, rows in base["relations"].items()
                 if not name.startswith("eqc[")}
    elements = list(base["elements"])
    chain = [f"w{i}" for i in range(k + 1)]
    elements.extend(chain)
    relations["lt"] = relations["lt"] + list(zip(chain, chain[1:]))
    relations.setdefault("eqc[0]", []).append((chain[0],))
    relations.setdefault(f"eqc[{c}]", []).append((chain[-1],))
    return {"elements": elements, "relations": relations}


def lt_chain(n: int, cycle: bool) -> dict:
    """e0 < e1 < ... < e(n-1), closed into a cycle when asked."""
    elements = [f"e{i}" for i in range(n)]
    lt = list(zip(elements, elements[1:]))
    if cycle:
        lt.append((elements[-1], elements[0]))
    return {"elements": elements, "relations": {"lt": lt}}


def _named(elements: list, relations: dict) -> dict:
    return {
        "elements": elements,
        "relations": {
            name: [tuple(elements[i] for i in row) for row in rows]
            for name, rows in relations.items()
        },
    }


# A 6-element structure, homomorphic to Z, on which eval_finite peaks at
# about 70 MB of arrays.  That is the highest of the levels (8, 9, 19,
# 28, 30, 49 and 70 MB) seen over 186 seeded 6-element draws with a
# homomorphism; about one draw in twenty-five reaches it.
MSO_HEAVY = _named(
    [f"e{i}" for i in range(6)],
    {"lt": [(2, 0), (3, 2), (4, 5)], "eq": [(4, 3)], "eqc[0]": [(5,)], "eqc[2]": [(1,), (2,)],
     "mod[0,2]": [], "mod[1,2]": [], "mod[1,3]": []},
)


def sigma0_structure(rng: random.Random, n: int, p_bin: float, p_un: float) -> dict:
    """Random structure over sigma0 with every relation declared (the
    acceptance corpus generator)."""
    elements = [f"e{i}" for i in range(n)]
    relations = {}
    for name, arity in SIGMA0:
        rows = []
        if arity == 2:
            for a in elements:
                for b in elements:
                    if rng.random() < p_bin:
                        rows.append((a, b))
        else:
            for a in elements:
                if rng.random() < p_un:
                    rows.append((a,))
        relations[name] = rows
    return {"elements": elements, "relations": relations}


def structure_text(structure: dict) -> str:
    """Structure file text in the documented format (docs/formats.md)."""
    lines = ["ELEMENTS"]
    lines.extend(structure["elements"])
    for name, rows in structure["relations"].items():
        lines.append(f"REL {name}")
        lines.extend(" ".join(row) for row in rows)
    return "\n".join(lines) + "\n"
