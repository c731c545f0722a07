"""The bounded search against the plain loop it replaced.

``plain_find_model`` is the search as it was before it reused window
graphs and skipped isomorphic edge masks: every (edge mask, labelling,
register assignment) in canonical order becomes a model that
``check_ctlstar`` checks on its own.  ``find_model`` must return the same
first model, or raise the same exception, on seeded random formulas over
every searchable domain.  Existential formulas get a corpus of their own,
weighted toward misses, since their misses are decided on the complete
graph; the embedding argument behind that is checked on its own too.
So is the bound the search checks on prefixes of a register assignment:
it must name every node that some completion satisfies.
"""

import itertools
import random

import pytest

from ctlz import (
    EQ,
    LT,
    GRAPH_SHAPE,
    Q_DOMAIN,
    Z_DOMAIN,
    N_DOMAIN,
    And,
    All,
    Constraint,
    ConstraintKripke,
    Exists,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    check_ctlstar,
    check_ctl_oracle,
    const_rel,
    domain_by_name,
    is_state_formula,
    model_to_text,
    mod_rel,
    parse_formula,
    propositions_of,
    relation_from_name,
    variables_of,
)
from ctlz import satsearch
from ctlz.modelcheck import _compile, _label_states, window_skeleton
from ctlz.satsearch import SatSearchError, _search_masks, candidate_values, find_model


def _total_edge_masks(n: int):
    row_full = (1 << n) - 1
    for mask in range(1 << (n * n)):
        if all((mask >> (i * n)) & row_full for i in range(n)):
            yield mask


def plain_find_model(formula, dom=Z_DOMAIN, max_nodes=3, register_range=5, full_sweep=False):
    """One check_ctlstar call per model, every total edge mask visited."""
    if not is_state_formula(formula):
        raise SatSearchError("satisfiability search expects a state formula")
    if max_nodes < 1:
        raise SatSearchError("max_nodes must be at least 1")
    if register_range < 0:
        raise SatSearchError("register_range must be nonnegative")
    variables = variables_of(formula)
    props = propositions_of(formula)
    pool = candidate_values(formula, register_range, dom, full_sweep)
    if variables and not pool:
        return None
    for n in range(1, max_nodes + 1):
        nodes = [f"s{i}" for i in range(n)]
        reg_cells = [(v, x) for v in nodes for x in variables]
        for mask in _total_edge_masks(n):
            edges = {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if (mask >> (i * n + j)) & 1}
            for label_mask in range(1 << (n * len(props))):
                labels = {}
                for i, v in enumerate(nodes):
                    on = frozenset(p for k, p in enumerate(props) if (label_mask >> (i * len(props) + k)) & 1)
                    if on:
                        labels[v] = on
                for values in itertools.product(pool, repeat=len(reg_cells)):
                    registers = dict(zip(reg_cells, values))
                    model = ConstraintKripke(nodes, edges, labels, registers, list(variables), GRAPH_SHAPE)
                    sat = check_ctlstar(model, formula, dom)
                    if sat:
                        return model, next(v for v in nodes if v in sat)
    return None


# relations each domain interprets, and one it refuses
RELATIONS = {
    "Z": ((LT, EQ, const_rel(0), const_rel(2), mod_rel(1, 2)), relation_from_name("ltlex")),
    "N": ((LT, EQ, const_rel(0), const_rel(-1), mod_rel(0, 2)), relation_from_name("m")),
    "Q": ((LT, EQ, const_rel(1), const_rel(0)), mod_rel(1, 2)),
    "lexZ[2]": ((relation_from_name("ltlex"), relation_from_name("eqlex")), LT),
    "allenZ": ((EQ, relation_from_name("m"), relation_from_name("b"), relation_from_name("o")), LT),
}


def _random_formula(rng, domain, variables, props, refused):
    relations, bad = RELATIONS[domain]

    def literal():
        rel = bad if refused and rng.random() < 0.3 else rng.choice(relations)
        c = Constraint(rel, tuple((rng.randint(0, 1), rng.choice(variables)) for _ in range(rel.arity)))
        return Not(c) if rng.random() < 0.2 else c

    def path(d):
        roll = rng.random()
        if d <= 0 or roll < 0.3:
            return Prop(rng.choice(props)) if props and rng.random() < 0.3 else literal()
        if roll < 0.45:
            return Next(path(d - 1))
        if roll < 0.6:
            return And(path(d - 1), path(d - 1))
        if roll < 0.7:
            return Or(path(d - 1), path(d - 1))
        if roll < 0.85:
            return Until(path(d - 1), path(d - 1))
        return Release(path(d - 1), path(d - 1))

    def state(d):
        f = (Exists if rng.random() < 0.7 else All)(path(2))
        if d > 0 and rng.random() < 0.3:
            return (And if rng.random() < 0.6 else Or)(f, state(d - 1))
        return f

    return state(1)


def _outcome(search, *args):
    try:
        found = search(*args)
    except Exception as exc:  # the exception itself is part of the answer
        return ("raises", type(exc), str(exc))
    return None if found is None else (model_to_text(found[0]), found[1])


def _plain_models(f, dom, max_nodes, register_range, full_sweep) -> int:
    """How many models the plain loop checks when it finds nothing."""
    pool = len(candidate_values(f, register_range, dom, full_sweep))
    cells, props = len(variables_of(f)), len(propositions_of(f))
    return sum((2 ** n - 1) ** n * 2 ** (n * props) * pool ** (n * cells) for n in range(1, max_nodes + 1))


def _cases():
    rng = random.Random(2013)
    for i in range(300):
        domain = ("Z", "N", "Q", "lexZ[2]", "allenZ")[i % 5]
        props = ("p",) if rng.random() < 0.35 else ()
        variables = ("x", "y") if rng.random() < 0.4 else ("x",)
        refused = rng.random() < 0.1
        f = _random_formula(rng, domain, variables, props, refused)
        dom = domain_by_name(domain)
        register_range = rng.choice((1, 2))
        full_sweep = domain in ("Z", "N", "Q") and rng.random() < 0.2
        # at most the node bound that keeps the plain loop to about ten
        # thousand models
        max_nodes = rng.choice((1, 2, 3))
        while max_nodes > 1 and _plain_models(f, dom, max_nodes, register_range, full_sweep) > 10_000:
            max_nodes -= 1
        yield i, f, dom, max_nodes, register_range, full_sweep


def test_search_matches_the_plain_loop():
    kinds = set()
    for i, f, dom, max_nodes, register_range, full_sweep in _cases():
        args = (f, dom, max_nodes, register_range, full_sweep)
        expected = _outcome(plain_find_model, *args)
        assert _outcome(find_model, *args) == expected, (i, str(f), dom.name, max_nodes)
        kinds.add("raises" if expected and expected[0] == "raises" else expected is not None)
    assert kinds == {True, False, "raises"}


def test_search_matches_the_plain_loop_at_three_nodes():
    for text in ("E (p U (q & eqc[2](x)))", "A X E F eqc[0](x)", "E (lt(x, X^1 x) & X lt(X^1 x, x))",
                 "E X X (p & ~q)", "E G lt(x, X^1 x)", "A G (p | X ~p) & E X ~p",
                 # a model on two nodes, none on a complete graph: A loses paths there
                 "p & A X ~p & E X E X p"):
        f = parse_formula(text)
        assert _outcome(find_model, f, Z_DOMAIN, 3, 2) == _outcome(plain_find_model, f, Z_DOMAIN, 3, 2), text


def test_unsupported_relations_raise_the_same_error():
    f = Exists(Constraint(mod_rel(1, 2), ((0, "x"),)))
    for dom in (Q_DOMAIN, N_DOMAIN):
        assert _outcome(find_model, f, dom) == _outcome(plain_find_model, f, dom)
    assert _outcome(find_model, f, Q_DOMAIN)[0] == "raises"


def _renamed(mask: int, n: int, p) -> int:
    return sum(1 << (p[i] * n + p[j]) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1)


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 6), (3, 70)])
def test_one_edge_mask_per_isomorphism_class(n, classes):
    kept = list(_search_masks(n))
    assert len(kept) == classes
    assert kept == sorted(kept)
    for mask in _total_edge_masks(n):
        smallest = min(_renamed(mask, n, p) for p in itertools.permutations(range(n)))
        # every skipped mask has an isomorphic copy at a smaller mask,
        # and every kept one is the smallest of its class
        assert (mask in kept) == (smallest == mask)
        assert smallest in kept


def _random_existential(rng, domain, variables, props, ctl=False):
    """A formula whose NNF has no A: E over path formulas of literals,
    negated propositions and constraints, X, conjunctions (weighted, so
    that misses are common), U, R and nested E.  With ``ctl`` each E
    quantifies one X, U or R over state formulas and literals, the shape
    the fixpoint oracle reads."""
    relations, _ = RELATIONS[domain]

    def literal():
        if props and rng.random() < 0.3:
            p = Prop(rng.choice(props))
            return Not(p) if rng.random() < 0.3 else p
        rel = rng.choice(relations)
        c = Constraint(rel, tuple((rng.randint(0, 1), rng.choice(variables)) for _ in range(rel.arity)))
        return Not(c) if rng.random() < 0.3 else c

    def path(d):
        roll = rng.random()
        if d <= 0 or roll < 0.2:
            return state(d - 1) if d > 0 and roll < 0.06 else literal()
        if roll < 0.35:
            return Next(path(d - 1))
        if roll < 0.65:
            return And(path(d - 1), path(d - 1))
        if roll < 0.72:
            return Or(path(d - 1), path(d - 1))
        return (Until if roll < 0.86 else Release)(path(d - 1), path(d - 1))

    def arg(d):
        return state(d - 1) if d > 0 and rng.random() < 0.3 else literal()

    def state(d):
        if ctl:
            op = rng.choice((Next, Until, Release, None))
            f = Exists(op(arg(d)) if op is Next else op(arg(d), arg(d)) if op else arg(d))
        else:
            f = Exists(path(2))
        if d > 0 and rng.random() < 0.3:
            return (And if rng.random() < 0.7 else Or)(f, state(d - 1))
        return f

    return state(1)


def _existential_cases():
    rng = random.Random(1306)
    for i in range(120):
        domain = ("Z", "N", "Q", "lexZ[2]", "allenZ")[i % 5]
        props = ("p",) if rng.random() < 0.3 else ()
        variables = ("x", "y") if domain in ("Z", "N", "Q") and rng.random() < 0.3 else ("x",)
        f = _random_existential(rng, domain, variables, props)
        dom = domain_by_name(domain)
        max_nodes = 3
        while max_nodes > 2 and _plain_models(f, dom, max_nodes, 1, False) > 3_000:
            max_nodes -= 1
        yield i, f, dom, max_nodes


def test_existential_search_matches_the_plain_loop():
    misses = 0
    for i, f, dom, max_nodes in _existential_cases():
        expected = _outcome(plain_find_model, f, dom, max_nodes, 1)
        assert _outcome(find_model, f, dom, max_nodes, 1) == expected, (i, str(f), dom.name, max_nodes)
        misses += expected is None
    assert misses >= 20


def _embedded(small, pool, n: int):
    """The model on the complete graph over n nodes that extends a smaller
    one: the added nodes carry no labels and pool[0] in every register."""
    nodes = [f"s{i}" for i in range(n)]
    registers = {(v, x): pool[0] for v in nodes for x in small.variables} | dict(small.registers)
    return ConstraintKripke(nodes, set(itertools.product(nodes, repeat=2)), dict(small.labels), registers,
                            list(small.variables), GRAPH_SHAPE)


def test_existential_truth_survives_embedding_in_the_complete_graph():
    rng = random.Random(1982)
    checked = {False: 0, True: 0}
    for i in range(240):
        domain = ("Z", "N", "Q", "lexZ[2]", "allenZ")[i % 5]
        ctl = i % 2 == 1
        props = ("p", "q") if rng.random() < 0.5 else ()
        variables = ("x", "y") if rng.random() < 0.3 else ("x",)
        f = _random_existential(rng, domain, variables, props, ctl)
        dom = domain_by_name(domain)
        pool = candidate_values(f, 1, dom)
        n = rng.randint(1, 2)
        nodes = [f"s{k}" for k in range(n)]
        edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.5}
        edges |= {(a, rng.choice(nodes)) for a in nodes if all(e[0] != a for e in edges)}
        labels = {v: frozenset(p for p in props if rng.random() < 0.5) for v in nodes}
        registers = {(v, x): rng.choice(pool) for v in nodes for x in variables}
        small = ConstraintKripke(nodes, edges, labels, registers, list(variables), GRAPH_SHAPE)
        big = _embedded(small, pool, 3)
        checkers = (check_ctlstar, check_ctl_oracle) if ctl else (check_ctlstar,)
        for check in checkers:
            sat = check(small, f, dom)
            assert sat <= check(big, f, dom), (i, str(f), domain, model_to_text(small))
            checked[check is check_ctl_oracle] += bool(sat)
    # both checkers see formulas that hold somewhere, so the inclusion says something
    assert min(checked.values()) >= 20


def _random_nested(rng, variables, props):
    """A state formula mixing E and A, with quantifiers nested in path
    formulas, U and R, and negated literals; its constants are 0 and 1,
    so a pool over [-1, 1] or wider can tell every literal apart."""

    def literal():
        if props and rng.random() < 0.2:
            p = Prop(rng.choice(props))
            return Not(p) if rng.random() < 0.3 else p
        rel = rng.choice((LT, EQ, const_rel(0), const_rel(1)))
        c = Constraint(rel, tuple((rng.randint(0, 1), rng.choice(variables)) for _ in range(rel.arity)))
        return Not(c) if rng.random() < 0.3 else c

    def path(d, nest):
        roll = rng.random()
        if d <= 0 or roll < 0.25:
            return state(nest - 1) if nest > 0 and roll < 0.1 else literal()
        if roll < 0.4:
            return Next(path(d - 1, nest))
        if roll < 0.6:
            return And(path(d - 1, nest), path(d - 1, nest))
        if roll < 0.7:
            return Or(path(d - 1, nest), path(d - 1, nest))
        return (Until if roll < 0.85 else Release)(path(d - 1, nest), path(d - 1, nest))

    def state(nest):
        f = (Exists if rng.random() < 0.5 else All)(path(2, nest))
        if nest > 0 and rng.random() < 0.3:
            return (And if rng.random() < 0.6 else Or)(f, state(nest - 1))
        return f

    return state(2)


def test_bound_holds_every_completion():
    """The search's bound call on a prefix of a register assignment names
    every node that some completion of the prefix satisfies."""
    rng = random.Random(2006)
    pool = [-1, 0, 1]
    kinds, cut = set(), 0
    for i in range(80):
        variables = ("x", "y") if rng.random() < 0.6 else ("x",)
        props = ("p",) if rng.random() < 0.3 else ()
        f = _random_nested(rng, variables, props)
        depth, constraints, order, _ = plan = _compile(f)
        kinds |= {type(g) for g in order}
        n = rng.randint(1, 2)
        nodes = [f"s{k}" for k in range(n)]
        edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.6}
        edges |= {(a, rng.choice(nodes)) for a in nodes if all(e[0] != a for e in edges)}
        labels = {v: frozenset(p for p in props if rng.random() < 0.5) for v in nodes}
        windows, classes = window_skeleton(nodes, edges, depth)
        cells = [(v, x) for v in nodes for x in variables]
        # per window and constraint, the last register cell it reads
        last = [[max(cells.index((w[off], var)) for off, var in c.args) for c in constraints] for w in windows]
        values = [rng.choice(pool) for _ in cells]
        for d in range(len(cells) + 1):
            bits, unknown = [], []
            for w, row in zip(windows, last):
                reads = [tuple(values[cells.index((w[off], var))] for off, var in c.args) for c in constraints]
                holds = [high < d and Z_DOMAIN.eval_relation(c.relation, args)
                         for c, args, high in zip(constraints, reads, row)]
                bits.append(sum(h << ci for ci, h in enumerate(holds)))
                unknown.append(sum((high >= d) << ci for ci, high in enumerate(row)))
            bound = _label_states(plan, nodes, labels.__getitem__, windows, classes, bits, unknown)
            for rest in itertools.product(pool, repeat=len(cells) - d):
                registers = dict(zip(cells, values[:d] + list(rest)))
                model = ConstraintKripke(nodes, edges, labels, registers, list(variables), GRAPH_SHAPE)
                sat = check_ctlstar(model, f)
                assert sat <= bound, (i, str(f), d, model_to_text(model))
            cut += any(unknown) and len(bound) < n
    assert {Exists, All} <= kinds
    # the bound leaves nodes out while some constraints are unknown, so the inclusion says something
    assert cut >= 30


def test_search_matches_the_plain_loop_where_the_bound_prunes(monkeypatch):
    """Two variables on up to two nodes give four register cells or more,
    enough for the search to check its bound on prefixes; the first models
    stay those of the plain loop, and some searches do skip prefixes."""
    skipped = 0

    def counted(*args):
        nonlocal skipped
        sat = _label_states(*args)
        skipped += len(args) > 6 and args[6] is not None and not sat
        return sat

    monkeypatch.setattr(satsearch, "_label_states", counted)
    rng = random.Random(1994)
    pruned = found = 0
    for i in range(60):
        # conjunctions, so that misses are common
        f = And(_random_nested(rng, ("x", "y"), ()), _random_nested(rng, ("x", "y"), ()))
        register_range = rng.choice((1, 2))
        before = skipped
        expected = _outcome(plain_find_model, f, Z_DOMAIN, 2, register_range)
        assert _outcome(find_model, f, Z_DOMAIN, 2, register_range) == expected, (i, str(f))
        pruned += skipped > before
        found += expected is not None
    # the prune fires on part of the corpus, and both hits and misses occur
    assert pruned >= 15 and 10 <= found <= 50
