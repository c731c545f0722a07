"""Window expansion against the list-based expansion it replaced.

``plain_window_skeleton`` gives every window a list of successors, found
by one index lookup per (window, successor), and ``plain_expand_windows``
labels one window at a time, asking each constraint for its register
values through ``gamma``.  ``window_skeleton`` and ``expand_windows`` must
give the same windows, the same successor sequences (read through the
successor classes) and the same bits on seeded random graphs and models,
and refuse the same inputs with the same errors.
"""

import random

import pytest

from ctlz import EQ, LT, Constraint, ConstraintKripke, const_rel, mod_rel
from ctlz.domains import ALLEN_RELATIONS, DomainError, Z_DOMAIN, domain_by_name
from ctlz.formulas import interp_rel, parse_path_formula
from ctlz.modelcheck import (
    WINDOW_LIMIT,
    ModelCheckError,
    WindowModel,
    _accepted_start_windows,
    _edge_table,
    _sinks,
    expand_windows,
    ltl_to_buchi,
    window_skeleton,
)
from test_product_differential import _CountingMembers


def plain_window_skeleton(nodes, edges, depth: int) -> tuple:
    adjacency = {v: [] for v in nodes}
    for a, b in sorted(edges):
        adjacency[a].append(b)
    windows = [(v,) for v in nodes]
    for _ in range(depth):
        grown = []
        for w in windows:
            for s in adjacency[w[-1]]:
                grown.append(w + (s,))
                if len(grown) > WINDOW_LIMIT:
                    raise ModelCheckError(
                        f"window expansion exceeds {WINDOW_LIMIT} windows; reduce depth or model size"
                    )
        windows = grown
    index = {w: i for i, w in enumerate(windows)}
    succ = [[index[w[1:] + (s,)] for s in adjacency[w[-1]]] for w in windows]
    return windows, succ


def plain_expand_windows(model, depth, constraints=(), dom=Z_DOMAIN) -> WindowModel:
    if model.is_tree:
        raise ModelCheckError("model checking runs on graph-shaped models")
    windows, succ = plain_window_skeleton(model.nodes, model.edges, depth)
    tests = [dom.relation_test(c.relation) for c in constraints]
    bits = []
    for w in windows:
        b = 0
        for i, c in enumerate(constraints):
            if tests[i](tuple(model.gamma(w[off], var) for off, var in c.args)):
                b |= 1 << i
        bits.append(b)
    return WindowModel(windows, (list(range(len(windows))), succ), bits, tuple(constraints))


def _random_graph(rng, n):
    """Nodes and edges; some nodes may have no successor."""
    nodes = [f"s{i}" for i in range(n)]
    edges = {(a, b) for a in nodes for b in nodes if rng.random() < rng.choice((0.2, 0.4, 0.6))}
    return nodes, edges


def _value(rng, dom_name):
    if dom_name == "Z":
        return rng.randint(-3, 3)
    if dom_name == "lexZ[2]":
        return (rng.randint(-1, 1), rng.randint(-1, 1))
    s = rng.randint(-2, 2)
    return (s, s + rng.randint(1, 3))


def _relations(dom_name):
    if dom_name == "Z":
        return [LT, EQ, const_rel(0), const_rel(2), mod_rel(0, 2), mod_rel(1, 3)]
    if dom_name == "lexZ[2]":
        return [interp_rel("ltlex", 2), interp_rel("eqlex", 2)]
    return [EQ] + [interp_rel(name, 2) for name in ALLEN_RELATIONS if name != "eq"]


def _random_constraints(rng, dom_name, variables, depth):
    constraints = []
    for _ in range(rng.randint(0, 5)):
        rel = rng.choice(_relations(dom_name))
        args = tuple((rng.randint(0, depth), rng.choice(variables)) for _ in range(rel.arity))
        constraints.append(Constraint(rel, args))
    return tuple(dict.fromkeys(constraints))


def test_skeleton_matches_the_list_based_expansion():
    rng = random.Random(61)
    ranges = 0
    for _ in range(200):
        nodes, edges = _random_graph(rng, rng.randint(1, 7))
        depth = rng.randint(0, 3)
        windows, (cls, members) = window_skeleton(nodes, edges, depth)
        plain_windows, plain_succ = plain_window_skeleton(nodes, edges, depth)
        assert windows == plain_windows
        assert [list(members[c]) for c in cls] == plain_succ
        if depth:
            assert all(type(m) is range for m in members)
            ranges += len(cls)
        else:
            assert all(type(m) is list for m in members)
    assert ranges >= 1000


def test_successor_classes_are_the_extended_windows():
    """A window's class lists exactly the windows that extend its suffix
    (at depth 0, the successors of its node), in the list-based order.
    Classes that no window uses may be empty, yet the accepting-sink
    shortcut stays on exactly when every window has a successor: with
    ``G true``, whose initial state is a sink, no class is read when it
    is on, and the windows that cannot start an infinite path are refused
    when it is off."""
    edges_g = _edge_table(ltl_to_buchi(parse_path_formula("G true")))
    sinks = _sinks(edges_g, 0)
    assert sinks == {0}
    rng = random.Random(83)
    seen = {"on": 0, "off": 0, "on_with_empty_class": 0}
    for depth in range(4):
        for _ in range(60):
            nodes, edges = _random_graph(rng, rng.randint(1, 6))
            windows, (cls, members) = window_skeleton(nodes, edges, depth)
            _, plain_succ = plain_window_skeleton(nodes, edges, depth)
            assert len(cls) == len(windows)
            for w, c, expected in zip(windows, cls, plain_succ):
                for j in members[c]:
                    if depth:
                        assert windows[j][:-1] == w[1:]
                    else:
                        assert len(windows[j]) == 1 and (w[0], windows[j][0]) in edges
                assert list(members[c]) == expected
            counted = _CountingMembers(members)
            accepted = _accepted_start_windows((cls, counted), edges_g, 0, [0] * len(windows), sinks)
            total = all(plain_succ)
            assert (counted.reads == 0) == total
            if total:
                assert accepted == set(range(len(windows)))
                seen["on"] += 1
                seen["on_with_empty_class"] += not all(members)
            else:
                assert not any(wi in accepted for wi, s in enumerate(plain_succ) if not s)
                seen["off"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("dom_name", ["Z", "lexZ[2]", "allenZ"])
def test_labelling_matches_the_per_window_labelling(dom_name):
    rng = random.Random(sum(map(ord, dom_name)))
    dom = domain_by_name(dom_name)
    variables = ["x", "y"]
    set_bits = 0
    for _ in range(60):
        nodes, edges = _random_graph(rng, rng.randint(1, 6))
        registers = {(v, x): _value(rng, dom_name) for v in nodes for x in variables}
        model = ConstraintKripke(nodes, edges, {}, registers, variables)
        depth = rng.randint(0, 3)
        constraints = _random_constraints(rng, dom_name, variables, depth)
        wm = expand_windows(model, depth, constraints, dom)
        plain = plain_expand_windows(model, depth, constraints, dom)
        assert wm.windows == plain.windows
        assert [list(wm.classes[1][c]) for c in wm.classes[0]] == plain.classes[1]
        assert wm.bits == plain.bits
        assert wm.constraints == plain.constraints
        set_bits += sum(bin(b).count("1") for b in wm.bits)
    assert set_bits >= 100


def test_refusals_are_unchanged():
    nodes = tuple(f"v{i}" for i in range(15))
    big = ConstraintKripke(nodes, tuple((a, b) for a in nodes for b in nodes), {},
                           {(v, "x"): 0 for v in nodes}, ("x",))
    small = ConstraintKripke(nodes[:2], ((nodes[0], nodes[1]), (nodes[1], nodes[0])), {},
                             {(v, "x"): 0 for v in nodes[:2]}, ("x",))
    refused = Constraint(interp_rel("ltlex", 2), ((0, "x"), (1, "x")))
    limit = f"exceeds {WINDOW_LIMIT} windows"
    cases = [
        (big, 3, (), limit),
        (big, 3, (refused,), limit),  # the limit is met before the domain is asked
        (small, 1, (refused,), "Z does not interpret ltlex"),
    ]
    for model, depth, constraints, message in cases:
        with pytest.raises((ModelCheckError, DomainError)) as plain:
            plain_expand_windows(model, depth, constraints)
        with pytest.raises((ModelCheckError, DomainError)) as fast:
            expand_windows(model, depth, constraints)
        assert type(fast.value) is type(plain.value)
        assert str(fast.value) == str(plain.value)
        assert message in str(fast.value)
