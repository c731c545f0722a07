"""Product emptiness against the three-pass search it replaced.

``plain_accepted_start_windows`` is the product as it was before the
one-pass search: one node per (state, window), the whole reachable
product built with tuple-keyed nodes and stored adjacency, Tarjan, and
then a separate pass that judges the SCCs; it knows nothing of successor
classes or accepting sinks.  ``_accepted_start_windows``, one node per
(state, successor class), must accept the same start windows on seeded
random automata and window graphs, with and without windows that have no
successor, and on real ``window_skeleton`` output at depths 0 to 2, and
``check_ctlstar`` must label the same nodes with either search plugged
in.  On larger models shaped like the benchmark's, ``check_ctlstar``
must agree with the fixpoint oracle on CTL and with its own dual on
CTL*.
"""

import random

from ctlz import (
    And,
    ConstraintKripke,
    Exists,
    All,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    check_ctlstar,
    parse_path_formula,
)
from ctlz import modelcheck
from ctlz.formulas import _children, max_constraint_depth
from ctlz.modelcheck import (
    BuchiAutomaton,
    _accepted_start_windows,
    _edge_table,
    _sinks,
    check_ctl_oracle,
    ltl_to_buchi,
    window_skeleton,
)
from conftest import _random_constraint, random_ctl_formula, random_graph_model


def successor_classes(succ) -> tuple:
    """Per window the id of its successor class, and per class the shared
    successors, its members: windows with equal successor lists share a
    class.  The classes of window graphs that ``window_skeleton`` did not
    build."""
    ids: dict = {}
    of = [ids.setdefault(tuple(s), len(ids)) for s in succ]
    return of, list(ids)


def plain_accepted_start_windows(succ, aut: BuchiAutomaton, letters) -> set:
    """Intern the reachable product, run Tarjan on it, then call an SCC
    good when its internal edges carry every mark or it reaches a good
    SCC."""
    node_id = {}
    nodes = []
    adj = []
    adj_marks = []

    def intern(q, wi):
        key = (q, wi)
        nid = node_id.get(key)
        if nid is None:
            nid = len(nodes)
            node_id[key] = nid
            nodes.append(key)
            adj.append(None)
            adj_marks.append(None)
        return nid

    roots = [intern(aut.states[0], wi) for wi in range(len(letters))]
    frontier = list(range(len(nodes)))
    while frontier:
        nid = frontier.pop()
        if adj[nid] is not None:
            continue
        q, wi = nodes[nid]
        letter = letters[wi]
        out = []
        out_marks = []
        for pos, neg, target, marks in aut.transitions[q]:
            if letter & pos != pos or letter & neg:
                continue
            for wj in succ[wi]:
                tid = intern(target, wj)
                out.append(tid)
                out_marks.append(marks)
                if adj[tid] is None:
                    frontier.append(tid)
        adj[nid] = out
        adj_marks[nid] = out_marks

    n = len(nodes)
    comp = [-1] * n
    low = [0] * n
    num = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    counter = 0
    comp_order = []
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                num[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if not visited[w]:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            work.pop()
            if low[v] == num[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = len(comp_order)
                    members.append(w)
                    if w == v:
                        break
                comp_order.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    every_mark = (1 << len(aut.untils)) - 1
    good = [False] * len(comp_order)
    for ci, members in enumerate(comp_order):
        internal = False
        seen = 0
        reaches_good = False
        for v in members:
            for w, marks in zip(adj[v], adj_marks[v]):
                if comp[w] == ci:
                    internal = True
                    seen |= marks
                elif good[comp[w]]:
                    reaches_good = True
        good[ci] = (internal and seen == every_mark) or reaches_good
    return {wi for wi, nid in enumerate(roots) if good[comp[nid]]}


class _CountingMembers(list):
    """Class members that count how often a class is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _reachable(classes, edges, letters) -> set:
    """The (state index, class) nodes of the class product reachable from
    the start windows, found by a plain search of its own: a start window
    leads to the node of each initial edge its letter meets on the class
    of its successors, and a node reads each member of its class."""
    cls, members = classes

    def step(q, w):
        return [(target, cls[w]) for pos, neg, target, _ in edges[q] if letters[w] & pos == pos and not letters[w] & neg]

    seen = set()
    todo = [node for w in range(len(letters)) for node in step(0, w)]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += [nxt for w in members[node[1]] for nxt in step(node[0], w)]
    return seen


def _sink_reached(succ, aut, letters) -> bool:
    edges = _edge_table(aut)
    sinks = _sinks(edges, len(aut.untils))
    return any(q in sinks for q, _ in _reachable(successor_classes(succ), edges, letters))


def _both(succ, aut, letters, classes=None):
    """The accepted start windows, asserted equal under both searches,
    with the given successor classes of ``succ`` or else its
    ``successor_classes``.

    The one-pass search reads a class once, when it enters a product node
    on it, and enters each node at most once, so at most states x classes
    of them.  It enters fewer nodes than the class product reaches exactly
    when the sink shortcut fires: when every window has a successor and
    the class product reaches an accepting sink."""
    plain = plain_accepted_start_windows(succ, aut, letters)
    edges = _edge_table(aut)
    sinks = _sinks(edges, len(aut.untils))
    cls, members = classes or successor_classes(succ)
    counted = _CountingMembers(members)
    fused = _accepted_start_windows((cls, counted), edges, len(aut.untils), letters, sinks)
    assert fused == plain
    assert counted.reads <= len(edges) * len(members)
    reached = _reachable((cls, members), edges, letters)
    fired = counted.reads < len(reached)
    assert fired == (all(succ) and any(q in sinks for q, _ in reached))
    return fused


def _letters(aut, *held):
    """One letter per window: the propositions in each string of held."""
    return [sum(1 << i for i, p in enumerate(aut.propositions) if p in names) for names in held]


# ---------------------------------------------------------------------------
# Hand-made cases


def test_single_node_sccs_with_and_without_a_self_loop():
    aut = ltl_to_buchi(parse_path_formula("G p"))  # one state, no marks
    # w0 -> w1 -> w1, w2 has no successor, w3 -> w0
    succ = [[1], [1], [], [0]]
    assert _both(succ, aut, _letters(aut, "p", "p", "p", "p")) == {0, 1, 3}
    # without p on w1 its self-loop is no product edge
    assert _both(succ, aut, _letters(aut, "p", "", "p", "p")) == set()


def test_nodes_where_no_guard_matches():
    aut = ltl_to_buchi(parse_path_formula("p U q"))
    succ = [[1], [2], [2]]
    assert _both(succ, aut, _letters(aut, "p", "p", "q")) == {0, 1, 2}
    assert _both(succ, aut, _letters(aut, "p", "", "q")) == {2}
    assert _both(succ, aut, _letters(aut, "p", "p", "")) == set()


def test_marks_of_one_scc_split_across_edges():
    aut = ltl_to_buchi(parse_path_formula("G F p & G F q"))
    assert len(aut.untils) == 2
    cycle = [[1], [0]]
    assert _both(cycle, aut, _letters(aut, "p", "q")) == {0, 1}
    assert _both(cycle, aut, _letters(aut, "p", "p")) == set()
    # one mark on each of two loops through w0 also covers both
    loops = [[1, 2], [0], [0]]
    assert _both(loops, aut, _letters(aut, "", "p", "q")) == {0, 1, 2}


def test_a_sink_behind_a_dead_end_window_accepts_nothing():
    aut = ltl_to_buchi(parse_path_formula("F p"))
    edges = _edge_table(aut)
    assert _sinks(edges, len(aut.untils)) == {aut.states.index(frozenset())}
    # p on w0 meets the edge into the sink, but w0 -> w1 ends at w1
    assert _both([[1], []], aut, _letters(aut, "p", "p")) == set()
    # with w1 looping, every window path is infinite and w0 is good on sight
    assert _both([[1], [1]], aut, _letters(aut, "p", "")) == {0}


def test_an_initial_sink_accepts_every_infinite_window_path():
    aut = ltl_to_buchi(parse_path_formula("G true"))
    assert _sinks(_edge_table(aut), len(aut.untils)) == {0}
    assert _both([[1], [0], [2]], aut, _letters(aut, "", "", "")) == {0, 1, 2}
    assert _both([[1], [0], []], aut, _letters(aut, "", "", "")) == {0, 1}


def test_acceptance_reached_only_through_a_downstream_scc():
    aut = ltl_to_buchi(parse_path_formula("p U G q"))
    # w0 loops on itself postponing the Until, and may leave to the q-loop w1
    succ = [[0, 1], [1]]
    assert _both(succ, aut, _letters(aut, "p", "q")) == {0, 1}
    assert _both([[0], [1]], aut, _letters(aut, "p", "q")) == {1}


# ---------------------------------------------------------------------------
# Seeded random corpus


def _random_path(rng, props, untils_left, depth):
    """A proposition-only NNF path formula with at most untils_left Untils."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        p = Prop(rng.choice(props))
        return Not(p) if rng.random() < 0.3 else p
    if roll < 0.4:
        return Next(_random_path(rng, props, untils_left, depth - 1))
    if roll < 0.55 or (roll < 0.8 and not untils_left[0]):
        op = And if rng.random() < 0.5 else Or
        return op(_random_path(rng, props, untils_left, depth - 1), _random_path(rng, props, untils_left, depth - 1))
    if roll < 0.8:
        untils_left[0] -= 1
        return Until(_random_path(rng, props, untils_left, depth - 1), _random_path(rng, props, untils_left, depth - 1))
    return Release(_random_path(rng, props, untils_left, depth - 1), _random_path(rng, props, untils_left, depth - 1))


def _random_window_graph(rng, n):
    """Successor lists over n windows; a few windows have none."""
    return [sorted(rng.sample(range(n), rng.choice((0, 1, 1, 2, 2, 3)) if n > 2 else 1)) for _ in range(n)]


def test_fused_pass_matches_the_three_pass_search():
    rng = random.Random(53)
    props = ["p", "q", "r"]
    untils_seen = set()
    outcomes = {"empty": 0, "some": 0, "all": 0}
    for _ in range(150):
        psi = _random_path(rng, props, [rng.randint(0, 3)], rng.randint(1, 4))
        aut = ltl_to_buchi(psi)
        untils_seen.add(len(aut.untils))
        for _ in range(4):
            n = rng.randint(1, 12)
            succ = _random_window_graph(rng, n)
            letters = [rng.randrange(1 << len(aut.propositions)) for _ in range(n)]
            found = _both(succ, aut, letters)
            outcomes["empty" if not found else "all" if len(found) == n else "some"] += 1
    assert untils_seen == {0, 1, 2, 3}
    assert min(outcomes.values()) >= 50, outcomes


def test_fused_pass_matches_on_total_window_graphs():
    """Every window has a successor, so the sink shortcut is on; ``_both``
    checks that it fires exactly on the calls that reach a sink, and those
    are counted."""
    rng = random.Random(67)
    props = ["p", "q", "r"]
    outcomes = {"empty": 0, "some": 0, "all": 0}
    sink_calls = 0
    for _ in range(150):
        psi = _random_path(rng, props, [rng.randint(0, 3)], rng.randint(1, 4))
        aut = ltl_to_buchi(psi)
        for _ in range(4):
            n = rng.randint(1, 12)
            succ = [sorted(rng.sample(range(n), rng.randint(1, min(n, 3)))) for _ in range(n)]
            letters = [rng.randrange(1 << len(aut.propositions)) for _ in range(n)]
            found = _both(succ, aut, letters)
            outcomes["empty" if not found else "all" if len(found) == n else "some"] += 1
            sink_calls += _sink_reached(succ, aut, letters)
    assert min(outcomes.values()) >= 50, outcomes
    assert sink_calls >= 400


def _random_graph(rng, n, degrees):
    """n nodes, each with a seeded number of distinct successors drawn
    from degrees."""
    nodes = [f"v{i}" for i in range(n)]
    return nodes, {(a, b) for a in nodes for b in rng.sample(nodes, min(n, rng.choice(degrees)))}


def test_fused_pass_matches_on_window_skeletons():
    """Real window graphs with the skeleton's own classes: at depth >= 1 a
    window's class is its suffix, whose extensions are one range shared by
    every window with that suffix, and at depth 0 its node, whose class is
    a list.  So windows share classes at depth >= 1 only.  Every fourth
    graph may have a dead-end node, which gives empty ranges."""
    rng = random.Random(71)
    props = ["p", "q", "r"]
    shared = {0: 0, 1: 0, 2: 0}  # per depth, the graphs with a class of two or more windows
    for depth in (0, 1, 2):
        outcomes = {"empty": 0, "some": 0, "all": 0}
        for i in range(100):
            aut = ltl_to_buchi(_random_path(rng, props, [rng.randint(0, 3)], rng.randint(1, 4)))
            nodes, edges = _random_graph(rng, rng.randint(2, 6), range(0 if i % 4 == 0 else 1, 5))
            windows, (cls, members) = window_skeleton(nodes, edges, depth)
            letters = [rng.randrange(1 << len(aut.propositions)) for _ in windows]
            found = _both([members[c] for c in cls], aut, letters, (cls, members))
            outcomes["empty" if not found else "all" if len(found) == len(windows) else "some"] += 1
            shared[depth] += len(set(cls)) < len(windows)
        assert min(outcomes.values()) >= 5, (depth, outcomes)
    assert shared[0] == 0 and min(shared[1], shared[2]) >= 95, shared


def _bench_shaped_model(rng, n):
    """n nodes with 2-4 successors each, registers x and y in [-3, 3] and
    propositions p and q: the shape of the benchmark's model-checking
    inputs."""
    nodes, edges = _random_graph(rng, n, range(2, 5))
    labels = {v: frozenset(p for p in ("p", "q") if rng.random() < 0.4) for v in nodes}
    registers = {(v, x): rng.randint(-3, 3) for v in nodes for x in ("x", "y")}
    return ConstraintKripke(nodes, edges, labels, registers, ("x", "y"))


def _substitute_occurrences(f, leaf):
    """f with each subformula occurrence g replaced by ``leaf(g)`` unless
    that is None, asked in preorder, left to right: every occurrence gets
    its own draw, where ``rewrite`` asks once per distinct node."""
    new = leaf(f)
    if new is not None:
        return new
    kids = _children(f)
    return type(f)(*[_substitute_occurrences(kid, leaf) for kid in kids]) if kids else f


def test_larger_models_agree_with_the_oracle_and_the_dual():
    """Depth-2 formulas on 200-400 node models: CTL against the fixpoint
    oracle, and E psi against the complement of A ~psi for CTL* bodies
    whose leaves are propositions, constraints and CTL state formulas."""
    rng = random.Random(73)
    variables = ("x", "y")

    def leaf(g):
        if g == Prop("c"):
            return _random_constraint(rng, variables, 2)
        if g == Prop("s"):
            return random_ctl_formula(rng, variables, ["p", "q"], depth=1, max_offset=2)
        return None

    partial = 0
    for _ in range(6):
        m = _bench_shaped_model(rng, rng.randint(200, 400))
        everything = frozenset(m.nodes)
        for _ in range(3):
            f = random_ctl_formula(rng, variables, ["p", "q"], depth=2, max_offset=2)
            while max_constraint_depth(f) != 2:
                f = random_ctl_formula(rng, variables, ["p", "q"], depth=2, max_offset=2)
            sat = check_ctlstar(m, f)
            assert sat == check_ctl_oracle(m, f), str(f)
            partial += 0 < len(sat) < len(m.nodes)
        for _ in range(3):
            psi = _substitute_occurrences(_random_path(rng, ["p", "q", "c", "s"], [rng.randint(1, 2)], 3), leaf)
            sat = check_ctlstar(m, Exists(psi))
            assert sat == everything - check_ctlstar(m, All(Not(psi))), str(psi)
            partial += 0 < len(sat) < len(m.nodes)
    assert partial >= 20


def test_check_ctlstar_labels_the_same_nodes_with_either_search(monkeypatch):
    """The plain search, plugged in through an automaton rebuilt from the
    edge table, labels every random model and formula the same way."""

    def plain(classes, edges, n_marks, letters, sinks):
        aut = BuchiAutomaton((), list(range(len(edges))), dict(enumerate(edges)), tuple(range(n_marks)))
        cls, members = classes
        return plain_accepted_start_windows([members[c] for c in cls], aut, letters)

    rng = random.Random(59)
    cases = []
    for i in range(120):
        m = random_graph_model(rng, rng.randint(2, 5), props=("p", "q"), p_prop=0.5)
        if i % 2:
            f = random_ctl_formula(rng, m.variables, ["p", "q"], depth=rng.randint(1, 3))
        else:
            psi = _random_path(rng, ["p", "q"], [rng.randint(0, 3)], rng.randint(1, 3))
            f = (Exists if rng.random() < 0.5 else All)(psi)
        cases.append((m, f, check_ctlstar(m, f)))
    monkeypatch.setattr(modelcheck, "_accepted_start_windows", plain)
    partial = 0
    for m, f, fused in cases:
        assert check_ctlstar(m, f) == fused, str(f)
        partial += 0 < len(fused) < len(m.nodes)
    assert partial >= 30

