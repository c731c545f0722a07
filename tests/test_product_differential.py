"""Product emptiness against the three-pass search it replaced.

``plain_accepted_start_windows`` is the product as it was before the
one-pass search: it builds the whole reachable product with tuple-keyed
nodes and stored adjacency, runs Tarjan, and then judges the SCCs in a
separate pass, and knows nothing of accepting sinks.
``_accepted_start_windows`` must accept the same start windows on seeded
random automata and window graphs, with and without windows that have no
successor, and ``check_ctlstar`` must label the same nodes with either
search plugged in.
"""

import random

from ctlz import (
    And,
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
from ctlz.modelcheck import BuchiAutomaton, _accepted_start_windows, _edge_table, _sinks, ltl_to_buchi
from conftest import random_ctl_formula, random_graph_model


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


class _CountingSucc(list):
    """Successor lists that count how often one is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _reachable(succ, edges, letters) -> set:
    """The (state index, window) nodes of the product reachable from the
    initial state on any window, found by a plain search of its own."""
    seen = {(0, wi) for wi in range(len(letters))}
    todo = list(seen)
    while todo:
        q, wi = todo.pop()
        for pos, neg, target, _ in edges[q]:
            if letters[wi] & pos == pos and not letters[wi] & neg:
                for wj in succ[wi]:
                    if (target, wj) not in seen:
                        seen.add((target, wj))
                        todo.append((target, wj))
    return seen


def _sink_reached(succ, aut, letters) -> bool:
    edges = _edge_table(aut)
    sinks = _sinks(edges, len(aut.untils))
    return any(q in sinks for q, _ in _reachable(succ, edges, letters))


def _both(succ, aut, letters):
    """The accepted start windows, asserted equal under both searches.

    The one-pass search reads a node's successors once, when it enters
    the node.  So it enters fewer nodes than the product reaches exactly
    when the sink shortcut fires: when every window has a successor and
    the product reaches an accepting sink."""
    plain = plain_accepted_start_windows(succ, aut, letters)
    edges = _edge_table(aut)
    sinks = _sinks(edges, len(aut.untils))
    counted = _CountingSucc(succ)
    fused = _accepted_start_windows(counted, edges, len(aut.untils), letters, sinks)
    assert fused == plain
    reached = _reachable(succ, edges, letters)
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


def test_check_ctlstar_labels_the_same_nodes_with_either_search(monkeypatch):
    """The plain search, plugged in through an automaton rebuilt from the
    edge table, labels every random model and formula the same way."""

    def plain(succ, edges, n_marks, letters, sinks):
        aut = BuchiAutomaton((), list(range(len(edges))), dict(enumerate(edges)), tuple(range(n_marks)))
        return plain_accepted_start_windows(succ, aut, letters)

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

