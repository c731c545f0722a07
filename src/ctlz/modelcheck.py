"""CTL* model checking with atomic constraints over finite graphs.

Constraints look ahead along a path, so paths are tracked through
windows: tuples of d+1 consecutive nodes, where d is the formula's
maximal register offset.  Infinite paths of the graph correspond exactly
to infinite window paths, constraints become ordinary propositions on
windows, and each existential subformula reduces to Buechi non-emptiness
of a tableau product with the window graph.  Truth of a state formula
depends only on a window's first component, which realizes the semantics
where a nested path quantifier ranges over all paths from the current
state rather than the committed future of the enclosing path.

The tableau automaton is transition-based (Giannakopoulou and Lerda;
Couvreur): a state is a set of obligations, an edge is one tableau
branch with a guard of positive and negative literals, and the edge
carries one acceptance mark per Until it does not postpone.  No alphabet
is built.  The product reads each window's letter as a bitmask over the
tracked propositions, follows the edges whose guards it meets, and calls
an SCC accepting when its internal edges carry every mark.

Window expansion has two steps: ``window_skeleton`` builds the windows
and their successors from the nodes, the edges and the depth, and
``expand_windows`` then gives each window one bit per constraint that
holds on its registers.  The bounded search builds one skeleton per
edge mask and computes the bits itself.

``check_ctlstar`` compiles a formula once (the compiled plans sit in one
LRU cache): NNF, depth and constraints, the distinct state subformulas
of the NNF in postorder, and for each E psi / A psi the path formula
with its maximal state subformulas and constraints replaced by
propositions (negated for A) together with its automaton.  On a model,
one loop then labels the state subformulas bottom-up (Emerson and Lei's
per-subformula reduction), without recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .domains import Z_DOMAIN
from .formulas import (
    And,
    BoolConst,
    Constraint,
    Exists,
    All,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    _children,
    constraints_of,
    is_state_formula,
    max_constraint_depth,
    negate,
    propositions_of,
    rewrite,
    subformulas,
    to_nnf,
)
from .structures import ConstraintKripke

WINDOW_LIMIT = 50_000


class ModelCheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Window expansion


@dataclass
class WindowModel:
    base: ConstraintKripke
    depth: int
    windows: list  # tuples of d+1 nodes
    succ: list  # adjacency by position
    bits: list  # per window, bit i set when constraints[i] holds on it
    constraints: tuple


def window_skeleton(nodes, edges, depth: int) -> tuple:
    """The windows of a graph, all length-(depth+1) paths, and for each
    window the positions of its successors.  Windows start in node order
    and grow along the edges in sorted order."""
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


def expand_windows(model: ConstraintKripke, depth: int, constraints=(), dom=Z_DOMAIN) -> WindowModel:
    """All length-(depth+1) paths as nodes of a derived graph, each
    labelled with one bit per atomic constraint that holds on its
    registers.  Once the window limit is met, the domain is asked once
    per constraint whether it interprets the relation."""
    if model.is_tree:
        raise ModelCheckError("model checking runs on graph-shaped models")
    windows, succ = window_skeleton(model.nodes, model.edges, depth)
    tests = [dom.relation_test(c.relation) for c in constraints]
    bits = []
    for w in windows:
        b = 0
        for i, c in enumerate(constraints):
            if tests[i](tuple(model.gamma(w[off], var) for off, var in c.args)):
                b |= 1 << i
        bits.append(b)
    return WindowModel(model, depth, windows, succ, bits, tuple(constraints))


# ---------------------------------------------------------------------------
# LTL tableau to transition-based generalized Buechi


@dataclass
class BuchiAutomaton:
    """A state is an obligation set: the path formulas a run still has to
    meet from here on.  An edge is one tableau branch of its source state,
    stored once as (pos mask, neg mask, target, marks); it reads every
    letter (a bitmask over ``propositions``) that contains pos and misses
    neg.  Mark bit j is set when the branch does not postpone
    ``untils[j]``: the Until is not among the target's obligations, or the
    branch fulfils it.  A run is accepting when every mark recurs."""

    propositions: tuple  # bit i of a letter stands for propositions[i]
    states: list  # obligation sets, the initial one first
    transitions: dict  # state -> tuple of edges (pos, neg, target, marks)
    untils: tuple  # one acceptance mark per Until subformula


def _expand_obligations(obligations, bit):
    """Branches of one tableau expansion step, each a tuple (positive
    literal mask, negative literal mask, next obligations, fulfilled
    Until subformulas), where ``bit`` maps a proposition to its mask.
    Pending branches wait on an explicit stack, the left one explored
    first; contradictory branches are dropped."""
    branches: dict = {}  # ordered set
    stack = [(list(obligations), 0, 0, frozenset(), frozenset())]
    while stack:
        todo, pos, neg, nexts, fulfilled = stack.pop()
        while todo:
            f = todo.pop()
            if isinstance(f, BoolConst):
                if not f.value:
                    break
            elif isinstance(f, Prop):
                pos |= bit[f.name]
            elif isinstance(f, Not):
                neg |= bit[f.sub.name]
            elif isinstance(f, Next):
                nexts |= {f.sub}
            elif isinstance(f, And):
                todo += (f.left, f.right)
            elif isinstance(f, Or):
                stack.append((todo + [f.right], pos, neg, nexts, fulfilled))
                todo.append(f.left)
            elif isinstance(f, Until):  # fulfil now, or postpone
                stack.append((todo + [f.left], pos, neg, nexts | {f}, fulfilled))
                todo.append(f.right)
                fulfilled |= {f}
            else:  # Release: both hold now, or the right one and again next
                stack.append((todo + [f.right], pos, neg, nexts | {f}, fulfilled))
                todo += (f.left, f.right)
            if pos & neg:
                break
        else:
            branches[(pos, neg, nexts, fulfilled)] = None
    return list(branches)


def ltl_to_buchi(formula: Formula) -> BuchiAutomaton:
    """Tableau construction for proposition-only path formulas in NNF:
    the states are the obligation sets reachable from {formula}, each
    tableau branch is one edge, and each Until gets one acceptance mark."""
    for sub in subformulas(formula):
        if isinstance(sub, (Constraint, Exists, All)):
            raise ModelCheckError("tableau input must be over propositions only")
        if isinstance(sub, Not) and not isinstance(sub.sub, Prop):
            raise ModelCheckError("tableau input must be in negation normal form")
    props = tuple(propositions_of(formula))
    bit = {p: 1 << i for i, p in enumerate(props)}
    untils = tuple(dict.fromkeys(sub for sub in subformulas(formula) if isinstance(sub, Until)))

    initial = frozenset([formula])
    transitions: dict = {initial: None}  # states in discovery order
    todo = [initial]
    while todo:
        state = todo.pop()
        edges = []
        for pos, neg, nexts, fulfilled in _expand_obligations(state, bit):
            marks = sum(1 << j for j, u in enumerate(untils) if u not in nexts or u in fulfilled)
            edges.append((pos, neg, nexts, marks))
            if nexts not in transitions:
                transitions[nexts] = None
                todo.append(nexts)
        transitions[state] = tuple(edges)
    return BuchiAutomaton(props, list(transitions), transitions, untils)


# ---------------------------------------------------------------------------
# Product emptiness


def _accepted_start_windows(succ, aut: BuchiAutomaton, letters) -> set:
    """Positions i such that some accepting run reads a window path
    starting at window i, given each window's successors and letter.
    Product nodes are (state, window) pairs, and a product edge carries
    the marks of the automaton edge it follows."""
    node_id = {}
    nodes = []
    adj = []  # successor node ids
    adj_marks = []  # the marks of those edges, in the same order

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

    # Tarjan, iterative; SCCs come out with successors first
    n = len(nodes)
    comp = [-1] * n
    low = [0] * n
    num = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    counter = 0
    comp_count = 0
    comp_order: list = []

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
                    comp[w] = comp_count
                    members.append(w)
                    if w == v:
                        break
                comp_order.append(members)
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    every_mark = (1 << len(aut.untils)) - 1
    good = [False] * comp_count
    for ci, members in enumerate(comp_order):
        internal = False
        seen = 0  # marks on edges inside the SCC
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


# ---------------------------------------------------------------------------
# CTL* checking


@lru_cache(maxsize=512)
def _compile(formula: Formula) -> tuple:
    """The model-independent part of check_ctlstar: the window depth, the
    constraints, the distinct state subformulas of the NNF (children
    before parents, left before right), a map from each E/A subformula to
    its automaton and, per tracked proposition, the state subformula or
    the index of the constraint that it stands for."""
    if not is_state_formula(formula):
        raise ModelCheckError("model checking expects a state formula")
    nnf = to_nnf(formula)
    depth, constraints = max_constraint_depth(nnf), tuple(constraints_of(nnf))
    constraint_prop = {c: f"__c{i}" for i, c in enumerate(constraints)}
    constraint_index = {f"__c{i}": i for i in range(len(constraints))}
    state: dict = {}  # distinct subformula -> is it a state formula, in postorder
    stack = [(nnf, False)]
    while stack:
        g, built = stack.pop()
        if built and isinstance(g, (Not, And, Or)):
            state[g] = all(state[kid] for kid in _children(g))
        elif built:
            state[g] = isinstance(g, (Prop, BoolConst, Exists, All))
        elif g not in state:  # an earlier occurrence is already finished
            stack.append((g, True))
            stack.extend((kid, False) for kid in reversed(_children(g)))
    order = tuple(g for g, is_state in state.items() if is_state)

    paths: dict = {}
    automata: dict = {}
    for f in order:
        if not isinstance(f, (Exists, All)):
            continue
        # maximal state subformulas and constraints of the path formula
        # become propositions; in NNF only constraints are negated there
        names: dict = {}

        def visit(g: Formula) -> Optional[Formula]:
            if isinstance(g, BoolConst):
                return g
            if state[g]:
                return Prop(names.setdefault(g, f"__s{len(names)}"))
            if isinstance(g, Constraint):
                return Prop(constraint_prop[g])
            if isinstance(g, Not):
                return Not(Prop(constraint_prop[g.sub]))
            return None

        psi = rewrite(f.sub, visit)
        if isinstance(f, All):
            psi = negate(psi)  # A psi holds where E ~psi fails
        if psi not in automata:
            automata[psi] = ltl_to_buchi(psi)
        source = {name: g for g, name in names.items()} | constraint_index
        paths[f] = (automata[psi], tuple(source[p] for p in automata[psi].propositions))
    return depth, constraints, order, paths


def _label_states(plan: tuple, nodes, label, windows, succ, bits) -> frozenset:
    """The nodes that satisfy a compiled formula, given the window graph,
    the node labels and each window's constraint bits: one loop fills the
    node set of every state subformula, dependencies first."""
    _, _, order, paths = plan
    all_nodes = frozenset(nodes)
    sat: dict = {}
    for f in order:
        if isinstance(f, Prop):
            sat[f] = frozenset(v for v in nodes if f.name in label(v))
        elif isinstance(f, BoolConst):
            sat[f] = all_nodes if f.value else frozenset()
        elif isinstance(f, Not):
            sat[f] = all_nodes - sat[f.sub]
        elif isinstance(f, And):
            sat[f] = sat[f.left] & sat[f.right]
        elif isinstance(f, Or):
            sat[f] = sat[f.left] | sat[f.right]
        else:
            aut, tracked = paths[f]
            letters = [
                sum(1 << i for i, g in enumerate(tracked) if (b >> g & 1 if type(g) is int else w[0] in sat[g]))
                for w, b in zip(windows, bits)
            ]
            found = frozenset(windows[wi][0] for wi in _accepted_start_windows(succ, aut, letters))
            sat[f] = found if isinstance(f, Exists) else all_nodes - found
    return sat[order[-1]]


def check_ctlstar(model: ConstraintKripke, formula: Formula, dom=Z_DOMAIN) -> frozenset:
    """Nodes satisfying the state formula; the formula is normalized to
    NNF first, so negated constraints are fine and never need witnesses.

    The formula is compiled once (and cached); on a model, the windows
    are expanded and labelled, and then the state subformulas."""
    plan = _compile(formula)
    wm = expand_windows(model, plan[0], plan[1], dom)
    return _label_states(plan, model.nodes, model.label, wm.windows, wm.succ, wm.bits)


# ---------------------------------------------------------------------------
# Independent CTL oracle: classical fixpoints on the window graph


def _is_ctl_arg(f: Formula) -> bool:
    if isinstance(f, Constraint):
        return True
    if isinstance(f, Not) and isinstance(f.sub, Constraint):
        return True
    return is_state_formula(f)


def check_ctl_oracle(model: ConstraintKripke, formula: Formula, dom=Z_DOMAIN) -> frozenset:
    """EX/EU/EG-style fixpoint evaluation for CTL-shaped formulas, kept
    free of the tableau machinery so the two checkers can disagree."""
    formula = to_nnf(formula)
    depth = max_constraint_depth(formula)
    constraints = constraints_of(formula)
    wm = expand_windows(model, depth, constraints, dom)
    nwin = len(wm.windows)
    all_windows = frozenset(range(nwin))
    all_nodes = frozenset(model.nodes)
    preds = [[] for _ in range(nwin)]
    for wi in range(nwin):
        for wj in wm.succ[wi]:
            preds[wj].append(wi)

    def pre_exists(S: frozenset) -> frozenset:
        return frozenset(wi for wi in range(nwin) if any(wj in S for wj in wm.succ[wi]))

    def project(S) -> frozenset:
        return frozenset(wm.windows[wi][0] for wi in S)

    def windows_of_nodes(nodes) -> frozenset:
        return frozenset(wi for wi in range(nwin) if wm.windows[wi][0] in nodes)

    def arg_windows(f: Formula) -> frozenset:
        if isinstance(f, Constraint):
            i = wm.constraints.index(f)
            return frozenset(wi for wi in range(nwin) if wm.bits[wi] >> i & 1)
        if isinstance(f, Not) and isinstance(f.sub, Constraint):
            return all_windows - arg_windows(f.sub)
        return windows_of_nodes(ctl(f))

    def e_until(a: frozenset, b: frozenset) -> frozenset:
        sat = set(b)
        frontier = list(b)
        while frontier:
            wj = frontier.pop()
            for wi in preds[wj]:
                if wi in a and wi not in sat:
                    sat.add(wi)
                    frontier.append(wi)
        return frozenset(sat)

    def e_release(a: frozenset, b: frozenset) -> frozenset:
        sat = set(b)
        while True:
            keep = {wi for wi in sat if wi in a or any(wj in sat for wj in wm.succ[wi])}
            if keep == sat:
                return frozenset(keep)
            sat = keep

    def ctl(f: Formula) -> frozenset:
        if isinstance(f, Prop):
            return frozenset(v for v in model.nodes if f.name in model.label(v))
        if isinstance(f, BoolConst):
            return all_nodes if f.value else frozenset()
        if isinstance(f, Not):
            return all_nodes - ctl(f.sub)
        if isinstance(f, And):
            return ctl(f.left) & ctl(f.right)
        if isinstance(f, Or):
            return ctl(f.left) | ctl(f.right)
        if isinstance(f, (Exists, All)):
            psi = f.sub
            universal = isinstance(f, All)
            if isinstance(psi, Next) and _is_ctl_arg(psi.sub):
                S = arg_windows(psi.sub)
                if universal:
                    return all_nodes - project(pre_exists(all_windows - S))
                return project(pre_exists(S))
            if isinstance(psi, Until) and _is_ctl_arg(psi.left) and _is_ctl_arg(psi.right):
                a, b = arg_windows(psi.left), arg_windows(psi.right)
                if universal:
                    return all_nodes - project(e_release(all_windows - a, all_windows - b))
                return project(e_until(a, b))
            if isinstance(psi, Release) and _is_ctl_arg(psi.left) and _is_ctl_arg(psi.right):
                a, b = arg_windows(psi.left), arg_windows(psi.right)
                if universal:
                    return all_nodes - project(e_until(all_windows - a, all_windows - b))
                return project(e_release(a, b))
            if _is_ctl_arg(psi):
                S = arg_windows(psi)
                if universal:
                    return all_nodes - project(all_windows - S)
                return project(S)
            raise ModelCheckError(f"not in the CTL fragment: {f}")
        raise ModelCheckError(f"not in the CTL fragment: {f}")

    if not is_state_formula(formula):
        raise ModelCheckError("model checking expects a state formula")
    return ctl(formula)
