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
is built.  The successors of a window extend one shorter path, its
successor class: its node at depth 0, its suffix at depth >= 1.  A
product node is a state and a class: the next window read is some
member of the class.  The product is searched in one pass: an iterative
Tarjan DFS over int product nodes (state index * classes + class) that
reads each member's letter as a bitmask over the tracked propositions,
follows the edges whose guards it meets to the class of that member's
successors, and decides each SCC as it closes.  No adjacency is stored,
so memory grows with the product nodes reached, not with states x
classes.  An accepting sink, a state with an unguarded self-loop that
carries every mark, is listed next to the edge table; when every window
has a successor, a node that can step into one is good on sight and is
not entered.  A window graph with dead ends (``validate_model`` rejects
them) is searched without this shortcut.

Window expansion has two steps: ``window_skeleton`` builds the windows
and their successor classes from the nodes, the edges and the depth, in
one growth loop, and ``expand_windows`` then gives each window one bit
per constraint that holds on its registers.  At depth >= 1 the members
of a class, the extensions of one suffix, sit next to each other, so
each is one ``range``; at depth 0 they are lists.  Labelling runs one
pass per constraint over columns of register values indexed by window.
The bounded search builds one skeleton per edge mask and computes the
bits itself.

``check_ctlstar`` compiles a formula once (an LRU cache of plans): the
NNF's distinct nodes as the state classifier marks them in postorder,
the constraints among them and their depth, and for each E psi / A psi
the path formula with each maximal state subformula and constraint
replaced by a numbered proposition (negated for A) and its automaton,
cached per path formula, so formulas share the automata of equal path
shapes.  On a model, one loop then labels each state subformula
bottom-up (Emerson and Lei's per-subformula reduction), no recursion.
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
    classify_states,
    negate,
    postorder,
    rewrite,
    to_nnf,
)
from .structures import ConstraintKripke, register_fault

WINDOW_LIMIT = 50_000


class ModelCheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Window expansion


@dataclass
class WindowModel:
    windows: list  # tuples of d+1 nodes
    classes: tuple  # (cls, members): per window its successor class, per class its members
    bits: list  # per window, bit i set when constraints[i] holds on it
    constraints: tuple


def window_skeleton(nodes, edges, depth: int) -> tuple:
    """The windows of a graph, all length-(depth+1) paths, and their
    successor classes ``(cls, members)``.  Windows start in node order and
    grow along the edges in sorted order.

    A window's class is what its successors extend: its node at depth 0,
    its suffix, a window one shorter, at depth >= 1; ``members[c]`` lists
    the positions of those successors, which at depth >= 1 sit next to
    each other as one ``range``.  Each growth step gives a window's
    children the members of its class as their classes, in order, and
    the ranges of the children just built become the new members."""
    index = {v: i for i, v in enumerate(nodes)}
    adjacency = {v: [] for v in nodes}
    for a, b in sorted(edges):
        adjacency[a].append(b)
    windows = [(v,) for v in nodes]
    cls = list(range(len(nodes)))
    members = [[index[s] for s in adjacency[v]] for v in nodes]
    shared = members  # per class, its members as ints that its windows share
    for step in range(depth):
        if step:
            ids = list(range(len(windows)))
            shared = [ids[r.start:r.stop] for r in members]
        grown, grown_cls, extensions = [], [], []
        for w, c in zip(windows, cls):
            start = len(grown)
            grown.extend([w + (s,) for s in adjacency[w[-1]]])
            if len(grown) > WINDOW_LIMIT:
                raise ModelCheckError(
                    f"window expansion exceeds {WINDOW_LIMIT} windows; reduce depth or model size"
                )
            grown_cls.extend(shared[c])
            extensions.append(range(start, len(grown)))
        windows, cls, members = grown, grown_cls, extensions
    return windows, (cls, members)


def expand_windows(model: ConstraintKripke, depth: int, constraints=(), dom=Z_DOMAIN) -> WindowModel:
    """All length-(depth+1) paths as nodes of a derived graph, each
    labelled with one bit per atomic constraint that holds on its
    registers.  Registers the constraints cannot read (``register_fault``)
    are refused first.  Once the window limit is met, the domain is asked
    once per constraint whether it interprets the relation.

    Labelling takes one pass per constraint: a column of register values
    per argument, indexed by window, and the test over their rows."""
    if model.is_tree:
        raise ModelCheckError("model checking runs on graph-shaped models")
    if fault := register_fault(model, [var for c in constraints for _, var in c.args], dom):
        raise ModelCheckError(fault)
    windows, classes = window_skeleton(model.nodes, model.edges, depth)
    tests = [dom.relation_test(c.relation) for c in constraints]
    values: dict = {}  # variable -> node -> register value
    bits = [0] * len(windows)
    for i, (c, test) in enumerate(zip(constraints, tests)):
        columns = []
        for off, var in c.args:
            value = values.get(var)
            if value is None:
                value = values[var] = {v: model.gamma(v, var) for v in model.nodes}
            columns.append([value[w[off]] for w in windows])
        bits = [b | test(t) << i for b, t in zip(bits, zip(*columns))]
    return WindowModel(windows, classes, bits, tuple(constraints))


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


def _expand_obligations(obligations: list, bit):
    """Branches of one tableau expansion step from a list of obligations,
    the last one taken first, each a tuple (positive literal mask,
    negative literal mask, next obligations, fulfilled Untils), where
    ``bit`` maps a proposition to its mask.  Pending branches wait on an
    explicit stack, the left one explored first; contradictory branches
    are dropped."""
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
    # per node, in postorder, the first node below it (preorder) that the
    # tableau cannot read; obligation sets are expanded in this order, not
    # in address order, so a formula gives one automaton in every process
    unreadable: dict = {}
    for g in postorder(formula):
        bad = isinstance(g, (Constraint, Exists, All)) or isinstance(g, Not) and not isinstance(g.sub, Prop)
        unreadable[g] = g if bad else next(filter(None, map(unreadable.get, _children(g))), None)
    if isinstance(unreadable[formula], Not):
        raise ModelCheckError("tableau input must be in negation normal form")
    if unreadable[formula] is not None:
        raise ModelCheckError("tableau input must be over propositions only")
    rank = {sub: i for i, sub in enumerate(unreadable)}
    props = tuple(g.name for g in rank if isinstance(g, Prop))
    bit = {p: 1 << i for i, p in enumerate(props)}
    untils = tuple(sub for sub in rank if isinstance(sub, Until))

    initial = frozenset([formula])
    transitions: dict = {initial: None}  # states in discovery order
    todo = [initial]
    while todo:
        state = todo.pop()
        edges = []
        for pos, neg, nexts, fulfilled in _expand_obligations(sorted(state, key=rank.__getitem__), bit):
            marks = sum(1 << j for j, u in enumerate(untils) if u not in nexts or u in fulfilled)
            edges.append((pos, neg, nexts, marks))
            if nexts not in transitions:
                transitions[nexts] = None
                todo.append(nexts)
        transitions[state] = tuple(edges)
    return BuchiAutomaton(props, list(transitions), transitions, untils)


# ---------------------------------------------------------------------------
# Product emptiness


def _edge_table(aut: BuchiAutomaton) -> tuple:
    """The automaton's edges as the product reads them: per state index,
    a tuple of (pos, neg, target index, marks), the initial state first."""
    index = {q: i for i, q in enumerate(aut.states)}
    return tuple(
        tuple((pos, neg, index[target], marks) for pos, neg, target, marks in aut.transitions[q])
        for q in aut.states
    )


def _sinks(edges, n_marks) -> frozenset:
    """The accepting sinks of an ``_edge_table``: states with an unguarded
    self-loop that carries every mark, so a run that enters one accepts
    every infinite window path from there on."""
    every = (1 << n_marks) - 1
    return frozenset(q for q, out in enumerate(edges) if (0, 0, q, every) in out)


_GOOD, _BAD = -1, -2  # the verdict of a node's SCC once it has closed


def _accepted_start_windows(classes, edges, n_marks, letters, sinks) -> set:
    """Positions i such that some accepting run of the automaton (an
    ``_edge_table`` with ``n_marks`` acceptance marks and the accepting
    ``sinks`` of ``_sinks``) reads a window path starting at window i,
    given the windows' successor classes from ``window_skeleton`` and
    their letters.

    One iterative Tarjan pass over the product, whose node (q, c) is the
    int q * len(classes[1]) + c.  Its edges read each member w of class c:
    an edge of q whose guard meets w's letter leads to its target on the
    class of w's successors.  Window i is accepted when an initial edge
    that meets its letter leads to a good node, so runs lose only their
    first edge.  A node's successors are generated when it is entered and
    each edge is classified as the DFS meets it: an edge to a node still
    on the Tarjan stack stays inside one SCC, so its marks are collected,
    and an edge into a closed SCC counts only when that SCC is good.  An
    SCC is decided as it closes, after every SCC it reaches: good when its
    internal edges carry every mark, or when it reaches a good SCC
    (Couvreur; Geldenhuys and Valmari).

    When every window has a successor, every window path extends to an
    infinite one, so a node or start window that reads a letter meeting
    an edge into a sink is good on sight and is not entered (Cerna and
    Pelanek's terminal accepting states).  Dead-end windows switch this
    off, since a sink there has no infinite path to read."""
    cls, members = classes
    nc = len(members)
    # off when a class that some window uses has no members
    if sinks and not all(members) and not {c for c, m in enumerate(members) if not m}.isdisjoint(cls):
        sinks = frozenset()
    internal = 1 << n_marks
    full = 2 * internal - 1  # every mark plus the internal-edge bit
    # node -> position on the Tarjan stack, or _GOOD / _BAD once closed;
    # positions are DFS numbers, reused once an SCC leaves the stack
    pos_of: dict = {}
    # per state, letter -> (target, marks) of the edges it follows, or
    # False when one of them enters a sink
    matching = [{} for _ in edges]

    def follow(q, letter):
        followed = [(target, marks) for pos, neg, target, marks in edges[q] if letter & pos == pos and not letter & neg]
        matching[q][letter] = followed = False if any(target in sinks for target, _ in followed) else followed
        return followed

    def successors(v):
        """The product edges out of v, or None when v is good on sight."""
        q, c = divmod(v, nc)
        known = matching[q]
        out = []
        for w in members[c]:
            letter = letters[w]
            followed = known[letter] if letter in known else follow(q, letter)
            if followed is False:
                return None
            out += [(target * nc + cls[w], marks) for target, marks in followed]
        return iter(out)

    keys = [letter * nc + c for letter, c in zip(letters, cls)]  # all a start verdict depends on
    verdicts = dict.fromkeys(keys)
    for key in verdicts:
        letter, c = divmod(key, nc)
        followed = matching[0][letter] if letter in matching[0] else follow(0, letter)
        roots = () if followed is False else [target * nc + c for target, _ in followed]
        for root in roots:
            if root in pos_of:
                continue
            todo = successors(root)
            if todo is None:
                pos_of[root] = _GOOD
                continue
            pos_of[root] = 0
            # per stack entry its low link and the marks of its internal
            # edges | internal, or full once it reaches a good SCC
            stack, low, acc = [root], [0], [0]
            work = [(root, 0, todo)]  # node, marks of its tree edge, successors left
            while work:
                v, in_marks, todo = work[-1]
                i = pos_of[v]
                for w, marks in todo:
                    j = pos_of.get(w)
                    if j is None:
                        more = successors(w)
                        if more is None:
                            pos_of[w] = j = _GOOD
                        else:
                            pos_of[w] = len(stack)
                            low.append(len(stack))
                            stack.append(w)
                            acc.append(0)
                            work.append((w, marks, more))
                            break
                    if j >= 0:
                        if j < low[i]:
                            low[i] = j
                        acc[i] |= marks | internal
                    elif j == _GOOD:
                        acc[i] = full
                else:
                    work.pop()
                    if low[i] == i:  # v closes its SCC, stack[i:]
                        verdict = _GOOD if acc[i] == full else _BAD
                        for u in stack[i:]:
                            pos_of[u] = verdict
                        del stack[i:], low[i:], acc[i:]
                        if work and verdict == _GOOD:
                            acc[pos_of[work[-1][0]]] = full
                    else:  # the tree edge into v stays inside the parent's SCC
                        p = pos_of[work[-1][0]]
                        low[p] = min(low[p], low[i])
                        acc[p] |= acc[i] | in_marks | internal
        verdicts[key] = followed is False or any(pos_of[root] == _GOOD for root in roots)
    return {wi for wi, key in enumerate(keys) if verdicts[key]}


# ---------------------------------------------------------------------------
# CTL* checking


@lru_cache(maxsize=512)
def _automaton(psi: Formula) -> tuple:
    """The automaton of a proposition-only path formula as the product reads
    it: edge table, number of acceptance marks, propositions and sinks."""
    aut = ltl_to_buchi(psi)
    edges = _edge_table(aut)
    return edges, len(aut.untils), aut.propositions, _sinks(edges, len(aut.untils))


@lru_cache(maxsize=512)
def _compile(formula: Formula) -> tuple:
    """The model-independent part of check_ctlstar: the window depth, the
    constraints, the NNF's distinct state-formula nodes (children before
    parents, left before right), and a map from each E/A subformula to
    its automaton's edge table, its number of acceptance marks, per
    tracked proposition the state subformula or the index of the
    constraint that it stands for, and its accepting sinks."""
    nnf = to_nnf(formula)  # a state formula exactly when its NNF is one
    state = classify_states(nnf)  # None marks a state subformula
    if state[nnf] is not None:
        raise ModelCheckError("model checking expects a state formula")
    constraints = tuple(g for g in state if isinstance(g, Constraint))  # in postorder
    depth = max((c.depth for c in constraints), default=0)
    constraint_prop = {c: f"__c{i}" for i, c in enumerate(constraints)}
    constraint_index = {f"__c{i}": i for i in range(len(constraints))}
    order = tuple(g for g, first in state.items() if first is None)

    paths: dict = {}
    for f in order:
        if not isinstance(f, (Exists, All)):
            continue
        # each maximal state subformula and constraint of the path
        # formula becomes a proposition; in NNF only constraints are negated there
        names: dict = {}

        def visit(g: Formula) -> Optional[Formula]:
            if isinstance(g, BoolConst):
                return g
            if state[g] is None:
                return Prop(names.setdefault(g, f"__s{len(names)}"))
            if isinstance(g, Constraint):
                return Prop(constraint_prop[g])
            if isinstance(g, Not):
                return Not(Prop(constraint_prop[g.sub]))
            return None

        psi = rewrite(f.sub, visit)
        if isinstance(f, All):
            psi = negate(psi)  # A psi holds where E ~psi fails
        edges, n_marks, props, sinks = _automaton(psi)
        source = {name: g for g, name in names.items()} | constraint_index
        paths[f] = (edges, n_marks, tuple(source[p] for p in props), sinks)
    return depth, constraints, order, paths


def _label_states(plan: tuple, nodes, label, windows, classes, bits, unknown=None) -> frozenset:
    """The nodes that satisfy a compiled formula, given the windows, their
    successor classes from ``window_skeleton``, the node labels and each
    window's constraint bits: one loop fills every state subformula's node set, children first.

    With ``unknown``, per window the constraints whose truth is not fixed
    yet (their bits are 0), the node sets are upper bounds: a node left
    out satisfies its subformula under no truth of the unknown ones.  The
    NNF negates only literals, so it is monotone in them and in its state
    subformulas.  Under E an unknown constraint meets both a positive and
    a negative guard; A psi is the complement of E ~psi, which needs a
    lower bound, so there it meets neither.  Each letter then carries its
    bits twice, and the positive guards move up to read the upper copy."""
    _, _, order, paths = plan
    all_nodes = frozenset(nodes)
    firsts = [w[0] for w in windows]
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
            edges, n_marks, tracked, sinks = paths[f]
            letters = [0] * len(windows)
            for i, g in enumerate(tracked):  # one pass per tracked proposition
                if type(g) is int:
                    letters = [letter | (b >> g & 1) << i for letter, b in zip(letters, bits)]
                else:
                    holds = sat[g]
                    letters = [letter | (v in holds) << i for letter, v in zip(letters, firsts)]
            if unknown is not None:  # unknown constraints: on in the upper copy for E, in the lower for A
                shift = len(tracked)
                moves = [(g, i) for i, g in enumerate(tracked) if type(g) is int]
                open_bits = [sum((u >> g & 1) << i for g, i in moves) for u in unknown]
                if isinstance(f, Exists):
                    letters = [(letter | x) << shift | letter for letter, x in zip(letters, open_bits)]
                else:
                    letters = [letter << shift | letter | x for letter, x in zip(letters, open_bits)]
                edges = tuple(tuple((pos << shift, neg, target, marks) for pos, neg, target, marks in out)
                              for out in edges)
            found = frozenset(firsts[wi] for wi in _accepted_start_windows(classes, edges, n_marks, letters, sinks))
            sat[f] = found if isinstance(f, Exists) else all_nodes - found
    return sat[order[-1]]


def check_ctlstar(model: ConstraintKripke, formula: Formula, dom=Z_DOMAIN) -> frozenset:
    """Nodes satisfying the state formula; the formula is normalized to
    NNF first, so negated constraints are fine and never need witnesses.

    The formula is compiled once (and cached); on a model, the windows
    are expanded and labelled, and then each state subformula."""
    plan = _compile(formula)
    wm = expand_windows(model, plan[0], plan[1], dom)
    return _label_states(plan, model.nodes, model.label, wm.windows, wm.classes, wm.bits)


# ---------------------------------------------------------------------------
# Independent CTL oracle: classical fixpoints on the window graph


def check_ctl_oracle(model: ConstraintKripke, formula: Formula, dom=Z_DOMAIN) -> frozenset:
    """EX/EU/EG-style fixpoint evaluation for CTL-shaped formulas, kept
    free of the tableau machinery so the two checkers can disagree.  One
    loop fills the node set of every state subformula, children first."""
    formula = to_nnf(formula)
    state = classify_states(formula)  # None marks a state subformula
    constraints = [g for g in state if isinstance(g, Constraint)]
    wm = expand_windows(model, max((c.depth for c in constraints), default=0), constraints, dom)
    if state[formula] is not None:
        raise ModelCheckError("model checking expects a state formula")
    nwin = len(wm.windows)
    firsts = [w[0] for w in wm.windows]
    all_windows = frozenset(range(nwin))
    all_nodes = frozenset(model.nodes)
    cls, members = wm.classes
    preds = [[] for _ in range(nwin)]
    for wi in range(nwin):
        for wj in members[cls[wi]]:
            preds[wj].append(wi)

    def pre_exists(S: frozenset) -> frozenset:
        return frozenset(wi for wi in range(nwin) if any(wj in S for wj in members[cls[wi]]))

    def project(S) -> frozenset:
        return frozenset(firsts[wi] for wi in S)

    def is_arg(f: Formula) -> bool:
        return state[f] is None or isinstance(f, Constraint) or (isinstance(f, Not) and isinstance(f.sub, Constraint))

    def arg_windows(f: Formula) -> frozenset:
        if isinstance(f, Constraint):
            i = wm.constraints.index(f)
            return frozenset(wi for wi in range(nwin) if wm.bits[wi] >> i & 1)
        if isinstance(f, Not) and isinstance(f.sub, Constraint):
            return all_windows - arg_windows(f.sub)
        nodes = sat[f]
        return frozenset(wi for wi in range(nwin) if firsts[wi] in nodes)

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
            keep = {wi for wi in sat if wi in a or any(wj in sat for wj in members[cls[wi]])}
            if keep == sat:
                return frozenset(keep)
            sat = keep

    def quantified(f: Formula) -> frozenset:
        psi = f.sub
        universal = isinstance(f, All)
        if isinstance(psi, Next) and is_arg(psi.sub):
            S = arg_windows(psi.sub)
            if universal:
                return all_nodes - project(pre_exists(all_windows - S))
            return project(pre_exists(S))
        if isinstance(psi, Until) and is_arg(psi.left) and is_arg(psi.right):
            a, b = arg_windows(psi.left), arg_windows(psi.right)
            if universal:
                return all_nodes - project(e_release(all_windows - a, all_windows - b))
            return project(e_until(a, b))
        if isinstance(psi, Release) and is_arg(psi.left) and is_arg(psi.right):
            a, b = arg_windows(psi.left), arg_windows(psi.right)
            if universal:
                return all_nodes - project(e_until(all_windows - a, all_windows - b))
            return project(e_release(a, b))
        if is_arg(psi):
            S = arg_windows(psi)
            if universal:
                return all_nodes - project(all_windows - S)
            return project(S)
        raise ModelCheckError(f"not in the CTL fragment: {f}")

    sat: dict = {}
    for f in [g for g, first in state.items() if first is None]:
        if isinstance(f, Prop):
            sat[f] = frozenset(v for v in model.nodes if f.name in model.label(v))
        elif isinstance(f, BoolConst):
            sat[f] = all_nodes if f.value else frozenset()
        elif isinstance(f, Not):
            sat[f] = all_nodes - sat[f.sub]
        elif isinstance(f, And):
            sat[f] = sat[f.left] & sat[f.right]
        elif isinstance(f, Or):
            sat[f] = sat[f.left] | sat[f.right]
        else:
            sat[f] = quantified(f)
    return sat[formula]
