"""Bounded satisfiability search and a reduction consistency harness.

The search enumerates small graph models in a fixed canonical order:
node count, edge masks ascending, labellings, register assignments.  Of
the edge masks it visits only the smallest of each isomorphism class,
which cannot move the first model (a renamed copy of it at a smaller
mask would have been found first).  Per edge mask the window graph is
built once, and the model checker's state labelling runs once per
distinct vector of constraint truths on the windows, which is all it
depends on besides the graph and the labels.  Register cells are set
in stages, in the same lexicographic order; at the end of a stage, one
labelling with the constraints not yet valued left open bounds the
nodes any completion can satisfy, and a prefix whose bound is empty is
skipped whole (see find_model).  The hit is confirmed by check_ctlstar
on the returned model, so it is verified by construction.  A miss only
means no model within the bounds.  Every model of an existential
formula (ECTL*) embeds in the complete graph, so one sweep of it decides
a miss; the sweep starts by a ski-rental rule and is skipped past
WINDOW_LIMIT (see find_model).  The consistency harness
replays the constraint-abstraction argument on finite trees: concrete
truth must survive abstraction plus a register homomorphism, and a
homomorphism witness must convert back into a concrete model.  Its
evaluator, eval_bounded, checks the formula's shape and the registers
it reads before it reads the tree, then values each distinct node once
per window that starts at the evaluated node, so a formula that reuses
subformulas costs its distinct nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from operator import itemgetter

from .domains import ConcreteDomain, Z_DOMAIN
from .formulas import (
    CONSTANT,
    MODULO,
    All,
    And,
    BoolConst,
    Constraint,
    Exists,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    _children,
    abstract_constraints,
    classify_states,
    constraints_of,
    is_snnf,
    is_state_formula,
    postorder,
    variables_of,
)
from .homcheck import decide_hom, verify_hom
from .modelcheck import WINDOW_LIMIT, _compile, _label_states, check_ctlstar, window_skeleton
from .structures import (
    GRAPH_SHAPE,
    ConstraintKripke,
    abstract_model,
    element_id,
    extract_constraint_graph,
    gamma_map,
    register_fault,
)


class SatSearchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Candidate register values


def candidate_values(formula: Formula, register_range: int, dom: ConcreteDomain = Z_DOMAIN,
                     full_sweep: bool = False) -> list:
    """Finite generator set for register values in [-r, r].

    Order/equality/modulo constraints cannot tell apart values that agree
    on the mentioned constants and residue classes, so boundary values,
    mentioned constants (a fraction where the domain holds it, as Q
    does), and one minimum-magnitude hit per residue class cover the
    search space.  The same pool comes out for a formula and
    its witness-normalized form because the pool depends only on the
    constant and modulus sets, which normalization preserves.  The full
    sweep takes every integer in [-r, r] and the constants.
    """
    r = register_range
    relations = [c.relation for c in constraints_of(formula)]
    pool = set(range(-r, r + 1)) if full_sweep else {-r, 0, r}
    for c in {rel.params[0] for rel in relations if rel.kind == CONSTANT}:
        for comp in c if isinstance(c, tuple) else (c,):
            if -r <= comp <= r:  # the domain's check below drops a fraction it lacks
                pool.add(int(comp) if comp == int(comp) else comp)
    for b in {rel.params[1] for rel in relations if rel.kind == MODULO}:
        # residue a's value nearest 0 is a or a - b, the positive one on a tie
        pool.update(v for v in (a if 2 * a <= b else a - b for a in range(b)) if -r <= v <= r)
    if dom.width == 1:
        return sorted(v for v in pool if dom.check_value(v))
    # tuple-valued domains range each component over the scalar pool, so a
    # search here and one over the interpreted image work at matched bounds
    tuples = itertools.product(sorted(pool), repeat=dom.width)
    return [t for t in tuples if dom.check_value(t)]


# ---------------------------------------------------------------------------
# Canonical bounded search


@lru_cache(maxsize=4096)  # every total mask up to three nodes
def _is_orbit_minimal(mask: int, n: int) -> bool:
    """Whether no renaming of the n nodes gives a smaller edge bitmask.
    A renaming sigma sends old node sigma[k] to new node k; rows are
    compared from the most significant (the last node) down, and each
    renaming is dropped at its first row that differs."""
    row_full = (1 << n) - 1
    rows = [(mask >> (i * n)) & row_full for i in range(n)]
    for sigma in itertools.permutations(range(n)):
        for k in range(n - 1, -1, -1):
            old = rows[sigma[k]]
            row = sum(1 << k2 for k2 in range(n) if old >> sigma[k2] & 1)
            if row != rows[k]:
                if row < rows[k]:
                    return False
                break
    return True


def _search_masks(n: int):
    """Edge bitmasks (bit i*n+j set means s_i -> s_j) with every node
    keeping at least one successor, in ascending numeric order, each the
    smallest of its isomorphism class."""
    row_full = (1 << n) - 1
    for mask in range(1 << (n * n)):
        if all((mask >> (i * n)) & row_full for i in range(n)) and _is_orbit_minimal(mask, n):
            yield mask


class _TruthTable(dict):
    """The truth of one constraint keyed by the pool indices of its
    arguments (one index for a unary relation), filled on first use."""

    def __init__(self, holds, pool, arity: int):
        super().__init__()
        self.holds, self.pool, self.unary = holds, pool, arity == 1

    def __missing__(self, key):
        pool = self.pool
        truth = self[key] = self.holds((pool[key],) if self.unary else tuple(pool[j] for j in key))
        return truth


def _cuts(plan: tuple, n_values: int, atoms, n_cells: int, n_windows: int) -> list:
    """The prefix lengths, in register cells, at which the search checks
    its bound: those where some atom has just become known and some is
    still unknown, and whose completions, ``n_values`` for each of the
    cells left, are at least the passes of one bound call over the
    ``n_windows`` windows, once per tracked proposition of each path
    formula and once more in the product (a ski-rental rule)."""
    if n_cells < 2:
        return []
    cost = n_windows * (1 + sum(len(path[2]) for path in plan[3].values()))
    levels = sorted({max(cells) for _, cells in atoms})  # the highest cells the atoms read
    return [level + 1 for level in levels[:-1] if n_values ** (n_cells - level - 1) >= cost]


def _first_hit(search: tuple, k: int, prefix: tuple, truth: int):
    """The first hit among the completions of a prefix of pool indices
    that ends where stage k starts, as (pool indices, satisfying nodes),
    or None.  ``search`` is (stages, the pool's indices, per window its
    atoms' bits, memo, state labelling); a stage is (where it ends, its
    atoms, the tag of its memo keys, the constraints still unknown at its
    end, or None in the last stage, which values them all)."""
    stages, indices, rows, memo, label_states = search
    end, readers, tag, unknown = stages[k]
    for rest in itertools.product(indices, repeat=end - len(prefix)):
        values = prefix + rest
        t = sum([bit for bit, table, read in readers if table[read(values)]], truth)
        sat = memo.get(t | tag)
        if sat is None:
            bits = [sum((t >> a & 1) << ci for ci, a in enumerate(row)) for row in rows]
            sat = memo[t | tag] = label_states(bits, unknown)
        if sat:
            if unknown is None:
                return values, sat
            hit = _first_hit(search, k + 1, values, t)
            if hit:
                return hit
    return None


def _sweep_graph(plan: tuple, tables: list, pool: list, props: tuple, variables: tuple, nodes: list, edges: set):
    """The number of windows of one graph, and its first labelling and
    register assignment in canonical order under which some node
    satisfies the compiled formula, as (labels, registers, satisfying
    nodes), or None when there is none.  The register cells are set in
    stages split at the cuts (``_cuts``), with a bound call between
    stages (see find_model)."""
    depth, constraints = plan[0], plan[1]
    position = {v: i for i, v in enumerate(nodes)}
    var_index = {x: k for k, x in enumerate(variables)}
    reg_cells = [(v, x) for v in nodes for x in variables]
    windows, classes = window_skeleton(nodes, edges, depth)
    atoms: dict = {}  # (constraint index, cells read) -> bit position
    window_atoms = []
    for w in windows:
        row = []
        for ci, c in enumerate(constraints):
            cells = tuple(position[w[off]] * len(variables) + var_index[var] for off, var in c.args)
            row.append(atoms.setdefault((ci, cells), len(atoms)))
        window_atoms.append(row)
    cuts = _cuts(plan, len(pool), atoms, len(reg_cells), len(windows))
    readers = [(1 << a, tables[ci], itemgetter(*cells)) for a, (ci, cells) in enumerate(atoms)]
    stages = []
    if cuts:  # per stage, the atoms whose highest cell it sets
        levels = [max(cells) for _, cells in atoms]
        for k, (start, end) in enumerate(zip([0] + cuts, cuts)):
            mine = [r for r, level in zip(readers, levels) if start <= level < end]
            # a bit above the atoms tags the cut's memo keys
            unknown = [sum(1 << ci for ci, a in enumerate(row) if levels[a] >= end) for row in window_atoms]
            stages.append((end, mine, 1 << (len(atoms) + k), unknown))
        readers = [r for r, level in zip(readers, levels) if level >= cuts[-1]]
    stages.append((len(reg_cells), readers, 0, None))
    for label_mask in range(1 << (len(nodes) * len(props))):
        labels = {}
        for i, v in enumerate(nodes):
            on = frozenset(p for k, p in enumerate(props) if (label_mask >> (i * len(props) + k)) & 1)
            if on:
                labels[v] = on
        label = {v: labels.get(v, frozenset()) for v in nodes}.__getitem__
        label_states = partial(_label_states, plan, nodes, label, windows, classes)
        hit = _first_hit((stages, range(len(pool)), window_atoms, {}, label_states), 0, (), 0)
        if hit:
            values, sat = hit
            return len(windows), (labels, {cell: pool[j] for cell, j in zip(reg_cells, values)}, sat)
    return len(windows), None


def find_model(formula: Formula, dom: ConcreteDomain = Z_DOMAIN, max_nodes: int = 3,
               register_range: int = 5, full_sweep: bool = False):
    """First (model, node) in canonical order accepted by check_ctlstar,
    or None when the bounds are exhausted.

    Canonical order: node count ascending; edge bitmask ascending,
    restricted to the masks that are the smallest of their isomorphism
    class; label bitmask ascending (only when the formula mentions
    propositions); register assignments lexicographic over the sorted
    candidate pool.  The restriction cannot move the first model: were
    its mask M larger than a renamed copy p(M), the renamed model, with
    labels and registers carried along, would satisfy the formula at the
    earlier mask p(M).

    Per mask the window graph is built once.  The checker's answer then
    depends only on the labels and on which constraints hold on which
    windows, and each constraint's truth on a window depends only on the
    pool indices of the registers it reads; so the truth tables over
    those indices are filled lazily, and the state labelling is computed
    once per distinct vector of truths.  The hit is confirmed by one call
    of check_ctlstar on the returned model, which also picks the node.

    Register cells are ordered node-major, the last cell changing
    fastest.  An atom, one constraint on the cells of one window, is
    valued when the highest cell it reads is set, into one bit of a
    truth int that keys the memo.  At a prefix the atoms above it are
    unknown, and one bound call of the state labelling says which nodes
    some completion can satisfy.  The NNF negates only literals, so it
    is monotone in them: under E an unknown literal meets both a
    positive and a negative guard; A psi is decided as the complement of
    E ~psi, whose lower bound lets an unknown literal meet neither; state
    subformulas read their own bounds.  When no node is in the bound, no
    completion is a model, so skipping them leaves the visited
    assignments in order and cannot move the first model.  A check costs
    one labelling, which passes over the windows once per tracked
    proposition and once more in the product, so a prefix is checked only
    where its completions are at least those passes (a ski-rental rule; the
    empty prefix is never checked), and the cells past the deepest check
    are walked one assignment at a time.

    A miss of an existential formula (no A in its NNF) is decided on the
    complete graph K on max_nodes nodes.  Its truth at a node survives
    added nodes and edges: paths are only gained, and negation sits on
    propositions and constraints, which read one path.  So every model
    within the bounds embeds in K, whatever the added nodes carry, and
    K has a model among its labellings and pool assignments exactly when
    some mask has one.  A hit on K changes nothing: the canonical sweep
    goes on.  By the ski-rental rule, K is swept once the masks swept so
    far hold as many windows as K, max_nodes ** (depth + 1), so an early
    hit never pays for it and a miss pays about one mask more.  K is not
    swept when it has more windows than WINDOW_LIMIT, since a sparser
    graph within the limit may still hold a model.
    """
    if not is_state_formula(formula):
        raise SatSearchError("satisfiability search expects a state formula")
    if max_nodes < 1:
        raise SatSearchError("max_nodes must be at least 1")
    if register_range < 0:
        raise SatSearchError("register_range must be nonnegative")
    plan = _compile(formula)
    # NNF keeps each leaf in place: the formula's variables and propositions in order
    variables = list(dict.fromkeys(var for c in plan[1] for _, var in c.args))
    props = [f.name for f in plan[2] if isinstance(f, Prop)]
    pool = candidate_values(formula, register_range, dom, full_sweep)
    if variables and not pool:
        return None
    # a one-node window graph never exceeds the window limit, so asking
    # the domain here raises what the first model check would
    tables = [_TruthTable(dom.relation_test(c.relation), pool, c.relation.arity) for c in plan[1]]
    sweep = partial(_sweep_graph, plan, tables, pool, props, variables)
    budget = max_nodes ** (plan[0] + 1)  # the windows of K
    probe = max_nodes > 1 and budget <= WINDOW_LIMIT and not any(isinstance(f, All) for f in plan[2])
    swept = 0
    for n in range(1, max_nodes + 1):
        nodes = [f"s{i}" for i in range(n)]
        for mask in _search_masks(n):
            if probe and swept >= budget:
                probe = False
                full = [f"s{i}" for i in range(max_nodes)]
                if sweep(full, set(itertools.product(full, repeat=2)))[1] is None:
                    return None
            edges = {
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(n)
                if (mask >> (i * n + j)) & 1
            }
            windows, hit = sweep(nodes, edges)
            if hit is not None:
                labels, registers, sat = hit
                model = ConstraintKripke(nodes, edges, labels, registers, list(variables), GRAPH_SHAPE)
                confirmed = check_ctlstar(model, formula, dom)
                if confirmed != sat:
                    raise RuntimeError(f"check_ctlstar disagrees with the search on {formula}")
                return model, next(v for v in nodes if v in confirmed)
            swept += windows
    return None


# ---------------------------------------------------------------------------
# Reduction consistency on finite trees


@dataclass
class ReductionReport:
    holds_concrete: bool
    holds_abstract: bool
    forward_checked: bool
    backward_checked: bool
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues


def _lookaheads(f: Formula) -> dict:
    """Each distinct node of f, in postorder, mapped to how many steps past
    its start it reads as a path formula of X and boolean connectives, or
    to None when it is no such formula."""
    need: dict = {}
    for g in postorder(f):
        if isinstance(g, (Next, Not, And, Or)):
            kids = [need[kid] for kid in _children(g)]
            need[g] = None if None in kids else max(kids) + isinstance(g, Next)
        elif isinstance(g, (Prop, BoolConst, Constraint)):
            need[g] = g.depth if isinstance(g, Constraint) else 0
        else:
            need[g] = None
    return need


def _check_shape(formula: Formula) -> dict:
    """The lookaheads of a state formula whose path parts use only X and
    boolean connectives; any other formula is refused."""
    need = _lookaheads(formula)
    first = classify_states(formula, lambda q: need[q.sub] is not None)[formula]
    if isinstance(first, (Exists, All)):
        raise SatSearchError("formula contains U/R/E/A below the top level")
    if first is not None:
        raise SatSearchError(f"not a state formula of the supported shape: {first}")
    return need


def eval_bounded(model: ConstraintKripke, node: str, formula: Formula, dom: ConcreteDomain = Z_DOMAIN) -> bool:
    """Truth at a tree node for formulas whose path parts use only X and
    boolean connectives; path quantifiers range over the descending
    sequences long enough for every lookahead (shorter branches cannot
    carry an infinite path and are ignored).

    The tree, the shape, the registers the formula reads and the
    domain's relations are checked up front, so a refusal does not
    depend on where the node that causes it sits.  Each distinct node is
    then valued on a window, in one postorder pass, as the bits of its
    truths at the positions it can read, bit i for position i: X drops
    the first position, and a constraint of depth k reads k positions
    fewer.  Bits past those positions are left unspecified, and no step
    moves them down into one.  The state level is the window of the node
    alone, and a quantifier's body is valued once per window of its
    lookahead that starts at the node.
    """
    if not model.is_tree:
        raise SatSearchError("reduction check expects a tree-shaped model")
    need = _check_shape(formula)
    if fault := register_fault(model, variables_of(formula), dom):
        raise SatSearchError(fault)
    order = postorder(formula)
    tests = {g: dom.relation_test(g.relation) for g in order if isinstance(g, Constraint)}

    def holds(window: tuple, nodes: list) -> bool:
        bits: dict = {}
        for g in nodes:
            cls = type(g)
            if cls is Prop:
                bits[g] = sum(1 << i for i, v in enumerate(window) if g.name in model.label(v))
            elif cls is BoolConst:
                bits[g] = -g.value  # all ones or none
            elif cls is Constraint:
                reads = (tuple(model.registers[(window[i + off], var)] for off, var in g.args)
                         for i in range(len(window) - g.depth))
                bits[g] = sum(1 << i for i, values in enumerate(reads) if tests[g](values))
            elif cls is Next:
                bits[g] = bits[g.sub] >> 1
            elif cls is Not:
                bits[g] = ~bits[g.sub]
            elif cls is And:
                bits[g] = bits[g.left] & bits[g.right]
            elif cls is Or:
                bits[g] = bits[g.left] | bits[g.right]
            else:  # a quantifier, at the node: its descendants d below end the windows
                d, body = need[g.sub], postorder(g.sub)
                ends = (v for v in model.nodes if len(v) == len(node) + d and v.startswith(node))
                truths = (holds(tuple([v[: len(node) + i] for i in range(d + 1)]), body) for v in ends)
                bits[g] = -(any(truths) if cls is Exists else all(truths))
        return bool(bits[nodes[-1]] & 1)

    return holds((node,), order)


def reduction_consistency(model: ConstraintKripke, formula: Formula, dom: ConcreteDomain = Z_DOMAIN) -> ReductionReport:
    """Cross-check concrete truth against abstraction plus homomorphism.

    Forward: if the tree satisfies the formula, the abstracted tree must
    satisfy the abstracted formula and the register map must be a
    homomorphism of the extracted constraint graph.  Backward: when the
    abstraction holds and the homomorphism decision produces a witness,
    installing the witness as registers must satisfy the formula.
    """
    if not model.is_tree:
        raise SatSearchError("reduction check expects a tree-shaped model")
    if not is_snnf(formula):
        raise SatSearchError("reduction check expects strong negation normal form")
    _check_shape(formula)
    if dom.name not in ("Z", "N", "negZ", "Q"):
        raise SatSearchError(f"no homomorphism target for domain {dom.name!r}")

    issues = []
    holds = eval_bounded(model, "", formula, dom)
    phi_a, table = abstract_constraints(formula)
    abstracted = abstract_model(model, table, dom)
    holds_a = eval_bounded(abstracted, "", phi_a, dom)
    graph = extract_constraint_graph(abstracted, table)

    forward_checked = False
    if holds:
        forward_checked = True
        if not holds_a:
            issues.append("model satisfies the formula but the abstracted tree fails the abstracted formula")
        ok, why = verify_hom(graph, gamma_map(model), dom.name, explain=True)
        if not ok:
            issues.append(f"registers are not a homomorphism of the extracted graph: {why}")

    backward_checked = False
    if holds_a:
        backward_checked = True
        decision = decide_hom(graph, dom.name)
        if decision.verdict:
            registers = {
                (v, x): decision.witness[element_id(v, x)]
                for v in model.nodes
                for x in model.variables
            }
            if not eval_bounded(replace(model, registers=registers), "", formula, dom):
                issues.append("homomorphism witness installed as registers fails the formula")
        elif holds:
            issues.append("homomorphism decision is negative although the concrete registers form one")

    return ReductionReport(holds, holds_a, forward_checked, backward_checked, tuple(issues))
