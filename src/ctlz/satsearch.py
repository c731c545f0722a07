"""Bounded satisfiability search and a reduction consistency harness.

The search enumerates small graph models in a fixed canonical order and
hands each to the model checker, so any hit is verified by construction.
A miss only means no model within the bounds.  The consistency harness
replays the constraint-abstraction argument on finite trees: concrete
truth must survive abstraction plus a register homomorphism, and a
homomorphism witness must convert back into a concrete model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .domains import ConcreteDomain, Z_DOMAIN
from .formulas import (
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
    Release,
    Until,
    abstract_constraints,
    constants_of,
    is_snnf,
    is_state_formula,
    moduli_of,
    propositions_of,
    variables_of,
)
from .homcheck import decide_hom, verify_hom
from .modelcheck import check_ctlstar
from .structures import (
    GRAPH_SHAPE,
    ConstraintKripke,
    abstract_model,
    element_id,
    extract_constraint_graph,
    gamma_map,
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
    mentioned constants, and one minimum-magnitude hit per residue class
    cover the search space.  The same pool comes out for a formula and
    its witness-normalized form because the pool depends only on the
    constant and modulus sets, which normalization preserves.
    """
    r = register_range
    if full_sweep:
        if dom.width == 1:
            return [v for v in range(-r, r + 1) if dom.check_value(v)]
        full = itertools.product(range(-r, r + 1), repeat=dom.width)
        return [t for t in full if dom.check_value(t)]
    pool = {v for v in (-r, 0, r)}
    for c in constants_of(formula):
        for comp in c if isinstance(c, tuple) else (c,):
            if -r <= comp <= r and comp == int(comp):
                pool.add(int(comp))
    for b in moduli_of(formula):
        for a in range(b):
            for k in range(r + 1):
                hit = next((v for v in (k, -k) if -r <= v <= r and v % b == a), None)
                if hit is not None:
                    pool.add(hit)
                    break
    if dom.width == 1:
        return sorted(v for v in pool if dom.check_value(v))
    # tuple-valued domains range each component over the scalar pool, so a
    # search here and one over the interpreted image work at matched bounds
    tuples = itertools.product(sorted(pool), repeat=dom.width)
    return [t for t in tuples if dom.check_value(t)]


# ---------------------------------------------------------------------------
# Canonical bounded search


def _total_edge_masks(n: int):
    """Edge bitmasks (bit i*n+j set means s_i -> s_j) with every node
    keeping at least one successor, in ascending numeric order."""
    row_full = (1 << n) - 1
    for mask in range(1 << (n * n)):
        if all((mask >> (i * n)) & row_full for i in range(n)):
            yield mask


def find_model(formula: Formula, dom: ConcreteDomain = Z_DOMAIN, max_nodes: int = 3,
               register_range: int = 5, full_sweep: bool = False):
    """First (model, node) in canonical order accepted by check_ctlstar,
    or None when the bounds are exhausted.

    Canonical order: node count ascending; edge bitmask ascending; label
    bitmask ascending (only when the formula mentions propositions);
    register assignments lexicographic over the sorted candidate pool.
    """
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
            edges = {
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(n)
                if (mask >> (i * n + j)) & 1
            }
            for label_mask in range(1 << (n * len(props))):
                labels = {}
                for i, v in enumerate(nodes):
                    on = frozenset(
                        p for k, p in enumerate(props) if (label_mask >> (i * len(props) + k)) & 1
                    )
                    if on:
                        labels[v] = on
                for values in itertools.product(pool, repeat=len(reg_cells)):
                    registers = {cell: value for cell, value in zip(reg_cells, values)}
                    model = ConstraintKripke(nodes, edges, labels, registers, list(variables), GRAPH_SHAPE)
                    sat = check_ctlstar(model, formula, dom)
                    if sat:
                        return model, next(v for v in nodes if v in sat)
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


def _path_lookahead(f: Formula) -> int:
    if isinstance(f, (Prop, BoolConst)):
        return 0
    if isinstance(f, Constraint):
        return f.depth
    if isinstance(f, Not):
        return _path_lookahead(f.sub)
    if isinstance(f, (And, Or)):
        return max(_path_lookahead(f.left), _path_lookahead(f.right))
    if isinstance(f, Next):
        return 1 + _path_lookahead(f.sub)
    raise SatSearchError("formula contains U/R/E/A below the top level")


def _check_shape(formula: Formula) -> None:
    if not is_snnf(formula):
        raise SatSearchError("reduction check expects strong negation normal form")

    def state(f: Formula) -> None:
        if isinstance(f, (Prop, BoolConst)):
            return
        if isinstance(f, Not):
            state(f.sub)
            return
        if isinstance(f, (And, Or)):
            state(f.left)
            state(f.right)
            return
        if isinstance(f, (Exists, All)):
            _path_lookahead(f.sub)
            return
        raise SatSearchError(f"not a state formula of the supported shape: {f}")

    state(formula)


def _eval_path(model: ConstraintKripke, path: tuple, i: int, f: Formula, dom) -> bool:
    if isinstance(f, Prop):
        return f.name in model.label(path[i])
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Not):
        return not _eval_path(model, path, i, f.sub, dom)
    if isinstance(f, And):
        return _eval_path(model, path, i, f.left, dom) and _eval_path(model, path, i, f.right, dom)
    if isinstance(f, Or):
        return _eval_path(model, path, i, f.left, dom) or _eval_path(model, path, i, f.right, dom)
    if isinstance(f, Next):
        return _eval_path(model, path, i + 1, f.sub, dom)
    if isinstance(f, Constraint):
        values = tuple(model.gamma(path[i + off], var) for off, var in f.args)
        return dom.eval_relation(f.relation, values)
    raise SatSearchError(f"unsupported path formula node {f!r}")


def _descending_paths(model: ConstraintKripke, node: str, length: int):
    paths = [(node,)]
    for _ in range(length):
        grown = []
        for p in paths:
            for s in model.successors(p[-1]):
                grown.append(p + (s,))
        paths = grown
    return paths


def eval_bounded(model: ConstraintKripke, node: str, formula: Formula, dom: ConcreteDomain = Z_DOMAIN) -> bool:
    """Truth at a tree node for formulas whose path parts use only X and
    boolean connectives; path quantifiers range over the descending
    sequences long enough for every lookahead (shorter branches cannot
    carry an infinite path and are ignored)."""
    if isinstance(formula, Prop):
        return formula.name in model.label(node)
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Not):
        return not eval_bounded(model, node, formula.sub, dom)
    if isinstance(formula, And):
        return eval_bounded(model, node, formula.left, dom) and eval_bounded(model, node, formula.right, dom)
    if isinstance(formula, Or):
        return eval_bounded(model, node, formula.left, dom) or eval_bounded(model, node, formula.right, dom)
    if isinstance(formula, (Exists, All)):
        psi = formula.sub
        need = _path_lookahead(psi)
        paths = _descending_paths(model, node, need)
        if isinstance(formula, Exists):
            return any(_eval_path(model, p, 0, psi, dom) for p in paths)
        return all(_eval_path(model, p, 0, psi, dom) for p in paths)
    raise SatSearchError(f"unsupported formula node {formula!r}")


def _strip_table_props(model: ConstraintKripke, table) -> ConstraintKripke:
    table_props = {entry.prop for entry in table}
    labels = {}
    for v in model.nodes:
        kept = model.label(v) - table_props
        if kept:
            labels[v] = kept
    return ConstraintKripke(
        list(model.nodes), set(model.edges), labels, dict(model.registers), list(model.variables), model.shape
    )


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
            stripped = _strip_table_props(abstracted, table)
            rebuilt = ConstraintKripke(
                list(model.nodes), set(model.edges), dict(stripped.labels), registers,
                list(model.variables), model.shape,
            )
            if not eval_bounded(rebuilt, "", formula, dom):
                issues.append("homomorphism witness installed as registers fails the formula")
        elif holds:
            issues.append("homomorphism decision is negative although the concrete registers form one")

    return ReductionReport(holds, holds_a, forward_checked, backward_checked, tuple(issues))
