"""The shared node core against the passes it replaced.

CTL* formulas were rewritten by a stack engine that called ``visit`` once
per occurrence (``plain_rewrite``) and put into negation normal form by a
stack pass of its own (``plain_nnf``); modelcheck flagged state
subformulas with a walk of its own (``plain_state_flags``).  MSO
sentences were rewritten by generator frames (``plain_mso_rewrite``)
whose steps rebuilt a node from its rewritten children
(``plain_rebuilt``).  Now every pass is a step on one engine,
``formulas.transform``.  The structural queries walked every occurrence
(``plain_subformulas`` and the collectors on it), and the state test, the
lookahead and the shape check of the reduction harness had stack loops
of their own (``plain_is_state_formula``, ``plain_path_lookahead``,
``plain_check_shape``); now they all read ``formulas.postorder``.  The
harness's evaluator walked every occurrence with a left-first short
circuit and read each quantifier body along every descending path
(``plain_eval_bounded``), and ``abstract_model`` and
``extract_constraint_graph`` sliced each node's window by hand
(``plain_abstract_labels``, ``plain_extract_rows``); now the evaluator
values each distinct node once per window that starts at the evaluated
node, and the other two read ``structures.tree_windows``.  On seeded
random formulas, most of them DAGs that reuse subformulas:

- ``to_nnf``, ``negate`` and ``to_snnf`` over Z, N, Q, allenZ and
  lexZ[2], ``abstract_constraints``, ``substitute_props``,
  ``apply_interpretation`` and ``modelcheck._compile`` return the very
  objects the callers return on the reference passes;
- every collector returns the reference list in the reference order, and
  the state test, the lookahead and the shape check give the reference
  answers and raise the reference texts;
- on random trees, ``eval_bounded`` gives the reference verdicts at the
  root and at inner nodes, and refuses every ill-shaped formula the
  reference refused (and, since it checks before it evaluates, those
  whose bad part the short circuit skipped); ``abstract_model`` places
  the reference labels, and ``extract_constraint_graph`` gives the
  reference rows in their order or the reference refusal;
- ``subst_fo`` and ``relativize`` return the very sentences they return
  on the reference MSO engine;
- ``emit_hom_sentence`` prints, with ``repr`` and ``to_sexpr``, the text
  the reference passes printed, pinned by its sha256 per target.
"""

import hashlib
import operator
import random
import time
from functools import partial

import pytest

from ctlz import (
    EQ,
    LT,
    Z_DOMAIN,
    abstract_constraints,
    apply_interpretation,
    const_rel,
    domain_by_name,
    emit_hom_sentence,
    interpretation_by_name,
    mod_rel,
    negate,
    relation_from_name,
    relativize,
    substitute_props,
    to_nnf,
    to_snnf,
    to_sexpr,
)
from ctlz import domains, formulas, modelcheck, mso, satsearch, structures
from ctlz.formulas import (
    FALSE,
    TRUE,
    All,
    And,
    BoolConst,
    Constraint,
    Exists,
    Next,
    Not,
    Or,
    Prop,
    Release,
    Until,
    _children,
    postorder,
)
from ctlz.satsearch import SatSearchError
from ctlz.structures import StructureError, element_id
from ctlz.mso import Atom, Conj, Disj, ExistsFO, ExistsSet, ForallFO, ForallSet, Implies, In, Neg, subst_fo
from conftest import random_tree_model, random_xonly_formula


# ---------------------------------------------------------------------------
# Reference passes


def plain_rewrite(f, visit):
    done: list = []
    stack: list = [f]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its children are rewritten
            (node,) = node
            kids = _children(node)
            new = done[-len(kids):]
            del done[-len(kids):]
            done.append(node if all(map(operator.is_, new, kids)) else type(node)(*new))
        elif (replacement := visit(node)) is not None:
            done.append(replacement)
        elif kids := _children(node):
            stack += [(node,), *reversed(kids)]
        else:
            done.append(node)
    return done[0]


_BINARY = (And, Or, Until, Release)
_DUAL = {And: Or, Or: And, Exists: All, All: Exists, Next: Next, Until: Release, Release: Until}


def plain_nnf(f, negated: bool):
    done: list = []
    stack: list = [(f, negated)]
    while stack:
        node, mark = stack.pop()
        if mark is True or mark is False:
            cls = type(node)
            if cls is Not:
                stack.append((node.sub, not mark))
            elif cls in _DUAL:
                stack.append((node, _DUAL[cls] if mark else cls))
                if cls in _BINARY:
                    stack.append((node.right, mark))
                    stack.append((node.left, mark))
                else:
                    stack.append((node.sub, mark))
            elif cls is BoolConst:
                done.append((FALSE if node.value else TRUE) if mark else node)
            elif cls is Prop or cls is Constraint:
                done.append(Not(node) if mark else node)
            else:
                raise TypeError(f"not a formula: {node!r}")
        elif mark in _BINARY:
            right = done.pop()
            left = done.pop()
            same = mark is type(node) and left is node.left and right is node.right
            done.append(node if same else mark(left, right))
        else:
            sub = done.pop()
            done.append(node if mark is type(node) and sub is node.sub else mark(sub))
    return done[0]


def plain_state_flags(nnf) -> dict:
    state: dict = {}
    stack = [(nnf, False)]
    while stack:
        g, built = stack.pop()
        if built and isinstance(g, (Not, And, Or)):
            state[g] = all(state[kid] for kid in _children(g))
        elif built:
            state[g] = isinstance(g, (Prop, BoolConst, Exists, All))
        elif g not in state:
            stack.append((g, True))
            stack.extend((kid, False) for kid in reversed(_children(g)))
    return state


def plain_classify_states(nnf) -> dict:
    """``classify_states`` as ``_compile`` reads it: None on the state
    subformulas of ``plain_state_flags``."""
    return {g: None if is_state else g for g, is_state in plain_state_flags(nnf).items()}


def plain_subformulas(f):
    """Every subformula occurrence in preorder, left to right."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(_children(f)))


def plain_is_state_formula(f) -> bool:
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, (Not, And, Or)):
            stack.extend(_children(f))
        elif not isinstance(f, (Prop, BoolConst, Exists, All)):
            return False
    return True


def plain_constraints_of(f) -> list:
    return list(dict.fromkeys(sub for sub in plain_subformulas(f) if isinstance(sub, Constraint)))


def plain_collectors(f) -> tuple:
    """What the structural queries returned on the occurrence walk."""
    subs = list(plain_subformulas(f))
    constraints = plain_constraints_of(f)
    return (
        constraints,
        list(dict.fromkeys(var for c in constraints for _, var in c.args)),
        list(dict.fromkeys(sub.name for sub in subs if isinstance(sub, Prop))),
        max([sub.depth for sub in subs if isinstance(sub, Constraint)], default=0),
        all(isinstance(sub.sub, (Prop, Constraint)) for sub in subs if isinstance(sub, Not)),
        all(isinstance(sub.sub, Prop) for sub in subs if isinstance(sub, Not)),
        len({sub for sub in plain_subformulas(to_nnf(f)) if isinstance(sub, Exists)}),
        plain_is_state_formula(f),
    )


def collectors(f) -> tuple:
    return (
        formulas.constraints_of(f),
        formulas.variables_of(f),
        formulas.propositions_of(f),
        formulas.max_constraint_depth(f),
        formulas.is_nnf(f),
        formulas.is_snnf(f),
        formulas.count_e(f)[0],
        formulas.is_state_formula(f),
    )


def plain_path_lookahead(f) -> int:
    need = 0
    stack = [(f, 0)]
    while stack:
        g, steps = stack.pop()
        if isinstance(g, (Prop, BoolConst)):
            need = max(need, steps)
        elif isinstance(g, Constraint):
            need = max(need, steps + g.depth)
        elif isinstance(g, Next):
            stack.append((g.sub, steps + 1))
        elif isinstance(g, (Not, And, Or)):
            stack.extend((kid, steps) for kid in _children(g))
        else:
            raise SatSearchError("formula contains U/R/E/A below the top level")
    return need


def plain_check_shape(formula) -> None:
    if not all(isinstance(sub.sub, Prop) for sub in plain_subformulas(formula) if isinstance(sub, Not)):
        raise SatSearchError("reduction check expects strong negation normal form")
    stack = [formula]  # left operands first
    while stack:
        f = stack.pop()
        if isinstance(f, (Not, And, Or)):
            stack.extend(reversed(_children(f)))
        elif isinstance(f, (Exists, All)):
            plain_path_lookahead(f.sub)
        elif not isinstance(f, (Prop, BoolConst)):
            raise SatSearchError(f"not a state formula of the supported shape: {f}")


def _outcome(check, f):
    """What ``check(f)`` returns, or the type and text of what it raises."""
    try:
        return check(f)
    except SatSearchError as exc:
        return type(exc), str(exc)


def _refusal(outcome):
    """The type and text of a refusal, or None for any other outcome."""
    return outcome if type(outcome) is tuple else None


def plain_mso_rewrite(f, step, ctx=None):
    done: dict = {}
    frames = [((f, ctx), step(f, ctx))]
    value = None
    while frames:
        key, frame = frames[-1]
        try:
            request = frame.send(value)
        except StopIteration as stop:
            frames.pop()
            value = done[key] = stop.value
            continue
        value = done.get(request)
        if value is None:
            frames.append((request, step(*request)))
    return value


def plain_rebuilt(f, ctx):
    kids = []
    for c in _children(f):
        kids.append((yield c, ctx))
    if not kids:
        return f
    return type(f)(f.var, *kids) if isinstance(f, mso._QUANT) else type(f)(*kids)


def _reference_ctl_passes(m: pytest.MonkeyPatch) -> None:
    for module in (formulas, domains, modelcheck):
        m.setattr(module, "rewrite", plain_rewrite)
    for module in (formulas, modelcheck):
        m.setattr(module, "to_nnf", lambda f: plain_nnf(f, False))
    m.setattr(modelcheck, "negate", lambda f: plain_nnf(f, True))
    m.setattr(modelcheck, "classify_states", plain_classify_states)


# ---------------------------------------------------------------------------
# Random inputs

RELATIONS = {
    "Z": (LT, EQ, const_rel(0), const_rel(2), mod_rel(1, 2)),
    "N": (LT, EQ, const_rel(0), const_rel(-1), mod_rel(0, 2)),
    "Q": (LT, EQ, const_rel(1), const_rel(0)),
    "lexZ[2]": (relation_from_name("ltlex"), relation_from_name("eqlex")),
    "allenZ": (EQ, relation_from_name("m"), relation_from_name("b"), relation_from_name("o")),
}


def _random_formula(rng, relations, depth: int, pool: list):
    """A CTL* formula over the relations that takes a fifth of its
    subformulas from ``pool``, the subformulas built before it, so equal
    subformulas recur at several positions."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    roll = rng.random()
    if depth <= 0 or roll < 0.1:
        leaf = rng.random()
        if leaf < 0.2:
            f = Prop(rng.choice("pq"))
        elif leaf < 0.3:
            f = BoolConst(leaf < 0.25)
        else:
            rel = rng.choice(relations)
            f = Constraint(rel, [(rng.randint(0, 2), rng.choice("xy")) for _ in range(rel.arity)])
    elif roll < 0.25:
        f = Not(_random_formula(rng, relations, depth - 1, pool))
    elif roll < 0.5:
        f = rng.choice((Exists, All, Next))(_random_formula(rng, relations, depth - 1, pool))
    else:
        cls = rng.choice((And, Or, Until, Release))
        f = cls(_random_formula(rng, relations, depth - 1, pool), _random_formula(rng, relations, depth - 1, pool))
    pool.append(f)
    return f


def _random_state_formula(rng, relations, depth: int, pool: list):
    f = rng.choice((Exists, All))(_random_formula(rng, relations, depth, pool))
    if rng.random() < 0.4:
        f = rng.choice((And, Or))(f, Not(rng.choice((Exists, All))(_random_formula(rng, relations, depth, pool))))
    return f


# ---------------------------------------------------------------------------
# CTL* passes


@pytest.mark.parametrize("domain", list(RELATIONS))
def test_normal_forms_and_abstraction_are_the_reference_objects(domain, monkeypatch):
    rng = random.Random(f"nodes-{domain}")
    dom = domain_by_name(domain)
    pool: list = []
    cases = [_random_formula(rng, RELATIONS[domain], rng.randint(2, 6), pool) for _ in range(150)]

    def outputs(f):
        snnf = to_snnf(f, dom)
        abstracted, table = abstract_constraints(snnf)
        return snnf, abstracted, table, substitute_props(abstracted, table)

    new = [outputs(f) for f in cases]
    with monkeypatch.context() as m:
        _reference_ctl_passes(m)
        reference = [outputs(f) for f in cases]
    for f, got, want in zip(cases, new, reference):
        assert to_nnf(f) is plain_nnf(f, False) and negate(f) is plain_nnf(f, True), str(f)
        assert got[0] is want[0] and got[1] is want[1] and got[3] is want[3], str(f)
        assert got[2] == want[2], str(f)
    # a DAG: many formulas hold some subformula at more than one position
    assert sum(len(postorder(f)) < _occurrences(f) for f in cases) >= 40


def _occurrences(f) -> int:
    """The number of subformula occurrences of f, its size as a tree."""
    size: dict = {}
    for g in postorder(f):
        size[g] = 1 + sum(size[kid] for kid in _children(g))
    return size[f]


@pytest.mark.parametrize("name", ["allenZ", "lexZ[2]", "identity"])
def test_interpretations_are_the_reference_objects(name, monkeypatch):
    rng = random.Random(f"interp-{name}")
    interp = interpretation_by_name(name)
    relations = [relation_from_name(rel, arity) for rel, arity, _ in interp.relations]
    pool: list = []
    cases = [_random_state_formula(rng, relations, rng.randint(1, 4), pool) for _ in range(100)]
    new = [apply_interpretation(interp, f) for f in cases]
    with monkeypatch.context() as m:
        _reference_ctl_passes(m)
        reference = [apply_interpretation(interp, f) for f in cases]
    for f, got, want in zip(cases, new, reference):
        assert got is want, str(f)


def test_compiled_plans_are_the_reference_plans(monkeypatch):
    """The state subformulas in the same order, and every path formula
    over the same ``__s`` names for the same subformulas.  The tableau
    lists obligations in set order, which follows node addresses, so the
    path formulas are kept alive: both runs then build their automata
    from the very same nodes.  Automata are cached per path formula, so
    the cache is cleared before each run."""
    rng = random.Random(91)
    pool: list = []
    cases = [_random_state_formula(rng, RELATIONS["Z"], rng.randint(1, 3), pool) for _ in range(200)]
    paths: list = []
    tableau = modelcheck.ltl_to_buchi
    monkeypatch.setattr(modelcheck, "ltl_to_buchi", lambda psi: paths.append(psi) or tableau(psi))
    modelcheck._automaton.cache_clear()
    new = [modelcheck._compile.__wrapped__(f) for f in cases]
    new_paths, paths[:] = paths[:], []
    modelcheck._automaton.cache_clear()
    with monkeypatch.context() as m:
        _reference_ctl_passes(m)
        reference = [modelcheck._compile.__wrapped__(f) for f in cases]
    assert len(new_paths) == len(paths) and all(map(operator.is_, new_paths, paths))
    for f, got, want in zip(cases, new, reference):
        assert len(got[2]) == len(want[2]) and all(map(operator.is_, got[2], want[2])), str(f)
        assert got == want, str(f)


@pytest.mark.parametrize("domain", list(RELATIONS))
def test_structural_queries_are_the_reference_answers(domain):
    """Same lists in the same order, and the classifier marks the state
    subformulas that the reference walk flagged, in the same order."""
    rng = random.Random(f"queries-{domain}")
    pool: list = []
    cases = [_random_formula(rng, RELATIONS[domain], rng.randint(1, 6), pool) for _ in range(150)]
    cases += [_random_state_formula(rng, RELATIONS[domain], rng.randint(1, 4), pool) for _ in range(100)]
    for f in cases:
        assert collectors(f) == plain_collectors(f), str(f)
        state = formulas.classify_states(f)
        assert list(state) == list(plain_state_flags(f)), str(f)
        assert {g: first is None for g, first in state.items()} == plain_state_flags(f), str(f)
    assert sum(formulas.is_state_formula(f) for f in cases) >= 100
    assert sum(len(postorder(f)) < _occurrences(f) for f in cases) >= 40


def _random_skeleton(rng, depth: int, pool: list):
    """A formula for the reduction harness's shape check: a boolean
    skeleton over propositions, quantified X-only bodies, and now and
    then a body that reads U, R or E, a stray path node, or a negation
    outside strong negation normal form; a fifth of its parts come from
    ``pool``."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        kind = rng.random()
        quant = rng.choice((Exists, All))
        if kind < 0.2:
            f = Prop(rng.choice("pq"))
        elif kind < 0.6:
            f = quant(_xonly(rng, 3, pool))
        elif kind < 0.8:
            body = rng.choice((Until, Release))(_xonly(rng, 1, pool), _xonly(rng, 1, pool))
            f = quant(rng.choice((body, Next(quant(_xonly(rng, 1, pool))), And(_xonly(rng, 1, pool), body))))
        elif kind < 0.95:
            f = rng.choice((Next(Prop("p")), _xonly(rng, 2, pool), Until(Prop("p"), Prop("q"))))
        else:
            f = Not(quant(_xonly(rng, 1, pool)))
    elif roll < 0.4:
        f = Not(Prop(rng.choice("pq")))
    else:
        f = rng.choice((And, Or))(_random_skeleton(rng, depth - 1, pool), _random_skeleton(rng, depth - 1, pool))
    pool.append(f)
    return f


def _xonly(rng, depth: int, pool: list):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((Prop("p"), TRUE, Not(Prop("q")), Constraint(LT, [(rng.randint(0, 2), "x"), (0, "y")])))
    roll = rng.random()
    if roll < 0.4:
        return Next(_xonly(rng, depth - 1, pool))
    return rng.choice((And, Or))(_xonly(rng, depth - 1, pool), _xonly(rng, depth - 1, pool))


def test_lookahead_and_shape_check_are_the_reference_answers():
    """The same lookahead on every node, None where the reference
    refuses the node, and the same text, naming the same node, from the
    harness's checks; the evaluator refuses with the same texts, but
    takes formulas outside strong negation normal form."""
    rng = random.Random(29)
    tree = random_tree_model(random.Random(2), depth=2, k=2, variables=("x", "y"), props=("p", "q"))
    pool: list = []
    cases = [_random_skeleton(rng, rng.randint(0, 5), pool) for _ in range(400)]
    texts: dict = {}
    for f in cases:
        need = satsearch._lookaheads(f)
        for g in postorder(f):
            want = _outcome(plain_path_lookahead, g)
            assert need[g] == (None if type(want) is tuple else want), str(g)
        got = _refusal(_outcome(partial(satsearch.reduction_consistency, tree), f))
        assert got == _outcome(plain_check_shape, f), str(f)
        if got is None or "normal form" not in got[1]:
            assert _refusal(_outcome(partial(satsearch.eval_bounded, tree, ""), f)) == got, str(f)
        key = got[1].split(":")[0] if got else None
        texts[key] = texts.get(key, 0) + 1
    # every outcome occurs, the shape refusal among them naming many nodes
    assert len(texts) == 4 and min(texts.values()) >= 20, texts


def plain_ltl_to_buchi(formula):
    """The tableau with obligations ranked by first occurrence."""
    rank = {sub: i for i, sub in enumerate(dict.fromkeys(plain_subformulas(formula)))}
    for sub in rank:
        if isinstance(sub, (Constraint, Exists, All)):
            raise modelcheck.ModelCheckError("tableau input must be over propositions only")
        if isinstance(sub, Not) and not isinstance(sub.sub, Prop):
            raise modelcheck.ModelCheckError("tableau input must be in negation normal form")
    props = tuple(formulas.propositions_of(formula))
    bit = {p: 1 << i for i, p in enumerate(props)}
    untils = tuple(sub for sub in rank if isinstance(sub, Until))
    initial = frozenset([formula])
    transitions: dict = {initial: None}
    todo = [initial]
    while todo:
        state = todo.pop()
        edges = []
        for pos, neg, nexts, fulfilled in modelcheck._expand_obligations(sorted(state, key=rank.__getitem__), bit):
            marks = sum(1 << j for j, u in enumerate(untils) if u not in nexts or u in fulfilled)
            edges.append((pos, neg, nexts, marks))
            if nexts not in transitions:
                transitions[nexts] = None
                todo.append(nexts)
        transitions[state] = tuple(edges)
    return modelcheck.BuchiAutomaton(props, list(transitions), transitions, untils)


def _automaton_up_to_numbering(build, f):
    """The automaton as sets, per state its edges with each mark bit read
    as its Until, and the order of its states and Untils; or the text of
    what the tableau raises."""
    try:
        aut = build(f)
    except modelcheck.ModelCheckError as exc:
        return str(exc), None
    edges = {}
    for q, out in aut.transitions.items():
        edges[q] = {(pos, neg, target, frozenset(u for j, u in enumerate(aut.untils) if marks >> j & 1))
                    for pos, neg, target, marks in out}
    return (aut.propositions, aut.states[0], edges, set(aut.untils)), (aut.states, aut.untils)


def test_tableau_differs_from_the_first_occurrence_rank_only_in_numbering():
    """Obligations are ranked by postorder index, so states are found and
    marks are numbered in another order; the states, their edges and
    what each mark stands for stay the same, and so does the refusal of
    an input the tableau cannot read, which names the first offending
    node in preorder."""
    rng = random.Random(53)
    pool: list = []
    relations = (LT, const_rel(0))
    cases = [_random_formula(rng, relations, rng.randint(1, 4), pool) for _ in range(800)]
    readable = moved = 0
    for f in cases:
        psi = formulas.rewrite(to_nnf(f), lambda g: Prop("c") if isinstance(g, (Constraint, Exists, All)) else None)
        for g in (f, to_nnf(f), psi):
            got, order = _automaton_up_to_numbering(modelcheck.ltl_to_buchi, g)
            want, plain_order = _automaton_up_to_numbering(plain_ltl_to_buchi, g)
            assert got == want, str(g)
            readable += order is not None
            moved += order != plain_order
    assert readable >= 600 and moved >= 40, (readable, moved)


def test_queries_on_a_doubling_dag_cost_its_distinct_nodes():
    """Twenty-two levels of g & g over ``E X lt(x, X^1 x)``: 25 distinct
    nodes and over four million occurrences.  Each call takes about a
    millisecond; a pass that walked the occurrences took over 5 s."""
    g = formulas.parse_formula("E X lt(x, X^1 x)")
    for _ in range(22):
        g = And(g, g)
    assert len(postorder(g)) == 25
    one_node = modelcheck.ConstraintKripke(["s0"], {("s0", "s0")}, {}, {("s0", "x"): 0}, ["x"])
    tree = random_tree_model(random.Random(5), depth=2, k=2)  # seven nodes over x
    calls = {
        "is_state_formula": lambda: formulas.is_state_formula(g),
        "constraints_of": lambda: formulas.constraints_of(g),
        "count_e": lambda: formulas.count_e(g),
        "abstract_constraints": lambda: abstract_constraints(to_snnf(g, Z_DOMAIN)),
        "check_ctlstar": lambda: modelcheck.check_ctlstar(one_node, g),
        "find_model": lambda: satsearch.find_model(g, Z_DOMAIN, 1, 1),
        "eval_bounded": lambda: satsearch.eval_bounded(tree, "", g),
        "reduction_consistency": lambda: satsearch.reduction_consistency(tree, g),
    }
    for name, call in calls.items():
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, (name, elapsed)
        if name == "find_model":
            assert result is None  # x < x + 1 step on one node reads x < x
        if name == "reduction_consistency":
            assert result.ok and result.holds_concrete == calls["eval_bounded"](), result


# ---------------------------------------------------------------------------
# The reduction harness's evaluator and the tree windows


def plain_truth(f, leaf, along_path: bool = False) -> bool:
    """A boolean combination evaluated on an explicit stack, left operand
    first with short circuit; ``leaf(g, i)`` values any other node g at
    path position i, and along a path X moves to the next position."""
    todo = [(f, 0, False)]  # (node, position, are its operands done)
    value = False
    while todo:
        g, i, done = todo.pop()
        if isinstance(g, Not):
            if done:
                value = not value
            else:
                todo += ((g, i, True), (g.sub, i, False))
        elif isinstance(g, (And, Or)):
            if not done:
                todo += ((g, i, True), (g.left, i, False))
            elif value != isinstance(g, Or):  # the left operand did not decide
                todo.append((g.right, i, False))
        elif along_path and isinstance(g, Next):
            todo.append((g.sub, i + 1, False))
        else:
            value = leaf(g, i)
    return value


def plain_eval_path(model, path: tuple, f, dom) -> bool:
    def leaf(g, i: int) -> bool:
        if isinstance(g, Prop):
            return g.name in model.label(path[i])
        if isinstance(g, BoolConst):
            return g.value
        if isinstance(g, Constraint):
            values = tuple(model.gamma(path[i + off], var) for off, var in g.args)
            return dom.eval_relation(g.relation, values)
        raise SatSearchError(f"unsupported path formula node {g!r}")

    return plain_truth(f, leaf, along_path=True)


def plain_descending_paths(model, node: str, length: int) -> list:
    paths = [(node,)]
    for _ in range(length):
        paths = [p + (s,) for p in paths for s in model.successors(p[-1])]
    return paths


def plain_eval_bounded(model, node: str, formula, dom=Z_DOMAIN) -> bool:
    """The evaluator that walked every occurrence and read each quantifier
    body along every descending path."""
    need = satsearch._lookaheads(formula)

    def leaf(g, _) -> bool:
        if isinstance(g, Prop):
            return g.name in model.label(node)
        if isinstance(g, BoolConst):
            return g.value
        if isinstance(g, (Exists, All)):
            if need[g.sub] is None:
                raise SatSearchError("formula contains U/R/E/A below the top level")
            paths = plain_descending_paths(model, node, need[g.sub])
            quantifier = any if isinstance(g, Exists) else all
            return quantifier(plain_eval_path(model, p, g.sub, dom) for p in paths)
        raise SatSearchError(f"unsupported formula node {g!r}")

    return plain_truth(formula, leaf)


def plain_abstract_labels(model, table, dom) -> dict:
    """``abstract_model``'s labels, each window sliced by hand."""
    new_labels = {n: set(model.label(n)) for n in model.nodes}
    for entry in table:
        d_i = entry.depth
        for v in model.nodes:
            if len(v) < d_i:
                continue
            s, u = v[: len(v) - d_i], v[len(v) - d_i:]
            values = tuple(model.registers[(s + u[:off], var)] for off, var in entry.constraint.args)
            if dom.eval_relation(entry.constraint.relation, values):
                new_labels[v].add(entry.prop)
    return {n: frozenset(ps) for n, ps in new_labels.items() if ps}


def plain_extract_rows(model, table) -> dict:
    """``extract_constraint_graph``'s rows, each window sliced by hand."""
    found: dict = {entry.constraint.relation: {} for entry in table}
    for entry in table:
        d_i = entry.depth
        rows = found[entry.constraint.relation]
        for v in model.nodes:
            if entry.prop not in model.label(v):
                continue
            if len(v) < d_i:
                raise StructureError(
                    f"proposition {entry.prop!r} at node {structures._node_to_file(v)!r} needs {d_i} ancestors"
                )
            s, u = v[: len(v) - d_i], v[len(v) - d_i:]
            rows[tuple(element_id(s + u[:off], var) for off, var in entry.constraint.args)] = None
    return {rel: list(rows) for rel, rows in found.items()}


def _random_tree(rng):
    """A full tree of branching 1-3 and depth 0-3 over x and y, p and q."""
    return random_tree_model(rng, rng.randint(0, 3), rng.randint(1, 3), ("x", "y"), props=("p", "q"))


def _harness_formula(rng, pool: list):
    """A formula of the harness's shape, with negated constraints in half
    of them; two in five also reuse earlier formulas and their bodies."""
    f = random_xonly_formula(rng, ("x", "y"), ("p", "q"), rng.randint(0, 3), negate_constraints=rng.random() < 0.5)
    if pool and rng.random() < 0.4:
        old = rng.choice(pool)
        if rng.random() < 0.5:
            f = rng.choice((And, Or))(f, old)
        else:
            first, second = (rng.choice([g.sub for g in postorder(h) if isinstance(g, (Exists, All))]) for h in (f, old))
            f = rng.choice((Exists, All))(rng.choice((And, Or))(first, Next(rng.choice((first, second)))))
    pool.append(f)
    return f


def test_bounded_evaluation_gives_the_reference_verdicts():
    """The same verdict as the occurrence walk, at the root and at inner
    nodes, on random trees and formulas of the harness's shape, many of
    them reusing subformulas."""
    rng = random.Random(23)
    pool: list = []
    verdicts = {True: 0, False: 0}
    shared = 0
    for _ in range(600):
        tree = _random_tree(rng)
        f = _harness_formula(rng, pool)
        shared += len(postorder(f)) < _occurrences(f)
        for node in ("", rng.choice(tree.nodes)):
            got = satsearch.eval_bounded(tree, node, f)
            assert got == plain_eval_bounded(tree, node, f), (str(f), node)
            verdicts[got] += 1
    assert min(verdicts.values()) >= 200 and shared >= 100, (verdicts, shared)


def test_bounded_evaluation_refuses_where_the_reference_refused():
    """On ill-shaped formulas the evaluator refuses wherever the short
    circuit of the reference reached a refusal, and also where it did not;
    where it answers, it answers as the reference."""
    rng = random.Random(31)
    pool: list = []
    outcomes = {"both refuse": 0, "only the new refuses": 0, "same verdict": 0}
    for _ in range(400):
        tree = _random_tree(rng)
        f = _random_skeleton(rng, rng.randint(0, 5), pool)
        got = _outcome(partial(satsearch.eval_bounded, tree, ""), f)
        want = _outcome(partial(plain_eval_bounded, tree, ""), f)
        if type(want) is tuple:
            assert type(got) is tuple, str(f)
            outcomes["both refuse"] += 1
        elif type(got) is tuple:
            outcomes["only the new refuses"] += 1
        else:
            assert got == want, str(f)
            outcomes["same verdict"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def _random_table(rng):
    """An abstraction table of constraints over x and y of depth 0-3."""
    relations = RELATIONS["Z"]
    body = TRUE
    for _ in range(rng.randint(1, 4)):
        rel = rng.choice(relations)
        depth = rng.randint(0, 3)
        args = [(depth, rng.choice("xy"))] + [(rng.randint(0, depth), rng.choice("xy")) for _ in range(rel.arity - 1)]
        body = And(body, Constraint(rel, rng.sample(args, len(args))))
    return abstract_constraints(Exists(body))[1]


def test_tree_windows_label_and_extract_as_the_hand_slicing():
    """``abstract_model``'s labels, ``extract_constraint_graph``'s rows in
    their order, and its refusal of a proposition too close to the root,
    as the slicing of each window by hand gave them."""
    rng = random.Random(37)
    refused = 0
    for _ in range(300):
        tree = _random_tree(rng)
        table = _random_table(rng)
        labeled = structures.abstract_model(tree, table, Z_DOMAIN)
        assert labeled.labels == plain_abstract_labels(tree, table, Z_DOMAIN)
        graph = structures.extract_constraint_graph(labeled, table)
        assert graph.interpretation == plain_extract_rows(labeled, table)
        # table propositions strewn at random, near the root among them
        strewn = dict(tree.labels)
        for v in rng.sample(tree.nodes, rng.randint(0, len(tree.nodes))):
            strewn[v] = strewn.get(v, frozenset()) | {rng.choice(list(table)).prop}
        tree.labels = strewn
        try:
            want = plain_extract_rows(tree, table)
        except StructureError as exc:
            with pytest.raises(StructureError) as got:
                structures.extract_constraint_graph(tree, table)
            assert str(got.value) == str(exc)
            refused += 1
        else:
            assert structures.extract_constraint_graph(tree, table).interpretation == want
    assert 50 <= refused <= 250, refused


# ---------------------------------------------------------------------------
# MSO passes


def _random_mso(rng, depth: int, fo: list, sets: list, pool: list):
    """A sentence-part over the names in scope that reuses a fifth of its
    subformulas from ``pool``; quantifiers may rebind x, y and X."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        names = fo + ["x", "y"]
        f = Atom("lt", (rng.choice(names), rng.choice(names))) if rng.random() < 0.7 else In(rng.choice(names), rng.choice(sets + ["X"]))
    elif roll < 0.3:
        f = Neg(_random_mso(rng, depth - 1, fo, sets, pool))
    elif roll < 0.6:
        f = rng.choice((Conj, Disj, Implies))(_random_mso(rng, depth - 1, fo, sets, pool), _random_mso(rng, depth - 1, fo, sets, pool))
    elif roll < 0.85:
        var = rng.choice(("x", "y", "u", "v"))
        f = rng.choice((ExistsFO, ForallFO))(var, _random_mso(rng, depth - 1, fo + [var], sets, pool))
    else:
        var = rng.choice(("X", "Y"))
        f = rng.choice((ExistsSet, ForallSet))(var, _random_mso(rng, depth - 1, fo, sets + [var], pool))
    pool.append(f)
    return f


def test_substitution_and_relativization_are_the_reference_sentences(monkeypatch):
    rng = random.Random(37)
    pool: list = []
    cases = []
    for _ in range(200):
        f = _random_mso(rng, rng.randint(1, 5), [], [], pool)
        mapping = dict(rng.sample([("x", "y"), ("y", "x"), ("x", "u"), ("u", "x"), ("y", "v")], rng.randint(1, 3)))
        guard = Atom("dom", ("w",)) if rng.random() < 0.5 else Conj(Atom("dom", ("w",)), Atom("lt", ("w", "w")))
        cases.append((f, mapping, guard))

    def outputs(f, mapping, guard):
        return subst_fo(f, mapping), relativize(f, guard, "w")

    new = [outputs(*case) for case in cases]
    with monkeypatch.context() as m:
        m.setattr(mso, "transform", plain_mso_rewrite)
        m.setattr(mso, "rebuild", plain_rebuilt)
        reference = [outputs(*case) for case in cases]
    renamed = 0
    for case, got, want in zip(cases, new, reference):
        assert all(map(operator.is_, got, want)), to_sexpr(case[0])
        renamed += got[0] is not case[0]
    assert renamed >= 100


MODS = [(0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (3, 4)]


def _signature(rng, target):
    if target == "Z_order_only":
        return [LT] if rng.random() < 0.8 else []
    sig = [LT] + ([EQ] if rng.random() < 0.7 else [])
    if target == "Z":
        sig += [const_rel(c) for c in rng.sample(range(-2, 4), rng.randint(0, 3))]
    sig += [mod_rel(a, b) for a, b in rng.sample(MODS, rng.randint(0, 3))]
    rng.shuffle(sig)
    return sig


def _hom_digest(target: str) -> str:
    rng = random.Random(f"hom-{target}")
    digest = hashlib.sha256()
    for _ in range(6):
        sentence = emit_hom_sentence(_signature(rng, target), target)
        for text in (repr(sentence), to_sexpr(sentence)):
            digest.update(text.encode() + b"\0")
    return digest.hexdigest()


# sha256 of repr and to_sexpr of six sentences per target, as printed
# when the MSO passes ran on the reference engine
_HOM_SHA256 = {
    "Z": "88ec6aee6112219cef24f6fc5ffdf605be812e96f797edad6be1061cbec38909",
    "N": "7f05fa24da5899eb35f9350c3b81aa71f4878cb8a2ef4ed0f0cfcb7388108cb0",
    "negZ": "3176a3609f7c6a0f24ea8b329a79c25d7f291e6503ea2c4ac21003be945929f9",
    "Z_order_only": "d270c34049e00a729b1a8a518317caee147b7c8ef69b5b93b686d3ce40813512",
}


@pytest.mark.parametrize("target", list(_HOM_SHA256))
def test_hom_sentences_print_as_before(target):
    assert _hom_digest(target) == _HOM_SHA256[target]
