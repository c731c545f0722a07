"""Brute-force semantics for the MSO layer on small finite structures.

Each sentence is compiled once into a plan: its distinct nodes (MSO nodes
are interned, so equal subformulas are one object) in postorder, each with
its child indices and its free first-order and set names as sorted tuples,
taken from the free names the node core keeps.  The peak cell count of a
node, per structure size and set of assigned names, is worked out on
first use and kept in the plan.  A few recent plans are cached by
sentence, so every structure evaluated against a sentence reuses its
plan.

Per structure, subformulas evaluate to boolean arrays whose axes are
their unassigned free variables (size n for a first-order axis, 2^n for
a set axis), so connectives are elementwise operations and quantifiers
are any/all reductions.  Results are memoised per (plan node, values of
its free names), so equal subformulas share them.  Evaluation runs as
generator frames on an explicit stack, one per node being evaluated, so
nesting depth is not bounded by Python's recursion limit.  A quantifier
whose body would exceed the cell budget falls back to looping over the
quantified variable's values.  A quantifier hides any outer value of the
name it binds.  The bounding quantifier is constantly true here: a finite
structure has only finitely many subsets, so a bound always exists; the
evaluator still reports the largest satisfying set when asked, and then
the plan unfolds into one node per tree position, so that every B
occurrence reports separately.
"""

from __future__ import annotations

import numpy as np

from .mso import (
    Atom,
    BoundSet,
    Conj,
    Disj,
    ExistsFO,
    ExistsSet,
    ForallFO,
    ForallSet,
    Implies,
    In,
    MsoBool,
    MsoError,
    MsoFormula,
    Neg,
    Subset,
    VarEq,
    _children,
    _free_names,
)
from .structures import SigmaStructure

MAX_ELEMENTS = 12
CELL_LIMIT = 1 << 24
MEMO_CELL_LIMIT = 1 << 18


def _relation_map(structure: SigmaStructure, index: dict) -> dict:
    out: dict = {}
    for rel, tuples in structure.interpretation.items():
        out[rel.name] = [tuple(index[e] for e in t) for t in tuples]
    return out


class _Plan:
    """A sentence compiled for evaluation: one node per distinct subformula
    (per tree position when ``unfold``), children before parents.  Node i
    is described by ``nodes[i]``, the formula read for its kind and scalar
    fields, ``kids[i]``, and its sorted free first-order names ``fo[i]``,
    set names ``so[i]`` and both together ``names[i]``."""

    def __init__(self, sentence: MsoFormula, unfold: bool):
        self.nodes: list = []
        self.kids: list = []
        self.fo: list = []
        self.so: list = []
        self.names: list = []
        self.peaks: dict = {}  # (node, n, assigned names) -> peak cells
        _free_names(sentence)
        index: dict = {}  # formula -> node, unless unfolding
        done: list = []  # nodes of the finished subformulas, in order
        stack: list = [sentence]
        while stack:
            f = stack.pop()
            if type(f) is tuple:  # (formula,): its children are finished
                (f,) = f
                k = len(_children(f))
                kids = tuple(done[len(done) - k:])
                del done[len(done) - k:]
                fo, so = f._free
                i = len(self.nodes)
                self.nodes.append(f)
                self.kids.append(kids)
                self.fo.append(tuple(sorted(fo)))
                self.so.append(tuple(sorted(so)))
                self.names.append(tuple(sorted(fo | so)))
                if not unfold:
                    index[f] = i
                done.append(i)
            elif f in index:
                done.append(index[f])
            else:
                stack += [(f,), *reversed(_children(f))]
        self.root = done[0]

    def peak(self, i: int, n: int, assigned: frozenset) -> int:
        """Largest array, in cells, that evaluating node i on an n-element
        structure can materialize when the names in ``assigned`` (free in
        the node) have values.  Inner quantified variables become axes
        before they are reduced away, so the peak is taken over every
        descendant; each (node, n, assigned names) is worked out once."""
        peaks = self.peaks
        todo = [(i, assigned, False)]
        while todo:
            j, a, ready = todo.pop()
            if (j, n, a) in peaks:
                continue
            var = getattr(self.nodes[j], "var", None)
            below = [(c, frozenset(v for v in self.names[c] if v in a and v != var)) for c in self.kids[j]]
            if not ready:
                todo.append((j, a, True))
                todo.extend((c, ca, False) for c, ca in below)
                continue
            cells = n ** sum(v not in a for v in self.fo[j]) * (1 << n) ** sum(v not in a for v in self.so[j])
            peaks[(j, n, a)] = max([cells] + [peaks[(c, n, ca)] for c, ca in below])
        return peaks[(i, n, assigned)]


_RECENT_PLANS: dict = {}  # (sentence, unfold) -> plan, least recently used first


def _plan(sentence: MsoFormula, unfold: bool) -> _Plan:
    key = (sentence, unfold)
    plan = _RECENT_PLANS.pop(key, None) or _Plan(sentence, unfold)
    _RECENT_PLANS[key] = plan
    if len(_RECENT_PLANS) > 4:  # callers alternate between a few sentences at most
        del _RECENT_PLANS[next(iter(_RECENT_PLANS))]
    return plan


class _Evaluator:
    def __init__(self, structure: SigmaStructure, diagnostics):
        if len(structure.elements) > MAX_ELEMENTS:
            raise MsoError(
                f"structure has {len(structure.elements)} elements; the evaluator handles at most {MAX_ELEMENTS}"
            )
        self.n = len(structure.elements)
        self.nsets = 1 << self.n
        self.index = {e: i for i, e in enumerate(structure.elements)}
        self.relations = _relation_map(structure, self.index)
        self.diagnostics = diagnostics
        self.memo: dict = {}
        masks = np.zeros((self.n, self.nsets), dtype=bool)
        for i in range(self.n):
            masks[i] = (np.arange(self.nsets) >> i) & 1
        self.member = masks
        sets = np.arange(self.nsets)
        self.subset = (sets[:, None] & ~sets[None, :]) == 0

    def axis_size(self, axis) -> int:
        return self.n if axis[0] == "fo" else self.nsets

    def fits(self, i: int, env: dict) -> bool:
        """Whether evaluating node i under env stays within the cell budget."""
        assigned = frozenset(v for v in self.plan.names[i] if v in env)
        return self.plan.peak(i, self.n, assigned) <= CELL_LIMIT

    def run(self, plan: _Plan, env: dict) -> bool:
        self.plan = plan
        missing = sorted(set(plan.names[plan.root]) - env.keys())
        if missing:
            raise MsoError(f"free variables without assignment: {missing}")
        arr, axes = self.eval(plan.root, env)
        assert axes == ()
        return bool(arr.item() if isinstance(arr, np.ndarray) else arr)

    # -- array plumbing

    def expand(self, arr, arr_axes, axes):
        if arr_axes == axes:
            return arr
        order = sorted(range(len(arr_axes)), key=lambda i: axes.index(arr_axes[i]))
        arr = np.transpose(arr, order)
        shape = tuple(self.axis_size(ax) if ax in arr_axes else 1 for ax in axes)
        return arr.reshape(shape)

    def combine(self, left, right, op):
        la, laxes = left
        ra, raxes = right
        axes = tuple(list(laxes) + [ax for ax in raxes if ax not in laxes])
        la = self.expand(la, laxes, axes)
        ra = self.expand(ra, raxes, axes)
        return op(la, ra), axes

    # -- evaluation

    def eval(self, i: int, env: dict):
        """(array, axes) of node i under env.  Each node evaluates in a
        generator frame that yields (node, env) for a subformula's value and
        is sent it back; the frames live on an explicit stack, so nesting
        depth is not bounded by Python's recursion limit."""
        names = self.plan.names
        frames: list = []
        value = None
        request = (i, env)
        while True:
            if request is not None:
                j, env = request
                key = (j, tuple(map(env.get, names[j])))
                value = self.memo.get(key)
                if value is None:
                    frames.append((key, self._eval(j, env)))
                elif not frames:
                    return value
            key, frame = frames[-1]
            try:
                request = frame.send(value)
                continue
            except StopIteration as stop:
                value = stop.value
            frames.pop()
            arr = value[0]
            if not isinstance(arr, np.ndarray) or arr.size <= MEMO_CELL_LIMIT:
                self.memo[key] = value  # caching big arrays per env value would hoard memory
            if not frames:
                return value
            request = None

    def _eval(self, i: int, env: dict):
        n = self.n
        formula = self.plan.nodes[i]
        kids = self.plan.kids[i]
        if isinstance(formula, MsoBool):
            return np.bool_(formula.value), ()
        if isinstance(formula, Atom):
            tuples = self.relations.get(formula.relation, [])
            return self._table(tuples, formula.args, env)
        if isinstance(formula, VarEq):
            return self._table([(k, k) for k in range(n)], (formula.left, formula.right), env)
        if isinstance(formula, In):
            x, X = formula.element, formula.container
            if x in env and X in env:
                return np.bool_(bool((env[X] >> env[x]) & 1)), ()
            if X in env:
                s = env[X]
                return np.array([(s >> i) & 1 for i in range(n)], dtype=bool), (("fo", x),)
            if x in env:
                return self.member[env[x]], (("set", X),)
            return self.member, (("fo", x), ("set", X))
        if isinstance(formula, Subset):
            X, Y = formula.left, formula.right
            if X in env and Y in env:
                return np.bool_((env[X] & ~env[Y]) == 0), ()
            if X in env:
                return (env[X] & ~np.arange(self.nsets)) == 0, (("set", Y),)
            if Y in env:
                return (np.arange(self.nsets) & ~env[Y]) == 0, (("set", X),)
            if X == Y:
                return np.ones(self.nsets, dtype=bool), (("set", X),)
            return self.subset, (("set", X), ("set", Y))
        if isinstance(formula, Neg):
            arr, axes = yield kids[0], env
            return ~arr, axes
        # A constant function may be represented with fewer axes than its
        # free variables, so a decisive left operand can stand for the whole
        # connective without touching the right subtree.
        if isinstance(formula, Conj):
            la, laxes = yield kids[0], env
            if not np.any(la):
                return la, laxes
            return self.combine((la, laxes), (yield kids[1], env), np.logical_and)
        if isinstance(formula, Disj):
            la, laxes = yield kids[0], env
            if np.all(la):
                return la, laxes
            return self.combine((la, laxes), (yield kids[1], env), np.logical_or)
        if isinstance(formula, Implies):
            la, laxes = yield kids[0], env
            if not np.any(la):
                return ~la, laxes
            return self.combine((~la, laxes), (yield kids[1], env), np.logical_or)
        if isinstance(formula, BoundSet):
            return (yield from self._bound(i, formula, kids[0], env))
        return (yield from self._quantifier(formula, kids[0], env))

    def _table(self, tuples, args, env):
        axis_vars = []
        for a in args:
            if a not in env and ("fo", a) not in axis_vars:
                axis_vars.append(("fo", a))
        arr = np.zeros(tuple(self.n for _ in axis_vars), dtype=bool)
        for t in tuples:
            if len(t) != len(args):
                raise MsoError("atom arity does not match the relation")
            coord: dict = {}
            ok = True
            for value, a in zip(t, args):
                if a in env:
                    if env[a] != value:
                        ok = False
                        break
                else:
                    ax = ("fo", a)
                    if ax in coord and coord[ax] != value:
                        ok = False
                        break
                    coord[ax] = value
            if ok:
                arr[tuple(coord[ax] for ax in axis_vars)] = True
        return arr, tuple(axis_vars)

    def _quantifier(self, formula, body: int, env: dict):
        over_sets = isinstance(formula, (ExistsSet, ForallSet))
        existential = isinstance(formula, (ExistsFO, ExistsSet))
        var = formula.var
        axis = ("set", var) if over_sets else ("fo", var)
        size = self.nsets if over_sets else self.n
        if var in env:  # the body sees the bound variable, not an outer value of its name
            env = {k: v for k, v in env.items() if k != var}
        if self.fits(body, env):
            arr, axes = yield body, env
            if axis not in axes:
                return arr, axes
            k = axes.index(axis)
            reduced = arr.any(axis=k) if existential else arr.all(axis=k)
            return reduced, axes[:k] + axes[k + 1:]
        # body too large to vectorize: loop over the quantified values
        acc = None
        acc_axes = None
        inner = dict(env)
        for value in range(size):
            inner[var] = value
            arr, axes = yield body, inner
            if acc is None:
                acc, acc_axes = arr.copy() if isinstance(arr, np.ndarray) else arr, axes
            else:
                combined, acc_axes = self.combine(
                    (acc, acc_axes), (arr, axes), np.logical_or if existential else np.logical_and
                )
                acc = combined
            if np.all(acc) if existential else not np.any(acc):
                break  # every cell decided, further values cannot change it
        return acc, acc_axes

    def _bound(self, i: int, formula, body: int, env: dict):
        var = formula.var
        axis = ("set", var)
        if self.diagnostics is None:
            # Truth does not depend on the body here, so only a diagnostics
            # request justifies sweeping the subsets for the largest witness.
            remaining = tuple(("fo", v) for v in self.plan.fo[i] if v not in env)
            remaining += tuple(("set", v) for v in self.plan.so[i] if v not in env)
            shape = tuple(self.axis_size(ax) for ax in remaining)
            return np.ones(shape, dtype=bool) if shape else np.bool_(True), remaining
        max_size = None
        if var in env:  # the body sees the bound variable, not an outer value of its name
            env = {k: v for k, v in env.items() if k != var}
        if self.fits(body, env):
            arr, axes = yield body, env
            if axis in axes:
                k = axes.index(axis)
                other = tuple(d for d in range(arr.ndim) if d != k)
                witness = arr.any(axis=other) if other else arr
                sizes = [bin(s).count("1") for s in np.nonzero(witness)[0]]
                max_size = max(sizes) if sizes else None
            remaining = tuple(ax for ax in axes if ax != axis)
        else:
            inner = dict(env)
            remaining = None
            for value in range(self.nsets):
                inner[var] = value
                arr, axes = yield body, inner
                if remaining is None:
                    remaining = axes
                if bool(np.any(arr)):
                    size = bin(value).count("1")
                    if max_size is None or size > max_size:
                        max_size = size
            if remaining is None:
                remaining = ()
        self.diagnostics.setdefault("bounded_sets", []).append({"var": var, "max_size": max_size})
        shape = tuple(self.axis_size(ax) for ax in remaining)
        return np.ones(shape, dtype=bool) if shape else np.bool_(True), remaining


def _convert_assignment(assignment, index) -> dict:
    env: dict = {}
    if not assignment:
        return env
    for var, value in assignment.items():
        if isinstance(value, str):
            if value not in index:
                raise MsoError(f"unknown element {value!r} in assignment")
            env[var] = index[value]
        else:
            mask = 0
            for e in value:
                if e not in index:
                    raise MsoError(f"unknown element {e!r} in assignment")
                mask |= 1 << index[e]
            env[var] = mask
    return env


def eval_finite(
    formula: MsoFormula,
    structure: SigmaStructure,
    assignment: dict | None = None,
    diagnostics: dict | None = None,
) -> bool:
    """Evaluate on a finite structure; first-order assignment values are
    element ids, set values are iterables of element ids."""
    ev = _Evaluator(structure, diagnostics)
    env = _convert_assignment(assignment, ev.index)
    return ev.run(_plan(formula, diagnostics is not None), env)


def eval_finite_slow(
    formula: MsoFormula, structure: SigmaStructure, assignment: dict | None = None
) -> bool:
    """Reference evaluator: plain recursion, no arrays, no sharing."""
    if len(structure.elements) > MAX_ELEMENTS:
        raise MsoError("structure too large")
    n = len(structure.elements)
    index = {e: i for i, e in enumerate(structure.elements)}
    relations = _relation_map(structure, index)
    env = _convert_assignment(assignment, index)

    def member(i, mask):
        return bool((mask >> i) & 1)

    def rec(f, env):
        if isinstance(f, MsoBool):
            return f.value
        if isinstance(f, Atom):
            try:
                point = tuple(env[a] for a in f.args)
            except KeyError as exc:
                raise MsoError(f"free variable without assignment: {exc.args[0]}")
            return point in set(relations.get(f.relation, []))
        if isinstance(f, VarEq):
            return env[f.left] == env[f.right]
        if isinstance(f, In):
            return member(env[f.element], env[f.container])
        if isinstance(f, Subset):
            return (env[f.left] & ~env[f.right]) == 0
        if isinstance(f, Neg):
            return not rec(f.sub, env)
        if isinstance(f, Conj):
            return rec(f.left, env) and rec(f.right, env)
        if isinstance(f, Disj):
            return rec(f.left, env) or rec(f.right, env)
        if isinstance(f, Implies):
            return (not rec(f.left, env)) or rec(f.right, env)
        if isinstance(f, ExistsFO):
            return any(rec(f.body, {**env, f.var: i}) for i in range(n))
        if isinstance(f, ForallFO):
            return all(rec(f.body, {**env, f.var: i}) for i in range(n))
        if isinstance(f, ExistsSet):
            return any(rec(f.body, {**env, f.var: s}) for s in range(1 << n))
        if isinstance(f, ForallSet):
            return all(rec(f.body, {**env, f.var: s}) for s in range(1 << n))
        return True  # B: a finite structure bounds every set

    return rec(formula, env)
