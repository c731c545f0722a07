"""Brute-force semantics for the MSO layer on small finite structures.

Each sentence is compiled once into a plan: its distinct nodes (MSO nodes
are interned, so an equal subformula is one object; a node with a B at or
below it is kept per tree position, see below) in postorder, each with a
kind code, its child indices and its free first-order and set names as
sorted tuples, taken from the free names ``mso`` keeps on each node.  The
peak cell count of a node, per structure size and set of assigned names,
is worked out on first use and kept in the plan.  A few recent plans are
cached by sentence, so every structure evaluated against a sentence
reuses its plan.  Every atom is checked against the arity of the
structure's relation of its name before anything is evaluated.

Per structure, the nodes evaluate to boolean arrays whose axes are
their unassigned free variables (size n for a first-order axis, 2^n for
a set axis).  Axes follow one fixed order, ("fo", name) before
("set", name) and names ascending, and every array's axes are a
subsequence of it: the leaves sort theirs, and connectives (the sorted
union) and quantifier reductions keep it.  So a connective lines its
operands up by inserting length-one axes, never by a transpose.  It runs
as bitwise and/or, or <= for implication, on one of two kernels chosen
by the size of its result.  Up to ``SMALL_CELLS`` (4,096) cells it is
the bool ufunc: on tiny arrays numpy's per-call overhead is the cost,
and the bool ufunc has the least.  Above that it is a byte kernel on
uint8 views of the bool arrays, which hold only 0 and 1 and run faster
as bytes.  Both kernels are needed: with bool ufuncs on every array,
criterion 03 of the tests, which reaches eight elements, took 5.1-6.0 s
against 4.1-4.2 s with the split or with byte kernels throughout, and on
the one- to four-element structures of the hom-oracles benchmark the
split takes 4-17% less time than byte kernels throughout.
The same constant splits two more choices, each at its measured
crossover.  The connectives' short-circuit tests count nonzero cells up
to it and call any/all above it, where numpy stops at the first deciding
chunk while counting reads every cell (see ``_any``).  Quantifiers are
any/all reductions, but an array above it whose reduced axis is its last
and holds 32 or 64 cells is reduced by packing that axis into one
machine word per row, since numpy reduces a short innermost axis slowly
(see ``_reduce``).  Negation stays on bool arrays, and no array is
written in place.  Results are
memoised per (plan node, values of its free names), so an equal
subformula shares them.  Evaluation runs as generator frames on an explicit stack,
one per inner node being evaluated, so nesting depth is not bounded by
Python's recursion limit.  A quantifier whose body would exceed the cell
budget falls back to looping over the quantified variable's values.  A
quantifier hides any outer value of the name it binds.  The bounding
quantifier is constantly true here: a finite structure has only finitely
many subsets, so a bound always exists; the evaluator still reports the
largest satisfying set of each B occurrence when asked.
A first-order quantifier on the empty structure is false (exists) or
true (forall), whatever its body.

Miniscoping.  Where the plan's widest node could outgrow the cell budget
on the structure (the sigma0 Z sentence at five elements and up), the
sentence is evaluated on a second plan, built on first use and cached
beside the first: the sentence with its quantifiers pushed in, so that
a quantifier reduces each conjunct on its own axes rather than their
union (Nonnengart and Weidenbach, Computing Small Clause Normal Forms,
2001).  Each rule holds on every domain, the empty one included; v is
the quantified name and "v not in A" means v is not free in A:

    forall v (A & B)        ->  forall v A & forall v B
    forall v (A -> B & C)   ->  forall v (A -> B) & forall v (A -> C)
    forall v (A -> B)       ->  A -> forall v B            v not in A
    forall v (A | B)        ->  A | forall v B             v not in A
    exists v (A | B)        ->  exists v A | exists v B
    exists v (A & (B | C))  ->  exists v (A & B) | exists v (A & C)
    exists v (A & B)        ->  A & exists v B             v not in A

and the mirror images of the rules with "v not in A" for v not in B,
where the connective is symmetric.  A conjunction (disjunction) is split
only where its operands' free names differ; otherwise the pieces have
the same axes and splitting only adds nodes.  A quantifier over a name
its body does not mention is kept, since dropping it is unsound on the
empty structure, and B nodes are left as they are.  The rewrite is one
``transform`` step of the node core keyed by (node, pending quantifier),
so it runs on explicit frames once per distinct pair.  On small
structures the extra nodes cost more than the smaller arrays save, so
they keep the plain plan, as do diagnostics requests: miniscoping changes
which quantifiers loop, and with them the reported sets.

This is the one module that needs numpy.  Nothing else in the package
imports it: ``ctlz.eval_finite`` and ``ctlz eval-mso`` load it on first
use, so the rest of the pipeline starts without numpy.
"""

from __future__ import annotations

import functools
import operator
from math import prod

import numpy as np

from .formulas import _children, postorder, rebuild, transform
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
    _free_names,
)
from .structures import SigmaStructure

MAX_ELEMENTS = 12
CELL_LIMIT = 1 << 24
MEMO_CELL_LIMIT = 1 << 18
SMALL_CELLS = 1 << 12  # at or below: plain bool kernels, see the module docstring

# node kinds, as kept on the plan: leaves first, then the inner nodes
_KINDS = (MsoBool, Atom, VarEq, In, Subset, Neg, Conj, Disj, Implies, BoundSet,
          ExistsFO, ForallFO, ExistsSet, ForallSet)
BOOL, ATOM, VAREQ, IN, SUBSET, NEG, CONJ, DISJ, IMPLIES, BOUND, EXISTS_FO, FORALL_FO, EXISTS_SET, FORALL_SET = range(14)


def _relation_map(structure: SigmaStructure, index: dict) -> dict:
    return {rel.name: [tuple(map(index.__getitem__, t)) for t in rows] for rel, rows in structure.interpretation.items()}


def _check_arities(atoms, structure: SigmaStructure) -> None:
    """Each atom must have the arity of the structure's relation of its name;
    a relation the structure does not list is false everywhere."""
    arity = {rel.name: rel.arity for rel in structure.interpretation}
    if any(arity.get(a.relation, len(a.args)) != len(a.args) for a in atoms):
        raise MsoError("atom arity does not match the relation")


class _Plan:
    """A sentence compiled for evaluation, children before parents: one
    node per distinct subformula, or per tree position for one with a B at
    or below it.  Node i is described by ``nodes[i]``, the formula read for
    its scalar fields, its kind code ``kind[i]``, ``kids[i]``, and its
    sorted free first-order names ``fo[i]``, set names ``so[i]`` and both
    together ``names[i]``."""

    def __init__(self, sentence: MsoFormula):
        self.nodes: list = []
        self.kind: list = []
        self.kids: list = []
        self.fo: list = []
        self.so: list = []
        self.names: list = []
        self.peaks: dict = {}  # (node, n, assigned names) -> peak cells
        self.layouts: dict = {}  # (n, axes, axes) -> combine's axes, operand shapes and cells
        _free_names(sentence)
        index: dict = {}  # formula -> node, for those without a B at or below them
        done: list = []  # nodes of the finished children, in order
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
                self.kind.append(_KINDS.index(type(f)))
                self.kids.append(kids)
                self.fo.append(tuple(sorted(fo)))
                self.so.append(tuple(sorted(so)))
                self.names.append(tuple(sorted(fo | so)))
                if type(f) is not BoundSet and all(c in index for c in _children(f)):
                    index[f] = i
                done.append(i)
            elif f in index:
                done.append(index[f])
            else:
                stack += [(f,), *reversed(_children(f))]
        self.root = done[0]
        self.atoms = {f for f in self.nodes if type(f) is Atom}
        self.widest = (max(map(len, self.fo)), max(map(len, self.so)))  # most free names of a node

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


@functools.lru_cache(maxsize=4)  # callers alternate between a few sentences at most
def _plan(sentence: MsoFormula, scoped: bool = False) -> _Plan:
    """The plan of the sentence, or (``scoped``) of the sentence with its
    quantifiers pushed in, built on first use.  Callers write the plain
    plan as ``_plan(f)`` and the scoped one as ``_plan(f, scoped=True)``:
    other spellings would be other cache keys."""
    return _Plan(transform(sentence, _scope_step) if scoped else sentence)


# ---------------------------------------------------------------------------
# Miniscoping

_PUSHED = (ExistsFO, ForallFO, ExistsSet, ForallSet)  # B is left as it is


def _scope_step(f: MsoFormula, scope):
    """``transform`` step that pushes quantifiers in.  With scope None it
    returns f with every quantifier pushed in; with scope (quantifier
    class, name) it returns that quantifier applied to f, whose own
    quantifiers are pushed in already, pushed into f's connectives as far
    as the rules go.  A quantifier is never dropped, even over a name its
    body does not mention: that is only sound on a non-empty domain."""
    if scope is None:
        if type(f) in _PUSHED:
            body = yield f.body, None
            return (yield body, (type(f), f.var))
        if type(f) is BoundSet:
            return f
        return (yield from rebuild(f, None))
    quant, var = scope
    side = quant in (ExistsSet, ForallSet)  # index of the free set names

    def free(g: MsoFormula) -> bool:
        return var in _free_names(g)[side]

    def differ(g: MsoFormula) -> bool:  # splitting g only pays when its operands' arrays differ
        return _free_names(g.left) != _free_names(g.right)

    # split: the connective the quantifier distributes over; guard: the one
    # it distributes over through a split right operand, forall v (A -> B & C)
    # and exists v (A & (B | C)); guard and other: the ones it passes by an
    # operand that does not mention v
    split, guard, other = (Conj, Implies, Disj) if quant in (ForallFO, ForallSet) else (Disj, Conj, Conj)
    kind = type(f)
    if kind not in (split, guard, other) or not free(f):
        return quant(var, f)
    left, right = f.left, f.right
    if kind is split:
        if differ(f):
            return split((yield left, scope), (yield right, scope))
    elif not free(left):
        return kind(left, (yield right, scope))
    elif kind is other and not free(right):
        return kind((yield left, scope), right)
    elif kind is guard and type(right) is split and differ(right):
        return split((yield guard(left, right.left), scope), (yield guard(left, right.right), scope))
    return quant(var, f)


class _Evaluator:
    def __init__(self, structure: SigmaStructure, diagnostics):
        if len(structure.elements) > MAX_ELEMENTS:
            raise MsoError(
                f"structure has {len(structure.elements)} elements; the evaluator handles at most {MAX_ELEMENTS}"
            )
        self.structure = structure
        self.n = len(structure.elements)
        self.nsets = 1 << self.n
        self.index = {e: i for i, e in enumerate(structure.elements)}
        self.relations = _relation_map(structure, self.index)
        self.diagnostics = diagnostics
        self.memo: dict = {}
        self.member = ((np.arange(self.nsets) >> np.arange(self.n)[:, None]) & 1).astype(bool)
        self.subsets = None  # cells [X, Y] of X <= Y and their transpose, built on first use

    def bounded(self, plan: _Plan) -> bool:
        """Whether no node of the plan can outgrow the cell budget."""
        fo, so = plan.widest
        return self.n ** fo * self.nsets ** so <= CELL_LIMIT

    def fits(self, i: int, env: dict) -> bool:
        """Whether evaluating node i under env stays within the cell budget."""
        if self.small:
            return True
        assigned = frozenset(v for v in self.plan.names[i] if v in env)
        return self.plan.peak(i, self.n, assigned) <= CELL_LIMIT

    def run(self, plan: _Plan, env: dict) -> bool:
        self.plan = plan
        missing = sorted(set(plan.names[plan.root]) - env.keys())
        if missing:
            raise MsoError(f"free variables without assignment: {missing}")
        _check_arities(plan.atoms, self.structure)
        self.small = self.bounded(plan)
        arr, axes = self.eval(plan.root, env)
        assert axes == ()
        return bool(arr)

    # -- array plumbing

    def ones(self, axes: tuple):
        return np.ones([self.n if kind == "fo" else self.nsets for kind, _ in axes], dtype=bool), axes

    def combine(self, left, right, op):
        """op (bitwise and/or, or <= for implication) of two values on the
        sorted union of their axes.  Each operand gets length-one axes for
        those of the union it lacks; the layout and the result's cell
        count are kept on the plan.  A result of at most ``SMALL_CELLS``
        cells is computed on the bool arrays, a larger one on uint8 views:
        on cells of 0 or 1 the byte op is the logical op."""
        (la, laxes), (ra, raxes) = left, right
        key = (self.n, laxes, raxes)
        if key not in self.plan.layouts:
            axes = tuple(sorted({*laxes, *raxes}))
            sizes = [self.n if kind == "fo" else self.nsets for kind, _ in axes]
            shapes = ([s if ax in part else 1 for s, ax in zip(sizes, axes)] for part in (laxes, raxes))
            self.plan.layouts[key] = (axes, *shapes, prod(sizes))
        axes, lshape, rshape, cells = self.plan.layouts[key]
        if cells <= SMALL_CELLS:
            return op(la.reshape(lshape), ra.reshape(rshape)), axes
        return op(la.reshape(lshape).view(np.uint8), ra.reshape(rshape).view(np.uint8)).view(bool), axes

    # -- evaluation

    def eval(self, i: int, env: dict):
        """(array, axes) of node i under env.  A leaf is computed on the
        spot; any other node evaluates in a generator frame that yields
        (node, env) for a subformula's value and is sent it back.  The frames
        live on an explicit stack, so nesting depth is not bounded by
        Python's recursion limit."""
        names, kind = self.plan.names, self.plan.kind
        frames: list = []
        value = None
        request = (i, env)
        while True:
            if request is not None:
                j, env = request
                key = (j, tuple(map(env.get, names[j]))) if env else j
                value = self.memo.get(key)
                if value is None and kind[j] < NEG:  # a leaf's array is small or kept anyway
                    value = self.memo[key] = self._leaf(j, env)
                elif value is None:
                    frames.append((key, self._inner(j, env)))
                if not frames:
                    return value
            key, frame = frames[-1]
            try:
                request = frame.send(value)
                continue
            except StopIteration as stop:
                value = stop.value
            frames.pop()
            if value[0].size <= MEMO_CELL_LIMIT:
                self.memo[key] = value  # caching big arrays per env value would hoard memory
            if not frames:
                return value
            request = None

    def _leaf(self, i: int, env: dict):
        formula = self.plan.nodes[i]
        kind = self.plan.kind[i]
        if kind == BOOL:
            return np.bool_(formula.value), ()
        if kind == ATOM:
            return self._table(self.relations.get(formula.relation, []), formula.args, env)
        if kind == VAREQ:
            return self._table([(k, k) for k in range(self.n)], (formula.left, formula.right), env)
        if kind == IN:
            x, X = formula.element, formula.container
            if x in env and X in env:
                return np.bool_(bool((env[X] >> env[x]) & 1)), ()
            if X in env:
                return self.member[:, env[X]], (("fo", x),)
            if x in env:
                return self.member[env[x]], (("set", X),)
            return self.member, (("fo", x), ("set", X))
        X, Y = formula.left, formula.right  # Subset
        if X in env and Y in env:
            return np.bool_((env[X] & ~env[Y]) == 0), ()
        if X in env:
            return (env[X] & ~np.arange(self.nsets)) == 0, (("set", Y),)
        if Y in env:
            return (np.arange(self.nsets) & ~env[Y]) == 0, (("set", X),)
        if X == Y:
            return np.ones(self.nsets, dtype=bool), (("set", X),)
        if self.subsets is None:
            sets = np.arange(self.nsets)
            table = (sets[:, None] & ~sets[None, :]) == 0
            self.subsets = (table, np.ascontiguousarray(table.T))
        return self.subsets[Y < X], (("set", min(X, Y)), ("set", max(X, Y)))

    def _inner(self, i: int, env: dict):
        kind = self.plan.kind[i]
        kids = self.plan.kids[i]
        if kind == NEG:
            arr, axes = yield kids[0], env
            return ~arr, axes
        # A constant function may be represented with fewer axes than its
        # free variables, so a decisive left operand can stand for the whole
        # connective without touching the right subtree.
        if kind == CONJ:
            la, laxes = yield kids[0], env
            if not _any(la):
                return la, laxes
            return self.combine((la, laxes), (yield kids[1], env), operator.and_)
        if kind == DISJ:
            la, laxes = yield kids[0], env
            if _all(la):
                return la, laxes
            return self.combine((la, laxes), (yield kids[1], env), operator.or_)
        if kind == IMPLIES:
            la, laxes = yield kids[0], env
            if not _any(la):
                return ~la, laxes
            return self.combine((la, laxes), (yield kids[1], env), operator.le)  # a <= b: a implies b
        if kind == BOUND:
            return (yield from self._bound(i, kids[0], env))
        return (yield from self._quantifier(i, kids[0], env))

    def _table(self, tuples, args, env):
        free = sorted({a for a in args if a not in env})
        arr = np.zeros((self.n,) * len(free), dtype=bool)
        for t in tuples:
            coord: dict = {}
            if all(env[a] == v if a in env else coord.setdefault(a, v) == v for v, a in zip(t, args)):
                arr[tuple(coord[a] for a in free)] = True
        return arr, tuple(("fo", a) for a in free)

    def _quantifier(self, i: int, body: int, env: dict):
        kind = self.plan.kind[i]
        over_sets = kind in (EXISTS_SET, FORALL_SET)
        existential = kind in (EXISTS_FO, EXISTS_SET)
        var = self.plan.nodes[i].var
        axis = ("set", var) if over_sets else ("fo", var)
        if var in env:  # the body sees the bound variable, not an outer value of its name
            env = {k: v for k, v in env.items() if k != var}
        if self.fits(body, env):
            arr, axes = yield body, env
            if axis not in axes:
                if not self.n and not over_sets:  # no element: exists is false and forall true
                    return np.full(arr.shape, not existential), axes
                return arr, axes
            k = axes.index(axis)
            return _reduce(arr, k, existential), axes[:k] + axes[k + 1:]
        # body too large to vectorize: loop over the quantified values
        acc = acc_axes = None
        inner = dict(env)
        for value in range(self.nsets if over_sets else self.n):
            inner[var] = value
            arr, axes = yield body, inner
            if acc is None:
                acc, acc_axes = arr, axes
            else:
                acc, acc_axes = self.combine(
                    (acc, acc_axes), (arr, axes), operator.or_ if existential else operator.and_
                )
            if _all(acc) if existential else not _any(acc):
                break  # every cell decided, further values cannot change it
        return acc, acc_axes

    def _bound(self, i: int, body: int, env: dict):
        var = self.plan.nodes[i].var
        axis = ("set", var)
        if self.diagnostics is None:
            # Truth does not depend on the body here, so only a diagnostics
            # request justifies sweeping the subsets for the largest witness.
            remaining = tuple(("fo", v) for v in self.plan.fo[i] if v not in env)
            return self.ones(remaining + tuple(("set", v) for v in self.plan.so[i] if v not in env))
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
            elif _any(arr):  # the body does not read the set, so every subset satisfies it
                max_size = self.n
            remaining = tuple(ax for ax in axes if ax != axis)
        else:
            inner = dict(env)
            remaining = None
            for value in range(self.nsets):
                inner[var] = value
                arr, axes = yield body, inner
                if remaining is None:
                    remaining = axes
                if _any(arr):
                    size = bin(value).count("1")
                    if max_size is None or size > max_size:
                        max_size = size
            if remaining is None:
                remaining = ()
        self.diagnostics.setdefault("bounded_sets", []).append({"var": var, "max_size": max_size})
        return self.ones(remaining)


def _reduce(arr, k: int, existential: bool):
    """any (existential) or all of arr along axis k.  numpy reduces a
    short innermost axis slowly, so a large array whose last axis, the
    one reduced, holds 32 or 64 cells has that axis packed into one
    32- or 64-bit word per row and compared with zero or all ones.
    Packing pays from about ``SMALL_CELLS``: on (cells/64, 64) arrays the
    plain reduction took 1.4/2.5/4.1/9.0 us at 1,024/4,096/8,192/24,576
    cells against 2.1/2.7/3.3/5.5 us packed."""
    if k == arr.ndim - 1 and arr.shape[k] in (32, 64) and arr.size > SMALL_CELLS:
        word = np.packbits(arr, axis=k).view(f"u{arr.shape[k] // 8}")[..., 0]
        return word != 0 if existential else word == np.iinfo(word.dtype).max
    return (np.logical_or if existential else np.logical_and).reduce(arr, axis=k)  # any/all, minus a wrapper


def _any(arr) -> bool:
    """Whether some cell is true.  Per call, ``bool`` costs least on a
    scalar, ``count_nonzero`` on a small array and ``any`` on a large
    one, which stops at the first chunk holding a true cell.  Timed on
    the same arrays over every call of criterion 03: ``count_nonzero``
    took 27.5 ms on its 26,604 scalars against 4.2 ms for ``bool``, and
    156 ms on its 6,658 arrays above ``SMALL_CELLS`` against 13 ms for
    any/all."""
    if not arr.ndim:
        return bool(arr)
    return bool(np.count_nonzero(arr)) if arr.size <= SMALL_CELLS else bool(arr.any())


def _all(arr) -> bool:
    """Whether every cell is true, as ``_any`` decides it."""
    if not arr.ndim:
        return bool(arr)
    return np.count_nonzero(arr) == arr.size if arr.size <= SMALL_CELLS else bool(arr.all())


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
    plan = _plan(formula)
    if diagnostics is None and not ev.bounded(plan):
        plan = _plan(formula, scoped=True)
    return ev.run(plan, env)


def eval_finite_slow(
    formula: MsoFormula, structure: SigmaStructure, assignment: dict | None = None
) -> bool:
    """Reference evaluator: plain recursion, no arrays, no sharing."""
    if len(structure.elements) > MAX_ELEMENTS:
        raise MsoError("structure too large")
    _check_arities([g for g in postorder(formula) if type(g) is Atom], structure)
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
