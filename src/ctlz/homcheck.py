"""Deciding whether a finite sigma-structure maps homomorphically into
the integer domain (or N, negZ, Q), with an explicit witness or a
machine-readable failure reason.

``decide_hom`` builds the quotient by the equivalence closure of I(=)
once and runs every later step on its classes:

1. reject a class with two constants, a class with pairwise-incompatible
   congruences, and a strict-order cycle (found by an iterative
   depth-first search);
2. order the classes topologically (Kahn, smallest ready index first);
3. build the values:
   - Z: split the classes into the bounded part B (on a path between two
     constants), the part G above B, the part S below B, and the rest R;
     solve B greedily inside the constant window; give the free parts
     order-preserving longest-path potentials scaled to respect the
     congruences; glue with offsets that clear the window on both sides;
   - N: the Z path, where without constants every class lands in R;
   - negZ: downward longest-path potentials on the whole quotient;
   - Q: reject a pinned class with a constant no larger than one below
     it (one reverse-topological pass), else the Z values with every
     constant scaled by K, divided by K (see ``_values_q``).

A final verification pass re-checks every tuple, so a returned witness is
always sound; a failure there raises ``InternalError``.

On finite structures, acyclicity already bounds every strict-order path
by the element count, which is why no separate path-length condition
appears here.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, inf, lcm, prod

from .domains import DomainError, domain_by_name
from .formulas import CONSTANT, EQUAL, LESS, MODULO
from .structures import SigmaStructure, json_text

TARGET_DOMAINS = ("Z", "N", "negZ", "Q")


class InternalError(Exception):
    """A synthesized witness failed verification: a defect in this
    module, never a property of the input."""


@dataclass(frozen=True)
class HomReason:
    kind: str
    details: dict

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in sorted(self.details):
            out[key] = _jsonable(self.details[key])
        return out


@dataclass(frozen=True)
class HomDecision:
    verdict: bool
    witness: dict | None
    reason: HomReason | None

    def to_json(self, element_order: list | None = None) -> str:
        witness = None
        if self.witness is not None:
            order = element_order if element_order is not None else sorted(self.witness)
            values = self.witness
            if set(map(type, values.values())) <= {int}:  # plain ints need no conversion
                witness = {e: values[e] for e in order}
            else:
                witness = {e: _jsonable(values[e]) for e in order}
        payload = {
            "reason": self.reason.to_json_dict() if self.reason else None,
            "verdict": "yes" if self.verdict else "no",
            "witness": witness,
        }
        return json_text(payload)


def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _no(kind: str, **details) -> HomDecision:
    return HomDecision(False, None, HomReason(kind, details))


# ---------------------------------------------------------------------------
# Quotient under the equivalence closure of I(=)


@dataclass
class Quotient:
    classes: list  # list[list[element]], each in declaration order
    class_of: dict  # element -> class index
    constants: list  # per class: sorted constant parameters
    modulos: list  # per class: sorted (a, b) pairs
    succs: list  # per class: ascending successor classes along lifted I(<)
    preds: list  # per class: ascending predecessor classes along lifted I(<)


def sim_closure(structure: SigmaStructure) -> dict:
    """Union-find roots for the equivalence closure of I(=)."""
    parent = {e: e for e in structure.elements}
    pairs = [t for rel, tuples in structure.interpretation.items() if rel.kind == EQUAL for t in tuples]
    if not pairs:
        return parent

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    index = {e: i for i, e in enumerate(structure.elements)}
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the earliest-declared element as representative
            if index[ra] > index[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
    # every parent is declared before its child: one pass in declaration
    # order leaves each element's root
    for e in structure.elements:
        parent[e] = parent[parent[e]]
    return parent


def build_quotient(structure: SigmaStructure) -> Quotient:
    roots = sim_closure(structure)
    classes: list = []
    number: dict = {}  # root -> class index, in order of first member
    for e in structure.elements:
        ci = number.get(roots[e])
        if ci is None:
            number[roots[e]] = len(classes)
            classes.append([e])
        else:
            classes[ci].append(e)
    class_of = {e: ci for ci, members in enumerate(classes) for e in members}

    edges = set()
    constants: dict = {}  # class -> set, only for classes that have some
    modulos: dict = {}
    for rel, tuples in structure.interpretation.items():
        if rel.kind == LESS:
            for a, b in tuples:
                edges.add((class_of[a], class_of[b]))
        elif rel.kind == CONSTANT:
            for (a,) in tuples:
                constants.setdefault(class_of[a], set()).add(rel.params[0])
        elif rel.kind == MODULO:
            for (a,) in tuples:
                modulos.setdefault(class_of[a], set()).add(rel.params)
    succs = [[] for _ in classes]
    preds = [[] for _ in classes]
    for a, b in sorted(edges):
        succs[a].append(b)
        preds[b].append(a)
    # ints and Fractions compare natively, and numerically equal constants
    # are one relation symbol, so a plain sort orders each class's pins
    return Quotient(
        classes,
        class_of,
        [sorted(constants[ci]) if ci in constants else [] for ci in range(len(classes))],
        [sorted(modulos[ci]) if ci in modulos else [] for ci in range(len(classes))],
        succs,
        preds,
    )


def check_cycle(quotient: Quotient):
    """A list of class indices forming a strict-order cycle, or None.

    Depth-first search from every unvisited class in index order,
    successors in ascending order; the cycle is the part of the search
    path from the first class met again while still open."""
    succs = quotient.succs
    OPEN, DONE = 1, 2
    state = [0] * len(succs)
    for root in range(len(succs)):
        if state[root]:
            continue
        state[root] = OPEN
        path, pending = [root], [iter(succs[root])]
        while pending:
            for w in pending[-1]:
                if state[w] == OPEN:
                    return path[path.index(w):]
                if not state[w]:
                    state[w] = OPEN
                    path.append(w)
                    pending.append(iter(succs[w]))
                    break
            else:
                pending.pop()
                state[path.pop()] = DONE
    return None


def _topological_order(quotient: Quotient, members) -> list:
    """The classes in ``members`` (an acyclic part of the quotient) in
    topological order of the edges between them, always taking the
    smallest ready class index first."""
    indeg = dict.fromkeys(members, 0)
    for v in indeg:
        for w in quotient.succs[v]:
            if w in indeg:
                indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in quotient.succs[v]:
            if w in indeg:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
    return order


def _reach(seed, step: list) -> set:
    """Classes reachable from ``seed`` (included) along ``step``."""
    seen = set(seed)
    todo = list(seen)
    while todo:
        for w in step[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def crt_pair(a1: int, b1: int, a2: int, b2: int):
    """Least nonnegative x with x = a1 (mod b1) and x = a2 (mod b2), with
    the combined modulus; None when the pair is incompatible."""
    g = gcd(b1, b2)
    if (a2 - a1) % g != 0:
        return None
    lcm = b1 // g * b2
    step = b2 // g
    t = ((a2 - a1) // g * pow(b1 // g, -1, step)) % step if step > 1 else 0
    return ((a1 + b1 * t) % lcm, lcm)


def check_modulo_contradiction(quotient: Quotient):
    """First class whose congruences are pairwise incompatible."""
    for ci, ms in enumerate(quotient.modulos):
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                a1, b1 = ms[i]
                a2, b2 = ms[j]
                if (a2 - a1) % gcd(b1, b2) != 0:
                    return (ci, ms[i], ms[j])
    return None


def class_residue(quotient: Quotient, ci: int):
    """Fold the class congruences with CRT; None if incompatible."""
    value, modulus = 0, 1
    for a, b in quotient.modulos[ci]:
        merged = crt_pair(value, modulus, a, b)
        if merged is None:
            return None
        value, modulus = merged
    return value, modulus


# ---------------------------------------------------------------------------
# The bounded / greater / smaller / rest partition


def partition_bgsr(quotient: Quotient):
    """Split the classes by reachability between constants along <.

    Returns (B, G, S, R) as sets of class indices: B holds the classes on
    a path between two pinned classes, G those reachable from B, S those
    reaching B, R the rest.  With no constants everything lands in R.
    """
    pinned = [ci for ci, cs in enumerate(quotient.constants) if cs]
    above, below = _reach(pinned, quotient.succs), _reach(pinned, quotient.preds)
    bounded = above & below
    # B holds every pinned class, so what B reaches is what they reach
    greater, smaller = above - bounded, below - bounded
    rest = set(range(len(quotient.classes))) - above - below
    return bounded, greater, smaller, rest


# ---------------------------------------------------------------------------
# Value synthesis on an acyclic quotient with consistent unaries


def _solve_bounded(quotient: Quotient, bounded: set, residues: list, m: int, M: int, scale: int):
    """Greedy minimal values in [m, M] for the bounded classes, in
    topological order; complete because every constraint (strict order
    below, congruence, pinned constant) is monotone: raising predecessors
    never helps a stuck class.  Returns (values, None), or (None, ci) for
    the first class left without a value."""
    values: dict = {}
    for ci in _topological_order(quotient, bounded):
        lower = max([m] + [values[p] + 1 for p in quotient.preds[ci] if p in bounded])
        residue, modulus = residues[ci]
        if quotient.constants[ci]:
            v = int(quotient.constants[ci][0] * scale)
            if v < lower or v % modulus != residue:
                return None, ci
        else:
            v = lower + (residue - lower) % modulus
            if v > M:
                return None, ci
        values[ci] = v
    return values, None


def _potentials(quotient: Quotient, order: list, members: set, upward: bool) -> dict:
    """Order potentials of the classes in ``members``, using only the
    edges between them: the longest strict-order path ending at a class
    (upward, values from 0), or the negated longest path starting from
    it (downward, values at or below -1)."""
    g: dict = {}
    if upward:
        for v in order:
            if v in members:
                g[v] = max((g[p] + 1 for p in quotient.preds[v] if p in members), default=0)
    else:
        for v in reversed(order):
            if v in members:
                g[v] = min((g[s] for s in quotient.succs[v] if s in members), default=0) - 1
    return g


def _values_z(quotient: Quotient, order: list, parts: tuple, window: tuple, scale: int = 1):
    """Class values for target Z, or a negative decision when the bounded
    part does not fit the constant window; ``window`` is the structure's
    ``_window``, and every constant c counts as ``scale * c``, in a window
    widened to integers."""
    residues = [class_residue(quotient, ci) for ci in range(len(quotient.classes))]
    delta, low, high = window
    m, M = floor(scale * low), ceil(scale * high)
    bounded, greater, smaller, rest = parts

    values, stuck = _solve_bounded(quotient, bounded, residues, m, M, scale)
    if stuck is not None:
        return _no("bounded_infeasible", element=quotient.classes[stuck][0])
    # one upward pass over G | S | R serves G too (it dominates a pass over
    # G alone), and S's downward potentials (at most -1) lie below its
    # upward ones (at least 0), so they alone place S
    g_r = _potentials(quotient, order, greater | smaller | rest, upward=True)
    g_s = _potentials(quotient, order, smaller, upward=False)
    for ci in rest:
        values[ci] = delta * g_r[ci] + residues[ci][0]
    for ci in greater:
        values[ci] = delta * g_r[ci] + residues[ci][0] + delta * (M + 1)
    for ci in smaller:
        values[ci] = delta * g_s[ci] + residues[ci][0] + delta * (m - 1)
    return values


def _order_constant_conflict(quotient: Quotient, order: list, denominator: int):
    """A negative decision when a pinned class has a constant no larger
    than its own below it in the order, else None.  Pins are compared as
    integers, scaled by ``denominator``, a common multiple of theirs."""
    pinned = {ci: cs[0] for ci, cs in enumerate(quotient.constants) if cs}
    pin = {ci: c.numerator * (denominator // c.denominator) for ci, c in pinned.items()}
    # least pinned constant strictly below, and at or below, each class
    upper_pin = [inf] * len(quotient.classes)
    least_pin = list(upper_pin)
    for ci in reversed(order):
        upper_pin[ci] = least = min([least_pin[s] for s in quotient.succs[ci]], default=inf)
        least_pin[ci] = min(least, pin.get(ci, inf))

    for a in sorted(pin):
        if upper_pin[a] <= pin[a]:
            below = _reach(quotient.succs[a], quotient.succs)
            b = min(ci for ci in below if ci in pin and pin[ci] <= pin[a])
            return _no(
                "order_constant_conflict",
                lower=quotient.classes[a][0],
                upper=quotient.classes[b][0],
                lower_constant=pinned[a],
                upper_constant=pinned[b],
            )
    return None


def _values_q(quotient: Quotient, order: list, denominator: int, window: tuple):
    """Q values: the Z values with every constant scaled by K, divided by
    K.  K = D * max(1, L) for D the least common ``denominator`` of the
    pins and L the longest strict path in B; pins p < q on a path have
    K * (q - p) >= L, so the bounded solve never gets stuck."""
    parts = partition_bgsr(quotient)
    longest = max(_potentials(quotient, order, parts[0], upward=True).values(), default=0)
    scale = denominator * max(1, longest)
    values = _values_z(quotient, order, parts, window, scale)
    if isinstance(values, HomDecision):
        raise InternalError("scaled Q constants left a bounded class without a value")
    return {ci: Fraction(v, scale) for ci, v in values.items()}


# ---------------------------------------------------------------------------
# Verification and the main decision


def _signature_check(structure: SigmaStructure, target: str) -> None:
    for rel in structure.interpretation:
        if rel.kind == LESS or rel.kind == EQUAL:
            continue
        if rel.kind == CONSTANT:
            c = rel.params[0]
            if target == "Z" and isinstance(c, int):
                continue
            if target == "Q" and isinstance(c, (int, Fraction)):
                continue
            raise DomainError(f"target {target} does not accept {rel.name}")
        if rel.kind == MODULO and target in ("Z", "N", "negZ"):
            continue
        raise DomainError(f"target {target} does not accept {rel.name}")


def verify_hom(structure: SigmaStructure, h: dict, target: str, explain: bool = False):
    """Check h element-wise and tuple-wise against the target domain."""
    dom = domain_by_name(target)
    for e in structure.elements:
        if e not in h:
            return (False, ("missing", e)) if explain else False
        if not dom.check_value(h[e]):
            return (False, ("value", e)) if explain else False
    for rel, tuples in structure.interpretation.items():
        if not tuples:
            continue
        holds = dom.relation_test(rel)
        for t in tuples:
            if not holds(tuple(map(h.__getitem__, t))):
                return (False, (rel.name, t)) if explain else False
    return (True, None) if explain else True


def _window(structure: SigmaStructure) -> tuple:
    """(delta, low, high) from one pass over the signature: the product
    of the distinct moduli it declares, and the constant window
    [min(0, c), max(0, c)] over the constants c it declares."""
    moduli = set()
    low = high = 0
    for rel in structure.interpretation:
        if rel.kind == CONSTANT:
            c = rel.params[0]
            if c < low:
                low = c
            elif c > high:
                high = c
        elif rel.kind == MODULO:
            moduli.add(rel.params[1])
    return prod(moduli), low, high


def witness_bound(structure: SigmaStructure) -> int:
    """Magnitude bound delta * (n + |m| + |M| + 3) that a synthesized
    witness never exceeds, for [m, M] the constant window widened to
    integers; also the sweep radius for the brute-force oracle to be a
    complete refutation."""
    delta, low, high = _window(structure)
    return delta * (len(structure.elements) - floor(low) + ceil(high) + 3)


def decide_hom(structure: SigmaStructure, target: str = "Z") -> HomDecision:
    """Decide mappability into the target and produce witness or reason."""
    if target not in TARGET_DOMAINS:
        raise DomainError(f"unknown target {target!r}")
    _signature_check(structure, target)
    quotient = build_quotient(structure)
    # after the signature check only Z and Q have constants and only Z, N
    # and negZ congruences, so one sequence of refutations serves them all
    for ci, cs in enumerate(quotient.constants):
        if len(cs) > 1:
            return _no("constant_clash", element=quotient.classes[ci][0], constants=cs[:2])
    clash = check_modulo_contradiction(quotient)
    if clash is not None:
        ci, first, second = clash
        return _no("modulo_contradiction", element=quotient.classes[ci][0], first=first, second=second)
    cycle = check_cycle(quotient)
    if cycle is not None:
        return _no("cycle", elements=[quotient.classes[ci][0] for ci in cycle])

    order = _topological_order(quotient, range(len(quotient.classes)))
    window = _window(structure)
    if target == "negZ":
        g = _potentials(quotient, order, set(order), upward=False)
        values = {ci: window[0] * g[ci] + class_residue(quotient, ci)[0] for ci in order}
    elif target == "Q":
        lcd = lcm(*(cs[0].denominator for cs in quotient.constants if cs))
        values = _order_constant_conflict(quotient, order, lcd) or _values_q(quotient, order, lcd, window)
    else:
        values = _values_z(quotient, order, partition_bgsr(quotient), window)
    if isinstance(values, HomDecision):
        return values
    h = {e: values[quotient.class_of[e]] for e in structure.elements}
    if not verify_hom(structure, h, target):
        raise InternalError(f"synthesized {target} witness failed verification")
    return HomDecision(True, h, None)


# ---------------------------------------------------------------------------
# Independent brute-force oracle


def brute_force_hom(structure: SigmaStructure, bound: int, target: str = "Z"):
    """First verifying map (lexicographic in declaration order, values
    ascending) with values in [-bound, bound], or None.

    Backtracking over equality classes in declaration order, each trying
    its candidate values in ascending order after the unary filters.
    Forward checking (Haralick and Elliott) is the only order
    propagation: it narrows every range once along the order edges, then
    each value narrows the ranges of the classes the edges tie it to, and
    a value that empties a range is skipped.  This pruning removes only
    values that extend to no complete map, so the first map found is the
    one plain enumeration finds first.
    """
    _signature_check(structure, target)
    elements = structure.elements
    n = len(elements)
    if n == 0:
        return {}

    # local union-find over I(=); deliberately separate from the pipeline
    parent = list(range(n))
    index = {e: i for i, e in enumerate(elements)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    less: list = []  # the I(<) pairs, in declaration order
    unary: list = []  # (relation, tuples) of the constants and congruences
    for rel, tuples in structure.interpretation.items():
        if rel.kind == EQUAL:
            for a, b in tuples:
                ra, rb = find(index[a]), find(index[b])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        elif rel.kind == LESS:
            less += tuples
        else:
            unary.append((rel, tuples))
    number: dict = {}  # root -> class index, in order of first member
    cls = {}
    for i, e in enumerate(elements):
        parent[i] = root = parent[parent[i]]  # every parent precedes its child
        cls[e] = number.setdefault(root, len(number))
    k = len(number)
    # the cycle test reads only the order edges, so it runs before the
    # unaries are gathered
    succs, order = _kahn_order(k, {(cls[a], cls[b]) for a, b in less})
    if len(order) < k:
        return None  # a strict-order cycle
    consts = [set() for _ in range(k)]
    mods = [set() for _ in range(k)]
    for rel, tuples in unary:
        if rel.kind == CONSTANT:
            for (a,) in tuples:
                consts[cls[a]].add(rel.params[0])
        elif rel.kind == MODULO:
            for (a,) in tuples:
                mods[cls[a]].add(rel.params)
    candidates = _candidates(target, bound, n, consts, mods)
    if candidates is None:
        return None
    solution = _first_assignment(candidates, succs, order)
    if solution is None:
        return None
    return {e: solution[cls[e]] for e in elements}


def _kahn_order(k: int, edges: set):
    """(successor lists, topological order) of the k classes under the
    edges, the order first-in first-out from the classes without
    predecessors; a class on or behind a strict-order cycle is left out."""
    succs = [[] for _ in range(k)]
    indegree = [0] * k
    for a, b in edges:
        succs[a].append(b)
        indegree[b] += 1
    order = [ci for ci in range(k) if indegree[ci] == 0]
    for a in order:  # the list grows while it is read: a FIFO queue
        for b in succs[a]:
            indegree[b] -= 1
            if indegree[b] == 0:
                order.append(b)
    return succs, order


def _candidates(target: str, bound: int, n: int, consts: list, mods: list):
    """Per class, its ascending values in the target's part of [-bound,
    bound] after the unary filters, or None when some class has none; the
    classes without unaries share one base (a range, or for Q the fractions
    with denominators up to n + 1), and a pin stands alone, on it or off."""
    if target == "Q":
        base = sorted({Fraction(p, q) for q in range(1, n + 2) for p in range(-bound * q, bound * q + 1)})
    else:
        base = range(0 if target == "N" else -bound, 0 if target == "negZ" else bound + 1)
    candidates = []
    for cs, ms in zip(consts, mods):
        vals = base
        if cs:
            if len(cs) > 1:
                return None
            (c,) = cs  # after the signature check only Z (ints) and Q have pins
            vals = [Fraction(c) if target == "Q" else c] if -bound <= c <= bound else []
        if ms:
            # the values meeting the congruences repeat with the lcm of
            # the moduli: every lcm-th value from the first that meets them
            step = lcm(*(b for _, b in ms))
            first = next((i for i, v in enumerate(vals[:step]) if all(v % b == a for a, b in ms)), len(vals))
            vals = vals[first::step]
        if not vals:
            return None
        candidates.append(vals)
    return candidates


def _first_assignment(candidates: list, succs: list, order: list):
    """First assignment of the classes, lexicographic in class order and
    candidate order, with h[a] < h[b] for every b in ``succs[a]``, or None.
    Each class's candidates ascend; ``order`` is a topological order of
    the edges.

    Forward checking: every class keeps a window [lo, hi) of indices into
    its candidates, narrowed once over all classes before the search and
    again after each value a class takes.  The lower ends of the windows
    after it along the edges rise and the upper ends of those before it
    fall, transitively in ``order``, each to a candidate of its class by
    bisection (on a range, the next value of its congruence
    progression).  A value that empties a window extends to no complete
    map and is skipped, as are the values outside a class's window; the
    values tried keep their order, so the first map is the one plain
    chronological backtracking finds.  With only strict-order edges,
    the least value left in a narrowed window always extends, so the
    search does not backtrack in practice; it stays exact without that
    argument.  Backtracking runs on an explicit cursor per class and a
    trail of window changes, so the class count is not bounded by the
    recursion limit."""
    k = len(candidates)
    preds = [[] for _ in range(k)]
    rank = [0] * k
    for r, a in enumerate(order):
        rank[a] = r
        for b in succs[a]:
            preds[b].append(a)
    lo = [0] * k
    hi = [len(vals) for vals in candidates]
    trail: list = []  # (class, lo, hi) before each narrowing

    def narrow(start) -> bool:
        """Narrow the windows along the edges from the classes in
        ``start``; False as soon as one empties."""
        todo = [(rank[a], a) for a in start]
        heapq.heapify(todo)
        while todo:  # lower ends, forward
            a = heapq.heappop(todo)[1]
            least = candidates[a][lo[a]]
            for b in succs[a]:
                new = bisect_right(candidates[b], least)
                if new > lo[b]:
                    trail.append((b, lo[b], hi[b]))
                    lo[b] = new
                    if new >= hi[b]:
                        return False
                    heapq.heappush(todo, (rank[b], b))
        todo = [(-rank[b], b) for b in start]
        heapq.heapify(todo)
        while todo:  # upper ends, backward
            b = heapq.heappop(todo)[1]
            most = candidates[b][hi[b] - 1]
            for a in preds[b]:
                new = bisect_left(candidates[a], most)
                if new < hi[a]:
                    trail.append((a, lo[a], hi[a]))
                    hi[a] = new
                    if new <= lo[a]:
                        return False
                    heapq.heappush(todo, (-rank[a], a))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            a, lo[a], hi[a] = trail.pop()

    if not narrow(order):
        return None
    mark = [0] * k  # per class: trail length before its value
    cursor = [0] * k  # per class: index of the next candidate to try
    ci = 0
    while 0 <= ci < k:
        for i in range(max(cursor[ci], lo[ci]), hi[ci]):
            mark[ci] = len(trail)
            trail.append((ci, lo[ci], hi[ci]))
            lo[ci], hi[ci] = i, i + 1
            if narrow((ci,)):
                cursor[ci] = i + 1
                ci += 1
                break
            undo(mark[ci])
        else:
            cursor[ci] = 0
            ci -= 1
            if ci >= 0:
                undo(mark[ci])
    return [vals[i] for vals, i in zip(candidates, lo)] if ci == k else None
