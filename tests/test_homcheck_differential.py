"""``decide_hom`` against the value synthesis it replaced.

Before, N and negZ took longest-path potentials on the whole quotient
(``plain_values_free``) and Q put every unpinned class at the midpoint of
its neighbours (``plain_values_q``).  Now N and Q go through the Z path,
Q on a copy with every constant scaled by K = D * max(1, L).  On seeded
random structures with order, equality, integer and fractional
constants and congruences:

- Z, N and negZ decisions print the same JSON as the reference;
- Q verdicts and reasons are the reference's, and every Q witness
  verifies, with denominators at most D * max(1, L);
- every witness of every target lies within ``witness_bound``.
"""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

from ctlz import EQ, LT, SigmaStructure, const_rel, decide_hom, mod_rel, verify_hom, witness_bound
from ctlz.homcheck import (
    HomDecision,
    _no,
    _potentials,
    _reach,
    _signature_check,
    _topological_order,
    build_quotient,
    check_cycle,
    check_modulo_contradiction,
    class_residue,
    partition_bgsr,
)


def plain_solve_bounded(quotient, bounded, residues, m, M):
    values = {}
    for ci in _topological_order(quotient, bounded):
        lower = max([m] + [values[p] + 1 for p in quotient.preds[ci] if p in bounded])
        residue, modulus = residues[ci]
        if quotient.constants[ci]:
            v = quotient.constants[ci][0]
            if v < lower or v % modulus != residue:
                return None, ci
        else:
            v = lower + (residue - lower) % modulus
            if v > M:
                return None, ci
        values[ci] = v
    return values, None


def plain_values_z(structure, quotient, order):
    residues = [class_residue(quotient, ci) for ci in range(len(quotient.classes))]
    delta = prod(structure.moduli())
    m = min([0] + structure.constants())
    M = max([0] + structure.constants())
    bounded, greater, smaller, rest = partition_bgsr(quotient)
    values, stuck = plain_solve_bounded(quotient, bounded, residues, m, M)
    if stuck is not None:
        return _no("bounded_infeasible", element=quotient.classes[stuck][0])
    g_r = _potentials(quotient, order, greater | smaller | rest, upward=True)
    g_g = _potentials(quotient, order, greater, upward=True)
    g_s = _potentials(quotient, order, smaller, upward=False)
    for ci in rest:
        values[ci] = delta * g_r[ci] + residues[ci][0]
    for ci in greater:
        values[ci] = delta * max(g_r[ci], g_g[ci]) + residues[ci][0] + delta * (M + 1)
    for ci in smaller:
        values[ci] = delta * min(g_r[ci], g_s[ci]) + residues[ci][0] + delta * (m - 1)
    return values


def plain_values_free(structure, quotient, order, target):
    delta = prod(structure.moduli())
    g = _potentials(quotient, order, set(order), upward=target == "N")
    return {ci: delta * g[ci] + class_residue(quotient, ci)[0] for ci in order}


def plain_values_q(quotient, order):
    pinned = {ci: cs[0] for ci, cs in enumerate(quotient.constants) if cs}
    pin = {ci: Fraction(c) for ci, c in pinned.items()}
    upper_pin = [None] * len(quotient.classes)
    for ci in reversed(order):
        bounds = [pin[s] for s in quotient.succs[ci] if s in pin]
        bounds += [upper_pin[s] for s in quotient.succs[ci] if upper_pin[s] is not None]
        upper_pin[ci] = min(bounds, default=None)
    for a in sorted(pin):
        if upper_pin[a] is not None and upper_pin[a] <= pin[a]:
            below = _reach(quotient.succs[a], quotient.succs)
            b = min(ci for ci in below if ci in pin and pin[ci] <= pin[a])
            return _no(
                "order_constant_conflict",
                lower=quotient.classes[a][0],
                upper=quotient.classes[b][0],
                lower_constant=pinned[a],
                upper_constant=pinned[b],
            )
    values = {}
    for ci in order:
        if ci in pin:
            values[ci] = pin[ci]
            continue
        lower = max((values[p] for p in quotient.preds[ci]), default=None)
        upper = upper_pin[ci]
        if lower is None and upper is None:
            values[ci] = Fraction(0)
        elif lower is None:
            values[ci] = upper - 1
        elif upper is None:
            values[ci] = lower + 1
        else:
            values[ci] = (lower + upper) / 2
    return values


def plain_decide_hom(structure, target):
    _signature_check(structure, target)
    quotient = build_quotient(structure)
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
    if target == "Z":
        values = plain_values_z(structure, quotient, order)
    elif target == "Q":
        values = plain_values_q(quotient, order)
    else:
        values = plain_values_free(structure, quotient, order, target)
    if isinstance(values, HomDecision):
        return values
    return HomDecision(True, {e: values[quotient.class_of[e]] for e in structure.elements}, None)


def _scale(structure) -> int:
    """D * max(1, L): D the least common denominator of the pinned
    constants, L the longest strict path between two pinned classes."""
    quotient = build_quotient(structure)
    pinned = {ci for ci, cs in enumerate(quotient.constants) if cs}
    longest: dict = {}  # class -> longest path from a pinned class to it
    for v in _topological_order(quotient, range(len(quotient.classes))):
        reached = [longest[p] + 1 for p in quotient.preds[v] if p in longest]
        if reached or v in pinned:
            longest[v] = max(reached, default=0)
    d = lcm(*(Fraction(quotient.constants[ci][0]).denominator for ci in pinned))
    return d * max([1] + [longest[ci] for ci in pinned])


_INTEGERS = (-2, 0, 1, 3)
_FRACTIONS = (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(7, 6))
_MODULI = ((0, 2), (1, 2), (1, 3), (2, 4))


def _random_structure(rng, target) -> SigmaStructure:
    """Order and equality edges, plus the unary relations the target
    accepts; some are declared with no rows."""
    n = rng.randint(1, 9)
    elements = [f"e{i}" for i in range(n)]
    rng.shuffle(elements)  # most edges go forward in this order; a few close cycles
    p_lt = rng.choice((0.15, 0.3, 0.5))
    interp = {
        LT: [(a, b) for i, a in enumerate(elements) for b in elements[i + 1:] if rng.random() < p_lt]
        + [(a, b) for a in elements for b in elements if rng.random() < 0.01],
        EQ: [(a, b) for a in elements for b in elements if rng.random() < 0.02],
    }
    unary = []
    if target in ("Z", "Q"):
        unary += [const_rel(c) for c in rng.sample(_INTEGERS, rng.randint(0, 3))]
    if target == "Q":
        unary += [const_rel(c) for c in rng.sample(_FRACTIONS, rng.randint(0, 3))]
    if target != "Q":
        unary += [mod_rel(a, b) for a, b in rng.sample(_MODULI, rng.randint(0, 2))]
    for rel in unary:
        interp[rel] = [(rng.choice(elements),)] if rng.random() < 0.7 else []
    return SigmaStructure(elements, interp)


@pytest.mark.parametrize("seed", range(4))
def test_decide_hom_matches_the_plain_synthesis(seed):
    rng = random.Random(7000 + seed)
    verdicts = set()
    for _ in range(250):
        for target in ("Z", "N", "negZ", "Q"):
            s = _random_structure(rng, target)
            d = decide_hom(s, target)
            ref = plain_decide_hom(s, target)
            verdicts.add((target, d.verdict))
            if target != "Q":
                assert d.to_json() == ref.to_json(), (target, s)
            else:
                assert (d.verdict, d.reason) == (ref.verdict, ref.reason), s
            if d.verdict:
                assert verify_hom(s, d.witness, target), (target, s)
                assert all(abs(v) <= witness_bound(s) for v in d.witness.values()), (target, s)
            if d.verdict and target == "Q":
                assert all(v.denominator <= _scale(s) for v in d.witness.values()), s
    assert verdicts == {(t, v) for t in ("Z", "N", "negZ", "Q") for v in (True, False)}
