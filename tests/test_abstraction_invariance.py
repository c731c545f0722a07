"""The abstraction lemma as an invariance of the model checker.

Over sigma0 (constants 0 and 2, moduli 2 and 3 with lcm 6) a formula
sees of the register values only their order, whether they equal 0 or
2, and their residues modulo 6.  So a strictly increasing map h that
fixes [0, 2] and moves every other value by a multiple of 6 leaves the
satisfying nodes unchanged, over Z and over N.  Over Q, without
congruences, h only has to fix 0 and 2.  The value-set embeddings
N, negZ -> Z and Z -> Q (the latter without congruences) keep every
verdict, so a model that ``find_model`` returns in the smaller domain
is accepted at the same node in the larger one.
"""

import dataclasses
import random
from fractions import Fraction

from ctlz import N_DOMAIN, NEGZ_DOMAIN, Q_DOMAIN, Z_DOMAIN, check_ctlstar, find_model
from ctlz.formulas import MODULO, constraints_of
from conftest import random_ctl_formula, random_graph_model

VARIABLES = ("x", "y")
PROPS = ("p",)


def _mod_free(f) -> bool:
    return all(c.relation.kind != MODULO for c in constraints_of(f))


def _formulas(rng: random.Random, count: int, mod_free: bool = False) -> list:
    out = []
    while len(out) < count:
        f = random_ctl_formula(rng, VARIABLES, PROPS, depth=rng.randint(2, 4))
        if not mod_free or _mod_free(f):
            out.append(f)
    return out


def _step(rng: random.Random, prev: int, value: int, up: bool) -> int:
    """The nearest number past prev (above it when up, else below) that is
    congruent to value modulo 6, moved on by a random multiple of 6."""
    if up:
        return prev + 1 + (value - prev - 1) % 6 + 6 * rng.randint(0, 2)
    return prev - 1 - (prev - 1 - value) % 6 - 6 * rng.randint(0, 2)


def _integer_map(rng: random.Random, values) -> dict:
    """A strictly increasing h on values that fixes [0, 2] and keeps
    every residue modulo 6."""
    h = {v: v for v in values if 0 <= v <= 2}
    prev = 2
    for v in sorted(v for v in values if v > 2):
        prev = h[v] = _step(rng, prev, v, True)
    prev = 0
    for v in sorted((v for v in values if v < 0), reverse=True):
        prev = h[v] = _step(rng, prev, v, False)
    return h


def _rational_map(rng: random.Random, values) -> dict:
    """A strictly increasing h on values with Fraction images that fixes
    0 and 2; the values between them go to random twelfths in (0, 2)."""

    def gap() -> Fraction:
        return Fraction(rng.randint(1, 7), rng.randint(1, 5))

    h = {v: Fraction(v) for v in values if v in (0, 2)}
    inside = sorted(v for v in values if 0 < v < 2)
    images = set()
    while len(images) < len(inside):
        images.add(Fraction(rng.randint(1, 23), 12))
    h.update(zip(inside, sorted(images)))
    prev = Fraction(2)
    for v in sorted(v for v in values if v > 2):
        prev = h[v] = prev + gap()
    prev = Fraction(0)
    for v in sorted((v for v in values if v < 0), reverse=True):
        prev = h[v] = prev - gap()
    return h


def _mapped(model, h: dict):
    return dataclasses.replace(model, registers={k: h[v] for k, v in model.registers.items()})


def _check_invariance(seed: int, count: int, dom, make_map, nonnegative: bool = False,
                      mod_free: bool = False) -> int:
    """Compare count (model, formula, h) triples; return how many had a
    satisfying set that was neither empty nor every node."""
    rng = random.Random(seed)
    telling = 0
    for f in _formulas(rng, count, mod_free):
        m = random_graph_model(rng, rng.randint(1, 4), VARIABLES, value_range=rng.choice((3, 9)), props=PROPS)
        if nonnegative:
            m = _mapped(m, {v: abs(v) for v in m.registers.values()})
        h = make_map(rng, set(m.registers.values()))
        moved = _mapped(m, h)
        assert all(dom.check_value(v) for v in moved.registers.values())
        before = check_ctlstar(m, f, dom)
        assert check_ctlstar(moved, f, dom) == before, (f, m.registers, h)
        telling += 0 < len(before) < len(m.nodes)
    return telling


def test_order_constant_and_residue_preserving_maps_keep_verdicts_over_z():
    assert _check_invariance(31, 500, Z_DOMAIN, _integer_map) >= 50


def test_order_constant_and_residue_preserving_maps_keep_verdicts_over_n():
    assert _check_invariance(32, 300, N_DOMAIN, _integer_map, nonnegative=True) >= 30


def test_order_and_constant_preserving_maps_keep_verdicts_over_q():
    assert _check_invariance(33, 300, Q_DOMAIN, _rational_map, mod_free=True) >= 30


def test_models_found_in_a_subdomain_hold_in_the_larger_domain():
    rng = random.Random(34)
    hits = 0
    for small, large, mod_free in ((N_DOMAIN, Z_DOMAIN, False), (NEGZ_DOMAIN, Z_DOMAIN, False),
                                   (Z_DOMAIN, Q_DOMAIN, True)):
        for f in _formulas(rng, 40, mod_free):
            found = find_model(f, small, max_nodes=2, register_range=3)
            if found is not None:
                model, node = found
                verdict = check_ctlstar(model, f, large)
                assert node in verdict, (small, large, f)
                assert verdict == check_ctlstar(model, f, small), (small, large, f)
                hits += 1
    assert hits >= 30
