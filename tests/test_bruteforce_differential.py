"""The brute-force oracle with forward checking against plain chronological
backtracking: the same first map (or None) on a seeded corpus.

``plain_first_assignment`` is the search ``brute_force_hom`` ran before it
narrowed candidate ranges: each class is checked only against earlier
classes, so a conflict with a later class is found only after every value
of the classes in between has been tried.
"""

import random
import time
from fractions import Fraction

import ctlz.homcheck
from ctlz import EQ, LT, SigmaStructure, brute_force_hom, const_rel, mod_rel, verify_hom, witness_bound
from conftest import random_sigma0_structure


def plain_first_assignment(candidates: list, checks: list, k: int):
    """First assignment of the k classes, lexicographic in class order
    and candidate order, that passes every check, or None.  ``checks[ci]``
    holds (other, True) for h[other] < h[ci] and (other, False) for
    h[ci] < h[other], always with other < ci."""
    assignment = [None] * k
    cursor = [0] * k
    ci = 0
    while 0 <= ci < k:
        vals = candidates[ci]
        for i in range(cursor[ci], len(vals)):
            v = vals[i]
            for other, from_earlier in checks[ci]:
                if not (assignment[other] < v if from_earlier else v < assignment[other]):
                    break
            else:
                assignment[ci] = v
                cursor[ci] = i + 1
                ci += 1
                break
        else:
            cursor[ci] = 0
            ci -= 1
    return assignment if ci == k else None


def _plain(candidates, succs, order):
    checks = [[] for _ in candidates]
    for a, bs in enumerate(succs):
        for b in bs:
            if a < b:
                checks[b].append((a, True))  # h[a] < h[current]
            elif a > b:
                checks[a].append((b, False))  # h[current] < h[b]
    return plain_first_assignment(candidates, checks, len(candidates))


RELATIONS = {
    "Z": [LT, EQ, const_rel(-1), const_rel(0), const_rel(2), mod_rel(0, 2), mod_rel(1, 2), mod_rel(1, 3)],
    "N": [LT, EQ, mod_rel(0, 2), mod_rel(1, 3), mod_rel(2, 4)],
    "negZ": [LT, EQ, mod_rel(1, 2), mod_rel(0, 3)],
    "Q": [LT, EQ, const_rel(0), const_rel(2), const_rel(Fraction(1, 2))],
}


def _random_structure(rng, n, target):
    elems = [f"e{i}" for i in range(n)]
    rank = dict(zip(elems, rng.sample(range(n), n)))  # the order edges mostly follow, not the declared one
    interp = {}
    for rel in RELATIONS[target]:
        if rel == LT:
            interp[rel] = [(a, b) for a in elems for b in elems
                           if rng.random() < (1.5 if rank[a] < rank[b] else 0.05) / n]
        elif rel == EQ:
            interp[rel] = [(a, b) for a in elems for b in elems if a != b and rng.random() < 0.2 / n]
        else:
            interp[rel] = [(a,) for a in elems if rng.random() < (0.3 if rel.kind == "constant" else 0.8) / n]
    return SigmaStructure(elems, interp)


def _corpus():
    rng = random.Random(113)
    for target in ("Z", "N", "negZ", "Q"):
        for _ in range(150):
            n = rng.randint(1, 7)
            s = _random_structure(rng, n, target)
            # plain backtracking can take seconds on larger structures at
            # their witness bound (see structure 428 below)
            if n > (3 if target == "Q" else 4):
                bound = 1 if target == "Q" else rng.randint(1, 10)
            else:
                bound = witness_bound(s)
            yield s, bound, target


def test_first_maps_match_plain_backtracking(monkeypatch):
    found = missing = 0
    for s, bound, target in _corpus():
        want = None
        with monkeypatch.context() as m:
            m.setattr(ctlz.homcheck, "_first_assignment", _plain)
            want = brute_force_hom(s, bound, target)
        got = brute_force_hom(s, bound, target)
        assert got == want, (target, bound, s.interpretation)
        if got is None:
            missing += 1
        else:
            found += 1
            assert verify_hom(s, got, target)
    assert found > 300 and missing > 200


def _criterion_03_structure(index: int):
    """Structure ``index`` of the criterion-03 corpus in test_acceptance."""
    rng = random.Random(103)
    sizes = [1] * 100 + [2] * 200 + [3] * 250 + [4] * 200 + [5] * 120 + [6] * 70 + [7] * 40 + [8] * 20
    density = {1: 0.3, 2: 0.25, 3: 0.15, 4: 0.1, 5: 0.08, 6: 0.07, 7: 0.06, 8: 0.05}
    rng.shuffle(sizes)
    for n in sizes[:index]:
        random_sigma0_structure(rng, n, density[n], 0.1)
    return random_sigma0_structure(rng, sizes[index], density[sizes[index]], 0.1)


def test_criterion_03_structure_428_is_fast():
    # chronological backtracking tries every value of e2..e4 before e5's
    # congruence clashes with e1 (about 18 s); its first map, recorded
    # from that search, is unchanged
    s = _criterion_03_structure(428)
    rows = {rel.name: sorted(t) for rel, t in s.interpretation.items() if t}
    assert rows == {"lt": [("e0", "e2"), ("e2", "e5"), ("e2", "e6"), ("e5", "e1")],
                    "eq": [("e2", "e2")], "mod[1,3]": [("e4",), ("e5",)]}
    start = time.perf_counter()
    h = brute_force_hom(s, witness_bound(s), "Z")
    assert time.perf_counter() - start < 2.0
    assert h == {"e0": -72, "e1": -67, "e2": -71, "e3": -72, "e4": -71, "e5": -68, "e6": -70}

