"""Homomorphism decisions: reasons, witnesses, bounds, brute-force agreement."""

import json
import random
from fractions import Fraction

import pytest

from ctlz import (
    DomainError,
    EQ,
    LT,
    SigmaStructure,
    brute_force_hom,
    const_rel,
    decide_hom,
    mod_rel,
    verify_hom,
    witness_bound,
)
import ctlz.homcheck
from ctlz.structures import json_text
from ctlz.homcheck import InternalError, build_quotient, crt_pair, partition_bgsr, sim_closure
from conftest import SIGMA0, random_sigma0_structure


def _s(elements, **rels):
    interp = {}
    names = {"lt": LT, "eq": EQ}
    for key, rows in rels.items():
        if key in names:
            rel = names[key]
        elif key.startswith("eqc"):
            rel = const_rel(int(key[3:].replace("m", "-")))
        else:
            a, b = key[3:].split("_")
            rel = mod_rel(int(a), int(b))
        interp[rel] = rows
    return SigmaStructure(list(elements), interp)


def _lt_chain(n, cycle=False, pinned=False):
    """x0 < x1 < ... < x(n-1), closed to a cycle or with x0 = 0 and
    x(n-1) = 1 on request."""
    elements = [f"x{i}" for i in range(n)]
    lt = [(elements[i], elements[i + 1]) for i in range(n - 1)]
    if cycle:
        lt.append((elements[-1], elements[0]))
    if pinned:
        return SigmaStructure(elements, {LT: lt, const_rel(0): [("x0",)], const_rel(1): [(elements[-1],)]})
    return SigmaStructure(elements, {LT: lt})


# ---------------------------------------------------------------------------
# verify_hom


def test_verify_accepts_and_rejects():
    s = _s("ab", lt=[("a", "b")])
    assert verify_hom(s, {"a": 0, "b": 1}, "Z")
    assert not verify_hom(s, {"a": 1, "b": 0}, "Z")


def test_verify_explains_first_violation():
    s = _s("ab", lt=[("a", "b")], eq=[("a", "a")])
    ok, reason = verify_hom(s, {"a": 2, "b": 1}, "Z", explain=True)
    assert not ok
    assert reason[0] == "lt" and tuple(reason[1]) == ("a", "b")


def test_verify_checks_value_membership():
    s = _s("a")
    assert not verify_hom(s, {"a": -1}, "N")
    assert not verify_hom(s, {"a": 0}, "negZ")
    assert verify_hom(s, {"a": Fraction(1, 2)}, "Q")
    assert not verify_hom(s, {"a": Fraction(1, 2)}, "Z")


def test_verify_errors_on_relations_the_target_does_not_interpret():
    h = {"a": 0, "b": 1}
    unsupported = _s("ab", lt=[("a", "b")], mod1_2=[("a",)])
    with pytest.raises(DomainError, match=r"^Q does not interpret mod\[1,2\]$"):
        verify_hom(unsupported, h, "Q")
    # relations are checked in order, so an earlier violation comes first,
    # and an empty relation is never checked
    assert not verify_hom(_s("ab", lt=[("b", "a")], mod1_2=[("a",)]), h, "Q")
    assert verify_hom(_s("ab", lt=[("a", "b")], mod1_2=[]), h, "Q")
    bad_arity = SigmaStructure(["a", "b"], {LT: [("a", "b"), ("a", "b", "a")]})
    with pytest.raises(DomainError, match=r"^lt is 2-ary, got 3 values$"):
        verify_hom(bad_arity, h, "Z")


def test_verify_requires_total_map():
    s = _s("ab", lt=[("a", "b")])
    assert not verify_hom(s, {"a": 0}, "Z")


# ---------------------------------------------------------------------------
# Decision reasons


def test_cycle_reason():
    s = _s("abc", lt=[("a", "b"), ("b", "c"), ("c", "a")])
    d = decide_hom(s, "Z")
    assert not d.verdict
    assert d.reason.kind == "cycle"
    assert set(d.reason.details["elements"]) <= {"a", "b", "c"}
    # long cycles are reported whole, in chain order, without recursion
    long_cycle = _lt_chain(10_000, cycle=True)
    for target in ("Z", "Q"):
        d = decide_hom(long_cycle, target)
        assert d.reason.kind == "cycle"
        assert d.reason.details["elements"] == long_cycle.elements
    # two cycles: the search visits successors in class order, so from a
    # it takes c (declared before b) and names the c-e cycle
    two = _s(
        "acbde",
        lt=[("a", "c"), ("a", "b"), ("b", "d"), ("d", "a"), ("c", "e"), ("e", "c")],
    )
    for target in ("Z", "N", "Q"):
        assert decide_hom(two, target).reason.details["elements"] == ["c", "e"]


def test_long_chain_decides_for_every_target():
    s = _lt_chain(10_000)
    for target in ("Z", "N", "negZ", "Q"):
        d = decide_hom(s, target)
        assert d.verdict, target
        assert verify_hom(s, d.witness, target)
    # pinned at both ends: no integer room, and rationals of small
    # denominators (the chain has 9,999 edges between the pins)
    pinned = _lt_chain(10_000, pinned=True)
    assert decide_hom(pinned, "Z").reason.kind == "bounded_infeasible"
    q = decide_hom(pinned, "Q")
    assert q.verdict and verify_hom(pinned, q.witness, "Q")
    assert max(v.denominator for v in q.witness.values()) <= 9_999
    assert len(q.to_json()) < 1_000_000


def test_failed_verification_raises_internal_error(monkeypatch):
    monkeypatch.setattr(ctlz.homcheck, "verify_hom", lambda *args, **kwargs: False)
    for target in ("Z", "N", "negZ", "Q"):
        with pytest.raises(InternalError):
            decide_hom(_s("ab", lt=[("a", "b")]), target)


def test_quotient_is_built_once_per_decision(monkeypatch):
    s = _s(
        ["s", "k0", "x", "k5", "g", "iso"],
        lt=[("s", "k0"), ("k0", "x"), ("x", "k5"), ("k5", "g")],
        eqc0=[("k0",)],
        eqc5=[("k5",)],
    )
    bounded, greater, smaller, rest = partition_bgsr(build_quotient(s))
    assert bounded and greater and smaller and rest
    calls = []

    def counting(structure):
        calls.append(structure)
        return build_quotient(structure)

    monkeypatch.setattr(ctlz.homcheck, "build_quotient", counting)
    for target in ("Z", "Q"):
        calls.clear()
        assert decide_hom(s, target).verdict
        assert len(calls) == 1, target


def test_partition_is_built_once_per_decision(monkeypatch):
    pinned = _s(["a", "x", "b"], lt=[("a", "x"), ("x", "b")], eqc0=[("a",)], eqc5=[("b",)])
    free = _s("ab", lt=[("a", "b")])
    calls = []
    monkeypatch.setattr(ctlz.homcheck, "partition_bgsr", lambda q: calls.append(q) or partition_bgsr(q))
    for s, target in ((pinned, "Z"), (pinned, "Q"), (free, "N")):
        calls.clear()
        assert decide_hom(s, target).verdict
        assert len(calls) == 1, target


def test_equality_loops_do_not_make_cycles():
    s = _s("ab", lt=[("a", "b")], eq=[("a", "a"), ("b", "b")])
    assert decide_hom(s, "Z").verdict


def test_constant_clash_through_equality():
    s = _s("ab", eq=[("a", "b")], eqc0=[("a",)], eqc2=[("b",)])
    d = decide_hom(s, "Z")
    assert not d.verdict and d.reason.kind == "constant_clash"


def test_class_constants_sort_by_value():
    # ints and Fractions pinned on one class compare natively: no sort key
    s = SigmaStructure(["a", "b", "c"], {
        EQ: [("a", "b"), ("b", "c")],
        const_rel(1): [("a",)],
        const_rel(Fraction(1, 2)): [("b",)],
        const_rel(-3): [("c",)],
    })
    (constants,) = build_quotient(s).constants
    assert constants == [-3, Fraction(1, 2), 1] and list(map(type, constants)) == [int, Fraction, int]
    d = decide_hom(s, "Q")
    assert d.reason.kind == "constant_clash" and d.reason.details["constants"] == [-3, Fraction(1, 2)]
    assert json.loads(d.to_json())["reason"]["constants"] == [-3, "1/2"]


def test_modulo_contradiction():
    s = _s("a", mod0_2=[("a",)], mod1_2=[("a",)])
    d = decide_hom(s, "Z")
    assert not d.verdict and d.reason.kind == "modulo_contradiction"


def test_compatible_moduli_combine():
    s = _s("a", mod1_2=[("a",)], mod1_3=[("a",)])
    d = decide_hom(s, "Z")
    assert d.verdict and d.witness["a"] % 6 == 1


def test_strict_gap_with_no_integer_room():
    s = _s(["c0", "x", "c1"], lt=[("c0", "x"), ("x", "c1")], eqc0=[("c0",)], eqc1=[("c1",)])
    d = decide_hom(s, "Z")
    assert not d.verdict and d.reason.kind == "bounded_infeasible"
    q = decide_hom(s, "Q")
    assert q.verdict and q.witness["x"] == Fraction(1, 2)


def test_parity_blocked_window():
    s = _s(
        ["c0", "x", "c2"],
        lt=[("c0", "x"), ("x", "c2")],
        eqc0=[("c0",)],
        eqc2=[("c2",)],
        mod0_2=[("x",)],
    )
    d = decide_hom(s, "Z")
    assert not d.verdict and d.reason.kind == "bounded_infeasible"
    # x and y are both stuck; the bounded part is ordered on its own, so s
    # (below x, outside it) does not put y first
    two = _s(
        ["k0", "x", "y", "k3", "s"],
        lt=[("k0", "x"), ("k0", "y"), ("x", "k3"), ("y", "k3"), ("s", "x")],
        eqc0=[("k0",)],
        eqc3=[("k3",)],
        mod0_4=[("x",), ("y",)],
    )
    assert decide_hom(two, "Z").reason.details == {"element": "x"}


def test_rational_order_constant_conflict():
    s = _s("ab", lt=[("b", "a")], eqc0=[("a",)], eqc2=[("b",)])
    d = decide_hom(s, "Q")
    assert not d.verdict and d.reason.kind == "order_constant_conflict"
    assert not decide_hom(s, "Z").verdict
    # the first pinned class with a conflict downstream, paired with the
    # first conflicting pinned class below it
    several = _s(
        ["d", "u", "a", "c", "b"],
        lt=[("d", "a"), ("a", "u"), ("u", "c"), ("a", "b")],
        eqc1=[("d",)],
        eqc5=[("a",)],
        eqc2=[("c",)],
        eqc4=[("b",)],
    )
    assert decide_hom(several, "Q").reason.details == {
        "lower": "a",
        "upper": "c",
        "lower_constant": 5,
        "upper_constant": 2,
    }


def test_restricted_target_signatures():
    with pytest.raises(DomainError, match="does not accept"):
        decide_hom(_s("a", eqc0=[("a",)]), "N")
    with pytest.raises(DomainError, match="does not accept"):
        decide_hom(_s("a", mod1_2=[("a",)]), "Q")
    with pytest.raises(DomainError, match="unknown target"):
        decide_hom(_s("a"), "R")


def test_free_targets_follow_order_direction():
    s = _s("ab", lt=[("b", "a")], mod1_3=[("a",)])
    for target in ("N", "negZ"):
        d = decide_hom(s, target)
        assert d.verdict
        assert d.witness["b"] < d.witness["a"]
        assert d.witness["a"] % 3 == 1


def test_json_shape_and_fraction_rendering():
    s = SigmaStructure(["x"], {const_rel(Fraction(1, 2)): [("x",)]})
    payload = json.loads(decide_hom(s, "Q").to_json(["x"]))
    assert payload["verdict"] == "yes"
    assert payload["witness"] == {"x": "1/2"}
    s2 = _s("a", eqc2=[("a",)])
    payload2 = json.loads(decide_hom(s2, "Q").to_json())
    assert payload2["witness"] == {"a": 2}  # whole rationals print as integers


def test_json_text_is_the_same_with_or_without_the_int_shortcut():
    # a witness of plain ints skips the per-value conversion; the text must
    # be that of converting every value
    def converted(d, order=None):
        witness = {e: ctlz.homcheck._jsonable(d.witness[e]) for e in order or sorted(d.witness)}
        return json_text({"reason": None, "verdict": "yes", "witness": witness})

    fraction = SigmaStructure(["x", "y"], {const_rel(Fraction(1, 2)): [("x",)], LT: [("x", "y")]})
    cases = [(_lt_chain(50), target) for target in ("Z", "N", "negZ", "Q")]
    cases += [(_lt_chain(50, pinned=True), "Q"), (fraction, "Q"), (_s("a", eqc2=[("a",)]), "Q")]
    for s, target in cases:
        d = decide_hom(s, target)
        assert d.verdict
        if target != "Q":
            assert all(type(v) is int for v in d.witness.values())
        assert d.to_json() == converted(d), target
        order = sorted(s.elements, reverse=True)
        assert d.to_json(order) == converted(d, order), target
    mixed = ctlz.homcheck.HomDecision(True, {"a": 3, "b": Fraction(7, 2), "c": Fraction(4, 1)}, None)
    assert mixed.to_json() == converted(mixed)


# ---------------------------------------------------------------------------
# Helpers


def test_crt_pair():
    assert crt_pair(1, 2, 1, 3) == (1, 6)
    assert crt_pair(1, 2, 2, 3) == (5, 6)
    assert crt_pair(3, 4, 1, 2) == (3, 4)
    assert crt_pair(0, 2, 1, 2) is None


def test_sim_closure_merges_equalities():
    s = _s("abc", eq=[("a", "b"), ("b", "c")])
    classes = sim_closure(s)
    assert classes["a"] == classes["b"] == classes["c"]


def test_quotient_lifts_edges_and_unaries():
    s = _s("abc", eq=[("a", "b")], lt=[("a", "c")], eqc2=[("b",)])
    q = build_quotient(s)
    ca, cc = q.class_of["a"], q.class_of["c"]
    assert q.class_of["b"] == ca
    assert cc in q.succs[ca]
    assert q.constants[ca] == [2]


def test_partition_by_constant_reachability():
    s = _s(
        ["s", "c0", "g", "iso"],
        lt=[("s", "c0"), ("c0", "g")],
        eqc0=[("c0",)],
    )
    q = build_quotient(s)
    bounded, greater, smaller, rest = partition_bgsr(q)
    assert bounded == {q.class_of["c0"]}
    assert greater == {q.class_of["g"]}
    assert smaller == {q.class_of["s"]}
    assert rest == {q.class_of["iso"]}


def test_partition_without_constants_is_all_rest():
    s = _s("ab", lt=[("a", "b")])
    q = build_quotient(s)
    bounded, greater, smaller, rest = partition_bgsr(q)
    assert not bounded and not greater and not smaller
    assert rest == {q.class_of["a"], q.class_of["b"]}


def test_witness_bound_formula():
    s = _s(
        ["a", "b"],
        lt=[("a", "b")],
        eqc2=[("a",)],
        eqcm3=[("b",)],
        mod1_2=[("a",)],
        mod1_3=[("b",)],
    )
    # delta = 6, n = 2, m = -3, M = 2
    assert witness_bound(s) == 6 * (2 + 3 + 2 + 3)
    bare = _s("a")
    assert witness_bound(bare) == 1 * (1 + 0 + 0 + 3)


# ---------------------------------------------------------------------------
# Brute-force agreement (small smoke; the acceptance suite sweeps widely)


def _filtered_candidate_lists(target, bound, k, edges, consts, mods):
    """Reference for the brute-force candidates: every value of each
    tightened range, filtered by the class's congruences."""
    lo, hi = {"Z": (-bound, bound), "N": (0, bound), "negZ": (-bound, -1)}[target]
    if lo > hi:
        return None
    lower, upper = [lo] * k, [hi] * k
    for ci in range(k):
        if len(consts[ci]) > 1:
            return None
        if consts[ci]:
            c = next(iter(consts[ci]))
            if not isinstance(c, int):
                return None
            lower[ci], upper[ci] = max(lower[ci], c), min(upper[ci], c)
    for _ in range(k + 1):
        changed = False
        for a, b in edges:
            if a == b:
                return None
            if lower[a] + 1 > lower[b]:
                lower[b], changed = lower[a] + 1, True
            if upper[b] - 1 < upper[a]:
                upper[a], changed = upper[b] - 1, True
        if any(lower[ci] > upper[ci] for ci in range(k)):
            return None
        if not changed:
            break
    else:
        return None
    lists = []
    for ci in range(k):
        vals = [v for v in range(lower[ci], upper[ci] + 1) if all(v % b == a for a, b in mods[ci])]
        if not vals:
            return None
        lists.append(vals)
    return lists


def test_integer_candidates_are_the_filtered_ranges():
    rng = random.Random(34)
    residues = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (1, 4), (3, 4), (0, 5), (4, 6)]
    seen_some = seen_none = 0
    for _ in range(3000):
        k = rng.randint(1, 5)
        edges = {(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, k))}
        if rng.random() < 0.7:
            edges = {(a, b) for a, b in edges if a < b}
        consts = [set(rng.sample([-3, -1, 0, 2, 4, Fraction(1, 2)], rng.choice([0, 0, 0, 1, 1, 2])))
                  for _ in range(k)]
        mods = [set(rng.sample(residues, rng.choice([0, 0, 1, 1, 2]))) for _ in range(k)]
        args = (rng.choice(["Z", "N", "negZ"]), rng.randint(0, 12), k, edges, consts, mods)
        got = ctlz.homcheck._integer_candidates(*args[:3], *ctlz.homcheck._kahn_order(*args[2:4]), *args[4:])
        want = _filtered_candidate_lists(*args)
        assert (got is None) == (want is None), args
        if got is not None:
            assert [list(r) for r in got] == want, args
            seen_some += 1
        else:
            seen_none += 1
    assert seen_some > 300 and seen_none > 300


def test_decide_matches_brute_force_on_random_structures():
    rng = random.Random(31)
    for _ in range(150):
        s = random_sigma0_structure(rng, rng.randint(1, 4), 0.15, 0.15)
        d = decide_hom(s, "Z")
        h = brute_force_hom(s, witness_bound(s), "Z")
        assert d.verdict == (h is not None)
        if d.verdict:
            assert verify_hom(s, d.witness, "Z")


def test_decide_matches_brute_force_constant_free_targets():
    rng = random.Random(32)
    free_rels = [r for r in SIGMA0 if r.name[:3] != "eqc"]
    for _ in range(100):
        n = rng.randint(1, 4)
        elems = [f"e{i}" for i in range(n)]
        interp = {}
        for rel in free_rels:
            rows = []
            if rel.arity == 2:
                rows = [(a, b) for a in elems for b in elems if rng.random() < 0.2]
            else:
                rows = [(a,) for a in elems if rng.random() < 0.2]
            interp[rel] = rows
        s = SigmaStructure(elems, interp)
        for target in ("N", "negZ"):
            d = decide_hom(s, target)
            h = brute_force_hom(s, witness_bound(s), target)
            assert d.verdict == (h is not None), (target, s.interpretation)
            if d.verdict:
                assert verify_hom(s, d.witness, target)


def test_decide_matches_brute_force_rationals():
    rng = random.Random(33)
    rels = [LT, EQ, const_rel(0), const_rel(2), const_rel(Fraction(1, 2))]
    for _ in range(100):
        n = rng.randint(1, 4)
        elems = [f"e{i}" for i in range(n)]
        interp = {}
        for rel in rels:
            if rel.arity == 2:
                rows = [(a, b) for a in elems for b in elems if rng.random() < 0.2]
            else:
                rows = [(a,) for a in elems if rng.random() < 0.2]
            interp[rel] = rows
        s = SigmaStructure(elems, interp)
        d = decide_hom(s, "Q")
        h = brute_force_hom(s, witness_bound(s), "Q")
        assert d.verdict == (h is not None), s.interpretation
        if d.verdict:
            assert verify_hom(s, d.witness, "Q")


def test_brute_force_matches_decide_on_long_chain_and_cycle():
    # the oracle's bound tightening is one pass each way along a
    # topological order, so a 1,500-class chain needs no repeated sweeps
    for cycle in (False, True):
        s = _lt_chain(1_500, cycle)
        d = decide_hom(s, "Z")
        h = brute_force_hom(s, witness_bound(s), "Z")
        assert d.verdict == (h is not None) == (not cycle)
        if h is not None:
            assert verify_hom(s, h, "Z")
