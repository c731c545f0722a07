"""Golden outputs of the three homomorphism oracles.

The verdicts, witnesses and reasons of ``decide_hom``, the first maps of
``brute_force_hom`` and the values and diagnostics of ``eval_finite`` are
part of the program's output, so speed-ups of the oracles must leave them
byte for byte as they were.  This file pins, on seeded structures:

- for 200 structures of 1-5 elements, each over one of five signatures
  (order only; with congruences; with integer constants; with integer
  constants and congruences; with rational constants), and each target
  Z, N, negZ and Q: the text of ``decide_hom(s, t).to_json()`` (kept
  parsed and compared byte for byte as ``json.dumps(kept, indent=2)``)
  and the map of ``brute_force_hom(s, witness_bound(s), t)``, or the text of the
  ``DomainError`` when the target does not accept the signature;
- for 100 structures of 0-6 elements over the sigma0 signature: the
  value of ``eval_finite`` of the sigma0 Z sentence, without and with a
  diagnostics dict, and the dict.

The expected values sit in ``golden_oracles.json``; regenerate them with

    PYTHONPATH=src:tests python tests/test_oracles_golden.py > tests/golden_oracles.json

only when a change of these outputs is intended and declared.
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from ctlz import (
    EQ,
    LT,
    DomainError,
    SigmaStructure,
    brute_force_hom,
    const_rel,
    decide_hom,
    emit_hom_sentence,
    eval_finite,
    mod_rel,
    witness_bound,
)
from conftest import SIGMA0, random_sigma0_structure

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_oracles.json")

TARGETS = ("Z", "N", "negZ", "Q")
CONGRUENCES = (mod_rel(0, 2), mod_rel(1, 2), mod_rel(1, 3))
INTEGERS = (const_rel(0), const_rel(2), const_rel(-3))
SIGNATURES = (
    (LT, EQ),
    (LT, EQ, *CONGRUENCES),
    (LT, EQ, *INTEGERS),
    (LT, EQ, *INTEGERS, *CONGRUENCES),
    (LT, EQ, *INTEGERS, const_rel(Fraction(1, 2))),
)


def _structure(rng: random.Random, n: int, signature: tuple) -> SigmaStructure:
    elems = [f"e{i}" for i in range(n)]
    p_bin, p_un = rng.choice((0.05, 0.1, 0.2)), rng.choice((0.1, 0.2))
    interp = {}
    for rel in signature:
        if rel.arity == 2:
            interp[rel] = [(a, b) for a in elems for b in elems if rng.random() < p_bin]
        else:
            interp[rel] = [(a,) for a in elems if rng.random() < p_un]
    return SigmaStructure(elems, interp)


def hom_cases():
    """(case id, structure) for the decide_hom and brute_force_hom rows."""
    rng = random.Random(271)
    for k in range(200):
        n = rng.randint(1, 5)
        yield f"hom {k} n{n} sig{k % len(SIGNATURES)}", _structure(rng, n, SIGNATURES[k % len(SIGNATURES)])


def mso_cases():
    """(case id, structure) for the eval_finite rows."""
    rng = random.Random(277)
    for k in range(100):
        n = k % 7
        yield f"mso {k} n{n}", random_sigma0_structure(rng, n, rng.choice((0.03, 0.08, 0.15)), 0.08)


def _value(v):
    return v if type(v) is int else str(v)  # a Fraction, even a whole one, as text


def hom_row(structure: SigmaStructure) -> dict:
    row = {}
    for target in TARGETS:
        try:
            decision = json.loads(decide_hom(structure, target).to_json())
        except DomainError as exc:
            row[target] = f"DomainError: {exc}"
            continue
        found = brute_force_hom(structure, witness_bound(structure), target)
        row[target] = [decision, None if found is None else {e: _value(v) for e, v in found.items()}]
    return row


def mso_row(sentence, structure: SigmaStructure) -> list:
    diagnostics: dict = {}
    return [eval_finite(sentence, structure), eval_finite(sentence, structure, diagnostics=diagnostics), diagnostics]


def golden_values() -> dict:
    values = {case: hom_row(s) for case, s in hom_cases()}
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    values.update({case: mso_row(sentence, s) for case, s in mso_cases()})
    return values


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_decide_and_brute_force_outputs_are_unchanged(golden):
    cases = list(hom_cases())
    assert len(cases) == 200
    for case, s in cases:
        assert hom_row(s) == golden[case], case
        for target, kept in golden[case].items():
            if isinstance(kept, list):
                assert decide_hom(s, target).to_json() == json.dumps(kept[0], indent=2), (case, target)
    # every target decides some structures and refuses others' signatures
    for target in TARGETS:
        decided = [case for case, _ in cases if isinstance(golden[case][target], list)]
        assert 20 <= len(decided) < len(cases), target


def test_eval_finite_values_and_diagnostics_are_unchanged(golden):
    sentence = emit_hom_sentence(list(SIGMA0), "Z")
    cases = list(mso_cases())
    assert len(cases) == 100
    for case, s in cases:
        assert mso_row(sentence, s) == golden[case], case
    assert {golden[case][0] for case, _ in cases} == {True, False}


if __name__ == "__main__":
    rows = (f"{json.dumps(case)}: {json.dumps(row)}" for case, row in golden_values().items())
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")  # one case per line
