"""Golden first models of the bounded search.

``find_model`` promises a canonical order, so its first model is part of
its output: this file pins ``(model_to_text(model), node)``, or ``None``,
for every row of the acceptance suites of criteria 06 and 09 (each lex
and Allen row both over its tuple domain and through its interpretation
into Z), for the 200 seeded formulas of criterion 07 (each plain and in
strong negation normal form), and the ``ctlz sat`` text and ``--json``
output of a few rows.  The expected values sit in
``golden_first_models.json``; regenerate them with

    PYTHONPATH=src:tests python tests/test_satsearch_golden.py > tests/golden_first_models.json

only when a change of the first model is intended and declared.
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

from ctlz import (
    Z_DOMAIN,
    apply_interpretation,
    domain_by_name,
    find_model,
    interpretation_by_name,
    model_to_text,
    parse_formula,
    to_snnf,
)
from ctlz.cli import run_command
from conftest import random_sigma0_formula
from test_acceptance import ALLEN_SUITE, LEX_SUITE, SATISFIABLE_SUITE, UNSATISFIABLE_SUITE

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_first_models.json")

CLI_ROWS = (
    ["sat", "--formula", "E F eqc[5](x)", "--range", "7"],
    ["sat", "--formula", "E (p U (q & eqc[2](x)))"],
    ["sat", "--formula", "E (lt(x, X^1 x) & X lt(X^1 x, x))"],
    ["sat", "--formula", "E G lt(x, X^1 x)"],
    ["sat", "--formula", "E (ltlex(x, y) & X ltlex(y, x))", "--domain", "lexZ[2]",
     "--max-nodes", "2", "--range", "2"],
    ["sat", "--formula", "E (eq(x, y) U m(x, y))", "--domain", "allenZ",
     "--max-nodes", "2", "--range", "3"],
)


def _search(f, dom=Z_DOMAIN, max_nodes=3, register_range=5):
    found = find_model(f, dom, max_nodes, register_range)
    return None if found is None else [model_to_text(found[0]), found[1]]


def search_cases():
    """(case id, thunk) for every pinned search, in a fixed order."""
    for suite in (SATISFIABLE_SUITE, UNSATISFIABLE_SUITE):
        for text, nodes, reach in suite:
            yield f"06 {text}", lambda text=text, nodes=nodes, reach=reach: _search(
                parse_formula(text), max_nodes=nodes, register_range=reach)
    for name, suite, reach in (("lexZ[2]", LEX_SUITE, 2), ("allenZ", ALLEN_SUITE, 3)):
        for text in suite:
            yield f"09 {name} {text}", lambda name=name, text=text, reach=reach: _search(
                parse_formula(text), domain_by_name(name), 2, reach)
            yield f"09 {name} interpreted {text}", lambda name=name, text=text, reach=reach: _search(
                apply_interpretation(interpretation_by_name(name), parse_formula(text)),
                max_nodes=2, register_range=reach)
    rng = random.Random(107)  # the same draws as criterion 07
    for i in range(200):
        f = random_sigma0_formula(rng, ("x",), max_negated=2)
        yield f"07 {i} plain", lambda f=f: _search(f, max_nodes=2)
        yield f"07 {i} snnf", lambda f=f: _search(to_snnf(f, Z_DOMAIN), max_nodes=2)


def cli_output(argv, as_json):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv + (["--json"] if as_json else []))
    return [code, out.getvalue()]


def golden_values() -> dict:
    values = {case: thunk() for case, thunk in search_cases()}
    for argv in CLI_ROWS:
        for as_json in (False, True):
            values[f"cli {' '.join(argv)}{' --json' if as_json else ''}"] = cli_output(argv, as_json)
    return values


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_first_models_are_unchanged(golden):
    cases = list(search_cases())
    assert len(cases) == 20 + 60 + 400
    for case, thunk in cases:
        assert thunk() == golden[case], case


@pytest.mark.parametrize("argv", CLI_ROWS, ids=lambda argv: argv[2])
def test_cli_sat_output_is_unchanged(golden, argv):
    for as_json in (False, True):
        case = f"cli {' '.join(argv)}{' --json' if as_json else ''}"
        assert cli_output(argv, as_json) == golden[case], case


if __name__ == "__main__":
    json.dump(golden_values(), sys.stdout, indent=1)
    sys.stdout.write("\n")
