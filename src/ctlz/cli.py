"""Command-line front end.

One executable, subcommand per pipeline stage, flags only (no
environment variables), deterministic output: repeated runs on the same
input produce byte-identical bytes.  Exit codes: 0 for a completed run
with a positive or neutral outcome, 1 for a negative verdict (no
homomorphism, empty satisfying set, no model within bounds, false
sentence), 2 for input errors, 3 for an internal error (a defect in the
program, reported as one line on stderr, never as a verdict).

``emit-mso --target Z`` refuses, as an input error, a structure whose
integer constants (with 0) span more than ``MAX_PRINTED_CONSTANT_SPAN``
= 40: the printed sentence grows with the fourth power of the span.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .domains import (
    DomainError,
    Z_DOMAIN,
    apply_interpretation,
    domain_by_name,
    interpretation_by_name,
)
from .formulas import (
    FormulaError,
    format_formula,
    abstract_constraints,
    is_state_formula,
    parse_formula,
    parse_path_formula,
    to_nnf,
    to_snnf,
)
from .homcheck import TARGET_DOMAINS, HomDecision, HomReason, brute_force_hom, decide_hom, verify_hom, witness_bound
from .modelcheck import ModelCheckError, check_ctlstar
from .mso import MsoError, emit_hom_sentence, formula_class, parse_sexpr, to_sexpr
from .satsearch import SatSearchError, find_model
from .structures import (
    StructureError,
    abstract_model,
    extract_constraint_graph,
    json_text,
    model_from_text,
    model_to_text,
    structure_from_text,
    structure_to_text,
)

_INPUT_ERRORS = (FormulaError, StructureError, DomainError, MsoError, ModelCheckError, SatSearchError, OSError)


def _read_arg(value: str) -> str:
    """A --formula style argument is a file path when such a file exists,
    otherwise the literal text."""
    if os.path.isfile(value):
        with open(value, encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read())


def _load_structure(path: str):
    with open(path, encoding="utf-8") as fh:
        return structure_from_text(fh.read())


def _print_json(payload) -> None:
    print(json_text(payload, sort_keys=True))


def _print_decision(decision: HomDecision, elements, as_json: bool) -> int:
    if as_json:
        print(decision.to_json(list(elements)))
    else:
        print(f"verdict: {'yes' if decision.verdict else 'no'}")
        if decision.verdict:
            print("witness:")
            for e in elements:
                print(f"  {e} = {decision.witness[e]}")
        else:
            print(f"reason: {decision.reason.kind}")
            for key in sorted(decision.reason.details):
                value = decision.reason.details[key]
                rendered = " ".join(map(str, value)) if isinstance(value, (list, tuple)) else value
                print(f"  {key}: {rendered}")
    return 0 if decision.verdict else 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def _print_formula(args, f, **extra) -> int:
    """Print f in canonical text, or as {"formula": ..., **extra} under --json."""
    if args.json:
        _print_json({"formula": format_formula(f), **extra})
    else:
        print(format_formula(f))
    return 0


def _cmd_parse(args) -> int:
    f = parse_path_formula(_read_arg(args.formula))
    return _print_formula(args, f, kind="state" if is_state_formula(f) else "path")


def _cmd_nnf(args) -> int:
    return _print_formula(args, to_nnf(parse_path_formula(_read_arg(args.formula))))


def _cmd_snnf(args) -> int:
    dom = domain_by_name(args.domain)
    return _print_formula(args, to_snnf(parse_path_formula(_read_arg(args.formula)), dom))


def _cmd_abstract(args) -> int:
    dom = domain_by_name(args.domain)
    f = to_snnf(parse_formula(_read_arg(args.formula)), dom)
    abstracted, table = abstract_constraints(f, prop_prefix="ap")
    if args.model:
        tree = abstract_model(_load_model(args.model), table, dom)
        text = model_to_text(tree)
        if args.json:
            _print_json({"model": text})
        else:
            print(text, end="")
        return 0
    rows = [
        {"constraint": format_formula(e.constraint), "depth": e.depth, "prop": e.prop}
        for e in table
    ]
    if args.json:
        _print_json({"formula": format_formula(abstracted), "table": rows})
    else:
        print(format_formula(abstracted))
        for row in rows:
            print(f"{row['prop']} := {row['constraint']}  depth {row['depth']}")
    return 0


def _cmd_extract(args) -> int:
    dom = domain_by_name(args.domain)
    f = to_snnf(parse_formula(_read_arg(args.formula)), dom)
    _, table = abstract_constraints(f, prop_prefix="ap")
    model = _load_model(args.model)
    for entry in table:
        dom.relation_test(entry.constraint.relation)  # refuses a relation the domain lacks
    graph = extract_constraint_graph(model, table)
    text = structure_to_text(graph)
    if args.json:
        relations = {
            rel.name: [list(t) for t in tuples]
            for rel, tuples in graph.interpretation.items()
        }
        _print_json({"elements": list(graph.elements), "relations": relations})
    else:
        print(text, end="")
    return 0


def _cmd_homcheck(args) -> int:
    structure = _load_structure(args.structure)
    decision = decide_hom(structure, args.target)
    return _print_decision(decision, structure.elements, args.json)


def _cmd_brutehom(args) -> int:
    structure = _load_structure(args.structure)
    bound = args.bound if args.bound is not None else witness_bound(structure)
    witness = brute_force_hom(structure, bound, args.target)
    if witness is None:
        decision = HomDecision(False, None, HomReason("no_witness_within_bound", {"bound": bound}))
    else:
        decision = HomDecision(True, witness, None)
    return _print_decision(decision, structure.elements, args.json)


# The printed Z sentence grows with the fourth power of the span m..M of
# the integer constants, widened to 0: 4.8 MB of text at 0..20, 31 MB at
# 0..40.  Larger spans are refused before any text is built.
MAX_PRINTED_CONSTANT_SPAN = 40


def _cmd_emit_mso(args) -> int:
    structure = _load_structure(args.structure)
    if args.target == "Z":
        values = [0] + [c for c in structure.constants() if isinstance(c, int)]
        if max(values) - min(values) > MAX_PRINTED_CONSTANT_SPAN:
            raise MsoError(
                f"constant span {min(values)}..{max(values)} exceeds {MAX_PRINTED_CONSTANT_SPAN}: "
                "the printed Z sentence grows with the fourth power of the span"
            )
    sentence = emit_hom_sentence(structure, args.target)
    if args.json:
        _print_json({"class": formula_class(sentence), "formula": to_sexpr(sentence)})
    else:
        print(to_sexpr(sentence))
    return 0


def _cmd_eval_mso(args) -> int:
    from .msoeval import eval_finite  # loads numpy, which no other subcommand needs

    structure = _load_structure(args.structure)
    sentence = parse_sexpr(_read_arg(args.formula))
    diagnostics: dict | None = {} if args.json else None  # a sink makes each B sweep its subsets, see msoeval
    value = eval_finite(sentence, structure, diagnostics=diagnostics)
    if args.json:
        _print_json({"diagnostics": diagnostics, "value": bool(value)})
    else:
        print("true" if value else "false")
    return 0 if value else 1


def _cmd_mc(args) -> int:
    dom = domain_by_name(args.domain)
    model = _load_model(args.model)
    f = parse_formula(_read_arg(args.formula))
    sat = check_ctlstar(model, f, dom)
    ordered = [v for v in model.nodes if v in sat]
    if args.json:
        _print_json({"nodes": ordered, "verdict": "sat" if ordered else "unsat"})
    else:
        print(f"verdict: {'sat' if ordered else 'unsat'}")
        print("nodes: " + " ".join(ordered))
    return 0 if ordered else 1


def _cmd_sat(args) -> int:
    dom = domain_by_name(args.domain)
    f = parse_formula(_read_arg(args.formula))
    found = find_model(f, dom, args.max_nodes, args.range, args.full_sweep)
    if found is None:
        if args.json:
            _print_json({"model": None, "node": None, "verdict": "NO-MODEL-WITHIN-BOUNDS"})
        else:
            print("NO-MODEL-WITHIN-BOUNDS")
        return 1
    model, node = found
    text = model_to_text(model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        _print_json({"model": text, "node": node, "verdict": "sat"})
    else:
        print(f"# satisfying node: {node}")
        print(text, end="")
    return 0


def _cmd_interp(args) -> int:
    interp = interpretation_by_name(args.interp)
    return _print_formula(args, apply_interpretation(interp, parse_formula(_read_arg(args.formula))))


def _selftest_checks():
    from .formulas import EQ, LT, const_rel
    from .golden import (
        DEMO_DOMAIN,
        EXPECTED_EQUALITY_EDGES,
        EXPECTED_LABELS,
        EXPECTED_ORDER_EDGES,
        demo_table,
        demo_tree,
    )
    from .structures import ConstraintKripke, GRAPH_SHAPE, SigmaStructure

    def snnf_example():
        out = format_formula(to_snnf(parse_path_formula("~eq(x, X^1 y)"), Z_DOMAIN))
        assert out == "lt(x, X^1 y) | lt(X^1 y, x)", out

    def golden_labels():
        tree = abstract_model(demo_tree(), demo_table(), DEMO_DOMAIN)
        assert tree.labels == EXPECTED_LABELS, tree.labels

    def golden_graph():
        tree = abstract_model(demo_tree(), demo_table(), DEMO_DOMAIN)
        graph = extract_constraint_graph(tree, demo_table())
        assert set(graph.interpretation[LT]) == EXPECTED_ORDER_EDGES
        assert set(graph.interpretation[EQ]) == EXPECTED_EQUALITY_EDGES

    def order_cycle():
        s = SigmaStructure(["a", "b"], {LT: [("a", "b"), ("b", "a")]})
        decision = decide_hom(s, "Z")
        assert not decision.verdict and decision.reason.kind == "cycle", decision

    def window_contrast():
        s = SigmaStructure(
            ["a", "x", "b"],
            {LT: [("a", "x"), ("x", "b")], const_rel(0): [("a",)], const_rel(1): [("b",)]},
        )
        z = decide_hom(s, "Z")
        assert not z.verdict and z.reason.kind == "bounded_infeasible", z
        q = decide_hom(s, "Q")
        assert q.verdict and verify_hom(s, q.witness, "Q"), q

    def search_example():
        found = find_model(parse_formula("E F eqc[5](x)"), Z_DOMAIN, 1, 5)
        assert found is not None
        model, node = found
        assert model.registers[("s0", "x")] == 5 and node == "s0", found

    def duality_spot():
        model = ConstraintKripke(
            ["a", "b"], {("a", "b"), ("b", "a"), ("b", "b")}, {"a": frozenset({"p"})}, {}, [], GRAPH_SHAPE
        )
        left = check_ctlstar(model, parse_formula("A F p"))
        right = frozenset(model.nodes) - check_ctlstar(model, parse_formula("E G ~p"))
        assert left == right, (left, right)

    return [
        ("snnf-example", snnf_example),
        ("golden-labels", golden_labels),
        ("golden-graph", golden_graph),
        ("order-cycle", order_cycle),
        ("window-contrast", window_contrast),
        ("search-example", search_example),
        ("duality-spot", duality_spot),
    ]


def _cmd_selftest(args) -> int:
    results = []
    for name, check in _selftest_checks():
        try:
            check()
            results.append((name, None))
        except Exception as exc:  # deliberate: a selftest must not abort the suite
            results.append((name, f"{type(exc).__name__}: {exc}"))
    failed = [(n, d) for n, d in results if d is not None]
    if args.json:
        _print_json(
            {
                "checks": [{"detail": d, "name": n, "ok": d is None} for n, d in results],
                "failed": len(failed),
                "passed": len(results) - len(failed),
            }
        )
    else:
        for name, detail in results:
            print(f"{'FAIL' if detail else 'ok  '} {name}" + (f"  {detail}" if detail else ""))
        print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser wiring


@cache  # built on the first call and shared: parsing leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlz",
        description="Temporal-logic-with-constraints toolkit: formulas, homomorphism checks, model checking, bounded search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true", help="structured output instead of text")
        return p

    p = add("parse", _cmd_parse, "parse a formula and print its canonical form")
    p.add_argument("--formula", required=True, help="formula text or path to a file containing it")

    p = add("nnf", _cmd_nnf, "negation normal form")
    p.add_argument("--formula", required=True)

    p = add("snnf", _cmd_snnf, "strong negation normal form (eliminate negated constraints)")
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", default="Z")

    p = add("abstract", _cmd_abstract, "replace constraints by fresh propositions; optionally label a tree model")
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", default="Z")
    p.add_argument("--model", help="tree model file to abstract alongside the formula")

    p = add("extract", _cmd_extract, "read the constraint graph off an abstracted tree model")
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", default="Z")
    p.add_argument("--model", required=True)

    p = add("homcheck", _cmd_homcheck, "decide homomorphism into Z/N/negZ/Q")
    p.add_argument("--structure", required=True)
    p.add_argument("--target", default="Z", choices=TARGET_DOMAINS)

    p = add("brutehom", _cmd_brutehom, "exhaustive homomorphism search within a bound")
    p.add_argument("--structure", required=True)
    p.add_argument("--target", default="Z", choices=TARGET_DOMAINS)
    p.add_argument("--bound", type=int, help="sweep radius; defaults to the witness bound")

    p = add("emit-mso", _cmd_emit_mso, "emit the homomorphism sentence for a structure's signature")
    p.add_argument("--structure", required=True)
    p.add_argument("--target", default="Z", choices=["Z", "Z_order_only", "N", "negZ"])

    p = add("eval-mso", _cmd_eval_mso, "evaluate an emitted sentence on a finite structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True, help="s-expression text or file")

    p = add("mc", _cmd_mc, "model-check a state formula on a graph model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", default="Z")

    p = add("sat", _cmd_sat, "bounded satisfiability search")
    p.add_argument("--formula", required=True)
    p.add_argument("--domain", default="Z")
    p.add_argument("--max-nodes", type=int, default=3, dest="max_nodes")
    p.add_argument("--range", type=int, default=5)
    p.add_argument("--full-sweep", action="store_true", dest="full_sweep")
    p.add_argument("--out", help="also write the model file here")

    p = add("interp", _cmd_interp, "reduce a formula over tuples/intervals to (Z, <, =)")
    p.add_argument("--formula", required=True)
    p.add_argument("--interp", required=True, help="identity, lexZ[n], or allenZ")

    add("selftest", _cmd_selftest, "run the bundled smoke checks")

    return parser


def run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a defect, not a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
