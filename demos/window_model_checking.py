"""Model checking formulas whose atoms compare register values along a
path, by expanding the model into fixed-length windows.

Run:  python3 demos/window_model_checking.py
"""

from ctlz import ConstraintKripke, parse_formula, parse_path_formula
from ctlz.formulas import constraints_of
from ctlz.modelcheck import check_ctlstar, expand_windows, ltl_to_buchi


def main():
    # two states: s0 carries p and x=0, s1 carries x=1 and can stall
    model = ConstraintKripke(
        nodes=("s0", "s1"),
        edges=(("s0", "s1"), ("s1", "s0"), ("s1", "s1")),
        labels={"s0": frozenset({"p"}), "s1": frozenset()},
        registers={("s0", "x"): 0, ("s1", "x"): 1},
        variables=("x",),
    )

    queries = [
        "E G ~p",
        "A X A X true",
        "E (eqc[0](x) & X eqc[1](x))",
        "E G (lt(x, X^1 x) | lt(X^1 x, x))",
        "A G (lt(x, X^1 x) | lt(X^1 x, x))",
    ]
    for text in queries:
        f = parse_formula(text)
        sat = check_ctlstar(model, f)
        print(f"{text:45s} -> {sorted(sat)}")

    # the machinery underneath: lookahead-1 constraints become fresh
    # propositions on windows of two consecutive states
    f = parse_formula("E F lt(x, X^1 x)")
    (c,) = constraints_of(f)
    windows = expand_windows(model, 1, (c,))
    print(f"\nwindows at depth 1 and whether {c} holds on them:")
    for w, bits in zip(windows.windows, windows.bits):
        print("  ", w, bool(bits & 1))

    # path formulas over propositions compile to small tableau automata:
    # obligation sets as states, one guarded edge per tableau branch
    for text in ("G p", "p U q", "(p U q) & G (p | q)"):
        b = ltl_to_buchi(parse_path_formula(text))
        edges = sum(len(t) for t in b.transitions.values())
        print(f"automaton for {text:20s}: {len(b.states)} states, "
              f"{edges} edges, {len(b.untils)} acceptance marks")


if __name__ == "__main__":
    main()
