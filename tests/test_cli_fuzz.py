"""A seeded fuzz slice of the command line: all 13 subcommands on
generated and mutated inputs over every domain.  Model, structure and
formula files go to ``mc``, ``abstract`` (with a tree model and
without), ``extract``, ``sat``, ``homcheck``, ``brutehom`` and
``emit-mso``; formula text alone to ``parse``, ``nnf``, ``snnf`` and
``interp``; ``eval-mso`` reads the ``emit-mso`` sentence of a small
structure, mutated, on that structure or a mutated one; ``selftest``
takes no input.  A third of the runs ask for ``--json``.

Every run must end in a verdict or an input error (exit 0, 1 or 2) and
never in ``internal error`` (exit 3, a defect).  The generators mix
well-formed inputs with register values of every domain's kind, so most
runs reach the checkers, and the mutations (a character dropped, doubled
or replaced, a line dropped or doubled) exercise the readers.  The Z
sentence is about 2 MB of text, so ``eval-mso`` and ``selftest`` get a
small share of the runs and ``eval-mso`` a small share of Z.

For a longer search outside pytest, run the same generators for a set
time: ``PYTHONPATH=src python tests/test_cli_fuzz.py --seconds 600 --seed
N`` prints the runs per subcommand and the argv, with the files it
names, of every run that ends in an internal error, and exits 1 if any
did.  Seeds 0-2 start with the runs of the tier-1 slice.
"""

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile
import time

import pytest

from ctlz import emit_hom_sentence, structure_from_text, to_sexpr
from ctlz.cli import run_command

RUNS = 4500
# per run, the subcommands other than eval-mso and selftest
COMMANDS = ("mc", "mc", "abstract", "abstract", "extract", "sat", "homcheck", "brutehom",
            "emit-mso", "parse", "nnf", "snnf", "interp")
MSO_TARGETS = ("Z_order_only", "N", "negZ", "Z")
# per MSO target the relations it supports; lt is always there
MSO_RELATIONS = {
    "Z_order_only": (),
    "N": ("eq", "mod[1,2]"),
    "negZ": ("eq", "mod[0,3]"),
    "Z": ("eq", "eqc[0]", "eqc[2]", "mod[1,2]"),
}
INTERPRETATIONS = ("identity", "lexZ[1]", "lexZ[2]", "allenZ", "lexZ[0]", "allen")
DOMAINS = ("Z", "N", "negZ", "Q", "allenZ", "lexZ[1]", "lexZ[2]")
TARGETS = ("Z", "N", "negZ", "Q")
# per domain the relations it interprets, most of them
RELATIONS = {
    "Z": ("lt", "eq", "eqc[0]", "eqc[2]", "eqc[-1]", "mod[1,2]", "mod[0,3]"),
    "N": ("lt", "eq", "eqc[0]", "eqc[2]", "mod[1,2]"),
    "negZ": ("lt", "eq", "eqc[-1]", "mod[0,3]"),
    "Q": ("lt", "eq", "eqc[0]", "eqc[1/2]"),
    "allenZ": ("eq", "m", "b", "o", "d"),
    "lexZ[1]": ("ltlex", "eqlex"),
    "lexZ[2]": ("ltlex", "eqlex"),
}


def _value(rng) -> str:
    roll = rng.random()
    if roll < 0.5:
        return str(rng.randint(-3, 3))
    if roll < 0.6:
        return f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
    width = rng.choice((1, 2, 2, 3))
    parts = [rng.randint(-3, 3) for _ in range(width)]
    if width == 2 and rng.random() < 0.7:
        parts.sort()
        parts[1] += parts[0] == parts[1]  # a valid interval
    return "(" + ",".join(map(str, parts)) + ")"


def _domain_value(rng, domain: str) -> str:
    """A value of the domain's kind, or now and then any value."""
    if rng.random() < 0.1:
        return _value(rng)
    if domain in ("Z", "N", "negZ"):
        low, high = {"Z": (-3, 3), "N": (0, 3), "negZ": (-3, -1)}[domain]
        return str(rng.randint(low, high))
    if domain == "Q":
        return f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
    if domain == "allenZ":
        start = rng.randint(-3, 2)
        return f"({start},{rng.randint(start + 1, 3)})"
    width = int(domain[5])  # lexZ[n]
    return "(" + ",".join(str(rng.randint(-2, 2)) for _ in range(width)) + ")"


def _model(rng, kind: str, domain: str) -> str:
    variables = ["x", "y"] if rng.random() < 0.8 else rng.sample(["x", "y"], rng.randint(0, 2))
    if kind == "graph":
        nodes = [f"s{i}" for i in range(rng.randint(1, 3))]
        edges = [(a, rng.choice(nodes)) for a in nodes] + [(rng.choice(nodes), rng.choice(nodes))]
        lines = ["SHAPE graph", "VARS " + " ".join(variables), "NODES", *nodes, "EDGES"]
        lines += [f"{a} {b}" for a, b in edges]
    else:
        d, k = rng.randint(1, 2), rng.randint(0, 2)
        nodes = [""]
        for _ in range(k):
            nodes += [n + str(i) for n in nodes if len(n) == len(nodes[-1]) for i in range(1, d + 1)]
        nodes = [n or "eps" for n in dict.fromkeys(nodes)]
        lines = [f"SHAPE tree {d} {k}", "VARS " + " ".join(variables), "NODES", *nodes]
    props = ["p", "q"] if rng.random() < 0.9 else ["p", "ap0"]  # ap0 clashes with an abstraction
    labels = [f"{n} {' '.join(rng.sample(props, rng.randint(1, 2)))}" for n in nodes if rng.random() < 0.4]
    if labels:
        lines += ["LABELS", *labels]
    lines.append("REGISTERS")
    for n in nodes:
        for var in variables:
            lines.append(f"{n} {var} {_domain_value(rng, domain)}")
    return "\n".join(lines) + "\n"


def _structure(rng) -> str:
    elements = ["a", "b", "c"][: rng.randint(1, 3)]
    lines = ["ELEMENTS", *elements]
    for rel in rng.sample(["lt", "eq", "eqc[0]", "eqc[1]", "eqc[1/2]", "mod[1,2]", "foo"], rng.randint(1, 3)):
        lines.append(f"REL {rel}")
        arity = 2 if rel in ("lt", "eq", "foo") else 1
        for _ in range(rng.randint(0, 3)):
            lines.append(" ".join(rng.choice(elements) for _ in range(arity)))
    return "\n".join(lines) + "\n"


def _formula(rng, depth: int, domain: str) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.3:
            return rng.choice(("p", "q", "true", "false"))
        rel = rng.choice(RELATIONS[domain if rng.random() < 0.9 else rng.choice(DOMAINS)])
        arity = 1 if rel.startswith(("eqc", "mod")) else 2
        terms = [f"X^{off} {var}" if (off := rng.randint(0, 2)) else var
                 for var in rng.choices(("x", "y", "z"), weights=(10, 6, 1), k=arity)]
        return f"{rel}({', '.join(terms)})"
    if roll < 0.5:
        return f"{rng.choice(('~', 'E ', 'A ', 'X ', 'F ', 'G '))}{_formula(rng, depth - 1, domain)}"
    op = rng.choice(("&", "|", "U", "R"))
    return f"({_formula(rng, depth - 1, domain)} {op} {_formula(rng, depth - 1, domain)})"


def _mutate(rng, text: str, rate: float) -> str:
    if rng.random() >= rate or not text:
        return text
    lines = text.splitlines()
    roll = rng.random()
    if roll < 0.3 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif roll < 0.5:
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    else:
        i = rng.randrange(len(text))
        pick = rng.choice(" ()-/,0123x#\n[]^~&|\t\fé\u0663")
        text = text[:i] + rng.choice(("", pick, text[i] * 2)) + text[i + 1:]
        return text
    return "\n".join(lines) + "\n"


def _file(tmp_path, text: str) -> str:
    """A fresh file holding the text; rewriting one file in place can
    cost far more than a new one on some file systems."""
    fd, path = tempfile.mkstemp(dir=tmp_path)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _mso_structure(rng) -> tuple:
    """A small structure and an MSO target that supports it."""
    target = rng.choices(MSO_TARGETS, weights=(4, 4, 4, 1))[0]
    elements = ["a", "b", "c"][: rng.randint(1, 3)]
    lines = ["ELEMENTS", *elements, "REL lt"]
    lines += [f"{rng.choice(elements)} {rng.choice(elements)}" for _ in range(rng.randint(0, 2))]
    for rel in rng.sample(MSO_RELATIONS[target], rng.randint(0, len(MSO_RELATIONS[target]))):
        lines.append(f"REL {rel}")
        arity = 2 if rel == "eq" else 1
        lines += [" ".join(rng.choices(elements, k=arity)) for _ in range(rng.randint(0, 2))]
    return "\n".join(lines) + "\n", target


def _argv(rng, tmp_path) -> list:
    roll = rng.random()
    command = "selftest" if roll < 0.002 else "eval-mso" if roll < 0.02 else rng.choice(COMMANDS)
    json = ["--json"] if rng.random() < 0.3 else []
    if command == "selftest":
        return ["selftest", *json]
    if command == "eval-mso":
        structure, target = _mso_structure(rng)
        sentence = to_sexpr(emit_hom_sentence(structure_from_text(structure), target))
        if rng.random() < 0.3:
            structure = _mso_structure(rng)[0]
        path = _file(tmp_path, _mutate(rng, structure, 0.3))
        return ["eval-mso", "--structure", path, f"--formula={_mutate(rng, sentence, 0.5)}", *json]
    if command in ("homcheck", "brutehom", "emit-mso"):
        if command == "emit-mso" and rng.random() < 0.5:
            structure, target = _mso_structure(rng)
            target = target if rng.random() < 0.8 else rng.choice(MSO_TARGETS)
        else:
            structure, target = _structure(rng), rng.choice(TARGETS if command != "emit-mso" else MSO_TARGETS)
        argv = [command, "--structure", _file(tmp_path, _mutate(rng, structure, 0.3)), "--target", target, *json]
        if command == "brutehom":
            argv += ["--bound", str(rng.randint(-2, 2))]
        return argv
    domain = rng.choice(DOMAINS)
    formula = _formula(rng, rng.randint(0, 3), domain)
    if command in ("parse", "nnf", "snnf", "interp") or command == "abstract" and rng.random() < 0.5:
        # formula text alone: path formulas too, and quantified ones
        formula = _mutate(rng, f"{rng.choice(('E ', 'A ', ''))}{formula}", 0.1)
        argv = [command, f"--formula={formula}", *json]
        if command == "interp":
            return argv + ["--interp", rng.choice(INTERPRETATIONS)]
        return argv if command in ("parse", "nnf") else argv + ["--domain", domain]
    formula = _mutate(rng, f"{rng.choice('EA')} {formula}", 0.1)
    if command == "sat":
        return ["sat", f"--formula={formula}", "--domain", domain,
                "--max-nodes", str(rng.randint(1, 2)), "--range", str(rng.randint(0, 1)), *json]
    # mc reads graphs, abstract and extract trees; a few get the other shape
    shape = "graph" if (command == "mc") != (rng.random() < 0.1) else "tree"
    path = _file(tmp_path, _mutate(rng, _model(rng, shape, domain), 0.3))
    return [command, "--model", path, f"--formula={formula}", "--domain", domain, *json]


@pytest.mark.parametrize("seed", range(3))
def test_no_input_ends_in_an_internal_error(seed, tmp_path, capsys):
    rng = random.Random(f"cli-fuzz-{seed}")
    exits = {0: 0, 1: 0, 2: 0}
    commands: dict = {}
    for _ in range(RUNS // 3):
        argv = _argv(rng, tmp_path)
        code = run_command(argv)
        err = capsys.readouterr().err
        assert code in exits and "internal error" not in err, ([a[:200] for a in argv], code, err)
        exits[code] += 1
        commands.setdefault(argv[0], set()).add(code)
    # verdicts both ways, and refusals, so the inputs reach the checkers
    assert min(exits.values()) >= 10, exits
    # every subcommand runs, and the deciders answer both ways
    assert len(commands) == 13, sorted(commands)
    assert all({0, 1} <= commands[name] for name in ("mc", "sat", "homcheck", "brutehom", "eval-mso")), commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fuzz the ctlz command line for a set time.")
    parser.add_argument("--seconds", type=float, default=600.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(f"cli-fuzz-{args.seed}")
    runs: dict = {}
    crashes = 0
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        with tempfile.TemporaryDirectory() as tmp:
            argv = _argv(rng, tmp)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(argv)
            runs[argv[0]] = runs.get(argv[0], 0) + 1
            if code not in (0, 1, 2) or "internal error" in err.getvalue():
                crashes += 1
                print(f"exit {code}: {argv}\n{err.getvalue()}", end="")
                for path in (a for a in argv if a.startswith(tmp)):
                    with open(path, encoding="utf-8") as fh:
                        print(f"--- {path}\n{fh.read()}", end="")
    for command in sorted(runs):
        print(f"{command}: {runs[command]} runs")
    print(f"{sum(runs.values())} runs, {crashes} internal errors")
    return 1 if crashes else 0


if __name__ == "__main__":
    sys.exit(main())
