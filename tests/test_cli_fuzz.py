"""A seeded fuzz slice of the command line: generated and mutated model,
structure and formula files fed to ``mc``, ``abstract --model``,
``extract``, ``sat``, ``homcheck`` and ``brutehom`` over every domain.

Every run must end in a verdict or an input error (exit 0, 1 or 2) and
never in ``internal error`` (exit 3, a defect).  The generators mix
well-formed inputs with register values of every domain's kind, so most
runs reach the checkers, and the mutations (a character dropped, doubled
or replaced, a line dropped or doubled) exercise the readers.  For a
longer search, raise ``RUNS`` or add seeds.
"""

import random

import pytest

from ctlz.cli import run_command

RUNS = 3000
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
        pick = rng.choice(" ()-/,0123x#\n")
        text = text[:i] + rng.choice(("", pick, text[i] * 2)) + text[i + 1:]
        return text
    return "\n".join(lines) + "\n"


def _argv(rng, tmp_path) -> list:
    command = rng.choice(("mc", "mc", "abstract", "extract", "sat", "homcheck", "brutehom"))
    if command in ("homcheck", "brutehom"):
        path = tmp_path / "fuzz.structure"
        path.write_text(_mutate(rng, _structure(rng), 0.3))
        argv = [command, "--structure", str(path), "--target", rng.choice(TARGETS)]
        if command == "brutehom":
            argv += ["--bound", str(rng.randint(0, 2))]
        return argv
    domain = rng.choice(DOMAINS)
    formula = _mutate(rng, f"{rng.choice('EA')} {_formula(rng, rng.randint(0, 3), domain)}", 0.1)
    if command == "sat":
        return ["sat", "--formula", formula, "--domain", domain,
                "--max-nodes", str(rng.randint(1, 2)), "--range", str(rng.randint(0, 1))]
    path = tmp_path / "fuzz.model"
    # mc reads graphs, abstract and extract trees; a few get the other shape
    shape = "graph" if (command == "mc") != (rng.random() < 0.1) else "tree"
    path.write_text(_mutate(rng, _model(rng, shape, domain), 0.3))
    return [command, "--model", str(path), "--formula", formula, "--domain", domain]


@pytest.mark.parametrize("seed", range(3))
def test_no_input_ends_in_an_internal_error(seed, tmp_path, capsys):
    rng = random.Random(f"cli-fuzz-{seed}")
    exits = {0: 0, 1: 0, 2: 0}
    for _ in range(RUNS // 3):
        argv = _argv(rng, tmp_path)
        code = run_command(argv)
        err = capsys.readouterr().err
        assert code in exits and "internal error" not in err, (argv, code, err)
        exits[code] += 1
    # verdicts both ways, and refusals, so the inputs reach the checkers
    assert min(exits.values()) >= 10, exits
