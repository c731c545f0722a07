"""Model and structure readers against the line-at-a-time readers they replaced.

``plain_model_from_text`` and ``plain_structure_from_text`` read one
content line at a time through a generator, dispatching on the current
section for every line.  ``model_from_text`` and ``structure_from_text``
must build the same objects (equal, and with the same repr, so the same
order and value types) or raise the same exception with the same text,
on seeded random files with comments, blank lines, CRLF endings, tabs,
trailing spaces, repeated sections and one injected defect.  Two
declared differences, modelled by ``declared_structure_from_text``: an
element id with whitespace other than a space in it is refused, and a
repeated header of an interpreted relation whose arity a row has fixed
continues that relation.  One more, modelled by
``declared_model_from_text``: a VARS line whose first token is not
exactly ``VARS`` is refused.
"""

import random

import pytest

from ctlz import StructureError, model_from_text, structure_from_text
from ctlz.formulas import FormulaError, RelationSymbol, relation_from_name
from ctlz.structures import (
    _TREE_NODE_FILE_RE,
    GRAPH_SHAPE,
    ConstraintKripke,
    SigmaStructure,
    _parse_value,
    tree_shape,
    validate_model,
    validate_structure,
)


def _node_from_file(text: str, is_tree: bool) -> str:
    if is_tree:
        if not _TREE_NODE_FILE_RE.fullmatch(text):
            raise StructureError(f"bad tree node id {text!r}")
        return "" if text == "eps" else text
    return text


def _content_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def plain_model_from_text(text: str) -> ConstraintKripke:
    lines = list(_content_lines(text))
    if not lines or not lines[0].startswith("SHAPE"):
        raise StructureError("model file must start with a SHAPE line")
    shape_parts = lines[0].split()
    if shape_parts[1:] == ["graph"]:
        shape = GRAPH_SHAPE
    elif len(shape_parts) == 4 and shape_parts[1] == "tree":
        try:
            shape = tree_shape(int(shape_parts[2]), int(shape_parts[3]))
        except ValueError:
            raise StructureError(f"bad SHAPE line {lines[0]!r}") from None
    else:
        raise StructureError(f"bad SHAPE line {lines[0]!r}")
    is_tree = shape[0] == "tree"

    if len(lines) < 2 or not lines[1].startswith("VARS"):
        raise StructureError("model file needs a VARS line after SHAPE")
    variables = lines[1].split()[1:]

    nodes: list = []
    edges: set = set()
    labels: dict = {}
    registers: dict = {}
    section = None
    for line in lines[2:]:
        if line in ("NODES", "EDGES", "LABELS", "REGISTERS"):
            section = line
            continue
        if section == "NODES":
            nodes.append(_node_from_file(line, is_tree))
        elif section == "EDGES":
            parts = line.split()
            if len(parts) != 2:
                raise StructureError(f"bad edge line {line!r}")
            edges.add((_node_from_file(parts[0], is_tree), _node_from_file(parts[1], is_tree)))
        elif section == "LABELS":
            parts = line.split()
            node = _node_from_file(parts[0], is_tree)
            labels[node] = frozenset(parts[1:])
        elif section == "REGISTERS":
            parts = line.split()
            if len(parts) != 3:
                raise StructureError(f"bad register line {line!r}")
            node = _node_from_file(parts[0], is_tree)
            registers[(node, parts[1])] = _parse_value(parts[2])
        else:
            raise StructureError(f"unexpected line {line!r} before any section")

    if is_tree and not edges:
        d = shape[1]
        node_set = set(nodes)
        edges = {(n, n + str(i)) for n in nodes for i in range(1, d + 1) if n + str(i) in node_set}
    model = ConstraintKripke(nodes, edges, labels, registers, variables, shape)
    validate_model(model)
    return model


def plain_structure_from_text(text: str) -> SigmaStructure:
    lines = list(_content_lines(text))
    if not lines or lines[0] != "ELEMENTS":
        raise StructureError("structure file must start with ELEMENTS")
    elements: list = []
    interpretation: dict = {}
    current: RelationSymbol | None = None
    arities: dict = {}
    for line in lines[1:]:
        if line.startswith("REL "):
            name = line[4:].strip()
            try:
                rel = relation_from_name(name)
            except FormulaError as exc:
                raise StructureError(str(exc)) from None
            current = rel
            if rel not in interpretation:
                interpretation[rel] = []
            continue
        if current is None:
            if " " in line:
                raise StructureError(f"element ids cannot contain spaces: {line!r}")
            elements.append(line)
        else:
            t = tuple(line.split())
            if current.kind == "interpreted" and current not in arities:
                # fix the arity of an interpreted symbol from its first tuple
                fixed = RelationSymbol(current.name, len(t), current.kind, current.params)
                interpretation[fixed] = interpretation.pop(current)
                current = fixed
                arities[current] = len(t)
            interpretation[current].append(t)
    structure = SigmaStructure(elements, interpretation)
    validate_structure(structure)
    return structure


def declared_structure_from_text(text: str) -> SigmaStructure:
    """The plain reader with the declared changes: an element id that
    holds any whitespace is refused, with the old text for a space; and
    the rows under a repeated header of an interpreted relation whose
    arity a row has fixed join that relation's earlier rows (the header
    is dropped and its rows move up to the end of the section holding
    them)."""
    lines = list(_content_lines(text))
    if lines and lines[0] == "ELEMENTS":
        for line in lines[1:]:
            if line.startswith("REL ") or " " in line:
                break
            if any(ch.isspace() for ch in line):
                raise StructureError(f"element ids cannot contain whitespace: {line!r}")
    sections: list = [[]]
    current, name = sections[0], None  # where rows go; the interpreted name they are for
    fixed: dict = {}  # interpreted name -> the section whose row fixed its arity
    for line in lines:
        if not line.startswith("REL "):
            if name is not None:
                fixed.setdefault(name, current)
            current.append(line)
            continue
        name = line[4:].strip()
        try:
            name = name if relation_from_name(name).kind == "interpreted" else None
        except FormulaError:
            name = None  # the plain reader raises at this header
        if name in fixed:
            current = fixed[name]
        else:
            current = [line]
            sections.append(current)
    return plain_structure_from_text("\n".join(line for section in sections for line in section))


def declared_model_from_text(text: str) -> ConstraintKripke:
    """The plain reader with the declared change: a second line that
    starts with VARS but whose first token is not exactly VARS is
    refused, once the SHAPE line has passed its checks."""
    lines = list(_content_lines(text))
    if len(lines) > 1 and lines[1].startswith("VARS") and lines[1].split()[0] != "VARS":
        try:
            plain_model_from_text(lines[0])
        except StructureError as exc:
            if str(exc) != "model file needs a VARS line after SHAPE":
                raise
        raise StructureError(f"bad VARS line {lines[1]!r}")
    return plain_model_from_text(text)


def _outcome(read, text):
    try:
        result = read(text)
    except Exception as exc:  # the exception type and text are compared
        return ("raises", type(exc), str(exc))
    return ("returns", result, repr(result))


# ---------------------------------------------------------------------------
# Seeded random files: a list of content lines, then noise


_VALUES = ("0", "7", "-3", "1/2", "-5/3", "4/2", "(1,2)", "(-1,0,3)", "(4)", "12")


def _model_lines(rng) -> list:
    variables = rng.sample(["x", "y", "z"], rng.randint(0, 3))
    if rng.random() < 0.5:
        n = rng.randint(1, 8)
        nodes = [f"s{i}" for i in range(n)]
        head = ["SHAPE graph"]
        edges = [(a, b) for a in nodes for b in rng.sample(nodes, rng.randint(1, n))]
        written = nodes
    else:
        d, k = rng.randint(1, 3), rng.randint(0, 2)
        nodes, frontier = [""], [""]
        for _ in range(k):
            frontier = [v + str(i) for v in frontier for i in range(1, d + 1) if rng.random() < 0.8]
            nodes += frontier
        head = [f"SHAPE tree {d} {k}"]
        edges = [(v[:-1], v) for v in nodes if v] if rng.random() < 0.5 else []
        written = ["eps" if v == "" else v for v in nodes]
    name = dict(zip(nodes, written))
    head.append(" ".join(["VARS"] + variables))
    sections = {
        "NODES": list(written),
        "EDGES": [f"{name[a]} {name[b]}" for a, b in edges],
        "LABELS": [f"{name[v]} {' '.join(rng.sample(['p', 'q', 'r'], rng.randint(1, 3)))}"
                   for v in nodes if rng.random() < 0.4],
        "REGISTERS": [f"{name[v]} {x} {rng.choice(_VALUES)}" for v in nodes for x in variables],
    }
    order = ["NODES", "EDGES", "LABELS", "REGISTERS"]
    if rng.random() < 0.2:
        rng.shuffle(order)
    lines = list(head)
    for section in order:
        body = sections[section]
        if section == "EDGES" and not edges and rng.random() < 0.5:
            continue  # a tree file may leave EDGES out
        if section == "LABELS" and not body and rng.random() < 0.5:
            continue
        if len(body) > 1 and rng.random() < 0.25:  # the same section twice
            cut = rng.randint(1, len(body) - 1)
            lines += [section] + body[:cut] + [section] + body[cut:]
        else:
            lines += [section] + body
    return lines


def _model_defect(rng, lines: list) -> None:
    kind = rng.randrange(14)
    at = rng.randint(2, len(lines))
    if kind == 0:
        del lines[0]
    elif kind == 1:
        lines[0] = rng.choice(["SHAPE cube", "SHAPE tree two 1", "SHAPE", "SHAPE graph 1"])
    elif kind == 2:
        del lines[1]
    elif kind == 3:
        lines.insert(2, rng.choice(["s0", "p q", "s0 x 1"]))
    elif kind == 4:
        lines.insert(at, rng.choice(["EDGES", "REGISTERS"]))
        lines.insert(at + 1, rng.choice(["s0", "s0 s0 s0", "eps", "1 2 3 4"]))
    elif kind == 5:
        lines.insert(at, rng.choice(["s0 x pi", "eps x (1,", "s0 x ()", "1 x 1/2/3", "s0 x 1/0"]))
    elif kind == 6:
        lines.insert(at, rng.choice(["0", "12a", "root", "eps1"]))
    elif kind == 7:
        lines.insert(at, rng.choice(["LABELS", "NODES"]))
        lines.insert(at + 1, rng.choice(["s99 p", "99 p", "__p", "s0 __q", "eps 1p"]))
    elif kind == 8:
        regs = [i for i, line in enumerate(lines) if len(line.split()) == 3]
        if regs:
            del lines[rng.choice(regs)]
    elif kind == 9:
        lines.insert(at, rng.choice(["s0 w 1", "s77 x 1", "9 x 0"]))
    elif kind == 10:
        lines.insert(at, rng.choice(["s0 s42", "eps 9", "s1 s1"]))
    elif kind == 11:
        lines.insert(at, rng.choice(["s0", "eps", "1", "__n"]))
    elif kind == 12:
        lines[1] = rng.choice(["VARS x x", "VARS __y", "VARS 1x", "VARSx"])
    else:
        lines.insert(at, rng.choice(["NODES", "EDGES", "LABELS", "REGISTERS"]))


# ltlex twice: interpreted relations, whose arity comes from a row, are drawn more often
_RELATIONS = ("lt", "eq", "eqc[3]", "eqc[-1/2]", "mod[1,3]", "ltlex", "during", "ltlex")


def _structure_lines(rng) -> list:
    elements = [f"e{i}" for i in range(rng.randint(0, 7))]
    lines = ["ELEMENTS"] + elements
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(_RELATIONS)
        rel = relation_from_name(name)
        arity = rel.arity if rel.kind != "interpreted" else rng.choice((1, 2, 3))
        lines.append(f"REL {name}")
        if elements:
            lines += [" ".join(rng.choice(elements) for _ in range(arity))
                      for _ in range(rng.choice((0, 0, 1, 3)))]
    return lines


def _structure_defect(rng, lines: list) -> None:
    kind = rng.randrange(8)
    heads = [i for i, line in enumerate(lines) if line.startswith("REL ")]
    first_rel = heads[0] if heads else len(lines)
    if kind == 0:
        del lines[0]
    elif kind == 1:
        lines.insert(rng.randint(1, first_rel), rng.choice(["a b", "a\tb", "a \t b", "a\xa0b"]))
    elif kind == 2:
        lines.insert(rng.randint(1, len(lines)), rng.choice(["REL nope[", "REL __x", "REL mod[3,3]", "REL 1lt"]))
    elif kind == 3:
        lines.insert(rng.randint(1, first_rel), rng.choice(["e0", "e1", "e99"]))
    elif kind == 4 and heads:
        lines.insert(rng.randint(heads[0] + 1, len(lines)), rng.choice(["e0 e99", "e0", "e0 e0 e0", "zz"]))
    elif kind == 5:
        lines.insert(rng.randint(1, len(lines)), rng.choice(["REL", "REL  lt", "REL\tlt"]))
    elif kind == 6:
        lines.append("REL ltlex")
        lines += ["e0 e0 e0", "e0 e0"] if rng.random() < 0.5 else []
    else:
        lines.append(rng.choice(["REL __lt", "REL eqc[1/0]"]))


def _noisy(rng, lines: list) -> str:
    """The lines with blank and comment lines, surrounding spaces and tabs,
    tab and multiple-space separators, trailing comments and CR LF."""
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "\t", "# a comment", "  #", "#REL lt"]))
        if rng.random() < 0.2:
            line = line.replace(" ", rng.choice(["  ", "\t", " \t "]))
        if rng.random() < 0.15:
            line = rng.choice([" ", "\t", "  "]) + line
        if rng.random() < 0.15:
            line += rng.choice([" ", "\t", "  \t"])
        if rng.random() < 0.1:
            line += rng.choice(["  # note", "#", "\t# tab # twice"])
        out.append(line)
    end = rng.choice(["\n", "\r\n", "\n"])
    return end.join(out) + (end if rng.random() < 0.8 else "")


@pytest.mark.parametrize("seed", range(4))
def test_model_reader_matches_the_plain_reader(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(150):
        lines = _model_lines(rng)
        if rng.random() < 0.6:
            _model_defect(rng, lines)
        text = _noisy(rng, lines)
        expected = _outcome(declared_model_from_text, text)
        assert _outcome(model_from_text, text) == expected, text
        kinds.add(expected[0])
    assert kinds == {"raises", "returns"}


@pytest.mark.parametrize("seed", range(4))
def test_structure_reader_matches_the_plain_reader(seed):
    rng = random.Random(100 + seed)
    kinds = set()
    for _ in range(150):
        lines = _structure_lines(rng)
        if rng.random() < 0.6:
            _structure_defect(rng, lines)
        text = _noisy(rng, lines)
        expected = _outcome(declared_structure_from_text, text)
        assert _outcome(structure_from_text, text) == expected, text
        kinds.add(expected[0])
    assert kinds == {"raises", "returns"}

