"""Register-labeled Kripke structures, sigma-structures, and file formats.

A ConstraintKripke is a total directed graph (or a finite tree, nodes
being words over 1..d) whose nodes carry proposition labels and one
register value per constraint variable.  A SigmaStructure is a plain
relational structure over a declared signature; it is what the
homomorphism checker consumes.

Tree nodes are spelled as digit words ("1", "12", ...) with the root as
the empty word, written `eps` in files; branching degree is capped at 9
so the word notation stays unambiguous.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .domains import ConcreteDomain
from .formulas import (
    CONSTANT,
    MODULO,
    AbstractionTable,
    FormulaError,
    RelationSymbol,
    RESERVED_PREFIX,
    relation_from_name,
)


class StructureError(ValueError):
    """Malformed structure or model data."""


GRAPH_SHAPE = ("graph",)


def tree_shape(d: int, k: int) -> tuple:
    return ("tree", d, k)


def tree_edges(nodes, d: int) -> set:
    """The parent-child pairs among the tree nodes, words over 1..d."""
    node_set = set(nodes)
    return {(n, n + str(i)) for n in nodes for i in range(1, d + 1) if n + str(i) in node_set}


@dataclass
class ConstraintKripke:
    nodes: list
    edges: set  # set[tuple[node, node]]
    labels: dict  # node -> frozenset[str]
    registers: dict  # (node, var) -> value
    variables: list
    shape: tuple = GRAPH_SHAPE

    @property
    def is_tree(self) -> bool:
        return self.shape[0] == "tree"

    def label(self, node) -> frozenset:
        return self.labels.get(node, frozenset())

    def gamma(self, node, var):
        return self.registers[(node, var)]

    def successors(self, node) -> list:
        return sorted(b for (a, b) in self.edges if a == node)


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")
_FRACTION_RE = re.compile(r"-?\d+/0*[1-9]\d*")  # no zero denominator
_TREE_NODE_RE = re.compile(r"[1-9]*")


def _check_identifier(text: str, what: str, allow_reserved: bool) -> None:
    if not _IDENTIFIER_RE.fullmatch(text):
        raise StructureError(f"bad {what} {text!r}")
    if not allow_reserved and text.startswith(RESERVED_PREFIX):
        raise StructureError(f"{what} {text!r} uses the reserved prefix")


def validate_model(model: ConstraintKripke, allow_reserved: bool = False) -> None:
    """Check shape, totality, label and register well-formedness."""
    if not model.nodes:
        raise StructureError("model needs at least one node")
    if len(set(model.nodes)) != len(model.nodes):
        raise StructureError("duplicate node ids")
    node_set = set(model.nodes)

    if len(set(model.variables)) != len(model.variables):
        raise StructureError("duplicate variables")
    for var in model.variables:
        _check_identifier(var, "variable", allow_reserved)

    if model.shape[0] == "graph":
        for node in model.nodes:
            if not isinstance(node, str):
                raise StructureError(f"graph node ids must be strings, got {node!r}")
            _check_identifier(node, "node id", allow_reserved)
        for a, b in model.edges:
            if a not in node_set or b not in node_set:
                raise StructureError(f"edge ({a}, {b}) mentions an unknown node")
        sources = {a for a, _ in model.edges}
        without = [n for n in model.nodes if n not in sources]
        if without:
            raise StructureError(f"graph is not total: node {without[0]!r} has no successor")
    elif model.shape[0] == "tree":
        _, d, k = model.shape
        if not (1 <= d <= 9):
            raise StructureError("tree branching degree must be between 1 and 9")
        if k < 0:
            raise StructureError("tree depth must be nonnegative")
        for node in model.nodes:
            if not isinstance(node, str) or not _TREE_NODE_RE.fullmatch(node):
                raise StructureError(f"tree node must be a word over 1..{d}, got {node!r}")
            if any(int(ch) > d for ch in node):
                raise StructureError(f"tree node {node!r} exceeds branching degree {d}")
            if len(node) > k:
                raise StructureError(f"tree node {node!r} deeper than {k}")
            if node and node[:-1] not in node_set:
                raise StructureError(f"tree nodes must be prefix closed; {node!r} lacks its parent")
        if "" not in node_set:
            raise StructureError("tree is missing its root")
        if model.edges and set(model.edges) != tree_edges(model.nodes, d):
            raise StructureError("tree edges must be exactly the parent-child pairs")
    else:
        raise StructureError(f"unknown shape {model.shape!r}")

    for node, props in model.labels.items():
        if node not in node_set:
            raise StructureError(f"label on unknown node {node!r}")
        for p in props:
            _check_identifier(p, "proposition", allow_reserved)

    for node in model.nodes:
        for var in model.variables:
            if (node, var) not in model.registers:
                raise StructureError(f"missing register value for ({node!r}, {var!r})")
    for key in model.registers:
        node, var = key
        if node not in node_set or var not in model.variables:
            raise StructureError(f"register entry {key!r} outside nodes x variables")


@dataclass
class SigmaStructure:
    elements: list
    interpretation: dict  # RelationSymbol -> list[tuple]

    @property
    def signature(self) -> list:
        return list(self.interpretation.keys())

    def constants(self) -> list:
        """Constant parameters declared in the signature, sorted."""
        return sorted({r.params[0] for r in self.interpretation if r.kind == CONSTANT})

    def moduli(self) -> list:
        """Distinct moduli b declared in the signature, sorted."""
        return sorted({r.params[1] for r in self.interpretation if r.kind == MODULO})


def validate_structure(structure: SigmaStructure) -> None:
    if len(set(structure.elements)) != len(structure.elements):
        raise StructureError("duplicate elements")
    element_set = set(structure.elements)
    for e in structure.elements:
        if not isinstance(e, str):
            raise StructureError(f"element ids must be strings, got {e!r}")
    for rel, tuples in structure.interpretation.items():
        for t in tuples:
            if len(t) != rel.arity:
                raise StructureError(f"{rel.name} is {rel.arity}-ary, got tuple {t!r}")
            for e in t:
                if e not in element_set:
                    raise StructureError(f"{rel.name} tuple {t!r} mentions an unknown element")


# ---------------------------------------------------------------------------
# File formats (line oriented; see docs/formats.md)


def _format_scalar(value) -> str:
    # a Fraction keeps its denominator, even 1, so it reads back as one
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(map(_format_scalar, value)) + ")"
    return _format_scalar(value)


def _parse_value(text: str):
    if text.startswith("(") and text.endswith(")"):
        parts = text[1:-1].split(",")
        return tuple(_parse_scalar(p) for p in parts)
    return _parse_scalar(text)


def _parse_scalar(text: str):
    text = text.strip()
    if _INT_RE.fullmatch(text):
        return int(text)
    if _FRACTION_RE.fullmatch(text):
        return Fraction(text)
    raise StructureError(f"bad register value {text!r}")


_TREE_NODE_FILE_RE = re.compile(r"eps|[1-9]+")


def _node_to_file(node: str) -> str:
    return node if node else "eps"


def _tree_node_from_file(text: str) -> str:
    if not _TREE_NODE_FILE_RE.fullmatch(text):
        raise StructureError(f"bad tree node id {text!r}")
    return "" if text == "eps" else text


def model_to_text(model: ConstraintKripke) -> str:
    lines = []
    if model.shape[0] == "graph":
        lines.append("SHAPE graph")
    else:
        lines.append(f"SHAPE tree {model.shape[1]} {model.shape[2]}")
    lines.append("VARS " + " ".join(model.variables))
    lines.append("NODES")
    for n in model.nodes:
        lines.append(_node_to_file(n))
    if model.shape[0] == "graph":
        lines.append("EDGES")
        for a, b in sorted(model.edges):
            lines.append(f"{_node_to_file(a)} {_node_to_file(b)}")
    labeled = [n for n in model.nodes if model.label(n)]
    if labeled:
        lines.append("LABELS")
        for n in labeled:
            lines.append(_node_to_file(n) + " " + " ".join(sorted(model.label(n))))
    lines.append("REGISTERS")
    for n in model.nodes:
        for var in model.variables:
            lines.append(f"{_node_to_file(n)} {var} {_format_value(model.registers[(n, var)])}")
    return "\n".join(lines) + "\n"


def _content(text: str) -> list:
    """The lines that carry content: `#` comments cut, surrounding
    whitespace stripped, blank lines dropped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return [line for raw in lines if (line := raw.strip())]


_MODEL_SECTIONS = frozenset(("NODES", "EDGES", "LABELS", "REGISTERS"))


def model_from_text(text: str) -> ConstraintKripke:
    lines = _content(text)
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
    keyword, *variables = lines[1].split()
    if keyword != "VARS":
        raise StructureError(f"bad VARS line {lines[1]!r}")

    # each section is read whole; sections go in file order, and each
    # raises on its first malformed line
    bounds = [i for i, line in enumerate(lines) if line in _MODEL_SECTIONS] + [len(lines)]
    if bounds[0] > 2:
        raise StructureError(f"unexpected line {lines[2]!r} before any section")
    nodes: list = []
    edges: set = set()
    labels: dict = {}
    registers: dict = {}
    values: dict = {}  # register value text -> value
    for start, end in zip(bounds, bounds[1:]):
        section, body = lines[start], lines[start + 1:end]
        if section == "NODES":
            nodes += [_tree_node_from_file(line) for line in body] if is_tree else body
        elif section == "EDGES":
            for line in body:
                parts = line.split()
                if len(parts) != 2:
                    raise StructureError(f"bad edge line {line!r}")
                a, b = parts
                if is_tree:
                    a, b = _tree_node_from_file(a), _tree_node_from_file(b)
                edges.add((a, b))
        elif section == "LABELS":
            for line in body:
                node, *props = line.split()
                if is_tree:
                    node = _tree_node_from_file(node)
                labels[node] = frozenset(props)
        else:
            for line in body:
                parts = line.split()
                if len(parts) != 3:
                    raise StructureError(f"bad register line {line!r}")
                node, var, value = parts
                if is_tree:
                    node = _tree_node_from_file(node)
                parsed = values.get(value)
                if parsed is None:
                    parsed = values[value] = _parse_value(value)
                registers[node, var] = parsed

    if is_tree and not edges:
        edges = tree_edges(nodes, shape[1])
    model = ConstraintKripke(nodes, edges, labels, registers, variables, shape)
    validate_model(model)
    return model


def structure_to_text(structure: SigmaStructure) -> str:
    lines = ["ELEMENTS"]
    lines.extend(structure.elements)
    for rel, tuples in structure.interpretation.items():
        lines.append(f"REL {rel.name}")
        for t in tuples:
            lines.append(" ".join(t))
    return "\n".join(lines) + "\n"


_WHITESPACE_RE = re.compile(r"\s")


def structure_from_text(text: str) -> SigmaStructure:
    lines = _content(text)
    if not lines or lines[0] != "ELEMENTS":
        raise StructureError("structure file must start with ELEMENTS")
    # line[0] first: indexing one character allocates nothing, a slice does
    bounds = [i for i, line in enumerate(lines) if line[0] == "R" and line[:4] == "REL "] + [len(lines)]
    elements = lines[1:bounds[0]]
    spaced = next(filter(_WHITESPACE_RE.search, elements), None)
    if spaced is not None:
        what = "spaces" if " " in spaced else "whitespace"
        raise StructureError(f"element ids cannot contain {what}: {spaced!r}")
    interpretation: dict = {}
    fixed: dict = {}  # interpreted name -> its symbol, once a row fixed the arity
    for start, end in zip(bounds, bounds[1:]):
        try:
            rel = relation_from_name(lines[start][4:].strip())
        except FormulaError as exc:
            raise StructureError(str(exc)) from None
        rel = fixed.get(rel.name, rel)  # a repeated header continues the relation
        rows = interpretation.setdefault(rel, [])
        body = [tuple(line.split()) for line in lines[start + 1:end]]
        if body and rel.kind == "interpreted" and rel.name not in fixed:
            # fix the arity of an interpreted symbol from its first tuple
            del interpretation[rel]
            rel = RelationSymbol(rel.name, len(body[0]), rel.kind, rel.params)
            interpretation[rel] = rows
            fixed[rel.name] = rel
        rows += body
    structure = SigmaStructure(elements, interpretation)
    validate_structure(structure)
    return structure


_SCALARS = frozenset((str, int, float, bool, type(None)))


def json_text(payload: dict, sort_keys: bool = False) -> str:
    """``json.dumps(payload, indent=2, sort_keys=sort_keys)`` of a dict
    with string keys, byte for byte.  With an indent, ``json`` runs its
    pure-Python encoder; here each value that is a non-empty list or dict
    of scalars, such as a witness map or a node list, goes through the C
    encoder instead, its items separated by a comma, a newline and the
    indentation.  Other values keep the indented encoder."""
    parts = []
    for key in sorted(payload) if sort_keys else payload:
        value = payload[key]
        kind = type(value)
        if (kind is list or kind is dict) and value and _SCALARS.issuperset(
            map(type, value.values() if kind is dict else value)
        ):
            text = json.dumps(value, separators=(",\n    ", ": "), sort_keys=sort_keys)
            text = f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"
        else:
            text = json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", "\n  ")
        parts.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(parts) + "\n}" if parts else "{}"


# ---------------------------------------------------------------------------
# Abstraction of a register tree and extraction of the constraint graph


def element_id(node: str, var: str) -> str:
    """Stable id for the (node, variable) element of the constraint graph."""
    return f"{_node_to_file(node)}.{var}"


def gamma_map(model: ConstraintKripke) -> dict:
    """Register valuation keyed by element_id."""
    return {element_id(n, v): model.registers[(n, v)] for n in model.nodes for v in model.variables}


def register_fault(model: ConstraintKripke, variables, dom: ConcreteDomain) -> str | None:
    """Why constraints over ``variables`` cannot read the registers in ``dom``:
    a variable without one, else the first value outside the domain; or None."""
    for var in variables:
        if var not in model.variables:
            return f"constraint variable {var!r} has no register"
    values = model.registers.values()
    # only ints may be checked once per distinct value: 1 == True == Fraction(1)
    if all(map(dom.check_value, set(values) if set(map(type, values)) == {int} else values)):
        return None
    (node, var), value = next(item for item in model.registers.items() if not dom.check_value(item[1]))
    return f"register value {value!r} of variable {var!r} at node {_node_to_file(node)!r} is not in domain {dom.name}"


def tree_windows(model: ConstraintKripke, depth: int) -> list:
    """The upward windows of depth d of a tree: for each node at least d
    deep, in node order, the d + 1 nodes from its ancestor d levels up
    down to the node."""
    ups = range(-depth, 1)
    return [tuple([v[: len(v) + up] for up in ups]) for v in model.nodes if len(v) >= depth]


def abstract_model(model: ConstraintKripke, table: AbstractionTable, dom: ConcreteDomain) -> ConstraintKripke:
    """Label each node whose upward window satisfies a constraint.

    For a table entry (R_i, p_i, d_i) with R_i = r(X^j1 x1, ..., X^jk xk),
    the proposition p_i is placed on node s.u (|u| = d_i) exactly when
    (gamma(s.u[:j1], x1), ..., gamma(s.u[:jk], xk)) is in I(r).  Nodes
    closer than d_i to the root carry no p_i: their window is truncated.
    A relation the domain lacks is refused first, however deep the tree.
    """
    tests = [dom.relation_test(entry.constraint.relation) for entry in table]
    if not model.is_tree:
        raise StructureError("abstract_model expects a tree model")
    table_props = {entry.prop for entry in table}
    for node in model.nodes:
        clash = model.label(node) & table_props
        if clash:
            raise StructureError(f"node {node!r} already carries table proposition {sorted(clash)[0]!r}")
    if fault := register_fault(model, [var for entry in table for _, var in entry.constraint.args], dom):
        raise StructureError(fault)

    new_labels = {n: set(model.label(n)) for n in model.nodes}
    for entry, holds in zip(table, tests):
        for w in tree_windows(model, entry.depth):
            if holds(tuple(model.registers[(w[off], var)] for off, var in entry.constraint.args)):
                new_labels[w[-1]].add(entry.prop)
    labels = {n: frozenset(ps) for n, ps in new_labels.items() if ps}
    return ConstraintKripke(
        list(model.nodes), set(model.edges), labels, dict(model.registers), list(model.variables), model.shape
    )


def extract_constraint_graph(model: ConstraintKripke, table: AbstractionTable) -> SigmaStructure:
    """Read the sigma-structure off a labeled tree.

    Elements are (node, variable) pairs; a table proposition p_i at node
    s.u contributes the tuple of its constraint's argument positions.
    The declared signature is exactly the table's relation set, so
    downstream constant/modulus extraction matches the formula.
    """
    if not model.is_tree:
        raise StructureError("extract_constraint_graph expects a tree model")
    elements = [element_id(n, v) for n in model.nodes for v in model.variables]

    found: dict = {entry.constraint.relation: {} for entry in table}  # rows in first-seen order
    for entry in table:
        if short := [v for v in model.nodes if len(v) < entry.depth and entry.prop in model.label(v)]:
            where = f"at node {_node_to_file(short[0])!r} needs {entry.depth} ancestors"
            raise StructureError(f"proposition {entry.prop!r} {where}")
        rows = found[entry.constraint.relation]
        for w in tree_windows(model, entry.depth):
            if entry.prop in model.label(w[-1]):
                rows[tuple(element_id(w[off], var) for off, var in entry.constraint.args)] = None
    return SigmaStructure(elements, {rel: list(rows) for rel, rows in found.items()})
