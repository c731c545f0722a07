"""Hand-checked worked example used by tests and the CLI selftest.

A binary tree of depth 3 carries two registers x1, x2 over nonnegative
integers, with two constraints: p1 abstracts "x1 here is less than x2 at
the child" (depth 1) and p2 abstracts "x1 equals x2, both at the child"
(depth 1).  The expected label placement and the order/equality edges of
the extracted constraint graph were computed by hand from the register
table below.
"""

from __future__ import annotations

from .domains import N_DOMAIN
from .formulas import EQ, LT, AbstractionTable, Constraint, TableEntry
from .structures import ConstraintKripke, element_id, tree_edges, tree_shape

DEMO_R1 = Constraint(LT, ((0, "x1"), (1, "x2")))
DEMO_R2 = Constraint(EQ, ((1, "x1"), (1, "x2")))

DEMO_DOMAIN = N_DOMAIN

_REGISTERS = {
    "": (1, 2),
    "1": (2, 2),
    "2": (1, 3),
    "11": (3, 3),
    "12": (2, 0),
    "21": (2, 0),
    "22": (3, 0),
    "111": (0, 4),
    "112": (2, 2),
    "121": (0, 2),
    "122": (0, 3),
    "211": (0, 2),
    "212": (0, 0),
    "221": (4, 4),
    "222": (3, 3),
}

EXPECTED_LABELS = {
    "1": frozenset({"p1", "p2"}),
    "2": frozenset({"p1"}),
    "11": frozenset({"p1", "p2"}),
    "111": frozenset({"p1"}),
    "112": frozenset({"p2"}),
    "122": frozenset({"p1"}),
    "212": frozenset({"p2"}),
    "221": frozenset({"p1", "p2"}),
    "222": frozenset({"p2"}),
}

EXPECTED_ORDER_EDGES = {
    (element_id(parent, "x1"), element_id(child, "x2"))
    for parent, child in [
        ("", "1"),
        ("", "2"),
        ("1", "11"),
        ("11", "111"),
        ("12", "122"),
        ("22", "221"),
    ]
}

EXPECTED_EQUALITY_EDGES = {
    (element_id(v, "x1"), element_id(v, "x2"))
    for v in ["1", "11", "112", "212", "221", "222"]
}


def demo_table() -> AbstractionTable:
    return AbstractionTable((TableEntry(DEMO_R1, "p1", 1), TableEntry(DEMO_R2, "p2", 1)))


def demo_tree() -> ConstraintKripke:
    nodes = sorted(_REGISTERS, key=lambda v: (len(v), v))
    registers = {}
    for v, (a, b) in _REGISTERS.items():
        registers[(v, "x1")] = a
        registers[(v, "x2")] = b
    return ConstraintKripke(nodes, tree_edges(nodes, 2), {}, registers, ["x1", "x2"], tree_shape(2, 3))
