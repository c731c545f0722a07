"""Temporal logic with integer constraints: formulas, abstraction,
homomorphism decisions, logic emission, model checking, bounded search.

The pipeline mirrors the decision argument for branching-time logic over
(Z, <, =, constants, congruences): eliminate negated constraints, trade
constraints for fresh propositions plus a register-graph side condition,
decide that side condition as a homomorphism problem, and express it in
(W)MSO when a logical form is wanted.  Finite-scale model checking and
model search close the loop for experiments.

Nothing on that pipeline needs numpy; only the finite-structure MSO
evaluator does.  So ``eval_finite`` and ``eval_finite_slow`` are looked
up on first access (``__getattr__`` below): that access imports
``msoeval``, and numpy with it, and binds the name in this package like
any other.  ``import ctlz`` alone never loads numpy.
"""

from .formulas import (
    AbstractionTable,
    FALSE,
    TRUE,
    All,
    And,
    BoolConst,
    Constraint,
    EQ,
    Exists,
    FormulaError,
    LT,
    Next,
    Not,
    Or,
    Prop,
    Release,
    RelationSymbol,
    Until,
    abstract_constraints,
    const_rel,
    count_e,
    format_formula,
    is_nnf,
    is_snnf,
    is_state_formula,
    max_constraint_depth,
    interp_rel,
    mod_rel,
    negate,
    parse_formula,
    parse_path_formula,
    propositions_of,
    relation_from_name,
    substitute_props,
    TableEntry,
    to_nnf,
    to_snnf,
    variables_of,
)
from .domains import (
    ALLEN_DOMAIN,
    ConcreteDomain,
    DomainError,
    N_DOMAIN,
    NEGZ_DOMAIN,
    Q_DOMAIN,
    Z_DOMAIN,
    apply_interpretation,
    component_name,
    domain_by_name,
    ExistentialInterpretation,
    interpretation_by_name,
)
from .structures import (
    ConstraintKripke,
    GRAPH_SHAPE,
    SigmaStructure,
    StructureError,
    abstract_model,
    element_id,
    extract_constraint_graph,
    gamma_map,
    model_from_text,
    model_to_text,
    structure_from_text,
    structure_to_text,
    tree_shape,
    validate_model,
    validate_structure,
)
from .homcheck import (
    HomDecision,
    HomReason,
    TARGET_DOMAINS,
    brute_force_hom,
    decide_hom,
    verify_hom,
    witness_bound,
)
from .mso import (
    MsoError,
    MsoFormula,
    emit_core_formula,
    emit_hom_sentence,
    emit_tree_encoding,
    formula_class,
    parse_sexpr,
    relativize,
    to_sexpr,
)
from .modelcheck import (
    BuchiAutomaton,
    ModelCheckError,
    WINDOW_LIMIT,
    WindowModel,
    check_ctl_oracle,
    check_ctlstar,
    expand_windows,
    ltl_to_buchi,
)
from .satsearch import (
    ReductionReport,
    SatSearchError,
    candidate_values,
    eval_bounded,
    find_model,
    reduction_consistency,
)

__version__ = "0.1.0"

_FROM_MSOEVAL = ("eval_finite", "eval_finite_slow")


def __getattr__(name: str):
    if name not in _FROM_MSOEVAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import msoeval

    value = globals()[name] = getattr(msoeval, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_FROM_MSOEVAL})


__all__ = [
    "ALLEN_DOMAIN",
    "AbstractionTable",
    "All",
    "And",
    "BoolConst",
    "BuchiAutomaton",
    "ConcreteDomain",
    "Constraint",
    "ConstraintKripke",
    "DomainError",
    "EQ",
    "ExistentialInterpretation",
    "Exists",
    "FALSE",
    "FormulaError",
    "GRAPH_SHAPE",
    "HomDecision",
    "HomReason",
    "LT",
    "ModelCheckError",
    "MsoError",
    "MsoFormula",
    "NEGZ_DOMAIN",
    "N_DOMAIN",
    "Next",
    "Not",
    "Or",
    "Prop",
    "Q_DOMAIN",
    "ReductionReport",
    "RelationSymbol",
    "Release",
    "SatSearchError",
    "SigmaStructure",
    "StructureError",
    "TARGET_DOMAINS",
    "TRUE",
    "TableEntry",
    "Until",
    "WINDOW_LIMIT",
    "WindowModel",
    "Z_DOMAIN",
    "abstract_constraints",
    "abstract_model",
    "apply_interpretation",
    "brute_force_hom",
    "candidate_values",
    "check_ctl_oracle",
    "check_ctlstar",
    "component_name",
    "const_rel",
    "count_e",
    "decide_hom",
    "domain_by_name",
    "element_id",
    "emit_core_formula",
    "emit_hom_sentence",
    "emit_tree_encoding",
    "eval_bounded",
    "eval_finite",
    "eval_finite_slow",
    "expand_windows",
    "extract_constraint_graph",
    "find_model",
    "format_formula",
    "formula_class",
    "gamma_map",
    "interp_rel",
    "interpretation_by_name",
    "is_nnf",
    "is_snnf",
    "is_state_formula",
    "ltl_to_buchi",
    "max_constraint_depth",
    "mod_rel",
    "model_from_text",
    "model_to_text",
    "negate",
    "parse_formula",
    "parse_path_formula",
    "parse_sexpr",
    "propositions_of",
    "reduction_consistency",
    "relation_from_name",
    "relativize",
    "structure_from_text",
    "structure_to_text",
    "substitute_props",
    "to_nnf",
    "to_sexpr",
    "to_snnf",
    "tree_shape",
    "validate_model",
    "validate_structure",
    "variables_of",
    "verify_hom",
    "witness_bound",
]
