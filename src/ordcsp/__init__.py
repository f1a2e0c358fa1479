"""Constraint solving over order-definable infinite templates.

The pipeline: present a template over the rational order (directly or as
a d-dimensional interpretation), sample a finite structure at the size of
the incoming instance, and decide by arc-consistency against the sample.
A verification lab checks the finite theory the approach rests on and
counts growth of distinguishable n-subsets.
"""

from .errors import (
    CapExceeded,
    EqualityNotCongruence,
    EqualityNotEquivalence,
    FormulaError,
    SchemaError,
    SignatureMismatch,
    VerificationFailed,
)
from .formula import (
    And,
    Atom,
    Const,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    and_,
    compile_formula,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    not_,
    or_,
    parse_formula,
    print_formula,
)
from .lab import (
    check_aclwalk_lemma,
    check_set_hom_equiv,
    find_alternating_walk,
    orbit_count,
    subset_class_count,
)
from .polymorphism import (
    BinaryOpTable,
    SubsetFunctionTable,
    find_semilattice,
    has_ts_polymorphism,
    is_polymorphism,
)
from .powerset import power_structure
from .sampler import Sample, sample
from .solver import (
    Verdict,
    ac,
    ac_roundrobin,
    extract_witness,
    hom_exists,
    solve,
    verify_assignment,
)
from .structures import FiniteStructure, Instance, Signature
from .template import (
    PRESET_NAMES,
    Relation,
    Template,
    preset,
)

__all__ = [
    "And",
    "Atom",
    "BinaryOpTable",
    "CapExceeded",
    "Const",
    "EqualityNotCongruence",
    "EqualityNotEquivalence",
    "FALSE",
    "FiniteStructure",
    "Formula",
    "FormulaError",
    "Instance",
    "Not",
    "Or",
    "PRESET_NAMES",
    "Relation",
    "Sample",
    "SchemaError",
    "Signature",
    "SignatureMismatch",
    "SubsetFunctionTable",
    "TRUE",
    "Template",
    "Verdict",
    "VerificationFailed",
    "ac",
    "ac_roundrobin",
    "and_",
    "check_aclwalk_lemma",
    "check_set_hom_equiv",
    "compile_formula",
    "eq",
    "extract_witness",
    "find_alternating_walk",
    "find_semilattice",
    "ge",
    "gt",
    "has_ts_polymorphism",
    "hom_exists",
    "is_polymorphism",
    "le",
    "lt",
    "ne",
    "not_",
    "or_",
    "orbit_count",
    "parse_formula",
    "power_structure",
    "preset",
    "print_formula",
    "sample",
    "solve",
    "subset_class_count",
    "verify_assignment",
]
