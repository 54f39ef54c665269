"""Finite MS-algebras, fuzzy filters, and their extension operators,
with an executable registry of the algebraic laws they satisfy.

The names of the law registry (``verifier``) and of the shipped
``fixtures`` load on first use (PEP 562), so that a program that only
builds algebras and evaluates extensions never imports them.
"""

from importlib import import_module

from .errors import (
    CarrierMismatch,
    DuplicateElement,
    EmptyW,
    GradeOutOfRange,
    HypothesisUnmet,
    InternalInvariantError,
    MsfuzzError,
    NotALattice,
    NotAPoset,
    NotBounded,
    NotDistributive,
    NotProper,
    SizeCapExceeded,
    UnknownElement,
    UnknownProperty,
)
from .extensions import (
    CanonicalFixedSet,
    ExtensionResult,
    extend,
    fixed_witness_sets,
    is_fixed_relative,
    omega,
    upsilon,
)
from .file_format import (
    AlgebraDocument,
    AlgebraSyntaxError,
    DanglingReference,
    document_from_objects,
    document_to_objects,
    parse_algebra,
    serialize_algebra,
)
from .fuzzy_core import (
    FuzzyClassification,
    FuzzySet,
    classify,
    enumerate_fuzzy_filters,
    fuzzy_filter_report,
    level_cut,
)
from .grades import format_grade, parse_grade
from .lattice_core import (
    FilterSet,
    FiniteLattice,
    SubsetVerdict,
    build_lattice,
    enumerate_filters,
    is_filter,
    principal_filter,
)
from .ms_algebra import (
    MSAlgebra,
    check_ms_axioms,
    enumerate_ms_operations,
    extended_filter_crisp,
    verify_derived_identities,
)
from .report import Check, VerificationReport

# name -> the submodule that defines it, imported on first access
_LAZY = {
    "FIXTURE_NAMES": "fixtures",
    "fixture_text": "fixtures",
    "load_fixture": "fixtures",
    "Instance": "verifier",
    "PropertyOutcome": "verifier",
    "SearchConfig": "verifier",
    "SweepReport": "verifier",
    "THEOREM_SUITE": "verifier",
    "Witness": "verifier",
    "lattice_catalog": "verifier",
    "properties": "verifier",
    "run_property": "verifier",
    "search_counterexample": "verifier",
    "sweep": "verifier",
}

__all__ = [
    "CarrierMismatch", "DuplicateElement", "EmptyW", "GradeOutOfRange",
    "HypothesisUnmet", "InternalInvariantError", "MsfuzzError", "NotALattice",
    "NotAPoset", "NotBounded", "NotDistributive", "NotProper",
    "SizeCapExceeded", "UnknownElement", "UnknownProperty",
    "CanonicalFixedSet", "ExtensionResult", "extend", "fixed_witness_sets",
    "is_fixed_relative", "omega", "upsilon",
    "AlgebraDocument", "AlgebraSyntaxError", "DanglingReference",
    "document_from_objects", "document_to_objects", "parse_algebra",
    "serialize_algebra",
    "FuzzyClassification", "FuzzySet", "classify", "enumerate_fuzzy_filters",
    "fuzzy_filter_report", "level_cut",
    "format_grade", "parse_grade",
    "FilterSet", "FiniteLattice", "SubsetVerdict", "build_lattice",
    "enumerate_filters", "is_filter", "principal_filter",
    "MSAlgebra", "check_ms_axioms", "enumerate_ms_operations",
    "extended_filter_crisp", "verify_derived_identities",
    "Check", "VerificationReport",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
