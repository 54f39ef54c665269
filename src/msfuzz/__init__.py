"""Finite MS-algebras, fuzzy filters, and their extension operators,
with an executable registry of the algebraic laws they satisfy."""

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
    DenseElements,
    ExtensionResult,
    dense_elements,
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
from .fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from .fuzzy_core import (
    FuzzyClassification,
    FuzzySet,
    classify,
    enumerate_fuzzy_filters,
    fuzzy_filter_report,
    fuzzy_intersection,
    is_prime_fuzzy_filter_bounded,
    level_cut,
)
from .grades import Grade, format_grade, parse_grade
from .hom_analysis import (
    HomReport,
    cokernel,
    hom_report,
    kernel,
)
from .lattice_core import (
    FilterSet,
    FiniteLattice,
    SubsetVerdict,
    build_lattice,
    enumerate_filters,
    is_filter,
    is_prime_filter,
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
from .verifier import (
    Instance,
    PropertyOutcome,
    SearchConfig,
    SweepReport,
    THEOREM_SUITE,
    Witness,
    lattice_catalog,
    properties,
    run_property,
    search_counterexample,
    sweep,
)

__version__ = "0.1.0"
