"""Discrete Morse-Bott theory on finite CW complexes.

Complexes are given by explicit facet incidence records; functions take
exact rational values.  The package detects collections, checks the
discrete Morse-Bott conditions, computes reduced collections and their
homology over Z or Z/2, verifies the Morse-Bott inequalities, and builds
Conley index pairs.
"""

from .complex import (
    Cell,
    Complex,
    FaceRecord,
    ValidationError,
    ValidationReport,
    build_from_incidence,
    build_simplicial,
    closure,
    is_subcomplex,
    restrict,
    validate,
)
from .morse import (
    CellClass,
    Collection,
    DiscreteFunction,
    MorseBottVerdict,
    ReducedCollection,
    check_discrete_morse,
    check_morse_bott,
    classify,
    collections,
    critical_cells,
    is_noncritical_pair,
    perturb,
    reduce_collection,
    reduced_collections,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    Polynomial,
    SNFResult,
    Z,
    Z2,
    betti,
    chain_complex,
    equivalence_check,
    euler_characteristic,
    poincare_polynomial,
    reduced_boundary,
    relative_chain_complex,
    smith_normal_form,
)
from .flow import (
    ArrowSet,
    Orbit,
    closed_orbits,
    cross_collection_orbits,
    is_combinatorial,
    vector_field,
)
from .analysis import (
    Analysis,
    InequalityReport,
    collection_defect,
    euler_summary,
    kernel_inequality_check,
    morse_bott_inequalities,
)
from .conley import (
    ConleyReport,
    IndexPair,
    conley_index,
    conley_theorem_check,
    euler_index_check,
    index_pair,
    isolated_invariant_sets,
)
from .io import (
    ParseError,
    ReportDocument,
    parse_complex,
    parse_function,
    parse_report,
    serialize_complex,
    serialize_function,
    serialize_report,
)

__version__ = "0.1.0"
