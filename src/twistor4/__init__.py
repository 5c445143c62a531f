"""Exact invariants of twistor spaces over connected sums of n copies
of the complex projective plane.

The package computes, in exact integer/rational arithmetic:

* the integral cohomology ring of the twistor space Z (cup products,
  Chern numbers, the H^2 x H^2 -> H^4 pairing and its kernel);
* Riemann-Roch Euler characteristics of powers of the fundamental
  line bundle F;
* intersection theory on the Picard lattice of a fundamental divisor
  S (a blow-up of P^1 x P^1 at conjugate point pairs), including
  realization of anticanonical cycles from blow-up schedules;
* h^0 of line bundles on cycles of rational curves, by a closed
  formula and by an independent randomized kernel oracle;
* for n = 4, the full algebraic-dimension classification of the
  configuration, plus an enumerator that walks every schedule up to
  conjugation symmetry.
"""

from .cohomology import (
    ChernData,
    CohomologyClass,
    PairingData,
    c1_class,
    c2_class,
    chern_numbers,
    cup,
    euler_char_fundamental,
    evaluate,
    fundamental_class,
    pairing_kernel,
    pairing_matrix,
    scalar,
    w,
    x,
    zero,
)
from .cycles import (
    DEFAULT_ORACLE_SEED,
    CycleLineBundle,
    TorsionSpec,
    cyclic_arcs,
    euler_char_cycle,
    h0_formula,
    h0_oracle,
)
from .errors import (
    DegreeError,
    HypothesisError,
    InvariantError,
    RealizabilityError,
    ScheduleError,
    TaggedError,
    TorsionRequiredError,
    TwistorError,
)
from .lattice import (
    AnticanonicalCycle,
    BlowupSchedule,
    BlowupStep,
    DivisorClass,
    INITIAL_TYPES,
    RealizationState,
    SurfaceLattice,
    adjunction_genus,
    anticanonical_class,
    elementary_transform,
    real_involution,
    realize_cycle,
    smooth_anticanonical_cycle,
)
from .classify import (
    CASE_NEF,
    CASE_PAIR_MINUS_2,
    CASE_PAIRS_MINUS_1,
    CASE_REAL_MINUS_2,
    ClassificationReport,
    EnumeratedEntry,
    EnumerationResult,
    anticanonical_degrees,
    check_report,
    classify,
    classify_leaf,
    enumerate_configurations,
    model_from_document,
    model_from_schedule,
    negative_curves,
    walk_schedules,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # cohomology
    "CohomologyClass", "ChernData", "PairingData", "chern_numbers",
    "pairing_matrix", "pairing_kernel", "euler_char_fundamental",
    "cup", "evaluate", "scalar", "zero", "x", "w", "c1_class", "c2_class",
    "fundamental_class",
    # cycles
    "CycleLineBundle", "TorsionSpec", "DEFAULT_ORACLE_SEED", "cyclic_arcs",
    "euler_char_cycle", "h0_formula", "h0_oracle",
    # errors
    "TwistorError", "ScheduleError", "DegreeError", "TaggedError",
    "RealizabilityError", "HypothesisError", "TorsionRequiredError",
    "InvariantError",
    # lattice
    "SurfaceLattice", "DivisorClass", "anticanonical_class",
    "adjunction_genus", "real_involution", "BlowupStep", "BlowupSchedule",
    "AnticanonicalCycle", "smooth_anticanonical_cycle", "INITIAL_TYPES",
    "RealizationState", "realize_cycle", "elementary_transform",
    # classification
    "CASE_NEF", "CASE_REAL_MINUS_2", "CASE_PAIR_MINUS_2", "CASE_PAIRS_MINUS_1",
    "ClassificationReport", "anticanonical_degrees", "negative_curves",
    "check_report", "classify", "model_from_schedule", "model_from_document",
    "EnumeratedEntry", "EnumerationResult", "walk_schedules", "classify_leaf",
    "enumerate_configurations",
]
