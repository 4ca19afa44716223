"""Exact obstruction calculus for almost complex structures.

The package decides, from characteristic-class data presented over finite
graded rings, whether an oriented real vector bundle can admit an almost
complex structure: it evaluates the integral Stiefel-Whitney class W_3,
Massey's two theorems on higher obstructions, and the rank-specific
top-degree criteria, all in exact integer arithmetic.
"""

from .intlin import (
    AbelianGroupDescriptor,
    IntMatrix,
    SmithDecomposition,
    hermite_basis,
    smith_normal_form,
    solve_integer_linear,
)
from .gradedring import (
    CoefficientMap,
    ConfluenceError,
    DegreeError,
    Generator,
    GradedRing,
    LiftSearch,
    RewriteRule,
    RingElement,
    RingError,
    RingPresentation,
    RingSystem,
    SignRuleError,
    any_integral_lift,
    divide_by,
    integral_lifts,
)
from .obstruct import (
    BudgetExceeded,
    BundleData,
    ChernCandidate,
    DataValidationError,
    DivisibilityViolation,
    NoSolution,
    ObstructionReport,
    Pairing,
    SearchOutcome,
    Verdict,
    WuCheck,
    acs_verdict,
    construct_w4m_lift,
    first_obstruction,
    homotopy_group,
    integral_sw,
    obstruction_denominator,
    survey_candidates,
    theorem1_obstruction,
    theorem2_class,
    validate_wu_formula,
)
from .spacefile import (
    SpaceFile,
    SpaceFileError,
    load_space_file,
)
from .report import exit_code, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupDescriptor", "IntMatrix", "SmithDecomposition",
    "hermite_basis", "smith_normal_form", "solve_integer_linear",
    "CoefficientMap", "ConfluenceError", "DegreeError", "Generator",
    "GradedRing", "LiftSearch", "RewriteRule", "RingElement", "RingError",
    "RingPresentation", "RingSystem", "SignRuleError", "any_integral_lift",
    "divide_by", "integral_lifts",
    "BudgetExceeded", "BundleData", "ChernCandidate", "DataValidationError",
    "DivisibilityViolation", "NoSolution", "ObstructionReport", "Pairing",
    "SearchOutcome", "Verdict", "WuCheck", "acs_verdict",
    "construct_w4m_lift", "first_obstruction", "homotopy_group",
    "integral_sw", "obstruction_denominator", "survey_candidates",
    "theorem1_obstruction", "theorem2_class", "validate_wu_formula",
    "SpaceFile", "SpaceFileError", "load_space_file",
    "exit_code", "render_json", "render_text",
    "__version__",
]
