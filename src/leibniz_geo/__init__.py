"""Exact symbolic metric-connection geometry on pre-Leibniz algebroids."""

from .algebroid import (
    Algebroid,
    AlgebroidReport,
    Residual,
    builtin,
    courant,
    courant_pairing,
    lie_algebra,
    so3,
    tangent,
)
from .connection import (
    Derived,
    EConnection,
    curvature,
    curvature_eval,
    difference_tensor,
    levi_civita_solve,
    modified_bracket,
    modified_bracket_coeffs,
    nonmetricity,
    projected_modified_bracket,
    second_cov_and_ricci,
    second_covariant_derivative,
    torsion,
    torsion_eval,
)
from .errors import (
    CompatibilityFailure,
    DegenerateMetric,
    ExprSyntaxError,
    InvalidStructure,
    LeibnizGeoError,
    MissingProjector,
    NonUnique,
    NoSolution,
    NotAdmissible,
    ParseError,
    PoleAtPoint,
    SchemaError,
    ShapeError,
    SlotMismatch,
    UnknownVariable,
)
from .hessian import (
    FlaggedResidual,
    HessianStructure,
    conjugate_curvature_transfer_residual,
    constant_curvature_check,
    fundamental_theorem_residual,
    function_form,
    hessian,
    hessian_asymmetry,
    hessian_structure_check,
    hessian_symmetry_equivalences,
    projected_exterior_derivative,
)
from .scalar import Rational, ScalarField
from .statgeo import (
    ConjugatePair,
    StatisticalStructure,
    alpha_connection,
    alpha_curvature_residual,
    conjugate_connection,
    conjugation_residual,
    mean_connection,
    quasi_statistical_check,
    relative_torsion,
    statistical_solve,
    strong_conjugacy_residual,
)
from .tensor import (
    EMetric,
    EOneForm,
    EPForm,
    ETensor,
    EVectorField,
    contract,
    is_antisymmetric_in,
    is_totally_symmetric,
    metric_inverse,
)

__version__ = "0.1.0"

# The API that the README's library sections document; the other names
# imported above stay importable for the tests.
__all__ = [
    "Algebroid", "AlgebroidReport", "Residual", "builtin", "courant", "courant_pairing",
    "lie_algebra", "so3", "tangent",
    "Derived", "EConnection", "curvature", "levi_civita_solve", "nonmetricity",
    "second_cov_and_ricci", "torsion",
    "CompatibilityFailure", "DegenerateMetric", "ExprSyntaxError", "InvalidStructure",
    "LeibnizGeoError", "MissingProjector", "NonUnique", "NoSolution", "NotAdmissible",
    "ParseError", "PoleAtPoint", "SchemaError", "ShapeError", "SlotMismatch",
    "UnknownVariable",
    "FlaggedResidual", "HessianStructure", "conjugate_curvature_transfer_residual",
    "constant_curvature_check", "fundamental_theorem_residual", "hessian",
    "hessian_structure_check", "hessian_symmetry_equivalences", "projected_exterior_derivative",
    "Rational", "ScalarField",
    "ConjugatePair", "StatisticalStructure", "alpha_connection", "alpha_curvature_residual",
    "conjugate_connection", "conjugation_residual", "mean_connection", "relative_torsion",
    "statistical_solve", "strong_conjugacy_residual",
    "EMetric", "EOneForm", "EPForm", "ETensor", "EVectorField",
]
