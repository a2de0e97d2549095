"""Exact symbolic metric-connection geometry on pre-Leibniz algebroids."""

from .algebroid import (
    Algebroid,
    AlgebroidReport,
    builtin,
    courant,
    courant_pairing,
    lie_algebra,
    so3,
    tangent,
)
from .connection import (
    EConnection,
    curvature,
    levi_civita_solve,
    nonmetricity,
    second_cov_and_ricci,
    torsion,
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
    HessianStructure,
    conjugate_curvature_transfer_residual,
    constant_curvature_check,
    fundamental_theorem_residual,
    hessian,
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
    relative_torsion,
    statistical_solve,
)
from .tensor import EMetric, ETensor

__version__ = "0.1.0"

# The API that the README's library sections document, and nothing else.
__all__ = [
    "Algebroid", "AlgebroidReport", "builtin", "courant", "courant_pairing", "lie_algebra",
    "so3", "tangent",
    "EConnection", "curvature", "levi_civita_solve", "nonmetricity",
    "second_cov_and_ricci", "torsion",
    "CompatibilityFailure", "DegenerateMetric", "ExprSyntaxError", "InvalidStructure",
    "LeibnizGeoError", "MissingProjector", "NonUnique", "NoSolution", "NotAdmissible",
    "ParseError", "PoleAtPoint", "SchemaError", "ShapeError", "SlotMismatch",
    "UnknownVariable",
    "HessianStructure", "conjugate_curvature_transfer_residual",
    "constant_curvature_check", "fundamental_theorem_residual", "hessian",
    "hessian_structure_check", "hessian_symmetry_equivalences", "projected_exterior_derivative",
    "Rational", "ScalarField",
    "ConjugatePair", "StatisticalStructure", "alpha_connection", "alpha_curvature_residual",
    "conjugate_connection", "conjugation_residual", "relative_torsion", "statistical_solve",
    "EMetric", "ETensor",
]
