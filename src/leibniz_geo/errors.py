"""Exception hierarchy shared by every module."""


class LeibnizGeoError(Exception):
    """Base class for all errors raised by this package."""


# -- scalar field -------------------------------------------------------------

class DivisionByZero(LeibnizGeoError):
    """Division by the zero scalar field."""


class PoleAtPoint(LeibnizGeoError):
    """The denominator vanishes at the evaluation point."""


class ExprSyntaxError(LeibnizGeoError):
    """Malformed expression text; carries the offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(LeibnizGeoError):
    """Expression references a name outside the declared coordinates."""

    def __init__(self, name):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


# -- tensors / linear algebra -------------------------------------------------

class SlotMismatch(LeibnizGeoError):
    """Contraction or symmetry check applied to incompatible tensor slots."""


class DegenerateMetric(LeibnizGeoError):
    """The metric determinant is the zero scalar field."""


class NoSolution(LeibnizGeoError):
    """An exact linear system is inconsistent."""


class NonUnique(LeibnizGeoError):
    """An exact linear system is rank deficient; carries the solution-set dimension."""

    def __init__(self, free_dimension):
        super().__init__(f"linear system is rank deficient ({free_dimension} free parameters)")
        self.free_dimension = free_dimension


# -- algebroid / connection preconditions -------------------------------------

class MissingProjector(LeibnizGeoError):
    """Operation needs a locality projector but the algebroid carries none."""


class InvalidStructure(LeibnizGeoError, ValueError):
    """Structure data violate their defining conditions (e.g. a non-symmetric C)."""


class InvalidStructureConstants(LeibnizGeoError):
    """Lie-algebra structure constants are not antisymmetric."""


class NotAdmissible(LeibnizGeoError):
    """Operation requires an admissible connection."""


class CompatibilityFailure(LeibnizGeoError):
    """Solved connection pair fails the bracket-difference compatibility condition."""

    def __init__(self, message, nabla=None, nabla_star=None, residual=None):
        super().__init__(message)
        self.nabla = nabla
        self.nabla_star = nabla_star
        self.residual = residual


# -- model files / CLI --------------------------------------------------------

class ParseError(LeibnizGeoError):
    """Model file is not well-formed; carries position information."""


class SchemaError(LeibnizGeoError):
    """Model document violates the schema; carries the path into the document."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ShapeError(LeibnizGeoError):
    """A component array has the wrong shape; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownCommand(LeibnizGeoError):
    """CLI command is not recognized."""


class MissingInput(LeibnizGeoError):
    """CLI command lacks a required object; carries a remediation hint."""


class OutputError(LeibnizGeoError):
    """CLI report cannot be written: stdout is closed or refuses the bytes."""
