"""Exception hierarchy shared by all jetvar modules."""


class JetvarError(Exception):
    """Base class for all errors raised by jetvar."""


class InputError(JetvarError):
    """Invalid user input (bad syntax, bad indices, malformed files)."""


class ParseError(InputError):
    """Syntax error in an expression or a problem file."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class IndexRangeError(InputError):
    """A coordinate index lies outside the chart ranges."""


class OrderOverflowError(InputError):
    """An operation would produce jet coordinates above the registered order."""


class EvaluationError(JetvarError):
    """Numeric evaluation failed."""


class MissingCoordinateError(EvaluationError):
    """The evaluation point does not assign a value to a required coordinate."""


class DivisionByZeroError(EvaluationError):
    """A denominator evaluated to zero."""


class DomainError(EvaluationError):
    """Argument outside the domain of an elementary function (ln, sqrt)."""


class ContactOrderError(JetvarError):
    """A form has higher contact order than the operation permits."""


class DegreeError(JetvarError):
    """A form has the wrong exterior degree for the operation."""


class VerticalityError(JetvarError):
    """A vector field is not vertical where verticality is required."""


class InadmissibleGError(InputError):
    """The free coefficient table violates the symmetrization constraint."""


class DegeneracyError(JetvarError):
    """A linear layer of the momentum inversion is singular."""

    def __init__(self, message: str, layer: int | None = None):
        self.layer = layer
        super().__init__(message)


class UnsupportedSymbolicError(JetvarError):
    """The request needs closed-form manipulation outside the supported class."""


class NewtonError(JetvarError):
    """Per-step Newton iteration failed to converge."""
