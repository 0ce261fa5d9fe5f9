"""Exception hierarchy and warnings shared across the toolkit."""

__all__ = [
    "GreyLPError",
    "DomainError",
    "StructureError",
    "ValidationError",
    "ParseError",
    "UnboundedValueError",
    "InconsistentInputsError",
    "SolverFailure",
    "DegenerateBoundsWarning",
]


class GreyLPError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GreyLPError, ValueError):
    """A scalar argument is outside its allowed range (e.g. a position
    coefficient not in [0, 1], an integer too large for a float, or a
    value bound that is not finite)."""


class StructureError(GreyLPError, ValueError):
    """A container was given a block of the wrong shape (a ragged or empty
    matrix, entries that are not real numbers, a coefficient block that
    does not match the target problem)."""


class ValidationError(GreyLPError, ValueError):
    """A problem failed validation.  Carries the full violation list."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid problem: {lines}")


class ParseError(GreyLPError, ValueError):
    """A problem file could not be parsed.  The message carries line or
    field context."""


class UnboundedValueError(GreyLPError, ArithmeticError):
    """A positioned program is unbounded, so no finite optimal value (and
    no satisfaction analysis) exists for it."""


class InconsistentInputsError(GreyLPError, ValueError):
    """A reported optimal value lies outside [critical, ideal] by more than
    numerical noise, so the inputs cannot belong to the same problem."""


class SolverFailure(GreyLPError, RuntimeError):
    """The simplex solver exceeded its iteration cap or produced a solution
    that fails the post-check (infeasible, or not finite because the
    optimum overflows); the instance is pathological."""


class DegenerateBoundsWarning(UserWarning):
    """Critical and ideal values coincide (effectively white problem); the
    satisfaction degree is reported as 1 by convention."""
