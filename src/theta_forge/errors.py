"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """The truncated series cannot reach the requested tolerance."""


class NumericalDegeneracyError(RuntimeError):
    """A matrix that must be inverted is numerically singular."""


class DegenerateBasePointError(RuntimeError):
    """All probe theta constants vanish at the chosen base point."""


class ExpressionParseError(ValueError):
    """A theta expression or audit form spec failed to parse.

    ``position`` is the 0-based column of the offending character, or None
    where the message names the offending token instead.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
