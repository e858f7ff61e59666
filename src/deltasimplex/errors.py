"""Exception types shared across the package."""


class DeltaSimplexError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(DeltaSimplexError):
    """Matrix or vector dimensions do not match the operation's contract."""


class RankError(DeltaSimplexError):
    """A matrix that must have full (prefix) rank does not."""


class SingularityError(DeltaSimplexError):
    """A matrix that must be nonsingular has determinant zero."""


class InvalidSystemError(DeltaSimplexError):
    """An inequality system is malformed (for example, an all-zero row)."""


class NotASimplexError(DeltaSimplexError):
    """A system does not define a bounded, full-dimensional simplex."""


class PreconditionError(DeltaSimplexError):
    """A documented precondition of an operation was violated by the caller."""


class ScaleExceededError(DeltaSimplexError):
    """A brute-force oracle would have to scan more candidates than its cap."""


class InvariantViolation(DeltaSimplexError):
    """An internal consistency check failed; this always indicates a bug."""
