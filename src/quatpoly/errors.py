"""Exception types raised across the library.

Plain division of a zero quaternion raises the builtin ZeroDivisionError;
everything domain-specific derives from QuatPolyError so callers can catch
library failures in one clause.
"""


class QuatPolyError(Exception):
    """Base class for all library-specific errors."""


class ParseError(QuatPolyError):
    """Malformed quaternion literal or expression text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PowerNotSupported(ParseError):
    """Expression used '^'; powers must be written as repeated products."""


class BracketsNotAllowed(QuatPolyError):
    """Expansion requires a bracket-free sum of products."""


class NonFiniteValue(QuatPolyError):
    """An input point or a computed value is infinite or NaN."""


class ZeroConjugator(QuatPolyError):
    """Conjugation u . x . u^-1 requested with u = 0."""


class SingularTransform(QuatPolyError):
    """Affine grid evaluation needs an invertible transform matrix."""


class EmptySampleSet(QuatPolyError):
    """Randomized zero witness drawn from an empty sample set."""


class InfeasiblePoints(QuatPolyError):
    """Interpolation nodes violate the distinctness/equivalence criterion."""


class NumericallySingular(QuatPolyError):
    """Linear system pivot fell below tolerance despite feasible nodes."""


class PoleCollision(QuatPolyError):
    """An evaluation point reduces onto (or too close to) a pole."""
