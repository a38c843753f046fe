"""Exception types shared across the package."""


class PlumblineError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(PlumblineError, ValueError):
    """Mismatched or malformed structural data (wrong ring, bad edge set, ...)."""


class RangeError(PlumblineError, ValueError):
    """Argument outside its documented range."""


class DegenerateDataError(PlumblineError, ValueError):
    """Data that violates a nondegeneracy precondition (zero coefficient,
    coincident attachment points, rank-deficient frame, zero Pluecker
    coordinate)."""

