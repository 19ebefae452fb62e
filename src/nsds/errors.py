"""Exception types shared across the package."""


class NsdsError(Exception):
    """Base class for all package errors."""


class EmptySetError(NsdsError):
    """Raised when a query needs a nonempty set but got the empty polytope."""


class DimensionMismatchError(NsdsError):
    """Operands live in different ambient dimensions or have incompatible shapes."""


class ModelError(NsdsError):
    """A piecewise model is inconsistent (e.g. declared cells do not cover the point)."""


class DegenerateSurfaceError(NsdsError):
    """A switching surface has (numerically) vanishing gradient at the query point."""


class NotSlidingError(NsdsError):
    """No tangent convex combination exists; classification and tolerances disagree."""


class SingularityError(NsdsError):
    """Quotient node evaluated where the denominator vanishes."""


class UnsupportedError(NsdsError):
    """The requested computation is outside the implemented catalog."""


class SolverError(NsdsError):
    """A linear program hit its iteration limit or ended without an optimum
    where one must exist."""
