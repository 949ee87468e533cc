"""Exception types shared across the package."""


class CubicLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CubicLabError, ValueError):
    """A vector or form was used with the wrong number of variables."""


class ResourceLimit(CubicLabError):
    """A computation would exceed its configured term/memory budget."""


class NotConverged(CubicLabError):
    """A limiting procedure failed its stabilization diagnostic; ``table``
    holds the values it refined, in order."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class ToleranceNotMet(NotConverged):
    """Quadrature could not certify the requested error tolerance."""


class SandwichViolation(CubicLabError):
    """The kernel transform failed to sandwich the interval indicator.

    This always signals an implementation bug, never a property of the input.
    """


class InconsistentBounds(CubicLabError):
    """Certified lower and upper bounds crossed; both certificates cannot coexist."""


class SplitUnavailable(CubicLabError):
    """Meet-in-the-middle was requested but the form has no additive split."""


class EmptyZeroSet(CubicLabError):
    """A normalized statistic is undefined because no zeros were found."""
