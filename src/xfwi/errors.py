"""Exception types shared across the package."""


class XfwiError(Exception):
    """Base class for all package errors."""


class RejectedInputError(XfwiError, ValueError):
    """Input violates a documented precondition (shape, finiteness, range)."""


class DimensionMismatchError(RejectedInputError):
    """Vector or matrix dimensions do not match an operator or covariance."""


class SingularGeometryError(XfwiError, ValueError):
    """Acquisition geometry is degenerate (e.g. receiver at the source)."""


class DegenerateWeightsError(XfwiError, ValueError):
    """All weighting scales are zero; the objective is undefined."""


class NotPositiveDefiniteError(XfwiError, ValueError):
    """A matrix required to be (semi)definite is not, beyond tolerance."""


class IllConditionedError(XfwiError, RuntimeError):
    """A linear system is singular to working precision.

    Carries a condition estimate when one is available.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
