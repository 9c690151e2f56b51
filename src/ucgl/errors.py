"""Exception hierarchy shared across the package."""


class UcglError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(UcglError):
    """Matrix sizes disagree, or a rank parameter is out of range."""


class SingularMatrixError(UcglError):
    """A matrix required to be invertible is numerically singular."""


class NotRegularError(UcglError):
    """An operation needs a regular element (cyclic vector) and did not get one."""


class PreconditionError(UcglError):
    """An input violates a documented precondition."""


class InvalidSectorError(UcglError):
    """A sector index does not lie on either admissible index chain."""


class SearchFailureError(UcglError):
    """No orientation of the closed-form root-set rule passed its confirmation."""


class NotComposableError(UcglError):
    """Two groupoid elements cannot be multiplied (source/target mismatch)."""


class DegenerateSampleError(UcglError):
    """Random sampling kept hitting a degenerate configuration."""


class DegenerateFormError(UcglError):
    """A Gram matrix required to be invertible is numerically singular."""


class ProjectionFailureError(UcglError):
    """Extraction of an invariant tangent subspace failed."""
