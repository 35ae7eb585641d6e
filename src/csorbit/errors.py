"""Exception and warning types shared across the package."""


class CsorbitError(Exception):
    """Base class for all domain errors raised by this package."""


class ModelStructureError(CsorbitError):
    """Malformed input data: bad indices, shape mismatches, missing fields."""


class ModelValidationError(CsorbitError):
    """A model failed semantic validation (tolerance-level checks)."""


class PolarDivisorError(CsorbitError):
    """A covector has (numerically) zero component along the extremal vector,
    so no chart coordinates exist for it."""


class PointOffOrbitError(CsorbitError):
    """Coordinate extraction converged but the residual shows the covector
    does not lie on the coherent-state orbit."""


class DegeneratePointError(CsorbitError):
    """The kernel at a point is not finite (its powers overflow), or on the
    diagonal not positive, which only truncation artifacts can cause."""


class NonpolynomialRealizationError(CsorbitError):
    """The generator's closed-form operator misses the intertwining identity
    or exceeds the configured degree cap.  This is a reportable outcome for
    user-supplied models, not an internal failure."""


class UnsupportedCheckError(CsorbitError):
    """The requested check needs model data (measure, adjoint pairing)
    that this model does not declare."""


class PartialTableError(CsorbitError):
    """An operation needs a complete realization table but got a partial one."""


class TruncationWarning(UserWarning):
    """The result may be an artifact of working in a truncated representation."""
