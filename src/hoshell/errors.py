"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the physically or mathematically valid domain."""


class NoBoundStateError(DomainError):
    """No classically bounded motion exists (e.g. energy above the barrier)."""


class ForeignLevelsError(DomainError):
    """A supplied level list is not a level set of this system."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its accuracy target."""


class StepSizeError(AccuracyError):
    """Trajectory integration became unstable at the requested step size."""


class UnsupportedMethodError(ValueError):
    """The requested analytic method does not apply to these parameters."""


class PropertyViolationError(RuntimeError):
    """A structural property assumed by the analytics failed a numerical audit."""


class TruncationWarning(UserWarning):
    """Level enumeration was cut off close enough to the grid to lose weight."""
