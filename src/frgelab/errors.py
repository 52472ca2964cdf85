"""Exception hierarchy shared by all subsystems."""


class FrgeLabError(Exception):
    """Base class for all package errors."""


class SpecValidationError(FrgeLabError, ValueError):
    """An input (config, option or argument) is malformed or out of range."""


class SingularWindow(FrgeLabError):
    """Window operator is too ill-conditioned for the chosen mode count."""


class NotSPD(FrgeLabError):
    """A matrix expected to be symmetric positive definite is not."""


class BudgetExceeded(FrgeLabError):
    """Requested accuracy cannot be met within the configured node limits."""


class SelfCheckFailed(FrgeLabError):
    """Two independent evaluation routes disagree beyond the allowed margin."""


class ConditionViolated(FrgeLabError):
    """A regulator admissibility condition failed; carries the witnessing point."""

    def __init__(self, message, k=None, p=None):
        super().__init__(message)
        self.k = k
        self.p = p


class NewtonStalled(FrgeLabError):
    """Newton iteration hit a residual plateau before reaching tolerance."""


class RangeExceeded(FrgeLabError):
    """Requested mean field lies outside the numerically reachable range."""


class ConvexityLoss(FrgeLabError):
    """Regularized Hessian lost positivity during a flow evaluation."""

    def __init__(self, message, k=None, last_state=None):
        super().__init__(message)
        self.k = k
        self.last_state = last_state


class StepUnderflow(FrgeLabError):
    """The adaptive step fell below ten times the floating-point spacing of
    k, where the solver gives up, with no convexity loss to explain it."""


class GridMismatch(FrgeLabError):
    """Two grid functions do not share a compatible grid."""


class NotProper(FrgeLabError):
    """Grid function has no finite value."""


class EmptyEpigraphWindow(FrgeLabError):
    """Neither epigraph intersects the requested comparison box."""
