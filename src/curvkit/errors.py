"""Exception types and warning categories shared across the package."""


class CurvkitError(Exception):
    """Base class for all curvkit errors."""


class NotStochastic(CurvkitError):
    """A transition-matrix row does not sum to one (or has negative entries)."""


class NotIrreducible(CurvkitError):
    """The adjacency graph of the kernel is disconnected."""


class NotReversible(CurvkitError):
    """Detailed balance Q(x,y) pi(x) = Q(y,x) pi(y) fails for some pair."""


class InvalidParameters(CurvkitError):
    """A generator or operation received out-of-range parameters."""


class ShapeMismatch(CurvkitError):
    """An array argument has the wrong shape for the chain."""


class NegativeInput(CurvkitError):
    """A mean was evaluated at a negative argument."""


class DomainError(CurvkitError):
    """A density or mean argument lies outside the admissible domain."""


class NumericalFailure(CurvkitError):
    """Two independent numeric routes disagree beyond tolerance."""


class TooLarge(CurvkitError):
    """The chain exceeds the size guard of an exact enumeration."""


class NegativeTime(CurvkitError):
    """The heat semigroup was asked for a negative time."""


class EpsTooLarge(CurvkitError):
    """Mixing-time threshold is already met at t = 0."""


class PreconditionHeuristic(UserWarning):
    """An inequality was checked under a heuristic (not proof-backed) premise."""


class ConvergenceWarning(UserWarning):
    """A solver returned a best-effort value without meeting its tolerance."""
