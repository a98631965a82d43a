"""Exception hierarchy shared by all critshe modules.

Every failure mode maps to one of the classes below so that the CLI can
translate exceptions into its exit-code contract (2 = validation error,
3 = accuracy warning, 4 = numerical failure).
"""

from __future__ import annotations


class CritSheError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CritSheError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a kernel singularity (e.g. x = 0)."""


class BranchCutError(DomainError):
    """A complex argument lies on a branch cut where the principal value
    is not defined for the requested operation."""


class ResolutionError(DomainError):
    """A grid is too coarse to resolve the requested profile."""


class ParameterError(DomainError):
    """Simulation parameters violate a stability or resolution precondition
    (CFL bound, mollifier resolution, domain size)."""


class AccuracyError(CritSheError, RuntimeError):
    """A quadrature failed to converge to the requested tolerance.

    Carries the best available estimate and the error bound actually
    achieved, so callers can decide whether to degrade gracefully.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


class RankError(CritSheError, RuntimeError):
    """A covariance (or covariance sum) is numerically singular."""


class IntegrandError(CritSheError, RuntimeError):
    """An integrand returned NaN/Inf; carries the offending time vector,
    the tuple of its 2m+1 durations (tau_0, tau_1/2, tau_1, ..., tau_m)."""

    def __init__(self, message: str, time_vector=None):
        if time_vector is not None:
            message = f"{message} at time vector {time_vector}"
        super().__init__(message)
        self.time_vector = time_vector


class BlowupError(CritSheError, RuntimeError):
    """A simulated field became NaN/Inf; carries the step index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step


class AccuracyWarning(UserWarning):
    """An integration error estimate exceeded the requested relative
    tolerance; the value is still returned (non-fatal)."""


class NonconvergenceWarning(UserWarning):
    """The diagram series showed no geometric decay within the truncation
    budget; totals are withheld and per-order sums reported instead."""
