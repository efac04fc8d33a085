"""Exception hierarchy shared across the package, and the shared checks of rho and seeds."""

import math


class SplitMCError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SplitMCError):
    """An input vector or matrix has an incompatible shape."""


class SingularGram(SplitMCError):
    """The stacked coupling matrix does not have full row rank."""


class NotStronglyConvex(SplitMCError):
    """Requested operation needs strictly positive strong convexity."""


class NotSmooth(SplitMCError):
    """Requested operation needs a finite gradient-Lipschitz constant."""


class NotCentered(SplitMCError):
    """Factor gradients do not vanish at the global minimizer."""


class NonConvergence(SplitMCError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class NonFiniteDraw(SplitMCError):
    """A sweep drew a non-finite auxiliary block or master parameter."""


class AcceptanceStall(SplitMCError):
    """Rejection sampling exceeded its proposal cap; certified constants are suspect."""


class QuadratureFailure(SplitMCError):
    """Adaptive quadrature could not meet the requested tolerance."""


class NonSymmetric(SplitMCError):
    """A symmetric matrix argument was not symmetric."""


class UnsupportedModel(SplitMCError):
    """The operation only supports specific closed-form model families."""


class InvalidParameter(SplitMCError, ValueError):
    """A model, planner or experiment parameter lies outside its admissible range."""


class EpsilonOutOfRange(SplitMCError):
    """Precision parameter must satisfy 0 < eps <= 1."""


def check_rho(rho) -> None:
    """Raise InvalidParameter unless the coupling width rho is positive and finite."""
    if not (rho > 0 and math.isfinite(rho)):
        raise InvalidParameter(f"rho must be positive and finite, got {rho}")


def check_seed(seed) -> None:
    """Raise InvalidParameter unless seed is nonnegative, as numpy's SeedSequence needs."""
    if not seed >= 0:
        raise InvalidParameter(f"seeds must be nonnegative, got {seed}")
