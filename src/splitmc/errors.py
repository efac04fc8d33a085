"""Exception hierarchy shared across the package, and the shared checks of scales and seeds."""

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
    """A special function gave no usable value at its argument."""


class NonSymmetric(SplitMCError):
    """A symmetric matrix argument was not symmetric."""


class UnsupportedModel(SplitMCError):
    """The operation only supports specific closed-form model families."""


class InvalidParameter(SplitMCError, ValueError):
    """A model, planner or experiment parameter lies outside its admissible range."""


class EpsilonOutOfRange(SplitMCError):
    """Precision parameter must satisfy 0 < eps <= 1."""


def check_scale(value, name: str = "rho") -> None:
    """Raise InvalidParameter unless value > 0 and value^2 and 1/value^2 are positive and finite.

    Widths and scales enter the sweeps and planners through their squares
    and reciprocal squares, so one whose square underflows or overflows is refused.
    """
    square = float(value) * float(value)
    if not (value > 0 and 0.0 < square < math.inf and 1.0 / square < math.inf):
        raise InvalidParameter(f"{name} must be positive with a finite, nonzero square "
                               f"and reciprocal square, got {value}")


def check_seed(seed) -> None:
    """Raise InvalidParameter unless seed is nonnegative, as numpy's SeedSequence needs."""
    if not seed >= 0:
        raise InvalidParameter(f"seeds must be nonnegative, got {seed}")
