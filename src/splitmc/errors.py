"""Exception hierarchy shared across the package, and the shared checks of scales and seeds.

Every concrete error derives from exactly one of ValidityError (exit 2) and
NumericalFailure (exit 3); the base carries the CLI's exit code and label.
"""

import math


class SplitMCError(Exception):
    """Base class for all library errors."""


class ValidityError(SplitMCError):
    """An input, model or bound lies outside the region where a result holds."""

    exit_code = 2
    label = "validity violation"


class NumericalFailure(SplitMCError):
    """A computation on valid inputs gave no usable value."""

    exit_code = 3
    label = "numerical failure"


class DimensionMismatch(ValidityError):
    """An input vector or matrix has an incompatible shape."""


class SingularGram(NumericalFailure):
    """The stacked coupling matrix does not have full row rank."""


class NotStronglyConvex(ValidityError):
    """Requested operation needs strictly positive strong convexity."""


class NotSmooth(ValidityError):
    """Requested operation needs a finite gradient-Lipschitz constant."""


class NotCentered(ValidityError):
    """Factor gradients do not vanish at the global minimizer."""


class NonConvergence(NumericalFailure):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class NonFiniteDraw(NumericalFailure):
    """A sweep drew a non-finite auxiliary block or master parameter."""


class AcceptanceStall(NumericalFailure):
    """Rejection sampling exceeded its proposal cap; certified constants are suspect."""


class QuadratureFailure(NumericalFailure):
    """A special function gave no usable value at its argument."""


class UnsupportedModel(ValidityError):
    """The operation only supports specific closed-form model families."""


class InvalidParameter(ValidityError, ValueError):
    """A model, planner or experiment parameter lies outside its admissible range."""


class EpsilonOutOfRange(ValidityError):
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
