"""Special functions and matrix utilities used by the bound calculators.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import pbdv

from .errors import InvalidParameter, QuadratureFailure

# pbdv divides by Gamma(d), which overflows past d = 171; at d = 172 its
# values are already off by orders of magnitude.
_MAX_ORDER = 170


def parabolic_cylinder_neg(d: float, z: float) -> float:
    """Parabolic cylinder function of negative order, D_{-d}(z), for 0 < d <= 170.

    Taken from scipy.special.pbdv (Zhang & Jin 1996). Other orders raise
    InvalidParameter.
    """
    if not 0 < d <= _MAX_ORDER:
        raise InvalidParameter(f"the order d must lie in (0, {_MAX_ORDER}], got {d}")
    return float(pbdv(-d, z)[0])


def parabolic_cylinder_ratio(d: float, z: float) -> float:
    """D_{-d}(z) / D_{-d}(-z) for z >= 0, the contraction factor of the Lipschitz TV bound.

    The ratio lies in [0, 1] and equals 1 at z = 0. pbdv's rounding can carry
    it a few ulp outside that range (above 1 at z below about 1e-16, below 0
    near z = 1.5 for d >= 118), so it is clipped back. Where pbdv gives NaN
    (z above about 2100) QuadratureFailure is raised.
    """
    if not z >= 0:
        raise InvalidParameter(f"the ratio needs z >= 0, got {z}")
    ratio = parabolic_cylinder_neg(d, z) / parabolic_cylinder_neg(d, -z)
    if math.isnan(ratio):
        raise QuadratureFailure(f"pbdv gave no value for D_{{-{d}}}({z})")
    return min(max(ratio, 0.0), 1.0)


def lambda_extremes(s: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix, by dense eigendecomposition."""
    eigs = np.linalg.eigvalsh(s)
    return float(eigs[0]), float(eigs[-1])

