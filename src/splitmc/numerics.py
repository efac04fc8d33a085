"""Special functions and matrix/quadrature utilities used by the bound calculators.

Everything here is pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from .errors import NonSymmetric, QuadratureFailure

# Truncation target for the parabolic-cylinder integrand: tail mass below
# exp(-80) of the peak, comfortably under double-precision resolution.
_TAIL_LOG_DROP = 80.0

# A value must carry a relative error estimate within _REL_TOL; quad is asked
# for a tenth of it, in at most 200 subdivisions.
_REL_TOL = 1e-10
_QUAD = {"limit": 200, "epsabs": 0.0, "epsrel": 1e-11}


def _pc_log_integrand_peak(d: float, z: float) -> float:
    """Location of the maximum of -x*z - x^2/2 + (d-1)*log(x) on (0, inf)."""
    if d > 1.0:
        return 0.5 * (-z + math.sqrt(z * z + 4.0 * (d - 1.0)))
    # For d <= 1 the log term is non-increasing, so the exponential part rules.
    return max(-z, 1e-12)


def parabolic_cylinder_neg(d: float, z: float) -> float:
    """Parabolic cylinder function of negative order, D_{-d}(z), for d > 0.

    Evaluated from the integral representation
    exp(-z^2/4) / Gamma(d) * int_0^inf exp(-x*z - x^2/2) x^(d-1) dx,
    with the integrand rescaled by its peak so the quadrature runs in a
    well-conditioned range.
    """
    if d <= 0:
        raise ValueError("order parameter d must be positive")

    x_peak = _pc_log_integrand_peak(d, z)

    def log_f(x):
        return -x * z - 0.5 * x * x + (d - 1.0) * math.log(x)

    if d < 1.0:
        # x^(d-1) has an integrable singularity at 0; hand the algebraic
        # endpoint weight to the quadrature and keep the smooth part only.
        shift = -x_peak * z - 0.5 * x_peak**2 if z < 0 else 0.0
        x_hi = max(x_peak, 1.0)
        while -x_hi * z - 0.5 * x_hi * x_hi - shift > -_TAIL_LOG_DROP:
            x_hi *= 2.0
            if x_hi > 1e12:
                raise QuadratureFailure("could not truncate parabolic cylinder integrand")
        value, abserr = integrate.quad(lambda x: math.exp(-x * z - 0.5 * x * x - shift),
                                       0.0, x_hi, weight="alg", wvar=(d - 1.0, 0.0), **_QUAD)
        g_max = shift
    else:
        g_max = log_f(x_peak)
        # Truncate where the integrand has dropped by _TAIL_LOG_DROP from peak.
        x_hi = x_peak + 1.0
        while log_f(x_hi) > g_max - _TAIL_LOG_DROP:
            x_hi *= 2.0
            if x_hi > 1e12:
                raise QuadratureFailure("could not truncate parabolic cylinder integrand")

        def f(x):
            if x <= 0.0:
                return 0.0
            return math.exp(log_f(x) - g_max)

        value, abserr = integrate.quad(f, 0.0, x_hi, points=[x_peak], **_QUAD)
    if value <= 0.0 or abserr > _REL_TOL * value:
        raise QuadratureFailure(
            f"parabolic cylinder quadrature missed tolerance: value={value}, err={abserr}"
        )
    log_result = -0.25 * z * z - gammaln(d) + g_max + math.log(value)
    return math.exp(log_result)


def parabolic_cylinder_ratio(d: float, z: float) -> float:
    """D_{-d}(z) / D_{-d}(-z), the contraction factor used by the Lipschitz TV bound.

    Equals 1 at z = 0 and lies in (0, 1] for z >= 0.
    """
    if z == 0.0:
        return 1.0
    return parabolic_cylinder_neg(d, z) / parabolic_cylinder_neg(d, -z)


def _require_symmetric(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NonSymmetric("expected a square matrix")
    scale = 1.0 + np.abs(s).max(initial=0.0)
    if np.abs(s - s.T).max(initial=0.0) > 1e-10 * scale:
        raise NonSymmetric("matrix is not symmetric")
    return s


def lambda_extremes(s: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix, by dense eigendecomposition."""
    s = _require_symmetric(s)
    eigs = np.linalg.eigvalsh(s)
    return float(eigs[0]), float(eigs[-1])

