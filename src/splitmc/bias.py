"""Non-asymptotic bounds on the distance between the target and its smoothed stand-in.

The smoothed distribution is the theta-marginal of the augmented target.
The domination experiments compare the bounds against exact distances
between Gaussians (see metrics); IsotropicMixture is the mixture target
whose projected cdf bins the mixture experiment's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import InvalidParameter, NotSmooth
from .model import ModelConstants
from .numerics import QuadratureSpec, parabolic_cylinder_ratio

TV = "TV"
W1 = "W1"


@dataclass(frozen=True)
class BiasBound:
    """A bound value plus the predicate under which it is in force.

    TV values are clipped to [0, 1] (the raw value is kept alongside);
    a failed validity predicate is reported, never raised, so sweeps over
    rho can show where a bound stops applying.
    """

    value: float
    distance: str
    rule: str
    valid: bool = True
    validity: str = "always"
    raw_value: float | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bounds are nonnegative")


def tv_bound_lipschitz(lipschitz, dims, rho: float,
                       spec: QuadratureSpec | None = None) -> BiasBound:
    """TV bound for value-Lipschitz factors: 1 - prod_i D_{-d_i}(L_i rho)/D_{-d_i}(-L_i rho).

    Needs no differentiability or convexity. The small-rho linearization
    2 rho sum_i sqrt(d_i) L_i is attached for display.
    """
    lipschitz = [float(L) for L in lipschitz]
    dims = [int(d) for d in dims]
    if len(lipschitz) != len(dims):
        raise ValueError("need one Lipschitz constant per block dimension")
    if any(not math.isfinite(L) for L in lipschitz):
        raise NotSmooth("the Lipschitz TV bound needs finite value-Lipschitz constants")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    prod = 1.0
    for L, d in zip(lipschitz, dims):
        prod *= parabolic_cylinder_ratio(d, L * rho, spec)
    raw = 1.0 - prod
    linear = 2.0 * rho * sum(math.sqrt(d) * L for L, d in zip(lipschitz, dims))
    return BiasBound(value=min(max(raw, 0.0), 1.0), distance=TV, rule="lipschitz",
                     raw_value=raw, extras={"small_rho_linearization": linear})


def tv_bound_strongly_convex(constants: ModelConstants, rho: float) -> BiasBound:
    """TV bound for smooth factors.

    Single split: rho^2 d M_1 / 2, any rho. Multiple splits (centered,
    strongly convex): (rho^2/2) sum_i d_i M_i + (2 + 3d/2) rho^4 sigma_U^4,
    in force while rho^2 <= 1/(6 sigma_U^2); the constants are taken to be
    those of a centered model. rho must be finite and >= 0.
    """
    if not (rho >= 0 and math.isfinite(rho)):
        raise InvalidParameter(f"rho must be nonnegative and finite, got {rho}")
    if not math.isfinite(constants.max_M):
        raise NotSmooth("the smooth TV bound needs finite smoothness constants")
    if constants.b == 1:
        raw = 0.5 * rho**2 * constants.d * constants.M_list[0]
        return BiasBound(value=min(raw, 1.0), distance=TV, rule="smooth-single",
                         raw_value=raw)
    s4 = constants.sigma2_U**2
    raw = 0.5 * rho**2 * constants.sum_dims_M + (2.0 + 1.5 * constants.d) * rho**4 * s4
    cap = 1.0 / (6.0 * constants.sigma2_U)
    valid = constants.m_U > 0.0 and rho**2 <= cap
    descr = "centered model, m_U > 0, rho^2 <= 1/(6 sigma_U^2)"
    return BiasBound(value=min(raw, 1.0), distance=TV, rule="smooth-multi",
                     valid=bool(valid), validity=descr, raw_value=raw,
                     extras={"rho2_cap": cap})


def w1_bound_single(M1: float, d: int, rho: float) -> BiasBound:
    """Single-split Wasserstein bound min(rho sqrt(d), rho^2 sqrt(M_1 d)/2).

    The branches cross at rho = 2/sqrt(M_1); the active branch is recorded.
    """
    lin = rho * math.sqrt(d)
    quad = 0.5 * rho**2 * math.sqrt(M1 * d)
    branch = "quadratic" if quad <= lin else "linear"
    return BiasBound(value=min(lin, quad), distance=W1, rule="heat-single",
                     extras={"active_branch": branch,
                             "crossover_rho": 2.0 / math.sqrt(M1)})


# ---------------------------------------------------------------------------
# The mixture target


@dataclass(frozen=True)
class IsotropicMixture:
    """(1/2) N(+a, v I) + (1/2) N(-a, v I)."""

    a: np.ndarray
    variance: float

    def projected_cdf(self, u):
        """Cdf of <a, theta>/||a||, through ndtr directly.

        scipy.stats.norm.cdf(u, loc, scale) evaluates ndtr((u - loc)/scale),
        so this gives its bits without the per-call overhead of the wrapper.
        """
        u = np.asarray(u, dtype=float)
        na = float(np.linalg.norm(self.a))
        s = math.sqrt(self.variance)
        return 0.5 * (ndtr((u - na) / s) + ndtr((u + na) / s))
