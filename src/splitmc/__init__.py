"""Split Gibbs sampling for composite log-concave targets.

Provides the two-block Gibbs sweep with exact conditional samplers, the
closed-form tolerance/mixing-time planners, non-asymptotic bias bounds,
distance diagnostics, optimizer twins (alternating minimization, ADMM) and
a batch experiment CLI.
"""

from . import bias, conditionals, engine, errors, metrics, model, numerics, planner, zoo
from .errors import (
    AcceptanceStall,
    ConstantsContradicted,
    DimensionMismatch,
    EpsilonOutOfRange,
    InvalidParameter,
    NonConvergence,
    NonFiniteDraw,
    NotCentered,
    NotSmooth,
    NotStronglyConvex,
    QuadratureFailure,
    SingularGram,
    SplitMCError,
    UnsupportedModel,
)
from .conditionals import (
    BlockReports,
    RejectionReport,
    ThetaConditional,
    sample_z_group,
)
from .engine import (
    ChainState,
    RunReport,
    SamplerConfig,
    SweepStreams,
    admm_solve,
    am_solve,
    read_trace,
    run_chain,
    sgs_sweep,
    initial_state,
)
from .model import (
    FactorGroup,
    Minimizer,
    ModelConstants,
    SplitModel,
    center_model,
    find_minimizer,
    make_quadratic_group,
    model_constants,
)
from .planner import Plan, k_sgs, plan_tv_multi, plan_tv_nonstrongly, plan_tv_single, plan_w1_single
from .bias import BiasBound, tv_bound_lipschitz, tv_bound_strongly_convex, w1_bound_single
from .metrics import ToyParams, ar1_kernel_t
from .zoo import build_model, model_names

__version__ = "0.1.0"
