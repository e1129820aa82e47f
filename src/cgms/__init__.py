"""Certified Gaussian-manifold sampling for variable impedance control.

A numpy library for learning task-space stiffness/damping schedules that
satisfy a Lyapunov stability certificate by construction, with a torque
governor for actuator limits and numerical boundedness verification.
"""

from .config import SCENARIOS, ExperimentConfig, compile_setup, load_config, save_config
from .dmp import DmpParams, RbfBasis, build_basis, fit_min_jerk, min_jerk, rollout_reference
from .errors import (
    CertifiedFloorError,
    CgmsError,
    ConfigError,
    ContractViolationError,
    DegenerateBasisError,
    InfeasibleFloorError,
    IntegrationDivergedError,
    MarginTooSmallError,
)
from .gains import (
    CertificateReport,
    GainSchedule,
    SlackParams,
    build_gain_schedule,
    certificate_margins,
    constant_slack_params,
    integrate_cholesky_flow,
    slack_trace,
    tri_dim,
    vec_triangle,
    vec_triangle_inverse,
)
from .governor import (
    AffineTorqueSplit,
    TorqueLimits,
    beta_star,
    beta_star_detail,
)
from .learning import (
    MODE_CERTIFIED,
    MODE_UNCERTIFIED_AFTER_VIA,
    CostWeights,
    ExplorationNoise,
    PolicyParams,
    Rollout,
    TaskSetup,
    TrainResult,
    build_setup,
    initial_policy,
    pi2_update,
    pi2_weights,
    rollout,
    sample_noise,
    train,
    trajectory_cost,
    via_weight,
)
from .plants import PlantModel, PlantState, operational_space_terms
from .robustness import (
    RobustnessInputs,
    UubResult,
    dissipation_check,
    inputs_from_schedule,
    simulate_error_dynamics,
    standard_residuals,
    uub_constants,
    uub_empirical,
)

__version__ = "0.1.0"
