"""Simulator and solver for optimal sensor-injection attacks against a
Kalman-filtered LTI control loop with chi-square detection and reactive
mitigation.

The package splits into layers: `numerics` (probability kernels, seeded
streams), `lti` (plant, filter, setpoint law), `defense`
(detector and mitigation), `attack` (injection plans), `mdp` (discretized
decision process and value iteration), `evaluation` (batched Monte-Carlo
rollouts and cost reports), `voltage` (the voltage-regulation
instantiation), and `config`/`artifact`/`cli` (experiment plumbing).
"""

from .attack import AttackError, AttackPlan, attack_at, clip_to_norm
from .config import ConfigError, RunConfig, resolve_config
from .defense import (
    DefenseError,
    DetectorConfig,
    MitigationStrategy,
    detect,
    g_statistic,
    oracle_detect,
)
from .evaluation import (
    BatchRollout,
    CostReport,
    EvaluationError,
    PairedCost,
    compare_attacks,
    empirical_cost,
    fp_cost,
    md_cost,
    rollout_batch,
)
from .lti import (
    ModelError,
    SetpointController,
    SteadyState,
    SystemModel,
    derive_steady_state,
)
from .mdp import (
    Grid,
    Policy,
    TransitionModel,
    TruncationWarning,
    build_grid,
    build_transition_model,
    detection_prob,
    policy_lookup,
    uniform_actions,
    value_iteration,
)
from .numerics import NumericsError, RngStream, solve_dare
from .voltage import (
    TraceSet,
    VoltageError,
    estimate_B,
    load_traces,
    voltage_attack_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AttackError",
    "AttackPlan",
    "BatchRollout",
    "ConfigError",
    "CostReport",
    "DefenseError",
    "DetectorConfig",
    "EvaluationError",
    "Grid",
    "MitigationStrategy",
    "ModelError",
    "NumericsError",
    "PairedCost",
    "Policy",
    "RngStream",
    "RunConfig",
    "SetpointController",
    "SteadyState",
    "SystemModel",
    "TraceSet",
    "TransitionModel",
    "TruncationWarning",
    "VoltageError",
    "attack_at",
    "build_grid",
    "build_transition_model",
    "clip_to_norm",
    "compare_attacks",
    "derive_steady_state",
    "detect",
    "detection_prob",
    "empirical_cost",
    "estimate_B",
    "fp_cost",
    "g_statistic",
    "load_traces",
    "md_cost",
    "oracle_detect",
    "policy_lookup",
    "resolve_config",
    "rollout_batch",
    "solve_dare",
    "uniform_actions",
    "value_iteration",
    "voltage_attack_experiment",
]
