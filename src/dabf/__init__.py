"""Distortion-aware hybrid beamforming for joint communication and sensing."""

from .channel import ChannelRealization, draw_channels, steering_vector
from .config import ConfigError, SystemConfig, dbm_to_mw, noise_from_snr
from .decomposition import analog_feasibility_check, decompose, match_hybrid_power, refine_digital
from .distortion import (
    bussgang_gain_diag,
    power_match_scale,
    radiated_power,
    scale_to_power,
)
from .gradients import MomentPenalty, euclidean_gradient, moment_penalty, moment_targets, penalized_objective
from .metrics import MetricsReport, evaluate_metrics, probe_powers, weighted_objective
from .solver import (
    DegeneratePA,
    InfeasibleMomentBudget,
    PrecoderState,
    SolveDiagnostics,
    first_mo_trace,
    manifold_cg,
    optimize_full_digital,
    retract,
    sphere_radius_sq,
    tangent_project,
    update_quartic_moment,
    update_sextic_moment,
)
from .baselines import mrt_precoder, pa_blind_precoder, rbf_precoder, zf_precoder
from .experiments import ExperimentError, ExperimentSpec, run_experiment

__all__ = [
    "ChannelRealization",
    "ConfigError",
    "DegeneratePA",
    "InfeasibleMomentBudget",
    "MetricsReport",
    "MomentPenalty",
    "PrecoderState",
    "SolveDiagnostics",
    "SystemConfig",
    "analog_feasibility_check",
    "bussgang_gain_diag",
    "dbm_to_mw",
    "decompose",
    "ExperimentError",
    "ExperimentSpec",
    "draw_channels",
    "euclidean_gradient",
    "evaluate_metrics",
    "first_mo_trace",
    "manifold_cg",
    "match_hybrid_power",
    "moment_targets",
    "moment_penalty",
    "mrt_precoder",
    "noise_from_snr",
    "optimize_full_digital",
    "pa_blind_precoder",
    "penalized_objective",
    "power_match_scale",
    "probe_powers",
    "radiated_power",
    "rbf_precoder",
    "refine_digital",
    "retract",
    "run_experiment",
    "scale_to_power",
    "sphere_radius_sq",
    "steering_vector",
    "tangent_project",
    "update_quartic_moment",
    "update_sextic_moment",
    "weighted_objective",
    "zf_precoder",
]

__version__ = "0.1.0"
