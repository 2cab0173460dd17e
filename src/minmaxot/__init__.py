"""Particle method for approximating optimal transport plans via a
penalized min-max gradient flow, with a quadrature-backed semi-analytic
layer and exact oracles for validation."""

from .density import (
    Grid,
    HistogramDensity,
    fit_histogram,
    grad_log_ratio_forward,
    grad_log_ratio_reverse,
    kl_estimate,
    kl_estimate_reverse,
    l2_error,
)
from .flow import (
    FlowDivergedError,
    ParticleSystem,
    Trajectory,
    TrajectoryRecorder,
    init_particles,
    interpolant,
    run,
    step_lambda,
    step_particles,
)
from .model import (
    METHOD_VARIANTS,
    Box,
    CostFunction,
    FlowConfig,
    Marginal,
    load_empirical_csv,
    make_empirical,
    make_gaussian,
    make_mixture,
    make_ring_peak,
    quadratic_cost,
)
from .oracle import (
    DiscretePlan,
    discrete_ot,
    empirical_coupling_cost,
    gaussian_kl,
    gaussian_w2_squared,
)
from .response import ResponseEvaluator

__version__ = "0.1.0"

__all__ = [
    "METHOD_VARIANTS",
    "Box",
    "CostFunction",
    "DiscretePlan",
    "FlowConfig",
    "FlowDivergedError",
    "Grid",
    "HistogramDensity",
    "Marginal",
    "ParticleSystem",
    "ResponseEvaluator",
    "Trajectory",
    "TrajectoryRecorder",
    "discrete_ot",
    "empirical_coupling_cost",
    "fit_histogram",
    "gaussian_kl",
    "gaussian_w2_squared",
    "grad_log_ratio_forward",
    "grad_log_ratio_reverse",
    "init_particles",
    "interpolant",
    "kl_estimate",
    "kl_estimate_reverse",
    "l2_error",
    "load_empirical_csv",
    "make_empirical",
    "make_gaussian",
    "make_mixture",
    "make_ring_peak",
    "quadratic_cost",
    "run",
    "step_lambda",
    "step_particles",
]
