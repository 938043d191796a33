"""Experiment harness and the E1..E14 experiment definitions."""

from . import experiment_defs  # noqa: F401  (registers the experiments)
from .experiment_defs import (
    experiment_e1_state_counts,
    experiment_e2_theorem_4_3,
    experiment_e3_lower_bounds,
    experiment_e4_rackoff,
    experiment_e5_stability,
    experiment_e6_bottom,
    experiment_e7_cycles,
    experiment_e8_verification,
    experiment_e9_simulation_throughput,
    experiment_e10_parallel_batch,
    experiment_e11_large_net_throughput,
    experiment_e12_parameter_sweep,
    experiment_e13_analytics_sweep,
    experiment_e14_ensemble_throughput,
    random_interaction_protocol,
)
from .harness import ExperimentRegistry, ExperimentTable, registry

__all__ = [
    "ExperimentTable",
    "ExperimentRegistry",
    "registry",
    "experiment_e1_state_counts",
    "experiment_e2_theorem_4_3",
    "experiment_e3_lower_bounds",
    "experiment_e4_rackoff",
    "experiment_e5_stability",
    "experiment_e6_bottom",
    "experiment_e7_cycles",
    "experiment_e8_verification",
    "experiment_e9_simulation_throughput",
    "experiment_e10_parallel_batch",
    "experiment_e11_large_net_throughput",
    "experiment_e12_parameter_sweep",
    "experiment_e13_analytics_sweep",
    "experiment_e14_ensemble_throughput",
    "random_interaction_protocol",
]
