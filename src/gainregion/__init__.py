"""Pareto-efficient transmit beamforming over power gain-regions.

A library and CLI for multi-transmitter, multi-receiver MISO interference
networks: every transmitter's efficient beamformers are parameterized by
real simplex weights through the dominant eigenvector of a weighted
Hermitian channel combination, boundary sweeps trace gain- and
utility-regions, and independent characterizations (MRT/ZF combinations,
null-shaping constraints) cross-check the strategies.

The names below are the user-facing surface; primitives (eigen kernels,
projectors, oracles, verify suites) stay in their submodules.
"""

__version__ = "0.1.0"

from .network import (
    Scenario,
    ScenarioFormatError,
    direction_vector,
    generate_channels,
    ic_skeleton,
    load_scenario,
    mixed_skeleton,
    save_scenario,
    snr_to_noise,
)
from .pareto import (
    ParameterPoint,
    UtilitySpec,
    UtilitySweep,
    pareto_filter,
    pareto_strategies,
    strategy_gain_matrix,
    sweep_utility_region,
    utilities_at,
)
from .region import (
    BoundaryStrategy,
    PowerClass,
    boundary_strategy,
    boundary_table,
    simplex_grid,
    strategy_gains,
    sweep_boundary,
)

__all__ = [
    # network
    "Scenario", "ScenarioFormatError", "direction_vector", "generate_channels",
    "ic_skeleton", "load_scenario", "mixed_skeleton", "save_scenario", "snr_to_noise",
    # region
    "BoundaryStrategy", "PowerClass", "boundary_strategy", "boundary_table",
    "simplex_grid", "strategy_gains", "sweep_boundary",
    # pareto
    "ParameterPoint", "UtilitySpec", "UtilitySweep", "pareto_filter", "pareto_strategies",
    "strategy_gain_matrix", "sweep_utility_region", "utilities_at",
]
