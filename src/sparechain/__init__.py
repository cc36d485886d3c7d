"""Spare-satellite supply chains for large constellations.

Analytic evaluation, discrete-event validation, and optimization of a
two-echelon spare strategy: batches held in low parking orbits resupply
(s, Q)-controlled spare stocks in each constellation plane, with ground
launches replenishing the parking echelon.
"""

from .chain import (
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    evaluate_strategy,
)
from .costs import CostParams, evaluate_design
from .optimizer import OptimizationProblem, optimize
from .orbits import WGS84
from .simulator import SimConfig, run_batch

__version__ = "0.1.0"

__all__ = [
    "ConstellationConfig",
    "SpareStrategy",
    "LaunchParams",
    "SatelliteParams",
    "CostParams",
    "WGS84",
    "evaluate_strategy",
    "evaluate_design",
    "OptimizationProblem",
    "optimize",
    "SimConfig",
    "run_batch",
]
