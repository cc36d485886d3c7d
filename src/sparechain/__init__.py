"""Spare-satellite supply chains for large constellations.

Analytic evaluation, discrete-event validation, and optimization of a
two-echelon spare strategy: batches held in low parking orbits resupply
(s, Q)-controlled spare stocks in each constellation plane, with ground
launches replenishing the parking echelon.
"""

from .chain import (
    ConstellationConfig,
    LaunchParams,
    PolicyMetrics,
    SatelliteParams,
    SpareStrategy,
    evaluate_inplane_only,
    evaluate_strategy,
    parking_availability,
    parking_demand_rate,
    plane_demand_rate,
    plane_leadtime,
    supply_probabilities,
)
from .config import (
    ConfigError,
    RunConfig,
    bundled_case_study_path,
    bundled_launch_dates_path,
    load_run_config,
)
from .costs import (
    CostBreakdown,
    CostParams,
    evaluate_design,
    launch_price,
    tessac,
    tessac_inplane_only,
)
from .inventory import (
    SQPolicy,
    expected_shortage,
    fill_rate,
    mean_stock,
)
from .optimizer import (
    GAParams,
    OptimizationProblem,
    OptimizationResult,
    VariableBounds,
    optimize,
    optimize_inplane_only,
    sensitivity_sweep,
)
from .orbits import (
    WGS84,
    CircularOrbit,
    EarthConstants,
    TransferResult,
    hohmann_transfer,
    raan_drift_rate,
    transfer_time,
)
from .simulator import SimConfig, SimulationResult, replication_seed, run_batch, run_replication
from .validation import (
    ErrorReport,
    ParameterRange,
    TradeSpace,
    fit_launch_gaps,
    lhs_sample,
    read_launch_dates,
    relative_error,
    run_validation,
    size_reorder_points,
)

__version__ = "0.1.0"

__all__ = [
    "CircularOrbit",
    "ConfigError",
    "ConstellationConfig",
    "CostBreakdown",
    "CostParams",
    "EarthConstants",
    "ErrorReport",
    "GAParams",
    "LaunchParams",
    "OptimizationProblem",
    "OptimizationResult",
    "ParameterRange",
    "PolicyMetrics",
    "RunConfig",
    "SQPolicy",
    "SatelliteParams",
    "SimConfig",
    "SimulationResult",
    "SpareStrategy",
    "TradeSpace",
    "TransferResult",
    "VariableBounds",
    "WGS84",
    "bundled_case_study_path",
    "bundled_launch_dates_path",
    "evaluate_design",
    "evaluate_inplane_only",
    "evaluate_strategy",
    "expected_shortage",
    "fill_rate",
    "fit_launch_gaps",
    "hohmann_transfer",
    "launch_price",
    "lhs_sample",
    "load_run_config",
    "mean_stock",
    "optimize",
    "optimize_inplane_only",
    "parking_availability",
    "parking_demand_rate",
    "plane_demand_rate",
    "plane_leadtime",
    "raan_drift_rate",
    "read_launch_dates",
    "relative_error",
    "replication_seed",
    "run_batch",
    "run_replication",
    "run_validation",
    "sensitivity_sweep",
    "size_reorder_points",
    "supply_probabilities",
    "tessac",
    "tessac_inplane_only",
    "transfer_time",
]
