"""Spare-satellite supply chains for large constellations.

Analytic evaluation, discrete-event validation, and optimization of a
two-echelon spare strategy: batches held in low parking orbits resupply
(s, Q)-controlled spare stocks in each constellation plane, with ground
launches replenishing the parking echelon.

The search, simulator and study modules (`optimizer`, `simulator`,
`validation`) are loaded lazily: each is in ``sys.modules`` and on the
package from ``import sparechain`` on, but runs its body only when one of
its attributes is first read. The root's names from those modules
resolve through the module ``__getattr__`` (PEP 562). A command thus
executes only the modules it runs: ``evaluate`` none of the three.
"""

import importlib.util
import sys

from .chain import (
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    evaluate_strategy,
)
from .costs import CostParams, evaluate_design


def _lazy_submodule(name: str):
    # Registered up front, not imported inside the functions that use it,
    # so that code looking the module up in sys.modules (bench/tracer.py)
    # finds it before any command has run it.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


simulator = _lazy_submodule("simulator")
optimizer = _lazy_submodule("optimizer")
validation = _lazy_submodule("validation")

_LAZY_NAMES = {
    "OptimizationProblem": optimizer,
    "optimize": optimizer,
    "SimConfig": simulator,
    "run_batch": simulator,
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ConstellationConfig",
    "SpareStrategy",
    "LaunchParams",
    "SatelliteParams",
    "CostParams",
    "evaluate_strategy",
    "evaluate_design",
    "OptimizationProblem",
    "optimize",
    "SimConfig",
    "run_batch",
]
