"""The bundled case study, read once from the packaged config.

The tests compute on the same case as the CLI's default run.
"""

from sparechain.config import bundled_case_study_path, load_run_config
from sparechain.optimizer import OptimizationProblem

_RUN = load_run_config(bundled_case_study_path())

CFG = _RUN.constellation
STRATEGY = _RUN.strategy
LAUNCH = _RUN.launch
COSTS = _RUN.costs
SAT = _RUN.satellite
PROBLEM = OptimizationProblem(constellation=CFG, launch=LAUNCH, costs=COSTS, satellite=SAT)
