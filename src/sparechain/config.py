"""Structured JSON configuration for the command-line tools.

One file carries every section a command might need: constellation
layout, a spare strategy, launch and cost parameters, and simulation,
optimization and validation settings. Every object in the file, the top
level included, is built from the fields of the dataclass it describes:
unknown keys are rejected and every value passes the domain checks of
its dataclass.

This module is the one owner of the run settings. The settings records
of the searches and the validation study (`VariableBounds`, `GAParams`,
`TradeSpace`) are defined here, so that loading a config runs neither
`optimizer` nor `validation`; those modules import them from here.
`SimulationSettings` holds the default run size and
`OptimizationSettings` the default search settings; `simulator`,
`optimizer`, `validation` and `cli` take their defaults from these two
records.

The seed rule lives here too: ``child_seed(seed, *key)`` and
``stream(seed, *key)`` derive every seed and stream in the package from a
parent seed and a spawn key. From the master seed ``m``, command ``c``
(simulate 1, validate 2, optimize 3, sensitivity 4) runs with
``s = child_seed(m, c)``. Then replication ``i`` has seed
``child_seed(s, i)``, the validation sampler draws from ``stream(s)``,
validation case ``i`` simulates with ``child_seed(s, 1, i)``, GA restart
``r`` draws from ``stream(s, r)`` and sweep rate ``i`` searches with
``child_seed(s, i)``. The two streams of one replication are listed in
the `simulator` docstring. Both functions import numpy only when called,
so loading a config does not load it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, ClassVar, get_args, get_type_hints

from .chain import (
    STRATEGY_BOUNDS,
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    check_strategy_value,
)
from .costs import CostParams
from .inventory import SQPolicy, check_integer
from .orbits import WGS84, EarthConstants

# Elite genomes the genetic search copies unchanged into each next
# generation; a population must be larger. `optimizer` holds the other
# operators.
ELITISM = 2


class ConfigError(ValueError):
    """A configuration problem, with the offending key path in the message."""


def child_seed(seed: int, *key: int) -> int:
    """The first 64-bit word of ``SeedSequence(seed, spawn_key=key)``."""
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def stream(seed: int, *key: int):
    """A ``numpy.random.Generator`` on Philox, seeded by ``SeedSequence(seed, spawn_key=key)``."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def check_run_size(values: dict[str, Any], names: dict[str, str]) -> None:
    """The run-size rules of a simulation or validation study on ``values``.

    ``n_cases`` is checked only where ``values`` has it. An error names
    the key path or command-line flag ``names[field]``.
    """
    if values.get("n_cases", 1) < 1:
        raise ConfigError(f"{names['n_cases']}: need at least one case, got {values['n_cases']}")
    if values["replications"] < 1:
        raise ConfigError(
            f"{names['replications']}: need at least one replication, "
            f"got {values['replications']}"
        )
    if not 0 < values["horizon_years"] < math.inf:
        raise ConfigError(
            f"{names['horizon_years']}: must be positive and finite, "
            f"got {values['horizon_years']}"
        )
    if not 0.0 <= values["warmup_years"] < values["horizon_years"]:
        raise ConfigError(
            f"{names['warmup_years']}: must be nonnegative and shorter than "
            f"{names['horizon_years']} ({values['horizon_years']}), got {values['warmup_years']}"
        )


@dataclass(frozen=True)
class VariableBounds:
    """Where the searches look: (lo, hi) per variable, each a valid strategy value.

    The default is the one box of the genetic search, the validation sizing
    and its trade space. Its reorder points, unbounded in a strategy, stop
    at 10; a config widens them under ``optimization.bounds``.
    """

    n_parking: tuple[int, int] = STRATEGY_BOUNDS["n_parking"]
    h_parking_km: tuple[float, float] = STRATEGY_BOUNDS["h_parking_km"]
    q_plane: tuple[int, int] = STRATEGY_BOUNDS["q_plane"]
    s_plane: tuple[int, int] = (1, 10)
    k_q_parking: tuple[int, int] = STRATEGY_BOUNDS["k_q_parking"]
    k_s_parking: tuple[int, int] = (1, 10)

    def __post_init__(self) -> None:
        for name in STRATEGY_BOUNDS:
            lo, hi = getattr(self, name)
            check_strategy_value(name, lo)
            check_strategy_value(name, hi)
            if lo > hi:
                raise ValueError(f"{name} bounds ({lo}, {hi}) must be ordered")


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm run size.

    The operators are constants: `ELITISM` here, the rest in `optimizer`.
    """

    population: int = 60
    generations: int = 150
    restarts: int = 5

    def __post_init__(self) -> None:
        for name in ("population", "generations", "restarts"):
            check_integer(name, getattr(self, name))
        if self.population <= ELITISM or self.generations < 1 or self.restarts < 1:
            raise ValueError(f"population > {ELITISM}, generations >= 1, restarts >= 1 required")


@dataclass(frozen=True)
class TradeSpace:
    """Sampling bounds (lo, hi) of the eleven varied study parameters.

    A field hinted ``tuple[int, int]`` is an integer dimension: its bounds
    are whole and its samples are rounded.
    """

    pt_launch_days: tuple[float, float] = (30.0, 120.0)
    h_plane_km: tuple[float, float] = (1000.0, 2000.0)
    h_parking_km: tuple[float, float] = VariableBounds().h_parking_km
    inclination_deg: tuple[float, float] = (30.0, 70.0)
    lambda_sat_per_year: tuple[float, float] = (0.001, 0.1)
    mu_launch_days: tuple[float, float] = (30.0, 90.0)
    n_plane: tuple[int, int] = (20, 40)
    n_parking: tuple[int, int] = VariableBounds().n_parking
    n_sats: tuple[int, int] = (20, 60)
    q_plane: tuple[int, int] = VariableBounds().q_plane
    k_q_parking: tuple[int, int] = VariableBounds().k_q_parking

    def __post_init__(self) -> None:
        hints = get_type_hints(TradeSpace)
        for f in dataclasses.fields(self):
            lo, hi = getattr(self, f.name)
            if hints[f.name] == tuple[int, int]:
                check_integer(f"{f.name}[0]", lo)
                check_integer(f"{f.name}[1]", hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{f.name}: bounds must be finite, got [{lo}, {hi}]")
            if lo > hi:
                raise ValueError(f"{f.name}: lower bound {lo} above upper bound {hi}")


@dataclass(frozen=True)
class SimulationSettings:
    horizon_years: float = 15.0
    replications: int = 100
    warmup_years: float = 1.0

    def __post_init__(self) -> None:
        check_run_size(vars(self), {field: f"simulation.{field}" for field in vars(self)})


@dataclass(frozen=True)
class OptimizationSettings:
    rho_target: float = 0.95
    bounds: VariableBounds = VariableBounds()
    ga: GAParams = GAParams()

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_target < 1.0:
            raise ConfigError(
                f"optimization.rho_target: must be in (0, 1), got {self.rho_target}"
            )


@dataclass(frozen=True)
class ValidationSettings:
    space: TradeSpace = TradeSpace()


@dataclass(frozen=True)
class RunConfig:
    """Everything parsed from one config file."""

    constellation: ConstellationConfig | None = None
    strategy: SpareStrategy | None = None
    inplane_policy: SQPolicy | None = None
    launch: LaunchParams | None = None
    costs: CostParams | None = None
    satellite: SatelliteParams | None = None
    simulation: SimulationSettings = SimulationSettings()
    optimization: OptimizationSettings = OptimizationSettings()
    validation: ValidationSettings = ValidationSettings()
    seed: int = 0
    # Not a config key, and read only by bench/: `orbits` holds the one Earth.
    earth: ClassVar[EarthConstants] = WGS84

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        # A ground-only batch rides one rocket; checked at load, whatever the command.
        policy, launch = self.inplane_policy, self.launch
        if policy and launch and policy.order_quantity_q > launch.cap_launch:
            raise ConfigError(
                f"inplane_policy.order_quantity_q: batch of {policy.order_quantity_q} "
                f"exceeds launch.cap_launch {launch.cap_launch}"
            )

    def require(self, *sections: str) -> None:
        """Raise ConfigError naming the first missing section."""
        for name in sections:
            if getattr(self, name) is None:
                raise ConfigError(f"{name}: section required for this command")


def _coerce(value: Any, hint: Any, keypath: str) -> Any:
    # json accepts NaN, Infinity and integers too large for a float,
    # which no setting can take.
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{keypath}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{keypath}: expected a finite number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{keypath}: expected an integer, got {value!r}")
        if abs(value) > sys.float_info.max:
            raise ConfigError(f"{keypath}: expected a finite integer, got {value!r}")
        return value
    # Bounds pairs arrive as two-element lists.
    if hint in (tuple[int, int], tuple[float, float]):
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{keypath}: expected [lo, hi], got {value!r}")
        element = int if hint == tuple[int, int] else float
        return tuple(_coerce(v, element, f"{keypath}[{i}]") for i, v in enumerate(value))
    raise ConfigError(f"{keypath}: unsupported value {value!r}")


def _build(cls, data: Any, keypath: str):
    """Construct a dataclass from a JSON mapping, strictly.

    A field whose type is a dataclass is built from its nested object the
    same way. ``keypath`` is the mapping's own key path, empty at the top
    level.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{keypath or 'top level of the config'}: expected an object")
    hints = get_type_hints(cls)
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        path = f"{keypath}.{key}" if keypath else key
        if key not in field_names:
            raise ConfigError(f"{path}: unknown key")
        hint = hints[key]
        nested = next((t for t in (hint, *get_args(hint)) if dataclasses.is_dataclass(t)), None)
        kwargs[key] = _build(nested, value, path) if nested else _coerce(value, hint, path)
    required = {
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    missing = sorted(required - kwargs.keys())
    if missing:
        raise ConfigError(f"{keypath}.{missing[0]}: required key missing")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{keypath}: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON config file.

    Raises:
        ConfigError: On unreadable files, unknown keys, missing required
            keys, type mismatches, or out-of-range values; the message
            names the offending key path.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax, or an integer past the digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return _build(RunConfig, data, "")


def bundled_case_study_path() -> Path:
    """Path of the packaged example configuration."""
    return Path(str(resources.files("sparechain").joinpath("data/case_study.json")))


def bundled_launch_dates_path() -> Path:
    """Path of the packaged Soyuz-class launch date history."""
    return Path(str(resources.files("sparechain").joinpath("data/soyuz_launch_dates.csv")))
