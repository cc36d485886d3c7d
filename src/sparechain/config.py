"""Structured JSON configuration for the command-line tools.

One file carries every section a command might need: constellation
layout, a spare strategy, launch and cost parameters, simulation,
optimization and validation settings, and optional Earth-constant
overrides. Every object in the file, the top level included, is built
from the fields of the dataclass it describes: unknown keys are rejected
and every value passes the domain checks of its dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .chain import ConstellationConfig, LaunchParams, SatelliteParams, SpareStrategy
from .costs import CostParams
from .inventory import SQPolicy
from .optimizer import GAParams, VariableBounds
from .orbits import WGS84, EarthConstants
from .validation import TradeSpace


class ConfigError(ValueError):
    """A configuration problem, with the offending key path in the message."""


def _check_run_size(section: str, values: dict[str, Any], flags: dict[str, str]) -> None:
    """The run-size rules of simulation and validation settings on ``values``.

    ``n_cases`` is checked only where ``values`` has it. An error names
    ``flags[field]`` where given, else ``section.field``.
    """

    def name(field: str) -> str:
        return flags.get(field, f"{section}.{field}")

    if values.get("n_cases", 1) < 1:
        raise ConfigError(f"{name('n_cases')}: need at least one case, got {values['n_cases']}")
    if values["replications"] < 1:
        raise ConfigError(
            f"{name('replications')}: need at least one replication, "
            f"got {values['replications']}"
        )
    if not 0 < values["horizon_years"] < math.inf:
        raise ConfigError(
            f"{name('horizon_years')}: must be positive and finite, "
            f"got {values['horizon_years']}"
        )
    if not 0.0 <= values["warmup_years"] < values["horizon_years"]:
        raise ConfigError(
            f"{name('warmup_years')}: must be nonnegative and shorter than "
            f"{name('horizon_years')} ({values['horizon_years']}), got {values['warmup_years']}"
        )


@dataclass(frozen=True)
class SimulationSettings:
    horizon_years: float = 15.0
    replications: int = 100
    warmup_years: float = 1.0

    def __post_init__(self) -> None:
        _check_run_size("simulation", vars(self), {})


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
    n_cases: int = 25
    replications: int = 100
    horizon_years: float = 15.0
    warmup_years: float = 1.0
    space: TradeSpace = TradeSpace()

    def __post_init__(self) -> None:
        _check_run_size("validation", vars(self), {})

    def with_flags(self, **flags: tuple[str, Any]) -> "ValidationSettings":
        """A copy with command-line overrides, checked by the same rules.

        Each keyword maps a field to (flag, value); a value of None keeps
        the field. An out-of-range value raises a ConfigError that names
        the flag it came from.
        """
        given = {field: fv for field, fv in flags.items() if fv[1] is not None}
        values = {field: value for field, (_, value) in given.items()}
        flag_names = {field: flag for field, (flag, _) in given.items()}
        _check_run_size("validation", {**vars(self), **values}, flag_names)
        return dataclasses.replace(self, **values)


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
    earth: EarthConstants = WGS84
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")

    def require(self, *sections: str) -> None:
        """Raise ConfigError naming the first missing section."""
        for name in sections:
            if getattr(self, name) is None:
                raise ConfigError(f"{name}: section required for this command")


def _coerce(value: Any, hint: Any, keypath: str) -> Any:
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{keypath}: expected a number, got {value!r}")
        # json accepts NaN and Infinity, which no setting can take.
        if not math.isfinite(value):
            raise ConfigError(f"{keypath}: expected a finite number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{keypath}: expected an integer, got {value!r}")
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return _build(RunConfig, data, "")


def bundled_case_study_path() -> Path:
    """Path of the packaged example configuration."""
    return Path(str(resources.files("sparechain").joinpath("data/case_study.json")))


def bundled_launch_dates_path() -> Path:
    """Path of the packaged Soyuz-class launch date history."""
    return Path(str(resources.files("sparechain").joinpath("data/soyuz_launch_dates.csv")))
