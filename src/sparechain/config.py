"""Structured JSON configuration for the command-line tools.

One file carries every section a command might need: constellation
layout, a spare strategy, launch and cost parameters, simulation,
optimization and validation settings, and optional Earth-constant
overrides. Sections are validated strictly: unknown keys are rejected
and every value passes the domain checks of its dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, get_type_hints

from .chain import ConstellationConfig, LaunchParams, SatelliteParams, SpareStrategy
from .costs import CostParams
from .inventory import SQPolicy
from .optimizer import GAParams, VariableBounds
from .orbits import WGS84, EarthConstants
from .validation import ParameterRange, TradeSpace


class ConfigError(ValueError):
    """A configuration problem, with the offending key path in the message."""


def _check_warmup(
    warmup_name: str, horizon_name: str, warmup_years: float, horizon_years: float
) -> None:
    if not 0.0 <= warmup_years < horizon_years:
        raise ConfigError(
            f"{warmup_name}: must be nonnegative and shorter than "
            f"{horizon_name} ({horizon_years}), got {warmup_years}"
        )


@dataclass(frozen=True)
class SimulationSettings:
    horizon_years: float = 15.0
    replications: int = 100
    warmup_years: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon_years <= 0:
            raise ConfigError(
                f"simulation.horizon_years: must be positive, got {self.horizon_years}"
            )
        if self.replications < 1:
            raise ConfigError(
                f"simulation.replications: need at least one replication, "
                f"got {self.replications}"
            )
        _check_warmup(
            "simulation.warmup_years",
            "simulation.horizon_years",
            self.warmup_years,
            self.horizon_years,
        )


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


def _check_validation(values: dict[str, Any], names: dict[str, str]) -> None:
    """ValidationSettings' rules on the run-size fields in ``values``.

    An error names ``names[field]`` where given, else the field's config
    key path.
    """

    def name(field: str) -> str:
        return names.get(field, f"validation.{field}")

    if values["n_cases"] < 1:
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
    _check_warmup(
        name("warmup_years"), name("horizon_years"), values["warmup_years"], values["horizon_years"]
    )


@dataclass(frozen=True)
class ValidationSettings:
    n_cases: int = 25
    replications: int = 100
    horizon_years: float = 15.0
    warmup_years: float = 1.0
    space: TradeSpace = TradeSpace()

    def __post_init__(self) -> None:
        _check_validation(vars(self), {})

    def with_flags(self, **flags: tuple[str, Any]) -> "ValidationSettings":
        """A copy with command-line overrides, checked by the same rules.

        Each keyword maps a field to (flag, value); a value of None keeps
        the field. An out-of-range value raises a ConfigError that names
        the flag it came from.
        """
        given = {field: fv for field, fv in flags.items() if fv[1] is not None}
        values = {field: value for field, (_, value) in given.items()}
        _check_validation({**vars(self), **values}, {f: flag for f, (flag, _) in given.items()})
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
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{keypath}: expected a boolean, got {value!r}")
        return value
    # Bounds pairs arrive as two-element lists.
    if hint in (tuple[int, int], tuple[float, float]):
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{keypath}: expected [lo, hi], got {value!r}")
        element = int if hint == tuple[int, int] else float
        return tuple(_coerce(v, element, f"{keypath}[{i}]") for i, v in enumerate(value))
    raise ConfigError(f"{keypath}: unsupported value {value!r}")


def _build(cls, data: Any, keypath: str, nested: dict[str, Any] | None = None):
    """Construct a dataclass from a JSON mapping, strictly."""
    if not isinstance(data, dict):
        raise ConfigError(f"{keypath}: expected an object")
    nested = nested or {}
    hints = get_type_hints(cls)
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in field_names:
            raise ConfigError(f"{keypath}.{key}: unknown key")
        if key in nested:
            kwargs[key] = nested[key](value, f"{keypath}.{key}")
        else:
            kwargs[key] = _coerce(value, hints[key], f"{keypath}.{key}")
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


def _build_parameter_range(data: Any, keypath: str) -> ParameterRange:
    return _build(ParameterRange, data, keypath)


def _build_trade_space(data: Any, keypath: str) -> TradeSpace:
    if not isinstance(data, dict):
        raise ConfigError(f"{keypath}: expected an object")
    nested = {f.name: _build_parameter_range for f in dataclasses.fields(TradeSpace)}
    return _build(TradeSpace, data, keypath, nested=nested)


def _build_optimization(data: Any, keypath: str) -> OptimizationSettings:
    nested = {
        "bounds": lambda d, kp: _build(VariableBounds, d, kp),
        "ga": lambda d, kp: _build(GAParams, d, kp),
    }
    return _build(OptimizationSettings, data, keypath, nested=nested)


def _build_validation(data: Any, keypath: str) -> ValidationSettings:
    return _build(ValidationSettings, data, keypath, nested={"space": _build_trade_space})


_SECTION_BUILDERS = {
    "constellation": lambda d, kp: _build(ConstellationConfig, d, kp),
    "strategy": lambda d, kp: _build(SpareStrategy, d, kp),
    "inplane_policy": lambda d, kp: _build(SQPolicy, d, kp),
    "launch": lambda d, kp: _build(LaunchParams, d, kp),
    "costs": lambda d, kp: _build(CostParams, d, kp),
    "satellite": lambda d, kp: _build(SatelliteParams, d, kp),
    "simulation": lambda d, kp: _build(SimulationSettings, d, kp),
    "optimization": _build_optimization,
    "validation": _build_validation,
    "earth": lambda d, kp: _build(EarthConstants, d, kp),
}


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
    if not isinstance(data, dict):
        raise ConfigError("top level of the config must be an object")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _coerce(value, int, "seed")
            if kwargs["seed"] < 0:
                raise ConfigError("seed: must be nonnegative")
        elif key in _SECTION_BUILDERS:
            kwargs[key] = _SECTION_BUILDERS[key](value, key)
        else:
            raise ConfigError(f"{key}: unknown section")
    return RunConfig(**kwargs)


def bundled_case_study_path() -> Path:
    """Path of the packaged example configuration."""
    return Path(str(resources.files("sparechain").joinpath("data/case_study.json")))


def bundled_launch_dates_path() -> Path:
    """Path of the packaged Soyuz-class launch date history."""
    return Path(str(resources.files("sparechain").joinpath("data/soyuz_launch_dates.csv")))
