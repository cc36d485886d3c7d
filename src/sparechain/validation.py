"""Accuracy study of the analytical model against the simulator.

Builds a Latin-hypercube sample of test constellations, sizes the reorder
points of each to meet a fill-rate requirement, then compares five
analytic outputs (both mean stocks, both fill rates, and the annual cost)
with simulated estimates as relative percentage errors. Also fits the
exponential launch-gap model from a list of historical launch dates.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

from .chain import (
    ConstellationConfig,
    LaunchParams,
    PolicyMetrics,
    SatelliteParams,
    SpareStrategy,
    StageMemo,
    UndefinedAvailabilityError,
)
from .costs import CostParams, evaluate_design
from .inventory import check_integer, least_reorder_point
from .optimizer import VariableBounds
from .orbits import WGS84, EarthConstants
from .simulator import Estimates, SimConfig, SimulationResult, child_seed, run_batch, stream

# The fill-rate requirement both echelons are sized against.
RHO_REQUIREMENT = 0.95

# LaunchParams needs a rocket capacity, but nothing on this path reads it:
# the chain, TESSAC and the simulator use only the launch wait and the
# processing time.
_UNREAD_CAP_LAUNCH = 34

# The study's labels of the `Estimates` fields, in field order.
OUTPUT_NAMES = (
    "mean_stock_plane",
    "mean_stock_parking",
    "rho_plane",
    "rho_parking",
    "tessac",
)


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


def lhs_sample(space: TradeSpace, n: int, seed: int) -> list[dict[str, float | int]]:
    """Latin hypercube sample of ``n`` cases over the trade space.

    One draw per stratum per dimension, paired by random permutations.
    The integer dimensions are rounded to the nearest in-bounds integer.
    Each case has its own stratum of every continuous dimension, so no
    two cases are equal.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = stream(seed)
    hints = get_type_hints(TradeSpace)
    cases: list[dict[str, float | int]] = [dict() for _ in range(n)]
    for f in dataclasses.fields(space):
        lo, hi = getattr(space, f.name)
        integer = hints[f.name] == tuple[int, int]
        perm = rng.permutation(n)
        u = rng.random(n)
        for i in range(n):
            x = lo + (hi - lo) * (perm[i] + u[i]) / n
            cases[i][f.name] = min(max(int(round(x)), lo), hi) if integer else float(x)
    return cases


class SizingInfeasibleError(ValueError):
    """No reorder point within bounds meets the fill-rate requirement."""


def size_reorder_points(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    lp: LaunchParams,
    consts: EarthConstants = WGS84,
) -> tuple[int, int]:
    """Smallest reorder points meeting the per-echelon fill-rate requirements.

    The parking echelon is sized first because its availability shapes the
    plane lead times. Each echelon must satisfy
    (fill rate)^(number of locations) >= RHO_REQUIREMENT with a reorder
    point in the default search box `VariableBounds()`; both walk one `StageMemo`.

    Returns:
        (s_plane, k_s_parking).

    Raises:
        SizingInfeasibleError: If no value within bounds suffices.
        ValueError: If the chain rejects the strategy for any reason other
            than a too small parking stock, e.g. a parking orbit that is not
            below the planes.
    """
    box = VariableBounds()
    (s_lo, s_hi), (k_s_lo, k_s_hi) = box.s_plane, box.k_s_parking
    memo = StageMemo(cfg, lp, consts)

    def metrics(s: int, k_s: int) -> PolicyMetrics:
        return memo.figures(dataclasses.replace(strategy, s_plane=s, k_s_parking=k_s))[0]

    def parking_meets(k_s: int) -> bool:
        try:
            rho = metrics(s_lo, k_s).rho_parking
        except UndefinedAvailabilityError:
            # Only a larger parking stock mends this; other errors reach the caller.
            return False
        return rho**strategy.n_parking >= RHO_REQUIREMENT

    k_s = least_reorder_point(parking_meets, k_s_lo, k_s_hi)
    if k_s is None:
        raise SizingInfeasibleError(
            f"no parking reorder point in [{k_s_lo}, {k_s_hi}] reaches "
            f"{RHO_REQUIREMENT} with k_q={strategy.k_q_parking}"
        )
    s = least_reorder_point(
        lambda s: metrics(s, k_s).rho_plane**cfg.n_plane >= RHO_REQUIREMENT, s_lo, s_hi
    )
    if s is None:
        raise SizingInfeasibleError(
            f"no plane reorder point in [{s_lo}, {s_hi}] reaches {RHO_REQUIREMENT} "
            f"with q={strategy.q_plane}"
        )
    return s, k_s


def relative_error(sim_value: float, model_value: float) -> float:
    """|sim - model| / sim in percent.

    Raises:
        ValueError: If the simulated reference is zero.
    """
    if sim_value == 0.0:
        raise ValueError("relative error undefined for a zero simulated value")
    return abs(sim_value - model_value) / abs(sim_value) * 100.0


@dataclass(frozen=True)
class CaseOutcome:
    """One study case: parameters, sizing, and per-output errors."""

    index: int
    params: dict[str, float | int]
    feasible: bool
    s_plane: int | None = None
    k_s_parking: int | None = None
    model_values: dict[str, float] | None = None
    sim_values: dict[str, float] | None = None
    errors_pct: dict[str, float] | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ErrorReport:
    """Study-level aggregation of the per-case relative errors."""

    cases: tuple[CaseOutcome, ...]
    averaged_errors_pct: dict[str, float]
    infeasible_count: int


def run_validation(
    space: TradeSpace,
    n_cases: int,
    *,
    costs: CostParams,
    satellite: SatelliteParams,
    consts: EarthConstants,
    replications: int = 100,
    horizon_years: float = 15.0,
    warmup_years: float = 1.0,
    seed: int = 0,
    simulate_fn: Callable[[SimConfig], SimulationResult] | None = None,
) -> ErrorReport:
    """Run the full model-vs-simulation accuracy study.

    Each sampled case is sized to the fill-rate requirement, evaluated
    analytically, then simulated; the five outputs are compared as
    relative percentage errors and averaged over feasible cases.

    Args:
        space: Sampling bounds.
        n_cases: Number of cases.
        costs: Unit prices of the analytic and simulated TESSAC.
        satellite: Spare satellite whose transfers are priced.
        consts: Earth constants of the orbital model.
        replications: Simulation replications per case.
        horizon_years: Simulated horizon per replication.
        warmup_years: Discarded start-up span per replication.
        seed: Master seed of the sampler and of each case's simulation
            (keys in the `simulator` docstring).
        simulate_fn: Replacement for the simulation step (testing hook);
            must accept a SimConfig and return a result whose ``mean`` is an `Estimates`.

    Returns:
        ErrorReport with per-case outcomes and averaged errors.
    """
    simulate = simulate_fn if simulate_fn is not None else run_batch
    # The SimConfig fields that every case shares.
    study = dict(
        costs=costs,
        satellite=satellite,
        consts=consts,
        replications=replications,
        horizon_years=horizon_years,
        warmup_years=warmup_years,
    )
    outcomes = [
        _run_case(i, params, child_seed(seed, 1, i), simulate, study)
        for i, params in enumerate(lhs_sample(space, n_cases, seed))
    ]
    feasible = [o for o in outcomes if o.feasible]
    averaged = {
        name: statistics.fmean(o.errors_pct[name] for o in feasible)
        for name in OUTPUT_NAMES
    } if feasible else {name: float("nan") for name in OUTPUT_NAMES}
    return ErrorReport(
        cases=tuple(outcomes),
        averaged_errors_pct=averaged,
        infeasible_count=len(outcomes) - len(feasible),
    )


def _sampled(cls: type, params: dict[str, float | int]) -> dict[str, float | int]:
    """The sampled values of the fields of dataclass ``cls``, by name."""
    return {f.name: params[f.name] for f in dataclasses.fields(cls) if f.name in params}


def _run_case(
    index: int,
    params: dict[str, float | int],
    seed: int,
    simulate: Callable[[SimConfig], SimulationResult],
    study: dict,
) -> CaseOutcome:
    try:
        cfg = ConstellationConfig(**_sampled(ConstellationConfig, params))
        lp = LaunchParams(**_sampled(LaunchParams, params), cap_launch=_UNREAD_CAP_LAUNCH)
        strategy = SpareStrategy(**_sampled(SpareStrategy, params), s_plane=1, k_s_parking=1)
        s_plane, k_s = size_reorder_points(cfg, strategy, lp, consts=study["consts"])
        strategy = dataclasses.replace(strategy, s_plane=s_plane, k_s_parking=k_s)
        metrics, cost = evaluate_design(
            cfg, strategy, lp, study["costs"], study["satellite"], study["consts"]
        )
    except ValueError as exc:
        return CaseOutcome(index=index, params=params, feasible=False, reason=str(exc))

    sim = simulate(SimConfig(constellation=cfg, strategy=strategy, launch=lp, seed=seed, **study))
    model = {**metrics._asdict(), "tessac": cost.tessac}
    model_values = dict(zip(OUTPUT_NAMES, (model[n] for n in Estimates._fields), strict=True))
    sim_values = dict(zip(OUTPUT_NAMES, sim.mean, strict=True))
    outcome = CaseOutcome(
        index=index,
        params=params,
        feasible=True,
        s_plane=strategy.s_plane,
        k_s_parking=strategy.k_s_parking,
        model_values=model_values,
        sim_values=sim_values,
    )
    try:
        errors = {
            name: relative_error(sim_values[name], model_values[name])
            for name in OUTPUT_NAMES
        }
    except ValueError as exc:
        # A zero simulated value leaves its error undefined: the case keeps
        # its values, counts as infeasible, and the study goes on.
        return dataclasses.replace(outcome, feasible=False, reason=str(exc))
    return dataclasses.replace(outcome, errors_pct=errors)


def fit_launch_gaps(dates: Sequence[date | datetime]) -> float:
    """Maximum-likelihood mean of exponential gaps between launches.

    For exponential interarrivals the MLE is exactly the sample mean of
    the successive gaps, in days.

    Raises:
        ValueError: On fewer than two dates or an unsorted sequence.
    """
    if len(dates) < 2:
        raise ValueError("need at least two launch dates")
    gaps = []
    for earlier, later in zip(dates[:-1], dates[1:]):
        gap_days = (later - earlier).total_seconds() / 86400.0
        if gap_days < 0:
            raise ValueError("launch dates must be sorted ascending")
        gaps.append(gap_days)
    return statistics.fmean(gaps)


def read_launch_dates(path: str | Path) -> list[date]:
    """Read one ISO date per line after an optional header line.

    The first nonblank line is a header, and skipped, only when it does not
    start with a digit; a line that does is read as a date. The file is
    UTF-8, and a leading byte-order mark is dropped before this test.

    Raises:
        ValueError: If the file has no nonblank line, or a nonblank line
            that is not a header is not an ISO date; the message names the
            file and the 1-based line number.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [
        (number, ln.strip()) for number, ln in enumerate(text.splitlines(), start=1) if ln.strip()
    ]
    if not lines:
        raise ValueError(f"no dates in {path}")
    if not lines[0][1][0].isdigit():
        lines = lines[1:]
    dates = []
    for number, text in lines:
        try:
            dates.append(date.fromisoformat(text))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {text!r} is not a date: {exc}") from exc
    return dates
