"""Annual cost model for a spare strategy.

Four parts, all in million US$ per year: manufacturing replaces failed
satellites, holding carries the orbiting spare stocks, launch pays for the
ground-to-orbit resupply flights, and maneuvering prices the transfer fuel.
Their sum is the total expected spare strategy annual cost (TESSAC).

`annual_cost` prices one set of yearly flows and builds every
`CostBreakdown`: the two-echelon chain (`tessac`), the ground-only
baseline (`tessac_inplane_only`) and the simulator each derive their flows
and call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .chain import (
    DAYS_PER_YEAR,
    ConstellationConfig,
    LaunchParams,
    PolicyMetrics,
    SatelliteParams,
    SpareStrategy,
    StageMemo,
    conjunction,
)
from .inventory import SQPolicy
from .orbits import EarthConstants, TransferResult


@dataclass(frozen=True)
class CostParams:
    """Unit prices of the cost model.

    Attributes:
        p_sat_musd: Manufacturing price of one satellite.
        p_holding_musd_per_sat_year: Annual holding cost of one orbiting spare.
        p_launch_full_musd: Price of a full-capacity rocket.
        p_launch_unit_musd: Price per satellite when booking individual slots.
        eps_maneuvering_musd_per_kg: Cost per kilogram of transfer propellant.
    """

    p_sat_musd: float
    p_holding_musd_per_sat_year: float
    p_launch_full_musd: float
    p_launch_unit_musd: float
    eps_maneuvering_musd_per_kg: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and nonnegative, got {value}")


class NegativeHoldingError(ValueError):
    """A negative holding cost: mean stocks of a policy far too small for their formula."""


@dataclass(frozen=True)
class CostBreakdown:
    """Annual cost parts in million US$/year; tessac is their sum.

    Raises:
        NegativeHoldingError: If the holding part is negative.
        ValueError: If any other part is negative, or any part is not finite.
    """

    manufacturing: float
    holding: float
    launch: float
    maneuvering: float

    def __post_init__(self) -> None:
        if _PARTS_VALID(self):
            return
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                error = NegativeHoldingError if f.name == "holding" and value < 0 else ValueError
                raise error(f"{f.name} cost must be finite and nonnegative, got {value}")

    @property
    def tessac(self) -> float:
        return self.manufacturing + self.holding + self.launch + self.maneuvering


# Every part finite and nonnegative, in one chain; CostBreakdown's per-field
# loop runs only to name the part that is not.
_PARTS_VALID = conjunction([f"0.0 <= o.{f.name} < inf" for f in fields(CostBreakdown)])


def launch_price(q_parking: int, cp: CostParams) -> float:
    """Price of one resupply flight carrying q_parking satellites.

    The cheaper of a full-capacity rocket and individually booked slots.
    The launch capacity is a constraint of the search, not of the tariff,
    so oversized batches are priced at the full-rocket bound.

    Raises:
        ValueError: If q_parking < 1.
    """
    if q_parking < 1:
        raise ValueError(f"batch must be >= 1 satellite, got {q_parking}")
    return min(cp.p_launch_full_musd, q_parking * cp.p_launch_unit_musd)


def annual_cost(
    cp: CostParams,
    replacements: float,
    held: float,
    launches: float,
    batch: int,
    transferred: float,
    fuel_kg: float,
) -> CostBreakdown:
    """Cost breakdown of one set of yearly flows at the prices ``cp``.

    ``replacements``, ``launches`` and ``transferred`` are satellites
    built, flights flown and satellites raised from parking per year;
    ``held`` is the average number of orbiting spares, ``batch`` the
    satellites per flight (priced by `launch_price`) and ``fuel_kg`` the
    propellant burned per transferred satellite.
    """
    return CostBreakdown(
        manufacturing=cp.p_sat_musd * replacements,
        holding=cp.p_holding_musd_per_sat_year * held,
        launch=launch_price(batch, cp) * launches,
        maneuvering=fuel_kg * transferred * cp.eps_maneuvering_musd_per_kg,
    )


def tessac(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    metrics: PolicyMetrics,
    transfer: TransferResult,
    cp: CostParams,
    lp: LaunchParams,
) -> CostBreakdown:
    """Annual cost of a multi-echelon strategy.

    Every replaced satellite is raised from a parking orbit, so the
    transfers equal the replacements.

    Args:
        cfg: Constellation layout.
        strategy: The design point that produced the metrics.
        metrics: Steady-state analytics from the chain evaluation.
        transfer: Parking-to-plane Hohmann figures (fuel per satellite).
        cp: Unit prices.
        lp: Not read; it stays for the benchmark's 6-argument call.

    Returns:
        CostBreakdown with the four annual parts.
    """
    days = DAYS_PER_YEAR
    replacements = metrics.lambda_plane_per_day * cfg.n_plane * days
    held = (
        metrics.mean_stock_plane * cfg.n_plane
        + metrics.mean_stock_parking_batches * strategy.q_plane * strategy.n_parking
    )
    launches = (
        metrics.lambda_parking_batches_per_day / strategy.k_q_parking
    ) * strategy.n_parking * days
    return annual_cost(
        cp, replacements, held, launches, strategy.q_parking, replacements, transfer.fuel_mass_kg
    )


def evaluate_design(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    lp: LaunchParams,
    costs: CostParams,
    satellite: SatelliteParams,
    consts: EarthConstants,
) -> tuple[PolicyMetrics, CostBreakdown]:
    """Metrics and annual cost of one multi-echelon strategy.

    Evaluates the chain with the parking-to-plane Hohmann raise of the
    given satellite and assembles the TESSAC breakdown.

    Raises:
        ValueError: If the chain cannot evaluate the strategy (see
            `StageMemo.figures`).
    """
    metrics, transfer = StageMemo(cfg, lp, consts, satellite).figures(strategy)
    return metrics, tessac(cfg, strategy, metrics, transfer, costs, lp)


def tessac_inplane_only(
    cfg: ConstellationConfig,
    policy: SQPolicy,
    metrics: PolicyMetrics,
    cp: CostParams,
    lp: LaunchParams,
) -> CostBreakdown:
    """Annual cost of the ground-to-plane baseline.

    Each plane launches its own batches from the ground, so there is no
    parking stock to hold and no transfer fuel to burn.

    Raises:
        ValueError: If the batch exceeds the launch capacity.
    """
    q = policy.order_quantity_q
    if q > lp.cap_launch:
        raise ValueError(f"batch of {q} exceeds launch capacity {lp.cap_launch}")
    days = DAYS_PER_YEAR
    replacements = metrics.lambda_plane_per_day * cfg.n_plane * days
    held = metrics.mean_stock_plane * cfg.n_plane
    launches = (metrics.lambda_plane_per_day / q) * cfg.n_plane * days
    return annual_cost(cp, replacements, held, launches, q, 0, 0.0)
