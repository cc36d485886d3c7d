"""Annual cost model for a spare strategy.

Four parts, all in million US$ per year: manufacturing replaces failed
satellites, holding carries the orbiting spare stocks, launch pays for the
ground-to-orbit resupply flights, and maneuvering prices the transfer fuel.
Their sum is the total expected spare strategy annual cost (TESSAC).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import (
    DAYS_PER_YEAR,
    ConstellationConfig,
    LaunchParams,
    PolicyFigures,
    PolicyMetrics,
    SatelliteParams,
    SpareStrategy,
    chain_figures,
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
        prices = (
            self.p_sat_musd,
            self.p_holding_musd_per_sat_year,
            self.p_launch_full_musd,
            self.p_launch_unit_musd,
            self.eps_maneuvering_musd_per_kg,
        )
        if any(p < 0 for p in prices):
            raise ValueError("cost parameters must be nonnegative")


@dataclass(frozen=True)
class CostBreakdown:
    """Annual cost parts in million US$/year; tessac is their sum."""

    manufacturing: float
    holding: float
    launch: float
    maneuvering: float

    def __post_init__(self) -> None:
        for name in ("manufacturing", "holding", "launch", "maneuvering"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cost must be nonnegative")

    @property
    def tessac(self) -> float:
        return self.manufacturing + self.holding + self.launch + self.maneuvering


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


def tessac(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    metrics: PolicyMetrics | PolicyFigures,
    transfer: TransferResult,
    cp: CostParams,
    lp: LaunchParams,
) -> CostBreakdown:
    """Annual cost of a multi-echelon strategy.

    Args:
        cfg: Constellation layout.
        strategy: The design point that produced the metrics.
        metrics: Steady-state analytics from the chain evaluation, as the
            dataclass or as the plain `PolicyFigures` of a search.
        transfer: Parking-to-plane Hohmann figures (fuel per satellite).
        cp: Unit prices.
        lp: Launch characteristics (capacity is not enforced here).

    Returns:
        CostBreakdown with the four annual parts.
    """
    days = DAYS_PER_YEAR
    replacements_per_year = metrics.lambda_plane_per_day * cfg.n_plane * days
    manufacturing = cp.p_sat_musd * replacements_per_year

    stock_sats = (
        metrics.mean_stock_plane * cfg.n_plane
        + metrics.mean_stock_parking_batches * strategy.q_plane * strategy.n_parking
    )
    holding = cp.p_holding_musd_per_sat_year * stock_sats

    launches_per_year = (
        metrics.lambda_parking_batches_per_day / strategy.k_q_parking
    ) * strategy.n_parking * days
    launch = launch_price(strategy.q_parking, cp) * launches_per_year

    maneuvering = (
        transfer.fuel_mass_kg * replacements_per_year * cp.eps_maneuvering_musd_per_kg
    )
    return CostBreakdown(
        manufacturing=manufacturing,
        holding=holding,
        launch=launch,
        maneuvering=maneuvering,
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
            chain_figures).
    """
    figures, transfer = chain_figures(cfg, strategy, lp, consts, satellite=satellite)
    metrics = PolicyMetrics(*figures)
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
    replacements_per_year = metrics.lambda_plane_per_day * cfg.n_plane * days
    manufacturing = cp.p_sat_musd * replacements_per_year
    holding = cp.p_holding_musd_per_sat_year * metrics.mean_stock_plane * cfg.n_plane
    launches_per_year = (metrics.lambda_plane_per_day / q) * cfg.n_plane * days
    launch = launch_price(q, cp) * launches_per_year
    return CostBreakdown(
        manufacturing=manufacturing,
        holding=holding,
        launch=launch,
        maneuvering=0.0,
    )
