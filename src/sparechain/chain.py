"""Analytical model of the spare-satellite supply chain.

Three echelons: ground manufacturing feeds a ring of parking orbits by
rocket launch, and parking orbits feed the constellation planes by
drift-and-transfer maneuvers. Every stock location runs a continuous-review
(s,Q) policy under Poisson demand; this module derives the demand rates,
lead-time laws, expected shortages, fill rates, and cycle-average stocks
for both orbital echelons, plus the degenerate variant where planes are
resupplied straight from the ground.

The model has two lead-time laws, held as plain values. Ground resupply
(processing time plus an exponential launch wait, from `LaunchParams`)
serves the parking stock and the in-plane baseline; parking-to-plane
resupply is a mixture of uniform segments, one per supplier rank. Each
echelon calls its exact compound-Poisson shortage from `inventory`
directly (Hadley & Whitin 1963; Axsater, Inventory Control, ch. 5);
nothing is integrated numerically.

`evaluate_strategy` runs two pure stages: the parking stage depends only
on the parking policy and its demand rate, the plane stage only on the
parking ring and the plane reorder point. A search that visits many
strategies passes a `StageMemo`, which reuses each stage's recent results.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

from .inventory import (
    SQPolicy,
    expected_shortage_geometric,
    fill_rate,
    mean_stock,
    segment_shortages,
)
from .orbits import WGS84, CircularOrbit, EarthConstants, transfer_time

# Days used to annualize rates.
DAYS_PER_YEAR = 365.0


@dataclass(frozen=True)
class ConstellationConfig:
    """Operational constellation layout and reliability figures.

    Attributes:
        h_plane_km: Altitude of the constellation planes, km.
        inclination_deg: Shared inclination of all planes, degrees.
        n_plane: Number of orbital planes.
        n_sats: Operational satellites per plane.
        lambda_sat_per_year: Failure rate of one satellite, per year.
    """

    h_plane_km: float
    inclination_deg: float
    n_plane: int
    n_sats: int
    lambda_sat_per_year: float

    def __post_init__(self) -> None:
        if self.n_plane < 1:
            raise ValueError(f"n_plane must be >= 1, got {self.n_plane}")
        if self.n_sats < 1:
            raise ValueError(f"n_sats must be >= 1, got {self.n_sats}")
        if not 0.0 <= self.lambda_sat_per_year < math.inf:
            raise ValueError(
                "satellite failure rate must be finite and nonnegative, "
                f"got {self.lambda_sat_per_year}"
            )
        # Delegate altitude and inclination checks.
        CircularOrbit(self.h_plane_km, self.inclination_deg)


# Search space of a spare strategy: (lo, hi) per SpareStrategy field, in
# field order, enforced at construction. Float bounds mark the one
# real-valued variable.
STRATEGY_BOUNDS = {
    "n_parking": (1, 20),
    "h_parking_km": (700.0, 1000.0),
    "q_plane": (1, 10),
    "s_plane": (1, 10),
    "k_q_parking": (1, 10),
    "k_s_parking": (1, 10),
}


def check_strategy_value(name: str, value) -> None:
    """Raise ValueError unless ``value`` fits ``STRATEGY_BOUNDS[name]``.

    A field with integer bounds takes only integers; a float or a bool
    there is rejected, not truncated.
    """
    lo, hi = STRATEGY_BOUNDS[name]
    if type(value) is not int and isinstance(lo, int):
        # bool is an int subclass but no count; numpy integers pass.
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}={value!r} must be an integer")
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class SpareStrategy:
    """One complete spare-strategy design point.

    Parking batch sizes are expressed as multiples of the in-plane batch,
    so a parking order of one batch delivers exactly q_plane satellites.

    Attributes:
        n_parking: Number of parking orbits (equally spaced RAANs).
        h_parking_km: Common altitude of the parking orbits, km.
        q_plane: In-plane order quantity, satellites.
        s_plane: In-plane reorder point, satellites.
        k_q_parking: Parking order quantity, in-plane batches.
        k_s_parking: Parking reorder point, in-plane batches.
    """

    n_parking: int
    h_parking_km: float
    q_plane: int
    s_plane: int
    k_q_parking: int
    k_s_parking: int

    def __post_init__(self) -> None:
        for name in STRATEGY_BOUNDS:
            check_strategy_value(name, getattr(self, name))

    @property
    def q_parking(self) -> int:
        """Parking order quantity in satellites."""
        return self.k_q_parking * self.q_plane

    @property
    def s_parking(self) -> int:
        """Parking reorder point in satellites."""
        return self.k_s_parking * self.q_plane


@dataclass(frozen=True)
class LaunchParams:
    """Ground-to-parking resupply characteristics.

    Attributes:
        mu_launch_days: Mean wait for the next launch window.
        pt_launch_days: Fixed order processing time before the wait starts.
        cap_launch: Maximum satellites per rocket.
    """

    mu_launch_days: float
    pt_launch_days: float
    cap_launch: int

    def __post_init__(self) -> None:
        if self.mu_launch_days <= 0 or self.pt_launch_days < 0:
            raise ValueError("launch wait must be positive and processing time nonnegative")
        if self.cap_launch < 1:
            raise ValueError(f"launch capacity must be >= 1, got {self.cap_launch}")


@dataclass(frozen=True)
class SatelliteParams:
    """Mass and propulsion figures of one spare satellite."""

    m_dry_kg: float
    v_exhaust_km_s: float

    def __post_init__(self) -> None:
        if self.m_dry_kg <= 0 or self.v_exhaust_km_s <= 0:
            raise ValueError("dry mass and exhaust velocity must be positive")


@dataclass(frozen=True)
class PolicyMetrics:
    """Steady-state analytics of one strategy on one constellation.

    Parking quantities are in batches (multiples of q_plane satellites);
    plane quantities are in satellites.
    """

    lambda_plane_per_day: float
    lambda_parking_batches_per_day: float
    p_av: float
    es_plane: float
    es_parking_batches: float
    rho_plane: float
    rho_parking: float
    mean_stock_plane: float
    mean_stock_parking_batches: float
    e_leadtime_plane_days: float
    e_leadtime_parking_days: float
    neglected_supply_mass: float

    def __post_init__(self) -> None:
        for name in ("p_av", "rho_plane", "rho_parking"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


def plane_demand_rate(cfg: ConstellationConfig) -> float:
    """Spare demand of one plane, satellites/day: n_sats * lambda_sat / days."""
    return cfg.n_sats * cfg.lambda_sat_per_year / DAYS_PER_YEAR


def parking_demand_rate(cfg: ConstellationConfig, strategy: SpareStrategy) -> float:
    """Order arrival rate at one parking orbit, batches/day.

    The planes place batch orders at rate lambda_plane / q_plane each;
    pooling the planes and splitting evenly over the parking ring treats
    the pooled stream as Poisson, which is accurate for many planes.
    """
    if cfg.n_plane < 20:
        warnings.warn(
            f"n_plane={cfg.n_plane} < 20: Poisson superposition of plane orders "
            "is a coarse approximation for few planes",
            stacklevel=2,
        )
    per_plane_batches = plane_demand_rate(cfg) / strategy.q_plane
    return cfg.n_plane * per_plane_batches / strategy.n_parking


def leadtime_expected_shortage(s: int, rate_per_day: float, lp: LaunchParams) -> float:
    """Expected backorders per cycle at a stock resupplied from the ground.

    The ground lead time is the processing time plus an exponential launch
    wait, so demand over it is Poisson(rate * pt) plus an independent
    geometric count of mean rate * mu, and the shortage is exact.
    """
    return expected_shortage_geometric(
        s, rate_per_day * lp.pt_launch_days, rate_per_day * lp.mu_launch_days
    )


class UndefinedAvailabilityError(ValueError):
    """The parking policy is so undersized that its availability is undefined or zero."""


def parking_availability(es_parking: float, k_q: int) -> float:
    """Probability that an arriving order finds the parking orbit stocked.

    Equals the parking fill rate 1 - ES/k_Q.

    Raises:
        UndefinedAvailabilityError: If the expected shortage is outside [0, k_q].
    """
    if not 0.0 <= es_parking <= k_q:
        raise UndefinedAvailabilityError(
            f"expected shortage {es_parking} outside [0, {k_q}]: "
            "availability undefined for this policy"
        )
    return 1.0 - es_parking / k_q


def supply_probabilities(p_av: float, n_parking: int) -> list[float]:
    """Supplier-rank probabilities conditioned on at least one being available.

    The i-th closest orbit serves when it is available and the i - 1 closer
    ones are not, p(1 - p)^(i-1). These raw probabilities leave out the
    all-stocked-out case; dividing by 1 - (1 - p)^n makes them a proper
    distribution over ranks.
    """
    if not 0.0 < p_av <= 1.0:
        raise ValueError(f"availability must be in (0, 1], got {p_av}")
    if n_parking < 1:
        raise ValueError(f"n_parking must be >= 1, got {n_parking}")
    miss = 1.0 - p_av
    norm = 1.0 - miss**n_parking
    return [p_av * miss ** (i - 1) / norm for i in range(1, n_parking + 1)]


def plane_segments(
    n_parking: int,
    h_parking_km: float,
    cfg: ConstellationConfig,
    consts: EarthConstants = WGS84,
) -> list[tuple[float, float]]:
    """Drift-plus-flight days (lo, hi) of each supplier rank, closest first.

    The i-th closest parking orbit sits between (i-1) and i ring spacings
    of nodal separation, uniformly for a randomly timed order, so each rank
    contributes one uniform segment. The transfer time is affine in the
    nodal gap (linear drift wait plus a fixed flight), so two evaluations
    give every bound.
    """
    parking = CircularOrbit(h_parking_km, cfg.inclination_deg)
    plane = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
    spacing = 2.0 * math.pi / n_parking
    first = transfer_time(0.0, parking, plane, consts)
    step = transfer_time(spacing, parking, plane, consts) - first
    bounds = [first + i * step for i in range(n_parking + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def plane_leadtime(
    strategy: SpareStrategy,
    cfg: ConstellationConfig,
    p_av: float,
    consts: EarthConstants = WGS84,
) -> tuple[list[float], list[tuple[float, float]]]:
    """Parking-to-plane lead-time law as (weights, segments_days).

    Each supplier rank contributes its `plane_segments` segment, weighted
    by its `supply_probabilities` probability.
    """
    return supply_probabilities(p_av, strategy.n_parking), plane_segments(
        strategy.n_parking, strategy.h_parking_km, cfg, consts
    )


def parking_stage(
    k_s: int, k_q: int, lam_parking: float, lp: LaunchParams
) -> tuple[float, float]:
    """Parking echelon of `evaluate_strategy`: (shortage in batches, availability).

    Raises:
        UndefinedAvailabilityError: If the parking policy is so undersized
            that availability is undefined or zero.
    """
    es_parking = leadtime_expected_shortage(k_s, lam_parking, lp)
    p_av = parking_availability(es_parking, k_q)
    if p_av == 0.0:
        raise UndefinedAvailabilityError(
            "parking availability is zero: no supplier rank distribution"
        )
    return es_parking, p_av


def plane_stage(
    s_plane: int,
    n_parking: int,
    h_parking_km: float,
    cfg: ConstellationConfig,
    consts: EarthConstants,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Plane echelon of `evaluate_strategy`, per supplier rank.

    Returns (shortages, spans): the plane's expected shortage over each
    rank's lead-time segment, and lo + hi of that segment in days. The
    availability-dependent rank weights are applied by the caller.
    """
    segments = plane_segments(n_parking, h_parking_km, cfg, consts)
    lam_plane = plane_demand_rate(cfg)
    # A uniform segment of days is a demand mean uniform on the rate-scaled
    # segment; at a zero rate every segment collapses to a point.
    if lam_plane > 0.0:
        shortages = tuple(
            segment_shortages(s_plane, [(lam_plane * lo, lam_plane * hi) for lo, hi in segments])
        )
    else:
        shortages = (0.0,) * n_parking
    return shortages, tuple(lo + hi for lo, hi in segments)


# Entries per stage table. A GA's reuse is mostly recent: on the bundled
# search, 256 entries catch nearly all the hits an unbounded table does.
STAGE_MEMO_SIZE = 256


class StageMemo:
    """Recent results of `evaluate_strategy`'s two stages, for one search.

    Each stage keeps its last STAGE_MEMO_SIZE distinct argument tuples in a
    least-recently-used table. The keys hold every argument of the stage,
    so a memo never mixes problems up. A stage that raises stores nothing
    and raises again on the next visit. Build one per search and drop it
    with the search, so that no search reuses another's work.
    """

    def __init__(self) -> None:
        self.parking = functools.lru_cache(STAGE_MEMO_SIZE)(parking_stage)
        self.plane = functools.lru_cache(STAGE_MEMO_SIZE)(plane_stage)


def evaluate_strategy(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    lp: LaunchParams,
    consts: EarthConstants = WGS84,
    memo: StageMemo | None = None,
) -> PolicyMetrics:
    """Full feed-forward evaluation of one strategy.

    Order of computation: plane demand, parking demand, the parking stage
    (shortage and availability), supplier-rank weights, the plane stage
    (per-rank shortages and lead-time segments), then fill rates and stocks
    for both echelons. A ``memo`` serves both stages from its tables; the
    results are the same with or without one.

    Raises:
        ValueError: If the parking orbit is not below the constellation.
        UndefinedAvailabilityError: If the parking policy is so undersized
            that availability is undefined or zero.
    """
    if strategy.h_parking_km >= cfg.h_plane_km:
        raise ValueError(
            f"parking altitude {strategy.h_parking_km} km must be below "
            f"plane altitude {cfg.h_plane_km} km"
        )
    parking, plane = (parking_stage, plane_stage) if memo is None else (memo.parking, memo.plane)
    lam_plane = plane_demand_rate(cfg)
    # Outside the parking stage, so that its few-planes warning is given on
    # every evaluation.
    lam_parking = parking_demand_rate(cfg, strategy)

    es_parking, p_av = parking(strategy.k_s_parking, strategy.k_q_parking, lam_parking, lp)
    weights = supply_probabilities(p_av, strategy.n_parking)
    shortages, spans = plane(
        strategy.s_plane, strategy.n_parking, strategy.h_parking_km, cfg, consts
    )
    es_plane = sum(w * a for w, a in zip(weights, shortages))
    lt_plane = sum(w * span / 2.0 for w, span in zip(weights, spans))
    lt_parking = lp.pt_launch_days + lp.mu_launch_days

    return PolicyMetrics(
        lambda_plane_per_day=lam_plane,
        lambda_parking_batches_per_day=lam_parking,
        p_av=p_av,
        es_plane=es_plane,
        es_parking_batches=es_parking,
        rho_plane=fill_rate(es_plane, strategy.q_plane),
        rho_parking=p_av,
        mean_stock_plane=mean_stock(
            SQPolicy(strategy.s_plane, strategy.q_plane), lam_plane * lt_plane
        ),
        mean_stock_parking_batches=mean_stock(
            SQPolicy(strategy.k_s_parking, strategy.k_q_parking), lam_parking * lt_parking
        ),
        e_leadtime_plane_days=lt_plane,
        e_leadtime_parking_days=lt_parking,
        neglected_supply_mass=(1.0 - p_av) ** strategy.n_parking,
    )


def evaluate_inplane_only(
    cfg: ConstellationConfig, policy: SQPolicy, lp: LaunchParams
) -> PolicyMetrics:
    """Evaluate the baseline strategy with no parking echelon.

    Planes order straight from the ground, so the plane lead time is the
    launch law itself. Parking fields are reported as an ideal pass-through
    (availability 1, no stock).

    Raises:
        ValueError: If the order quantity exceeds the launch capacity.
    """
    if policy.order_quantity_q > lp.cap_launch:
        raise ValueError(
            f"order quantity {policy.order_quantity_q} exceeds launch "
            f"capacity {lp.cap_launch}"
        )
    lam_plane = plane_demand_rate(cfg)
    lt = lp.pt_launch_days + lp.mu_launch_days
    es = leadtime_expected_shortage(policy.reorder_point_s, lam_plane, lp)
    return PolicyMetrics(
        lambda_plane_per_day=lam_plane,
        lambda_parking_batches_per_day=0.0,
        p_av=1.0,
        es_plane=es,
        es_parking_batches=0.0,
        rho_plane=fill_rate(es, policy.order_quantity_q),
        rho_parking=1.0,
        mean_stock_plane=mean_stock(policy, lam_plane * lt),
        mean_stock_parking_batches=0.0,
        e_leadtime_plane_days=lt,
        e_leadtime_parking_days=0.0,
        neglected_supply_mass=0.0,
    )
