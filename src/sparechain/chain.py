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

A `StageMemo` evaluates the two-echelon chain of one problem in three
pure stages: the parking stage depends only on the parking policy and its
demand rate, the altitude stage only on the parking altitude, and the
plane stage only on the parking ring, its orbit figures and the plane
reorder point. The plane stage builds the ring's bounds once and takes one
shortage kernel call per bound. The memo computes what depends on the
problem alone once and keys its stage tables on numbers only; it keeps
every parking result and the recent altitude and plane results (those two
tables stay bounded: unbounded as well, they raised the peak memory of
three bundled searches from 40.6 to 48.3 MiB). A search builds one memo;
`evaluate_strategy` builds a one-use memo.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .inventory import (
    SQPolicy,
    bound_shortages,
    check_integer,
    expected_shortage_geometric,
    fill_rate,
    mean_stock,
)
from .orbits import (
    WGS84,
    CircularOrbit,
    EarthConstants,
    TransferResult,
    check_earth,
    drift_and_flight,
    hohmann_transfer,
    raan_drift_rate,
    transfer_time,  # unused here; bench/test_bench.py traces it as chain.transfer_time
)

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
        check_integer("n_plane", self.n_plane)
        check_integer("n_sats", self.n_sats)
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


# What a spare strategy may be, (lo, hi) per SpareStrategy field in field
# order, enforced at construction; where the searches look is
# `config.VariableBounds`. A float lo marks the one real-valued variable.
STRATEGY_BOUNDS = {
    "n_parking": (1, 20),
    "h_parking_km": (700.0, 1000.0),
    "q_plane": (1, 10),
    "s_plane": (1, math.inf),
    "k_q_parking": (1, 10),
    "k_s_parking": (1, math.inf),
}


def conjunction(conditions: list[str]) -> Callable[[object], bool]:
    """A predicate of one object ``o`` that holds when every condition does.

    The conditions are Python expressions in ``o`` (``inf`` is math.inf),
    compiled into one ``and`` chain: a constructor's check of the valid
    case without a call per field.
    """
    return eval(f"lambda o: {' and '.join(conditions)}", {"inf": math.inf})


def check_strategy_value(name: str, value) -> None:
    """Raise ValueError unless ``value`` fits ``STRATEGY_BOUNDS[name]``.

    A field with integer bounds takes only integers; a float or a bool
    there is rejected, not truncated.
    """
    lo, hi = STRATEGY_BOUNDS[name]
    if isinstance(lo, int):
        check_integer(name, value)
    if not lo <= value <= hi:
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


# The valid strategy in one chain: each integer field an int, each field
# within its bounds. Anything else goes to check_strategy_value, which
# names the field.
_STRATEGY_IN_BOUNDS = conjunction(
    [f"type(o.{name}) is int" for name, (lo, _) in STRATEGY_BOUNDS.items() if isinstance(lo, int)]
    + [f"{lo!r} <= o.{name} <= {hi!r}" for name, (lo, hi) in STRATEGY_BOUNDS.items()]
)


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
        if not _STRATEGY_IN_BOUNDS(self):
            for name in STRATEGY_BOUNDS:
                check_strategy_value(name, getattr(self, name))

    @property
    def q_parking(self) -> int:
        """Parking order quantity in satellites."""
        return self.k_q_parking * self.q_plane


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
        for name in ("mu_launch_days", "pt_launch_days"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.mu_launch_days <= 0 or self.pt_launch_days < 0:
            raise ValueError("launch wait must be positive and processing time nonnegative")
        check_integer("cap_launch", self.cap_launch)
        if self.cap_launch < 1:
            raise ValueError(f"launch capacity must be >= 1, got {self.cap_launch}")


@dataclass(frozen=True)
class SatelliteParams:
    """Mass and propulsion figures of one spare satellite."""

    m_dry_kg: float
    v_exhaust_km_s: float

    def __post_init__(self) -> None:
        for name in ("m_dry_kg", "v_exhaust_km_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


class PolicyMetrics(NamedTuple):
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


class ParkingAltitudeError(ValueError):
    """The parking orbit is not below the constellation planes."""


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
    return [p_av * miss**i / norm for i in range(n_parking)]


def plane_bounds(n_parking: int, drift: float, tof: float) -> list[float]:
    """Drift-plus-flight days at the n_parking + 1 ring bounds, closest first.

    The i-th closest parking orbit sits between (i-1) and i ring spacings
    of nodal separation, uniformly for a randomly timed order, so each rank
    contributes one uniform segment between consecutive bounds. The
    transfer time is affine in the nodal gap, gap / |drift| + tof
    (`orbits.drift_and_flight`), so two evaluations, with
    `orbits.transfer_time`'s float operations, give every bound.
    """
    drift = abs(drift)
    spacing = 2.0 * math.pi / n_parking
    first = 0.0 / drift + tof
    step = (spacing / drift + tof) - first
    return [first + i * step for i in range(n_parking + 1)]


def plane_leadtime(
    strategy: SpareStrategy, cfg: ConstellationConfig, p_av: float
) -> tuple[list[float], list[tuple[float, float]]]:
    """Parking-to-plane lead-time law as (weights, segments_days).

    Each supplier rank contributes the segment between its two
    `plane_bounds`, weighted by its `supply_probabilities` probability.
    """
    plane = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
    drift, tof, _ = altitude_stage(strategy.h_parking_km, plane, raan_drift_rate(plane), None)
    bounds = plane_bounds(strategy.n_parking, drift, tof)
    return supply_probabilities(p_av, strategy.n_parking), list(zip(bounds, bounds[1:]))


def parking_stage(
    k_s: int, k_q: int, lam_parking: float, lp: LaunchParams
) -> tuple[float, float]:
    """Parking echelon of `StageMemo.figures`: (shortage in batches, availability).

    The availability, the probability that an arriving order finds the
    parking orbit stocked, is the parking fill rate 1 - ES/k_q.

    Raises:
        UndefinedAvailabilityError: If the availability is not in (0, 1]:
            the parking policy is so undersized that no supplier rank
            distribution exists.
    """
    es_parking = leadtime_expected_shortage(k_s, lam_parking, lp)
    p_av = 1.0 - es_parking / k_q
    if not 0.0 < p_av <= 1.0:
        raise UndefinedAvailabilityError(
            f"parking availability 1 - ES/k_q with ES {es_parking} and k_q {k_q} "
            "is outside (0, 1]: no supplier rank distribution"
        )
    return es_parking, p_av


def altitude_stage(
    h_parking_km: float,
    plane: CircularOrbit,
    plane_drift: float,
    satellite: SatelliteParams | None,
) -> tuple[float, float, TransferResult | None]:
    """(drift, tof, transfer) of one parking altitude below the ``plane``.

    Drift and tof are `orbits.drift_and_flight`'s figures: the signed
    relative nodal drift, whose magnitude `plane_bounds` reads and whose
    direction the simulator's ring follows, and the flight time. Transfer
    is the Hohmann raise of ``satellite`` (None without one) for the
    maneuvering cost. ``plane_drift`` is the plane's own nodal drift rate.
    The chain and the simulator both set up their parking orbit here.
    """
    parking = CircularOrbit(h_parking_km, plane.inclination_deg)
    drift, tof = drift_and_flight(parking, plane, plane_drift)
    if satellite is None:
        return drift, tof, None
    transfer = hohmann_transfer(parking, plane, satellite.m_dry_kg, satellite.v_exhaust_km_s)
    return drift, tof, transfer


def plane_stage(
    s_plane: int, n_parking: int, lam_plane: float, drift: float, tof: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Plane echelon of `StageMemo.figures`, per supplier rank.

    Returns (shortages, means): the plane's expected shortage over each
    rank's lead-time segment, and the segment's mean (lo + hi) / 2 in days.
    The segments lie between the `plane_bounds` of the altitude stage's
    ``drift`` and ``tof``, which are built and rate-scaled once; the
    availability-dependent rank weights are applied by the caller.
    """
    bounds = plane_bounds(n_parking, drift, tof)
    # A uniform segment of days is a demand mean uniform on the rate-scaled
    # segment; at a zero rate every segment collapses to a point.
    if lam_plane > 0.0:
        shortages = tuple(bound_shortages(s_plane, [lam_plane * b for b in bounds]))
    else:
        shortages = (0.0,) * n_parking
    return shortages, tuple([(lo + hi) / 2.0 for lo, hi in zip(bounds, bounds[1:])])


# Entries in the plane and altitude tables. On the bundled search 256
# entries catch nearly all the hits an unbounded table does (plane: 7 582
# misses for 7 536 distinct keys; altitude: 4 435 for 4 426). The parking
# table is unbounded instead: at 256 entries it missed 3 726 times against
# 2 550 distinct keys, and its key space is at most k_s x k_q x the
# distinct q * n_parking products. The other two stay bounded because
# unbounding all three raised the peak RSS of three bundled searches in one
# process from 40.6 to 48.3 MiB.
STAGE_MEMO_SIZE = 256


class StageMemo:
    """The two-echelon chain of one problem, with its three stages memoized.

    The problem is the constellation, the launch law and the satellite
    whose Hohmann raise is priced (None for none); the Earth is fixed in
    `orbits`. What depends on the problem alone (the plane demand rate,
    the ground lead time, the plane orbit and its drift rate) is computed
    once, at construction. The stage tables are keyed on the candidate's
    numbers only: the parking stage keeps every distinct key, the
    altitude and plane stages their
    last STAGE_MEMO_SIZE in a least-recently-used table. A stage that
    raises stores nothing and raises again on the next visit. A search
    builds one memo and drops it with the search, so that no search reuses
    another's work.
    """

    def __init__(
        self, cfg: ConstellationConfig, lp: LaunchParams, satellite: SatelliteParams | None = None
    ) -> None:
        self.cfg = cfg
        self.lam_plane = plane_demand_rate(cfg)  # satellites/day
        self.lt_parking = lp.pt_launch_days + lp.mu_launch_days  # days
        plane = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
        plane_drift = raan_drift_rate(plane)
        # The parking and altitude stage functions are looked up at call
        # time, so that a test can replace them on the module; plane_stage
        # is bound here, when the memo is built.
        self.parking = functools.lru_cache(None)(
            lambda k_s, k_q, lam_parking: parking_stage(k_s, k_q, lam_parking, lp)
        )
        self.altitude = functools.lru_cache(STAGE_MEMO_SIZE)(
            lambda h_parking_km: altitude_stage(h_parking_km, plane, plane_drift, satellite)
        )
        self.plane = functools.lru_cache(STAGE_MEMO_SIZE)(plane_stage)

    def figures(self, strategy: SpareStrategy) -> tuple[PolicyMetrics, TransferResult | None]:
        """Metrics of one strategy, and the Hohmann raise of the memo's satellite.

        Order of computation: parking demand, the parking stage (shortage and
        availability), supplier-rank weights, the altitude stage (orbit
        figures and transfer), the plane stage (per-rank shortages and
        lead-time segments), then fill rates and stocks for both echelons.

        Raises:
            ParkingAltitudeError: If the parking orbit is not below the constellation.
            UndefinedAvailabilityError: If the parking policy is so undersized
                that availability is undefined or zero.
        """
        cfg = self.cfg
        if strategy.h_parking_km >= cfg.h_plane_km:
            raise ParkingAltitudeError(
                f"parking altitude {strategy.h_parking_km} km must be below "
                f"plane altitude {cfg.h_plane_km} km"
            )
        lam_plane, lt_parking = self.lam_plane, self.lt_parking
        n, q, s = strategy.n_parking, strategy.q_plane, strategy.s_plane
        k_q, k_s = strategy.k_q_parking, strategy.k_s_parking
        # Outside the parking stage, so that its few-planes warning is given on
        # every evaluation.
        lam_parking = parking_demand_rate(cfg, strategy)

        es_parking, p_av = self.parking(k_s, k_q, lam_parking)
        weights = supply_probabilities(p_av, n)
        drift, tof, transfer = self.altitude(strategy.h_parking_km)
        shortages, means = self.plane(s, n, lam_plane, drift, tof)
        es_plane = sum(map(operator.mul, weights, shortages))
        # Halving is exact, so w * ((lo + hi) / 2) equals (w * (lo + hi)) / 2.
        lt_plane = sum(map(operator.mul, weights, means))

        # Positional, in field order: a search builds one per candidate.
        metrics = PolicyMetrics(
            lam_plane,  # lambda_plane_per_day
            lam_parking,  # lambda_parking_batches_per_day
            p_av,  # p_av
            es_plane,  # es_plane
            es_parking,  # es_parking_batches
            fill_rate(es_plane, q),  # rho_plane
            p_av,  # rho_parking
            mean_stock(s, q, lam_plane * lt_plane),  # mean_stock_plane
            mean_stock(k_s, k_q, lam_parking * lt_parking),  # mean_stock_parking_batches
            lt_plane,  # e_leadtime_plane_days
            lt_parking,  # e_leadtime_parking_days
            (1.0 - p_av) ** n,  # neglected_supply_mass
        )
        return metrics, transfer


def evaluate_strategy(
    cfg: ConstellationConfig,
    strategy: SpareStrategy,
    lp: LaunchParams,
    consts: EarthConstants = WGS84,
) -> PolicyMetrics:
    """Full feed-forward evaluation of one strategy; see `StageMemo.figures`.

    ``consts`` must be `WGS84`; it stays only for bench/run.py's call.
    """
    check_earth(consts)
    return StageMemo(cfg, lp).figures(strategy)[0]


def evaluate_inplane_only(
    cfg: ConstellationConfig, policy: SQPolicy, lp: LaunchParams
) -> PolicyMetrics:
    """Evaluate the baseline strategy with no parking echelon.

    Planes order straight from the ground, so the plane lead time is the
    launch law itself. Parking fields are reported as an ideal pass-through
    (availability 1, no stock). The launch capacity is not read here:
    `costs.tessac_inplane_only` rejects a batch that exceeds it.
    """
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
        mean_stock_plane=mean_stock(
            policy.reorder_point_s, policy.order_quantity_q, lam_plane * lt
        ),
        mean_stock_parking_batches=0.0,
        e_leadtime_plane_days=lt,
        e_leadtime_parking_days=0.0,
        neglected_supply_mass=0.0,
    )
