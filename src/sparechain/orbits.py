"""Circular-orbit mechanics for constellation spare logistics.

Covers the three pieces of orbital dynamics the supply chain depends on:
nodal regression rates under Earth oblateness (which make parking planes
sweep past constellation planes), Hohmann transfers between co-planar
circular orbits (which set fuel mass and flight time for a resupply
maneuver), and the drift wait until a parking plane aligns with a target
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class EarthConstants:
    """Gravitational parameter, equatorial radius, and oblateness coefficient."""

    mu_km3_s2: float = 398600.4418
    r_earth_km: float = 6378.137
    j2: float = 0.00108263

    def __post_init__(self) -> None:
        if self.mu_km3_s2 <= 0 or self.r_earth_km <= 0 or self.j2 <= 0:
            raise ValueError("Earth constants must be strictly positive")


#: Default WGS-84-consistent constants.
WGS84 = EarthConstants()


@dataclass(frozen=True)
class CircularOrbit:
    """A circular orbit described by altitude above the mean equatorial radius.

    Attributes:
        altitude_km: Altitude above the Earth surface, km.
        inclination_deg: Orbital inclination, degrees in [0, 180].
    """

    altitude_km: float
    inclination_deg: float

    def __post_init__(self) -> None:
        if self.altitude_km <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude_km}")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(
                f"inclination must be in [0, 180] degrees, got {self.inclination_deg}"
            )

    def semimajor_axis_km(self, consts: EarthConstants = WGS84) -> float:
        return consts.r_earth_km + self.altitude_km


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a two-impulse transfer between co-planar circular orbits.

    Attributes:
        delta_v_km_s: Total impulsive velocity change, km/s.
        fuel_mass_kg: Propellant burned by a satellite of the given dry mass.
        time_of_flight_days: Half-period of the transfer ellipse, days.
    """

    delta_v_km_s: float
    fuel_mass_kg: float
    time_of_flight_days: float


def raan_drift_rate(orbit: CircularOrbit, consts: EarthConstants = WGS84) -> float:
    """Nodal regression rate of a circular orbit due to Earth oblateness.

    Args:
        orbit: The orbit of interest.
        consts: Gravitational and shape constants.

    Returns:
        dRAAN/dt in rad/day. Negative (westward regression) for
        inclinations below 90 degrees, exactly zero for polar orbits.
    """
    # cos(radians(90)) is about 6e-17, not 0: a polar orbit would drift.
    if orbit.inclination_deg == 90.0:
        return 0.0
    a = orbit.semimajor_axis_km(consts)
    n = math.sqrt(consts.mu_km3_s2 / a**3)  # rad/s
    rate_rad_s = (
        -(3.0 * n * consts.r_earth_km**2 * consts.j2 / (2.0 * a**2))
        * math.cos(math.radians(orbit.inclination_deg))
    )
    return rate_rad_s * SECONDS_PER_DAY


def _time_of_flight_days(a0: float, a1: float, mu: float) -> float:
    """Half-period of the transfer ellipse between radii a0 and a1, days."""
    return math.pi * math.sqrt((a0 + a1) ** 3 / (8.0 * mu)) / SECONDS_PER_DAY


def hohmann_transfer(
    origin: CircularOrbit,
    target: CircularOrbit,
    m_dry_kg: float,
    v_exhaust_km_s: float,
    consts: EarthConstants = WGS84,
) -> TransferResult:
    """Raising Hohmann transfer between two co-planar circular orbits.

    Args:
        origin: Lower orbit (departure).
        target: Higher orbit (arrival); must share the origin inclination.
        m_dry_kg: Satellite dry mass.
        v_exhaust_km_s: Effective exhaust velocity of the propulsion system.
        consts: Gravitational constants.

    Returns:
        TransferResult with the total delta-v, the propellant mass from the
        rocket equation, and the half-ellipse time of flight in days.

    Raises:
        ValueError: If the transfer would lower the orbit, if the
            inclinations differ (plane changes are out of scope), or if the
            dry mass or the exhaust velocity is out of range or not finite.
    """
    if origin.altitude_km > target.altitude_km:
        raise ValueError(
            "only raising transfers are supported: "
            f"{origin.altitude_km} km -> {target.altitude_km} km"
        )
    if origin.inclination_deg != target.inclination_deg:
        raise ValueError(
            "transfer requires co-planar orbits, got inclinations "
            f"{origin.inclination_deg} and {target.inclination_deg}"
        )
    # Written so that NaN fails too: every comparison with NaN is False.
    if not 0.0 <= m_dry_kg < math.inf:
        raise ValueError(f"m_dry_kg must be finite and nonnegative, got {m_dry_kg}")
    if not 0.0 < v_exhaust_km_s < math.inf:
        raise ValueError(f"v_exhaust_km_s must be positive and finite, got {v_exhaust_km_s}")

    mu = consts.mu_km3_s2
    a0 = origin.semimajor_axis_km(consts)
    a1 = target.semimajor_axis_km(consts)
    dv1 = math.sqrt(mu / a0) * (math.sqrt(2.0 * a1 / (a0 + a1)) - 1.0)
    dv2 = math.sqrt(mu / a1) * (1.0 - math.sqrt(2.0 * a0 / (a0 + a1)))
    delta_v = dv1 + dv2
    fuel = m_dry_kg * (math.exp(delta_v / v_exhaust_km_s) - 1.0)
    return TransferResult(
        delta_v_km_s=delta_v,
        fuel_mass_kg=fuel,
        time_of_flight_days=_time_of_flight_days(a0, a1, mu),
    )


def transfer_time(
    delta_raan_rad: float,
    parking: CircularOrbit,
    plane: CircularOrbit,
    consts: EarthConstants = WGS84,
) -> float:
    """Total resupply delay for a given nodal separation.

    The parking orbit regresses at a different rate than the constellation
    plane, so the separation closes linearly with time; once aligned, the
    spare performs the Hohmann flight.

    Args:
        delta_raan_rad: Angle the parking plane must still drift, rad in [0, 2pi].
        parking: Lower storage orbit.
        plane: Target constellation orbit.
        consts: Gravitational constants.

    Returns:
        Drift wait plus time of flight, days.

    Raises:
        ValueError: If the separation is outside [0, 2pi], the parking orbit
            is not below the plane, or the relative drift rate vanishes
            (alignment would never occur).
    """
    if not 0.0 <= delta_raan_rad <= 2.0 * math.pi:
        raise ValueError(f"delta RAAN must be in [0, 2pi], got {delta_raan_rad}")
    if parking.altitude_km >= plane.altitude_km:
        raise ValueError("parking orbit must be below the constellation plane")
    drift, tof_days = drift_and_flight(parking, plane, raan_drift_rate(plane, consts), consts)
    return delta_raan_rad / abs(drift) + tof_days


def drift_and_flight(
    parking: CircularOrbit,
    plane: CircularOrbit,
    plane_drift_rad_day: float,
    consts: EarthConstants = WGS84,
) -> tuple[float, float]:
    """Relative nodal drift (rad/day) and Hohmann flight time (days) to ``plane``.

    The drift is the parking orbit's nodal rate minus the plane's, signed:
    negative when the parking orbit regresses faster, as below a prograde
    plane. `transfer_time` and the chain's lead-time bounds wait on its
    magnitude; the simulator's ring also follows its direction.
    ``plane_drift_rad_day`` is ``raan_drift_rate(plane, consts)``, passed
    in so that a caller visiting many parking orbits computes it once.

    Raises:
        ValueError: If the relative drift rate vanishes.
    """
    relative = raan_drift_rate(parking, consts) - plane_drift_rad_day
    if relative == 0.0:
        raise ValueError("zero relative drift rate: planes never align")
    tof_days = _time_of_flight_days(
        parking.semimajor_axis_km(consts), plane.semimajor_axis_km(consts), consts.mu_km3_s2
    )
    return relative, tof_days
