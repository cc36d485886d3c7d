import math

import pytest

from sparechain.orbits import (
    WGS84,
    CircularOrbit,
    EarthConstants,
    hohmann_transfer,
    raan_drift_rate,
    transfer_time,
)

# Frozen references computed with a 40-digit mpmath pipeline, cast to float.
DRIFT_1200_50 = -0.0611421276394433
DRIFT_792_50 = -0.07419923796332077
DRIFT_700_50 = -0.07764129229814469
DRIFT_1200_0 = -0.09512026479362252
DV_700_1200 = 0.2517144690457531
FUEL_700_1200 = 18.53943710466358
TOF_700_1200_DAYS = 0.036129139021561396
DV_792_1200 = 0.2032937597888325
FUEL_792_1200 = 14.803322072641668
TOF_792_1200_DAYS = 0.03647096849199845
WAIT_120DEG_DAYS = 160.4391213591521  # 120 deg drift wait plus flight time

REL = 1e-12


def test_drift_rate_reference_values():
    assert raan_drift_rate(CircularOrbit(1200.0, 50.0)) == pytest.approx(DRIFT_1200_50, rel=REL)
    assert raan_drift_rate(CircularOrbit(792.3, 50.0)) == pytest.approx(DRIFT_792_50, rel=REL)
    assert raan_drift_rate(CircularOrbit(700.0, 50.0)) == pytest.approx(DRIFT_700_50, rel=REL)
    assert raan_drift_rate(CircularOrbit(1200.0, 0.0)) == pytest.approx(DRIFT_1200_0, rel=REL)


def test_drift_rate_signs_and_polar_limit():
    # prograde regresses, retrograde advances, polar is exactly zero
    assert raan_drift_rate(CircularOrbit(800.0, 30.0)) < 0
    assert raan_drift_rate(CircularOrbit(800.0, 150.0)) > 0
    assert raan_drift_rate(CircularOrbit(1200.0, 90.0)) == 0.0


def test_drift_rate_monotone_in_altitude():
    # magnitude falls as a**-3.5
    rates = [abs(raan_drift_rate(CircularOrbit(h, 50.0))) for h in (700.0, 900.0, 1200.0, 2000.0)]
    assert rates == sorted(rates, reverse=True)


def test_hohmann_reference_values():
    tr = hohmann_transfer(CircularOrbit(700.0, 50.0), CircularOrbit(1200.0, 50.0), 150.0, 2.16)
    assert tr.delta_v_km_s == pytest.approx(DV_700_1200, rel=REL)
    assert tr.fuel_mass_kg == pytest.approx(FUEL_700_1200, rel=REL)
    assert tr.time_of_flight_days == pytest.approx(TOF_700_1200_DAYS, rel=REL)
    tr = hohmann_transfer(CircularOrbit(792.3, 50.0), CircularOrbit(1200.0, 50.0), 150.0, 2.16)
    assert tr.delta_v_km_s == pytest.approx(DV_792_1200, rel=REL)
    assert tr.fuel_mass_kg == pytest.approx(FUEL_792_1200, rel=REL)
    assert tr.time_of_flight_days == pytest.approx(TOF_792_1200_DAYS, rel=REL)


def test_hohmann_zero_gap_is_free():
    tr = hohmann_transfer(CircularOrbit(800.0, 50.0), CircularOrbit(800.0, 50.0), 150.0, 2.16)
    assert tr.delta_v_km_s == 0.0
    assert tr.fuel_mass_kg == 0.0
    assert tr.time_of_flight_days > 0.0


def test_hohmann_rejects_bad_inputs():
    lo = CircularOrbit(700.0, 50.0)
    hi = CircularOrbit(1200.0, 50.0)
    with pytest.raises(ValueError):
        hohmann_transfer(hi, lo, 150.0, 2.16)  # lowering transfer
    with pytest.raises(ValueError):
        hohmann_transfer(lo, CircularOrbit(1200.0, 51.0), 150.0, 2.16)  # plane change
    with pytest.raises(ValueError, match="m_dry_kg"):
        hohmann_transfer(lo, hi, -1.0, 2.16)
    with pytest.raises(ValueError, match="v_exhaust_km_s"):
        hohmann_transfer(lo, hi, 150.0, 0.0)
    # A NaN mass used to give a NaN fuel mass, an infinite exhaust velocity
    # a free transfer.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="m_dry_kg"):
            hohmann_transfer(lo, hi, bad, 2.16)
        with pytest.raises(ValueError, match="v_exhaust_km_s"):
            hohmann_transfer(lo, hi, 150.0, bad)


def test_transfer_time_reference_value():
    parking = CircularOrbit(792.3, 50.0)
    plane = CircularOrbit(1200.0, 50.0)
    days = transfer_time(math.radians(120.0), parking, plane)
    assert days == pytest.approx(WAIT_120DEG_DAYS, rel=REL)


def test_transfer_time_zero_gap_is_flight_time_only():
    parking = CircularOrbit(792.3, 50.0)
    plane = CircularOrbit(1200.0, 50.0)
    assert transfer_time(0.0, parking, plane) == pytest.approx(TOF_792_1200_DAYS, rel=REL)


def test_transfer_time_linear_in_gap():
    parking = CircularOrbit(700.0, 50.0)
    plane = CircularOrbit(1200.0, 50.0)
    t1 = transfer_time(0.5, parking, plane)
    t2 = transfer_time(1.0, parking, plane)
    tof = t1 - (t2 - t1)  # extrapolate back to zero gap
    assert t2 - t1 == pytest.approx(0.5 / abs(DRIFT_700_50 - DRIFT_1200_50), rel=1e-9)
    assert tof == pytest.approx(TOF_700_1200_DAYS, rel=1e-6)


def test_transfer_time_rejects_bad_inputs():
    parking = CircularOrbit(792.3, 50.0)
    plane = CircularOrbit(1200.0, 50.0)
    with pytest.raises(ValueError):
        transfer_time(-0.1, parking, plane)
    with pytest.raises(ValueError):
        transfer_time(7.0, parking, plane)  # above 2*pi
    with pytest.raises(ValueError):
        transfer_time(1.0, plane, parking)  # parking must sit below the plane
    with pytest.raises(ValueError):
        # equal altitudes never align
        transfer_time(1.0, CircularOrbit(1200.0, 50.0), plane)


def test_constants_validation():
    with pytest.raises(ValueError):
        EarthConstants(mu_km3_s2=-1.0, r_earth_km=6378.137, j2=0.001)
    with pytest.raises(ValueError):
        CircularOrbit(-5.0, 50.0)
    with pytest.raises(ValueError):
        CircularOrbit(800.0, 181.0)
    # Every comparison with NaN is False; each non-finite input must still
    # fail, naming its field.
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("mu_km3_s2", "r_earth_km", "j2"):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                EarthConstants(**{name: bad})
        with pytest.raises(ValueError, match="^altitude must be positive"):
            CircularOrbit(bad, 50.0)
        with pytest.raises(ValueError, match="^inclination must be in"):
            CircularOrbit(800.0, bad)


def test_semimajor_axis():
    orbit = CircularOrbit(1200.0, 50.0)
    assert orbit.semimajor_axis_km(WGS84) == pytest.approx(6378.137 + 1200.0, rel=0)
