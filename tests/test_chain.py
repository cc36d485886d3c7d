import dataclasses
import itertools
import math
from collections import Counter
from typing import get_type_hints

import numpy as np
import pytest
from scipy import integrate

from sparechain.chain import (
    STRATEGY_BOUNDS,
    ConstellationConfig,
    LaunchParams,
    SpareStrategy,
    StageMemo,
    UndefinedAvailabilityError,
    evaluate_inplane_only,
    evaluate_strategy,
    leadtime_expected_shortage,
    parking_demand_rate,
    plane_demand_rate,
    altitude_stage,
    check_strategy_value,
    parking_stage,
    plane_bounds,
    plane_leadtime,
    plane_stage,
    supply_probabilities,
)
from sparechain.config import VariableBounds
from sparechain.inventory import SQPolicy, expected_shortage
from sparechain.orbits import CircularOrbit, raan_drift_rate, transfer_time

from case import CFG, LAUNCH, SAT, STRATEGY
from oracles import (
    enumerated_rank_probabilities,
    expected_shortage_mixture,
    poisson_shortage,
    segment_shortages,
    supply_probabilities_raw,
)


# References from an independent pipeline: adaptive quadrature
# (scipy.integrate.quad, epsabs default, 60 mean lifetimes) against the
# same demand-model formulas. The package uses exact closed forms, so
# agreement is to the reference's quadrature accuracy, not bitwise.
REF = {
    "lambda_plane_per_day": 0.005479452054794521,
    "lambda_parking_batches_per_day": 0.0182648401826484,
    "es_parking_batches": 0.03885461485913023,
    "p_av": 0.9951431731426087,
    "es_plane": 0.0035652844893579536,
    "e_leadtime_plane_days": 81.02059110112525,
    "e_leadtime_parking_days": 156.7,
    "rho_plane": 0.9991086788776605,
    "rho_parking": 0.9951431731426087,
    "mean_stock_plane": 5.0560515556102725,
    "mean_stock_parking_batches": 9.637899543378996,
    "neglected_supply_mass": 1.1456655768515844e-07,
}
REF_INPLANE = {
    "es_plane": 0.007179332766093916,
    "rho_plane": 0.9996410333616953,
    "mean_stock_plane": 13.641369863013699,
}


@pytest.mark.parametrize("rate", [math.inf, math.nan, -0.01])
def test_failure_rate_must_be_finite_and_nonnegative(rate):
    with pytest.raises(ValueError, match="failure rate must be finite and nonnegative"):
        ConstellationConfig(
            h_plane_km=1200.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=rate
        )


@pytest.mark.parametrize(
    "config, name", [(CFG, "n_plane"), (CFG, "n_sats"), (LAUNCH, "cap_launch")]
)
def test_config_counts_must_be_integers(config, name):
    # A float or a bool count is rejected by name at construction, not
    # carried to a late TypeError or a fractional count; numpy integers pass.
    value = getattr(config, name)
    for bad in (float(value), value + 0.5, True):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(config, **{name: bad})
    assert dataclasses.replace(config, **{name: np.int64(value)}) == config


def test_demand_rates():
    assert plane_demand_rate(CFG) == pytest.approx(40 * 0.05 / 365.0, rel=0)
    # batches of 4, pooled over 40 planes, split across 3 parking orbits
    assert parking_demand_rate(CFG, STRATEGY) == pytest.approx(
        40 * (40 * 0.05 / 365.0 / 4) / 3, rel=1e-15
    )


def test_small_constellation_warns():
    small = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=5, n_sats=40, lambda_sat_per_year=0.05
    )
    with pytest.warns(UserWarning):
        parking_demand_rate(small, STRATEGY)
    # The demand rate stays outside the memoized parking stage, so the
    # warning comes on a memo hit too.
    memo = StageMemo(small, LAUNCH)
    for _ in range(2):
        with pytest.warns(UserWarning):
            memo.figures(STRATEGY)
    assert memo.parking.cache_info().hits == 1


def test_case_study_metrics_match_independent_pipeline():
    metrics = evaluate_strategy(CFG, STRATEGY, LAUNCH)
    for name, ref in REF.items():
        assert getattr(metrics, name) == pytest.approx(ref, rel=1e-9), name


def test_stage_memo_matches_one_shot_evaluation():
    # One memo per constellation, a loaded and a zero-failure one, serves a
    # seeded sequence of strategies. Small value pools repeat both stage
    # keys. Every result must equal evaluate_strategy's, which builds a
    # fresh memo per call, and a strategy whose parking stage fails must
    # fail on every visit, since failures are not stored.
    rng = np.random.default_rng(20261018)
    configs = (CFG, dataclasses.replace(CFG, lambda_sat_per_year=0.0))
    memos = {cfg: StageMemo(cfg, LAUNCH) for cfg in configs}
    undefined = Counter()
    for _ in range(600):
        cfg = configs[int(rng.integers(2))]
        strategy = SpareStrategy(
            n_parking=int(rng.choice([1, 3, 7])),
            h_parking_km=float(rng.choice([700.0, 792.3, 999.0])),
            q_plane=int(rng.choice([1, 4])),
            s_plane=int(rng.choice([1, 3, 10])),
            k_q_parking=int(rng.choice([1, 8])),
            k_s_parking=int(rng.choice([1, 8])),
        )
        try:
            expected = evaluate_strategy(cfg, strategy, LAUNCH)
        except UndefinedAvailabilityError:
            with pytest.raises(UndefinedAvailabilityError):
                memos[cfg].figures(strategy)
            undefined[cfg, strategy] += 1
            continue
        assert memos[cfg].figures(strategy) == (expected, None)
    assert max(undefined.values()) >= 2
    for memo in memos.values():
        assert memo.parking.cache_info().hits > 0 and memo.plane.cache_info().hits > 0


def test_inplane_metrics_match_independent_pipeline():
    metrics = evaluate_inplane_only(CFG, SQPolicy(reorder_point_s=4, order_quantity_q=20), LAUNCH)
    for name, ref in REF_INPLANE.items():
        assert getattr(metrics, name) == pytest.approx(ref, rel=1e-9), name
    assert metrics.rho_parking == 1.0
    assert metrics.p_av == 1.0
    assert metrics.mean_stock_parking_batches == 0.0
    assert metrics.es_parking_batches == 0.0


def test_inplane_rejects_a_fractional_reorder_point():
    # It used to fail late, inside the shortage sum, with a TypeError.
    with pytest.raises(ValueError, match="reorder_point_s"):
        evaluate_inplane_only(CFG, SQPolicy(2.5, 3), LAUNCH)


def test_zero_failure_rate_is_perfect_service():
    quiet = dataclasses.replace(CFG, lambda_sat_per_year=0.0)
    metrics = evaluate_strategy(quiet, STRATEGY, LAUNCH)
    assert metrics.rho_plane == 1.0
    assert metrics.rho_parking == 1.0
    assert metrics.mean_stock_plane == pytest.approx(4 / 2 + 3 + 0.5, rel=0)
    assert metrics.mean_stock_parking_batches == pytest.approx(8 / 2 + 8 + 0.5, rel=0)


def test_leadtime_shortage_against_monte_carlo():
    # Rao-Blackwellized: sample the lead time, average the conditional
    # Poisson shortage; 1e6 draws pins the integral to well under 1%.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20260815)))
    n = 1_000_000

    tau = 90.0 + rng.exponential(66.7, size=n)
    mc = poisson_shortage(8, 0.0182648401826484 * tau).mean()
    exact = leadtime_expected_shortage(8, 0.0182648401826484, LAUNCH)
    assert exact == pytest.approx(mc, rel=0.01)

    rate = 0.005479452054794521
    weights, segments_days = plane_leadtime(STRATEGY, CFG, 0.9951431731426084)
    segments = np.array(segments_days)
    ranks = rng.choice(len(weights), size=n, p=np.array(weights))
    u = rng.random(n)
    tau = segments[ranks, 0] + u * (segments[ranks, 1] - segments[ranks, 0])
    mc = poisson_shortage(3, rate * tau).mean()
    demand_segments = [(rate * lo, rate * hi) for lo, hi in segments_days]
    exact = expected_shortage_mixture(3, weights, demand_segments)
    assert exact == pytest.approx(mc, rel=0.01)


# Demand means (rate * T) spanning near-certain service to deep backorder.
RATE = 0.02
UNIFORM_DEMAND_SEGMENTS = [
    (0.0, 1e-3),
    (0.02, 0.05),
    (0.1, 0.9),
    (0.0, 2.5),
    (1.5, 4.0),
    (3.0, 12.0),
    (10.0, 25.0),
    (30.0, 60.0),
    (59.0, 60.0),
]
SHIFT_DEMANDS = [0.0, 0.01, 0.5, 3.0, 20.0]
EXPONENTIAL_DEMANDS = [0.01, 0.3, 2.0, 10.0]


def _assert_matches_quadrature(got: float, ref: float) -> None:
    if ref < 1e-12:
        assert abs(got - ref) <= 1e-15
    else:
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("s", range(21))
def test_uniform_segment_shortage_against_adaptive_quadrature(s):
    for lo, hi in UNIFORM_DEMAND_SEGMENTS:
        lo_days, hi_days = lo / RATE, hi / RATE
        integral, _ = integrate.quad(
            lambda t: expected_shortage(s, RATE * t),
            lo_days,
            hi_days,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        ref = integral / (hi_days - lo_days)
        got = expected_shortage_mixture(s, (1.0,), [(RATE * lo_days, RATE * hi_days)])
        _assert_matches_quadrature(got, ref)


@pytest.mark.parametrize("s", range(21))
def test_shifted_exponential_shortage_against_adaptive_quadrature(s):
    for shift, scale in itertools.product(SHIFT_DEMANDS, EXPONENTIAL_DEMANDS):
        shift_days, scale_days = shift / RATE, scale / RATE
        launch = LaunchParams(mu_launch_days=scale_days, pt_launch_days=shift_days, cap_launch=1)
        ref, _ = integrate.quad(
            lambda x: expected_shortage(s, RATE * (shift_days + scale_days * x)) * math.exp(-x),
            0.0,
            math.inf,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        _assert_matches_quadrature(leadtime_expected_shortage(s, RATE, launch), ref)


def test_mixture_shortage_is_weighted_sum_of_segments():
    weights = (0.5, 0.3, 0.2)
    segments = [(0.05 * lo, 0.05 * hi) for lo, hi in ((10.0, 40.0), (40.0, 70.0), (70.0, 100.0))]
    parts = [expected_shortage_mixture(2, (1.0,), [seg]) for seg in segments]
    assert expected_shortage_mixture(2, weights, segments) == pytest.approx(
        sum(w * p for w, p in zip(weights, parts)), rel=1e-14
    )


def test_leadtime_shortage_zero_rate():
    assert leadtime_expected_shortage(3, 0.0, LAUNCH) == 0.0


def test_parking_availability_bounds(monkeypatch):
    # The availability 1 - ES/k_q must lie in (0, 1]; the stage raises at
    # zero availability and for a shortage outside [0, k_q).
    def stage_with(es):
        monkeypatch.setattr("sparechain.chain.leadtime_expected_shortage", lambda *args: es)
        return parking_stage(4, 8, 0.02, LAUNCH)

    assert stage_with(0.0) == (0.0, 1.0)
    assert stage_with(4.0) == (4.0, 0.5)
    for es in (8.0, 8.4, -0.1):
        with pytest.raises(UndefinedAvailabilityError, match=f"ES {es} and k_q 8 "):
            stage_with(es)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
@pytest.mark.parametrize("p", [0.05, 0.37, 0.5, 0.9951431731426084, 1.0])
def test_supply_probabilities_against_enumeration(n, p):
    raw = supply_probabilities_raw(p, n)
    brute = enumerated_rank_probabilities(p, n)
    for a, b in zip(raw, brute):
        assert a == pytest.approx(b, abs=1e-13)
    # total raw mass is exactly the chance anyone is available
    assert math.fsum(raw) == pytest.approx(1.0 - (1.0 - p) ** n, abs=1e-12)
    renorm = supply_probabilities(p, n)
    assert math.fsum(renorm) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_supply_probabilities_match_binomial_sum(n):
    for p in (1e-3, 0.05, 0.37, 0.5, 0.9951431731426084, 1.0):
        raw = supply_probabilities_raw(p, n)
        norm = 1.0 - (1.0 - p) ** n
        got = supply_probabilities(p, n)
        assert len(got) == n
        for g, r in zip(got, raw):
            assert g == pytest.approx(r / norm, rel=1e-13, abs=0.0)


def test_supply_probabilities_rejects_zero():
    with pytest.raises(ValueError):
        supply_probabilities_raw(0.0, 3)
    with pytest.raises(ValueError):
        supply_probabilities_raw(1.2, 3)
    with pytest.raises(ValueError):
        supply_probabilities(0.0, 3)
    with pytest.raises(ValueError):
        supply_probabilities(0.5, 0)


def test_plane_leadtime_segments_cover_full_ring():
    weights, segments = plane_leadtime(STRATEGY, CFG, 0.9951431731426084)
    assert len(weights) == len(segments) == 3
    # contiguous segments from flight-only up to a full sweep plus flight
    for (a_lo, a_hi), (b_lo, b_hi) in zip(segments, segments[1:]):
        assert a_hi == pytest.approx(b_lo, rel=0)
    rel_rate = 0.013057110323877463
    assert segments[-1][1] - segments[0][0] == pytest.approx(
        2 * math.pi / rel_rate, rel=1e-9
    )


@pytest.mark.parametrize("n_parking", [1, 2, 3, 7, 20])
@pytest.mark.parametrize("h_parking_km", [700.0, 850.0, 999.0])
@pytest.mark.parametrize("inclination_deg", [30.0, 50.0, 85.0])
def test_plane_leadtime_bounds_match_transfer_time(n_parking, h_parking_km, inclination_deg):
    cfg = ConstellationConfig(
        h_plane_km=1200.0,
        inclination_deg=inclination_deg,
        n_plane=40,
        n_sats=40,
        lambda_sat_per_year=0.05,
    )
    strategy = SpareStrategy(
        n_parking=n_parking,
        h_parking_km=h_parking_km,
        q_plane=4,
        s_plane=3,
        k_q_parking=8,
        k_s_parking=8,
    )
    _, segments = plane_leadtime(strategy, cfg, 0.9)
    bounds = [lo for lo, _ in segments] + [segments[-1][1]]
    parking = CircularOrbit(h_parking_km, inclination_deg)
    plane = CircularOrbit(1200.0, inclination_deg)
    spacing = 2.0 * math.pi / n_parking
    for i, bound in enumerate(bounds):
        assert bound == pytest.approx(transfer_time(i * spacing, parking, plane), rel=1e-12)


def test_plane_stage_matches_its_segments_one_at_a_time():
    # The one-pass stage shares each inner bound between two segments; it
    # must give, bit for bit, what each segment between two plane_bounds
    # gives alone.
    plane = CircularOrbit(1200.0, 50.0)
    plane_drift = raan_drift_rate(plane)
    rates = (0.0, plane_demand_rate(CFG), 0.05)
    for h_parking_km in (700.0, 792.3, 999.0):
        drift, tof, _ = altitude_stage(h_parking_km, plane, plane_drift, None)
        for n in range(1, 21):
            bounds = plane_bounds(n, drift, tof)
            segments = list(zip(bounds, bounds[1:]))
            means = tuple((lo + hi) / 2.0 for lo, hi in segments)
            for s in range(1, 11):
                for rate in rates:
                    if rate > 0.0:
                        expected = tuple(
                            segment_shortages(s, [(rate * lo, rate * hi)])[0] for lo, hi in segments
                        )
                    else:
                        expected = (0.0,) * n
                    assert plane_stage(s, n, rate, drift, tof) == (expected, means), (
                        h_parking_km, n, s, rate
                    )


def test_strategy_validation_and_derived_quantities():
    assert STRATEGY.q_parking == 32
    assert dataclasses.astuple(STRATEGY) == (3, 792.3, 4, 3, 8, 8)
    with pytest.raises(ValueError):
        SpareStrategy(
            n_parking=0, h_parking_km=792.3, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
        )
    with pytest.raises(ValueError):
        SpareStrategy(
            n_parking=3, h_parking_km=600.0, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
        )
    with pytest.raises(ValueError):
        SpareStrategy(
            n_parking=3, h_parking_km=792.3, q_plane=11, s_plane=3, k_q_parking=8, k_s_parking=8
        )
    with pytest.raises(ValueError, match="n_parking"):
        SpareStrategy(2.5, 800.0, 4, 3, 8, 8)
    with pytest.raises(ValueError, match="n_parking"):
        SpareStrategy(True, 800.0, 4, 3, 8, 8)
    with pytest.raises(ValueError, match="k_s_parking"):
        SpareStrategy(3, 800.0, 4, 3, 8, 8.0)


VALID_GENES = dict(
    n_parking=3, h_parking_km=800.0, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
)


def _bad_values(name):
    lo, hi = STRATEGY_BOUNDS[name]
    if isinstance(lo, int):
        return [lo - 1, hi + 1, float(lo), 2.5, True, math.nan]
    return [lo - 1.0, hi + 1.0, math.nan, math.inf, True]


@pytest.mark.parametrize("name", list(STRATEGY_BOUNDS))
def test_strategy_and_bounds_name_the_offending_field(name):
    # The constructors accept the valid case in one compiled check; every
    # other value still reaches the per-field check that names the field.
    for bad in _bad_values(name):
        with pytest.raises(ValueError, match=name):
            SpareStrategy(**{**VALID_GENES, name: bad})
        lo, hi = STRATEGY_BOUNDS[name]
        with pytest.raises(ValueError, match=name):
            VariableBounds(**{name: (bad, hi)})
        with pytest.raises(ValueError, match=name):
            VariableBounds(**{name: (lo, bad)})


def test_strategy_fast_check_accepts_what_the_field_checks_accept():
    # Values on, inside and just outside every bound, of every numeric type
    # a caller may pass: the strategy is built exactly when every
    # check_strategy_value passes.
    rng = np.random.default_rng(20261020)
    valid, invalid = {}, {}
    for name, (lo, hi) in STRATEGY_BOUNDS.items():
        if isinstance(lo, int):
            # An open upper bound is tried at a large finite int.
            top = hi if hi < math.inf else 2**31 - 1
            valid[name] = [lo, top, np.int64(lo), np.int32(top)]
            invalid[name] = [lo - 1, hi + 1, float(top), True, False, math.nan]
        else:
            valid[name] = [lo, hi, (lo + hi) / 2, int(hi), np.float64(lo)]
            invalid[name] = [lo - 1e-9, hi + 1e-9, math.nan, -math.inf]
    built = 0
    for _ in range(2000):
        genes = {}
        for name in STRATEGY_BOUNDS:
            pool = valid[name] if rng.random() < 0.7 else invalid[name]
            genes[name] = pool[int(rng.integers(len(pool)))]
        try:
            for name, value in genes.items():
                check_strategy_value(name, value)
        except ValueError:
            with pytest.raises(ValueError):
                SpareStrategy(**genes)
            continue
        assert dataclasses.astuple(SpareStrategy(**genes)) == tuple(genes.values())
        built += 1
    assert 100 < built < 1900, built


def test_strategy_bounds_follow_the_strategy_fields():
    hints = get_type_hints(SpareStrategy)
    assert list(STRATEGY_BOUNDS) == [f.name for f in dataclasses.fields(SpareStrategy)]
    for name, (lo, hi) in STRATEGY_BOUNDS.items():
        # math.inf stands for an open upper bound.
        assert type(lo) is hints[name], name
        assert type(hi) is hints[name] or hi == math.inf, name


def test_evaluate_rejects_parking_above_plane():
    low = ConstellationConfig(
        h_plane_km=1000.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.05
    )
    high_parking = SpareStrategy(
        n_parking=3, h_parking_km=1000.0, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
    )
    with pytest.raises(ValueError):
        evaluate_strategy(low, high_parking, LAUNCH)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["mu_launch_days", "pt_launch_days", "m_dry_kg", "v_exhaust_km_s"])
def test_launch_and_satellite_params_reject_non_finite_values(name, bad):
    params = LAUNCH if hasattr(LAUNCH, name) else SAT
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(params, **{name: bad})
