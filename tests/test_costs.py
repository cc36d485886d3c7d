import dataclasses
import math

import numpy as np
import pytest

from sparechain import simulator
from sparechain.config import child_seed
from sparechain.chain import (
    DAYS_PER_YEAR,
    SpareStrategy,
    StageMemo,
    evaluate_inplane_only,
    evaluate_strategy,
)
from sparechain.costs import (
    CostBreakdown,
    CostParams,
    annual_cost,
    evaluate_design,
    launch_price,
    tessac,
    tessac_inplane_only,
)
from sparechain.inventory import SQPolicy
from sparechain.orbits import CircularOrbit, hohmann_transfer

from case import CFG, COSTS, LAUNCH, SAT, STRATEGY


# Independent-pipeline references for the two reference strategies.
REF_MULTI = {
    "manufacturing": 40.0,
    "holding": 158.94842837247944,
    "launch": 119.0,
    "maneuvering": 1.1842657658113318,
    "tessac": 319.1326941382908,
}
REF_INPLANE = {
    "manufacturing": 40.0,
    "holding": 272.827397260274,
    "launch": 190.4,
    "maneuvering": 0.0,
    "tessac": 503.22739726027396,
}


def _transfer():
    return hohmann_transfer(
        CircularOrbit(792.3, 50.0), CircularOrbit(1200.0, 50.0), SAT.m_dry_kg, SAT.v_exhaust_km_s
    )


def test_launch_price_batch_discount():
    # a full rocket beats per-unit pricing once the batch is big enough
    assert launch_price(4, COSTS) == pytest.approx(40.0, rel=0)
    assert launch_price(5, COSTS) == pytest.approx(47.6, rel=0)
    assert launch_price(34, COSTS) == pytest.approx(47.6, rel=0)
    assert launch_price(1, COSTS) == pytest.approx(10.0, rel=0)


def test_launch_price_capacity_is_optional():
    # uncapped pricing admits oversized batches (the cap is a constraint
    # of the optimization, not of the tariff)
    assert launch_price(100, COSTS) == pytest.approx(47.6, rel=0)
    with pytest.raises(ValueError):
        launch_price(0, COSTS)


def test_case_study_cost_breakdown():
    metrics = evaluate_strategy(CFG, STRATEGY, LAUNCH)
    breakdown = tessac(CFG, STRATEGY, metrics, _transfer(), COSTS, LAUNCH)
    for name, ref in REF_MULTI.items():
        got = breakdown.tessac if name == "tessac" else getattr(breakdown, name)
        assert got == pytest.approx(ref, rel=1e-9), name
    # manufacturing and launch are exact closed forms here
    assert breakdown.manufacturing == 40.0
    assert breakdown.launch == 119.0


def test_polar_constellation_is_rejected():
    # Polar planes and parking orbits do not drift, so no parking orbit ever
    # aligns with a plane: there is no lead time to price.
    polar = dataclasses.replace(CFG, inclination_deg=90.0)
    with pytest.raises(ValueError, match="^zero relative drift rate: planes never align$"):
        evaluate_design(polar, STRATEGY, LAUNCH, COSTS, SAT)


def test_inplane_cost_breakdown():
    policy = SQPolicy(reorder_point_s=4, order_quantity_q=20)
    metrics = evaluate_inplane_only(CFG, policy, LAUNCH)
    breakdown = tessac_inplane_only(CFG, policy, metrics, COSTS, LAUNCH)
    for name, ref in REF_INPLANE.items():
        got = breakdown.tessac if name == "tessac" else getattr(breakdown, name)
        assert got == pytest.approx(ref, rel=1e-9), name
    assert breakdown.maneuvering == 0.0


def test_inplane_cost_rejects_oversized_batch():
    policy = SQPolicy(reorder_point_s=4, order_quantity_q=35)
    metrics = evaluate_inplane_only(CFG, SQPolicy(reorder_point_s=4, order_quantity_q=20), LAUNCH)
    with pytest.raises(ValueError):
        tessac_inplane_only(CFG, policy, metrics, COSTS, LAUNCH)


def test_oversized_parking_batch_is_priced_not_rejected():
    wide = SpareStrategy(
        n_parking=3, h_parking_km=792.3, q_plane=10, s_plane=3, k_q_parking=10, k_s_parking=8
    )
    metrics = evaluate_strategy(CFG, wide, LAUNCH)
    breakdown = tessac(CFG, wide, metrics, _transfer(), COSTS, LAUNCH)
    assert breakdown.tessac > 0.0  # 100-satellite batches still evaluate


def test_zero_failures_cost_is_holding_only():
    quiet = dataclasses.replace(CFG, lambda_sat_per_year=0.0)
    metrics = evaluate_strategy(quiet, STRATEGY, LAUNCH)
    breakdown = tessac(quiet, STRATEGY, metrics, _transfer(), COSTS, LAUNCH)
    assert breakdown.manufacturing == 0.0
    assert breakdown.launch == 0.0
    assert breakdown.maneuvering == 0.0
    assert breakdown.holding > 0.0


def test_breakdown_validation():
    with pytest.raises(ValueError):
        CostBreakdown(manufacturing=-1.0, holding=0.0, launch=0.0, maneuvering=0.0)
    b = CostBreakdown(manufacturing=1.0, holding=2.0, launch=3.0, maneuvering=4.0)
    assert b.tessac == 10.0
    with pytest.raises(ValueError):
        CostParams(
            p_sat_musd=-0.5,
            p_holding_musd_per_sat_year=0.5,
            p_launch_full_musd=47.6,
            p_launch_unit_musd=10.0,
            eps_maneuvering_musd_per_kg=0.001,
        )


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostParams)])
def test_cost_params_reject_non_finite_prices(name, bad):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(COSTS, **{name: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostBreakdown)])
def test_breakdown_rejects_non_finite_parts(name, bad):
    parts = dict(manufacturing=1.0, holding=2.0, launch=3.0, maneuvering=4.0)
    with pytest.raises(ValueError, match=name):
        CostBreakdown(**{**parts, name: bad})


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostBreakdown)])
def test_breakdown_names_the_offending_part(name, bad):
    # The valid case passes one compiled check; anything else reaches the
    # per-part check, which names the part.
    parts = dict(manufacturing=1.0, holding=0.0, launch=3.0, maneuvering=4.0)
    with pytest.raises(ValueError, match=f"{name} cost"):
        CostBreakdown(**{**parts, name: bad})
    assert CostBreakdown(**parts).tessac == 8.0


# Prices that are not powers of two, so that a change in float order shows.
PRICES = CostParams(
    p_sat_musd=0.37,
    p_holding_musd_per_sat_year=0.23,
    p_launch_full_musd=47.3,
    p_launch_unit_musd=9.7,
    eps_maneuvering_musd_per_kg=0.0013,
)


def test_annual_cost_prices_each_flow():
    slots = annual_cost(
        PRICES, replacements=40.0, held=300.0, launches=2.5, batch=4, transferred=30.0, fuel_kg=12.0
    )
    assert slots.manufacturing == pytest.approx(14.8, rel=1e-15)  # 0.37 x 40
    assert slots.holding == pytest.approx(69.0, rel=1e-15)  # 0.23 x 300
    assert slots.launch == pytest.approx(97.0, rel=1e-15)  # 4 slots at 9.7 < 47.3, x 2.5
    assert slots.maneuvering == pytest.approx(0.468, rel=1e-15)  # 12 kg x 30 x 0.0013
    rocket = annual_cost(PRICES, 0.0, 0.0, 2.5, 5, 0.0, 12.0)
    assert rocket.launch == pytest.approx(118.25, rel=1e-15)  # 5 slots at 48.5 > 47.3, x 2.5
    assert (rocket.manufacturing, rocket.holding, rocket.maneuvering) == (0.0, 0.0, 0.0)


def test_tessac_is_annual_cost_of_the_chain_flows():
    # Every replaced satellite is raised from parking, and a parking order
    # of k_q batches flies as one launch of q_parking satellites.
    rng = np.random.default_rng(17)
    figures = StageMemo(CFG, LAUNCH, satellite=SAT).figures
    checked = 0
    for _ in range(200):
        strategy = SpareStrategy(
            n_parking=int(rng.integers(1, 21)),
            h_parking_km=float(rng.uniform(700.0, 1000.0)),
            q_plane=int(rng.integers(1, 11)),
            s_plane=int(rng.integers(1, 11)),
            k_q_parking=int(rng.integers(1, 11)),
            k_s_parking=int(rng.integers(1, 11)),
        )
        try:
            metrics, transfer = figures(strategy)
        except ValueError:
            continue
        replacements = metrics.lambda_plane_per_day * CFG.n_plane * DAYS_PER_YEAR
        held = (
            metrics.mean_stock_plane * CFG.n_plane
            + metrics.mean_stock_parking_batches * strategy.q_plane * strategy.n_parking
        )
        launches = (
            metrics.lambda_parking_batches_per_day / strategy.k_q_parking
        ) * strategy.n_parking * DAYS_PER_YEAR
        flows = (replacements, held, launches, strategy.q_parking, replacements)
        expected = annual_cost(PRICES, *flows, transfer.fuel_mass_kg)
        assert tessac(CFG, strategy, metrics, transfer, PRICES, LAUNCH) == expected
        checked += 1
    assert checked >= 100


def test_tessac_inplane_only_is_annual_cost_of_the_ground_flows():
    # Each plane launches its own batches of q and transfers nothing.
    for q in range(1, LAUNCH.cap_launch + 1):
        for s in range(31):
            policy = SQPolicy(reorder_point_s=s, order_quantity_q=q)
            metrics = evaluate_inplane_only(CFG, policy, LAUNCH)
            replacements = metrics.lambda_plane_per_day * CFG.n_plane * DAYS_PER_YEAR
            launches = (metrics.lambda_plane_per_day / q) * CFG.n_plane * DAYS_PER_YEAR
            held = metrics.mean_stock_plane * CFG.n_plane
            expected = annual_cost(PRICES, replacements, held, launches, q, 0, 0.0)
            assert tessac_inplane_only(CFG, policy, metrics, PRICES, LAUNCH) == expected


def test_simulated_tessac_is_annual_cost_of_the_window_flows(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return annual_cost(*args)

    monkeypatch.setattr(simulator, "annual_cost", spy)
    sc = simulator.SimConfig(
        constellation=CFG,
        strategy=STRATEGY,
        launch=LAUNCH,
        costs=PRICES,
        satellite=SAT,
        horizon_years=6.0,
        warmup_years=1.0,
    )
    rep = simulator.run_replication(sc, child_seed(3, 0))
    (args,) = calls
    cp, replacements, held, launches, batch, transferred, fuel_kg = args
    assert rep.tessac == annual_cost(*args).tessac
    # The window's counts per year; the window is 5 years long.
    assert min(rep.failures_window, rep.ground_arrivals_window, rep.transfers_window) > 0
    assert cp is PRICES
    assert replacements == rep.failures_window / 5.0
    assert launches == rep.ground_arrivals_window / 5.0
    assert batch == STRATEGY.q_parking
    assert transferred == STRATEGY.q_plane * rep.transfers_window / 5.0
    assert fuel_kg == _transfer().fuel_mass_kg
    assert held == pytest.approx(
        rep.mean_stock_plane * CFG.n_plane
        + STRATEGY.q_plane * rep.mean_stock_parking_batches * STRATEGY.n_parking,
        rel=1e-12,
    )
