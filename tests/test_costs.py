import pytest

from sparechain.chain import (
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    evaluate_inplane_only,
    evaluate_strategy,
)
from sparechain.costs import (
    CostBreakdown,
    CostParams,
    launch_price,
    tessac,
    tessac_inplane_only,
)
from sparechain.inventory import SQPolicy
from sparechain.orbits import CircularOrbit, hohmann_transfer

CFG = ConstellationConfig(
    h_plane_km=1200.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.05
)
STRATEGY = SpareStrategy(
    n_parking=3, h_parking_km=792.3, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
)
LAUNCH = LaunchParams(mu_launch_days=66.7, pt_launch_days=90.0, cap_launch=34)
COSTS = CostParams(
    p_sat_musd=0.5,
    p_holding_musd_per_sat_year=0.5,
    p_launch_full_musd=47.6,
    p_launch_unit_musd=10.0,
    eps_maneuvering_musd_per_kg=0.001,
)
SAT = SatelliteParams(m_dry_kg=150.0, v_exhaust_km_s=2.16)

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
    quiet = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.0
    )
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
