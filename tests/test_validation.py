import dataclasses
import math
import re
import statistics
from datetime import date, datetime, timedelta
from types import SimpleNamespace

import pytest

from sparechain import validation
from sparechain.chain import (
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    leadtime_expected_shortage,
    parking_availability,
    parking_demand_rate,
    plane_demand_rate,
    plane_leadtime,
)
from sparechain.config import bundled_launch_dates_path
from sparechain.costs import CostParams, evaluate_design
from sparechain.inventory import expected_shortage_mixture, fill_rate
from sparechain.orbits import WGS84
from sparechain.validation import (
    INTEGER_DIMENSIONS,
    OUTPUT_NAMES,
    ParameterRange,
    SizingInfeasibleError,
    TradeSpace,
    fit_launch_gaps,
    lhs_sample,
    read_launch_dates,
    relative_error,
    run_validation,
    size_reorder_points,
)


def test_parameter_range_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        ParameterRange(2.0, 1.0)


@pytest.mark.parametrize(
    ("lo", "hi"), [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]
)
def test_parameter_range_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="bounds must be finite"):
        ParameterRange(lo, hi)


def test_trade_space_lists_all_dimensions():
    names = [name for name, _ in TradeSpace().items()]
    assert len(names) == 11
    assert "lambda_sat_per_year" in names
    assert "k_q_parking" in names


def test_lhs_continuous_dimensions_hit_every_stratum():
    n = 25
    space = TradeSpace()
    cases = lhs_sample(space, n, seed=0)
    for name, rng in space.items():
        if name in INTEGER_DIMENSIONS:
            continue
        strata = sorted(
            int((case[name] - rng.lo) / (rng.hi - rng.lo) * n) for case in cases
        )
        assert strata == list(range(n))


def test_lhs_integer_dimensions_stay_in_bounds():
    space = TradeSpace()
    cases = lhs_sample(space, 25, seed=0)
    for name in INTEGER_DIMENSIONS:
        rng = getattr(space, name)
        for case in cases:
            assert isinstance(case[name], int)
            assert rng.lo <= case[name] <= rng.hi


@pytest.mark.parametrize("name", INTEGER_DIMENSIONS)
def test_integer_dimension_rejects_fractional_bounds(name):
    with pytest.raises(ValueError, match=f"{name} is an integer dimension"):
        dataclasses.replace(TradeSpace(), **{name: ParameterRange(1.5, 3.0)})
    with pytest.raises(ValueError, match=f"{name} is an integer dimension"):
        dataclasses.replace(TradeSpace(), **{name: ParameterRange(1.0, 3.5)})


def test_lhs_sample_is_seeded_and_distinct():
    a = lhs_sample(TradeSpace(), 10, seed=3)
    b = lhs_sample(TradeSpace(), 10, seed=3)
    c = lhs_sample(TradeSpace(), 10, seed=4)
    assert a == b
    assert a != c
    assert len({tuple(sorted(x.items())) for x in a}) == 10


def test_lhs_sample_rejects_empty():
    with pytest.raises(ValueError):
        lhs_sample(TradeSpace(), 0, seed=0)


CASE_CFG = ConstellationConfig(
    h_plane_km=1200.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.05
)
CASE_TEMPLATE = SpareStrategy(
    n_parking=3, h_parking_km=792.3, q_plane=4, s_plane=1, k_q_parking=8, k_s_parking=1
)
CASE_LAUNCH = LaunchParams(mu_launch_days=66.7, pt_launch_days=90.0, cap_launch=34)
COSTS = CostParams(
    p_sat_musd=0.5,
    p_holding_musd_per_sat_year=0.5,
    p_launch_full_musd=47.6,
    p_launch_unit_musd=10.0,
    eps_maneuvering_musd_per_kg=0.001,
)
SAT = SatelliteParams(m_dry_kg=150.0, v_exhaust_km_s=2.16)


def test_sizing_returns_minimal_reorder_points():
    s_plane, k_s = size_reorder_points(CASE_CFG, CASE_TEMPLATE, CASE_LAUNCH)
    assert (s_plane, k_s) == (3, 6)

    lam_parking = parking_demand_rate(CASE_CFG, CASE_TEMPLATE)
    rho_at = lambda k: fill_rate(
        leadtime_expected_shortage(k, lam_parking, CASE_LAUNCH), CASE_TEMPLATE.k_q_parking
    )
    assert rho_at(k_s) ** CASE_TEMPLATE.n_parking >= 0.95
    assert rho_at(k_s - 1) ** CASE_TEMPLATE.n_parking < 0.95

    p_av = parking_availability(
        leadtime_expected_shortage(k_s, lam_parking, CASE_LAUNCH), CASE_TEMPLATE.k_q_parking
    )
    sized = dataclasses.replace(CASE_TEMPLATE, k_s_parking=k_s)
    weights, segments = plane_leadtime(sized, CASE_CFG, p_av)
    lam_plane = plane_demand_rate(CASE_CFG)
    demand_segments = [(lam_plane * lo, lam_plane * hi) for lo, hi in segments]
    rho_plane_at = lambda s: fill_rate(
        expected_shortage_mixture(s, weights, demand_segments), CASE_TEMPLATE.q_plane
    )
    assert rho_plane_at(s_plane) ** CASE_CFG.n_plane >= 0.95
    assert rho_plane_at(s_plane - 1) ** CASE_CFG.n_plane < 0.95


def test_sizing_raises_when_no_reorder_point_suffices():
    cfg = ConstellationConfig(
        h_plane_km=2000.0, inclination_deg=30.0, n_plane=20, n_sats=60, lambda_sat_per_year=0.1
    )
    st = SpareStrategy(
        n_parking=1, h_parking_km=700.0, q_plane=1, s_plane=1, k_q_parking=1, k_s_parking=1
    )
    lp = LaunchParams(mu_launch_days=90.0, pt_launch_days=120.0, cap_launch=34)
    with pytest.raises(SizingInfeasibleError) as info:
        size_reorder_points(cfg, st, lp)
    assert str(info.value) == "no parking reorder point in [1, 10] reaches 0.95 with k_q=1"

    # The parking echelon sizes here; no plane reorder point suffices.
    cfg = ConstellationConfig(
        h_plane_km=1080.0, inclination_deg=67.0, n_plane=26, n_sats=47, lambda_sat_per_year=0.09
    )
    st = SpareStrategy(
        n_parking=5, h_parking_km=956.0, q_plane=5, s_plane=1, k_q_parking=3, k_s_parking=1
    )
    lp = LaunchParams(mu_launch_days=41.5, pt_launch_days=32.0, cap_launch=34)
    with pytest.raises(SizingInfeasibleError) as info:
        size_reorder_points(cfg, st, lp)
    assert str(info.value) == "no plane reorder point in [1, 10] reaches 0.95 with q=5"


def test_sizing_keeps_the_altitude_error():
    cfg = dataclasses.replace(CASE_CFG, h_plane_km=900.0)
    st = dataclasses.replace(CASE_TEMPLATE, h_parking_km=900.0)
    with pytest.raises(ValueError, match="must be below plane altitude") as info:
        size_reorder_points(cfg, st, CASE_LAUNCH)
    assert not isinstance(info.value, SizingInfeasibleError)


def test_sizing_passes_other_chain_errors_through(monkeypatch):
    def reject(cfg, strategy, lp, consts):
        raise ValueError("rejected by the chain")

    monkeypatch.setattr(validation, "evaluate_strategy", reject)
    with pytest.raises(ValueError, match="^rejected by the chain$") as info:
        size_reorder_points(CASE_CFG, CASE_TEMPLATE, CASE_LAUNCH)
    assert not isinstance(info.value, SizingInfeasibleError)


def test_validation_reports_the_altitude_reason():
    space = TradeSpace(
        h_plane_km=ParameterRange(750.0, 850.0), h_parking_km=ParameterRange(900.0, 1000.0)
    )
    report = run_validation(
        space, 3, costs=COSTS, satellite=SAT, consts=WGS84, seed=0,
        simulate_fn=_model_echo,
    )
    assert report.infeasible_count == 3
    for case in report.cases:
        assert "must be below plane altitude" in case.reason


def test_invalid_sampled_launch_law_marks_cases_infeasible():
    # A zero launch wait is rejected by LaunchParams; each such case is
    # infeasible with that reason and the study runs on.
    space = TradeSpace(mu_launch_days=ParameterRange(0.0, 0.0))
    report = run_validation(
        space, 3, costs=COSTS, satellite=SAT, consts=WGS84, seed=0,
        simulate_fn=_model_echo,
    )
    assert report.infeasible_count == 3
    for case in report.cases:
        assert case.reason == "launch wait must be positive and processing time nonnegative"


def test_relative_error_definition():
    assert relative_error(2.0, 1.0) == 50.0
    assert relative_error(-2.0, -1.0) == 50.0
    assert relative_error(4.0, 4.0) == 0.0
    with pytest.raises(ValueError):
        relative_error(0.0, 1.0)


def _model_echo(sim_config):
    """Simulation stand-in that returns the analytic values themselves."""
    metrics, cost = evaluate_design(
        sim_config.constellation,
        sim_config.strategy,
        sim_config.launch,
        sim_config.costs,
        sim_config.satellite,
        sim_config.consts,
    )
    return SimpleNamespace(
        mean_stock_plane=metrics.mean_stock_plane,
        mean_stock_parking_batches=metrics.mean_stock_parking_batches,
        rho_plane=metrics.rho_plane,
        rho_parking=metrics.rho_parking,
        tessac=cost.tessac,
    )


def test_perfect_simulator_yields_zero_errors():
    seen_seeds = []

    def hook(sim_config):
        seen_seeds.append(sim_config.seed)
        assert sim_config.replications == 7
        assert sim_config.horizon_years == 4.0
        return _model_echo(sim_config)

    report = run_validation(
        TradeSpace(),
        6,
        costs=COSTS,
        satellite=SAT,
        consts=WGS84,
        replications=7,
        horizon_years=4.0,
        warmup_years=0.5,
        seed=4,
        simulate_fn=hook,
    )
    assert len(report.cases) == 6
    feasible = [c for c in report.cases if c.feasible]
    assert feasible, "expected at least one feasible sampled case"
    assert report.infeasible_count == 6 - len(feasible)
    for c in feasible:
        assert set(c.errors_pct) == set(OUTPUT_NAMES)
        assert all(v == 0.0 for v in c.errors_pct.values())
        assert c.s_plane is not None and 1 <= c.s_plane <= 10
        assert c.k_s_parking is not None and 1 <= c.k_s_parking <= 10
    for c in report.cases:
        if not c.feasible:
            assert c.reason
    assert all(v == 0.0 for v in report.averaged_errors_pct.values())
    assert len(set(seen_seeds)) == len(seen_seeds)


def test_zero_simulated_value_marks_only_its_case_infeasible():
    # relative_error is undefined for a zero simulated reference; that case
    # is reported with its values and a reason, and the study goes on.
    zeroed = []

    def hook(sim_config):
        result = _model_echo(sim_config)
        if not zeroed:
            zeroed.append(sim_config.seed)
            result.tessac = 0.0
        return result

    report = run_validation(
        TradeSpace(), 6, costs=COSTS, satellite=SAT, consts=WGS84, seed=4, simulate_fn=hook
    )
    simulated = [c for c in report.cases if c.sim_values is not None]
    first, rest = simulated[0], simulated[1:]
    assert not first.feasible
    assert first.reason == "relative error undefined for a zero simulated value"
    assert first.errors_pct is None
    assert first.s_plane is not None and first.k_s_parking is not None
    assert first.sim_values["tessac"] == 0.0
    assert first.model_values["tessac"] > 0.0
    assert rest
    for c in rest:
        assert c.feasible and c.reason is None
        assert all(math.isfinite(v) for v in c.errors_pct.values())
    assert report.infeasible_count == len(report.cases) - len(rest)
    assert all(math.isfinite(v) for v in report.averaged_errors_pct.values())


def test_validation_report_is_deterministic():
    study = dict(costs=COSTS, satellite=SAT, consts=WGS84)
    a = run_validation(TradeSpace(), 4, seed=9, simulate_fn=_model_echo, **study)
    b = run_validation(TradeSpace(), 4, seed=9, simulate_fn=_model_echo, **study)
    assert a == b


def test_fit_launch_gaps_is_the_sample_mean():
    dates = [date(2020, 1, 1), date(2020, 1, 4), date(2020, 1, 11)]
    assert fit_launch_gaps(dates) == 5.0

    start = datetime(2021, 3, 1)
    gaps = [3.25, 66.5, 1.0, 12.75]
    stamps = [start]
    for g in gaps:
        stamps.append(stamps[-1] + timedelta(days=g))
    assert fit_launch_gaps(stamps) == statistics.fmean(gaps)


def test_fit_launch_gaps_input_checks():
    with pytest.raises(ValueError):
        fit_launch_gaps([date(2020, 1, 1)])
    with pytest.raises(ValueError):
        fit_launch_gaps([date(2020, 1, 5), date(2020, 1, 1)])


def test_read_launch_dates_skips_header(tmp_path):
    f = tmp_path / "dates.csv"
    f.write_text("launch_date\n2020-01-01\n2020-02-01\n")
    assert read_launch_dates(f) == [date(2020, 1, 1), date(2020, 2, 1)]
    g = tmp_path / "bare.csv"
    g.write_text("2020-01-01\n2020-02-01\n")
    assert read_launch_dates(g) == [date(2020, 1, 1), date(2020, 2, 1)]
    h = tmp_path / "empty.csv"
    h.write_text("\n")
    with pytest.raises(ValueError):
        read_launch_dates(h)


def test_read_launch_dates_names_the_file_and_line_of_a_bad_date(tmp_path):
    # The blank line counts: the number is the line in the file.
    f = tmp_path / "dates.csv"
    f.write_text("launch_date\n2020-01-01\n\n2020-13-04\n")
    message = f"{f}, line 4: '2020-13-04' is not a date: month must be in 1..12"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_launch_dates(f)


def test_bundled_launch_history_mean_gap():
    dates = read_launch_dates(bundled_launch_dates_path())
    assert len(dates) == 46
    assert dates == sorted(dates)
    assert fit_launch_gaps(dates) == pytest.approx(66.71111111111111, rel=1e-12)
