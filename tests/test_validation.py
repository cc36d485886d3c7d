import dataclasses
import math
import re
import statistics
from datetime import date, datetime, timedelta
from types import SimpleNamespace
from typing import get_args, get_type_hints

import pytest

from sparechain import chain
from sparechain.chain import (
    ConstellationConfig,
    LaunchParams,
    SpareStrategy,
    leadtime_expected_shortage,
    parking_demand_rate,
    plane_demand_rate,
    plane_leadtime,
)
from sparechain.config import bundled_launch_dates_path
from sparechain.costs import evaluate_design
from sparechain.inventory import fill_rate
from sparechain.orbits import WGS84
from sparechain.simulator import Estimates, SimConfig, run_batch
from sparechain.validation import (
    OUTPUT_NAMES,
    SizingInfeasibleError,
    TradeSpace,
    fit_launch_gaps,
    lhs_sample,
    read_launch_dates,
    relative_error,
    run_validation,
    size_reorder_points,
)

from case import CFG, COSTS, LAUNCH, SAT, STRATEGY
from oracles import expected_shortage_mixture


# Each trade-space dimension's type, read from its `tuple[int, int]` or
# `tuple[float, float]` hint.
DIMENSION_TYPES = {name: get_args(hint)[0] for name, hint in get_type_hints(TradeSpace).items()}
INTEGER_NAMES = [name for name, kind in DIMENSION_TYPES.items() if kind is int]


def test_parameter_range_rejects_inverted_bounds():
    message = "pt_launch_days: lower bound 2.0 above upper bound 1.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TradeSpace(pt_launch_days=(2.0, 1.0))
    with pytest.raises(ValueError, match="^n_plane: lower bound 40 above upper bound 20$"):
        TradeSpace(n_plane=(40, 20))


@pytest.mark.parametrize(
    ("lo", "hi"), [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]
)
def test_parameter_range_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="^lambda_sat_per_year: bounds must be finite"):
        TradeSpace(lambda_sat_per_year=(lo, hi))


def test_trade_space_lists_all_dimensions():
    names = [f.name for f in dataclasses.fields(TradeSpace)]
    assert len(names) == 11
    assert "lambda_sat_per_year" in names
    assert "k_q_parking" in names
    assert INTEGER_NAMES == ["n_plane", "n_parking", "n_sats", "q_plane", "k_q_parking"]
    for name, (lo, hi) in vars(TradeSpace()).items():
        assert type(lo) is type(hi) is DIMENSION_TYPES[name], name


def test_lhs_continuous_dimensions_hit_every_stratum():
    n = 25
    space = TradeSpace()
    cases = lhs_sample(space, n, seed=0)
    for name, (lo, hi) in vars(space).items():
        if name in INTEGER_NAMES:
            continue
        strata = sorted(int((case[name] - lo) / (hi - lo) * n) for case in cases)
        assert strata == list(range(n))


def test_lhs_integer_dimensions_stay_in_bounds():
    space = TradeSpace()
    cases = lhs_sample(space, 25, seed=0)
    for name in INTEGER_NAMES:
        lo, hi = getattr(space, name)
        for case in cases:
            assert isinstance(case[name], int)
            assert lo <= case[name] <= hi


@pytest.mark.parametrize("name", INTEGER_NAMES)
def test_integer_dimension_rejects_fractional_bounds(name):
    with pytest.raises(ValueError, match=re.escape(f"{name}[0]=1.5 must be an integer")):
        dataclasses.replace(TradeSpace(), **{name: (1.5, 3)})
    with pytest.raises(ValueError, match=re.escape(f"{name}[1]=3.5 must be an integer")):
        dataclasses.replace(TradeSpace(), **{name: (1, 3.5)})


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


CASE_TEMPLATE = dataclasses.replace(STRATEGY, s_plane=1, k_s_parking=1)


def test_sizing_returns_minimal_reorder_points():
    s_plane, k_s = size_reorder_points(CFG, CASE_TEMPLATE, LAUNCH)
    assert (s_plane, k_s) == (3, 6)

    lam_parking = parking_demand_rate(CFG, CASE_TEMPLATE)
    rho_at = lambda k: fill_rate(
        leadtime_expected_shortage(k, lam_parking, LAUNCH), CASE_TEMPLATE.k_q_parking
    )
    assert rho_at(k_s) ** CASE_TEMPLATE.n_parking >= 0.95
    assert rho_at(k_s - 1) ** CASE_TEMPLATE.n_parking < 0.95

    p_av = rho_at(k_s)  # the parking availability is its fill rate, 1 - ES/k_q
    sized = dataclasses.replace(CASE_TEMPLATE, k_s_parking=k_s)
    weights, segments = plane_leadtime(sized, CFG, p_av)
    lam_plane = plane_demand_rate(CFG)
    demand_segments = [(lam_plane * lo, lam_plane * hi) for lo, hi in segments]
    rho_plane_at = lambda s: fill_rate(
        expected_shortage_mixture(s, weights, demand_segments), CASE_TEMPLATE.q_plane
    )
    assert rho_plane_at(s_plane) ** CFG.n_plane >= 0.95
    assert rho_plane_at(s_plane - 1) ** CFG.n_plane < 0.95


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
    cfg = dataclasses.replace(CFG, h_plane_km=900.0)
    st = dataclasses.replace(CASE_TEMPLATE, h_parking_km=900.0)
    with pytest.raises(ValueError, match="must be below plane altitude") as info:
        size_reorder_points(cfg, st, LAUNCH)
    assert not isinstance(info.value, SizingInfeasibleError)


def test_sizing_passes_other_chain_errors_through(monkeypatch):
    def reject(k_s, k_q, lam_parking, lp):
        raise ValueError("rejected by the chain")

    monkeypatch.setattr(chain, "parking_stage", reject)
    with pytest.raises(ValueError, match="^rejected by the chain$") as info:
        size_reorder_points(CFG, CASE_TEMPLATE, LAUNCH)
    assert not isinstance(info.value, SizingInfeasibleError)


def test_validation_reports_the_altitude_reason():
    space = TradeSpace(h_plane_km=(750.0, 850.0), h_parking_km=(900.0, 1000.0))
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
    space = TradeSpace(mu_launch_days=(0.0, 0.0))
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
        mean=Estimates(
            mean_stock_plane=metrics.mean_stock_plane,
            mean_stock_parking_batches=metrics.mean_stock_parking_batches,
            rho_plane=metrics.rho_plane,
            rho_parking=metrics.rho_parking,
            tessac=cost.tessac,
        )
    )


def test_perfect_simulator_yields_zero_errors():
    seen = []

    def hook(sim_config):
        seen.append(sim_config)
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
    # Each simulated design carries its case's sampled values, unconverted,
    # its sized reorder points and the study's fixed inputs.
    assert len(seen) == len(feasible)
    for c, sc in zip(feasible, seen):
        built = {**vars(sc.constellation), **vars(sc.launch), **vars(sc.strategy)}
        for name, value in c.params.items():
            assert built[name] == value, name
            assert type(built[name]) is DIMENSION_TYPES[name], name
        assert (sc.strategy.s_plane, sc.strategy.k_s_parking) == (c.s_plane, c.k_s_parking)
        assert sc.launch.cap_launch == 34
        assert (sc.costs, sc.satellite, sc.consts) == (COSTS, SAT, WGS84)
        assert (sc.replications, sc.horizon_years, sc.warmup_years) == (7, 4.0, 0.5)
    assert len({sc.seed for sc in seen}) == len(seen)


def test_zero_simulated_value_marks_only_its_case_infeasible():
    # relative_error is undefined for a zero simulated reference; that case
    # is reported with its values and a reason, and the study goes on.
    zeroed = []

    def hook(sim_config):
        result = _model_echo(sim_config)
        if not zeroed:
            zeroed.append(sim_config.seed)
            result.mean = result.mean._replace(tessac=0.0)
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
    # A byte-order mark before the first date must not make it a header.
    bom = tmp_path / "bom.csv"
    bom.write_text("2010-01-05\n2010-02-05\n2010-03-05\n", encoding="utf-8-sig")
    assert fit_launch_gaps(read_launch_dates(bom)) == 29.5
    assert len(read_launch_dates(bom)) == 3
    bom.write_text("launch_date\n2020-01-01\n2020-02-01\n", encoding="utf-8-sig")
    assert read_launch_dates(bom) == [date(2020, 1, 1), date(2020, 2, 1)]


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


# The bundled case's exact optimum (ROADMAP item 1). It lies on the
# fill-rate boundary: rounded to 720.509 km it misses the target.
EXACT_OPTIMUM = SpareStrategy(3, 720.5089866967143, 3, 3, 10, 9)
# End points of the genetic search at other seeds, 1.17 %, 3.13 % and 4.70 % above it.
GA_END_POINTS = (
    SpareStrategy(3, 761.65, 3, 3, 10, 10),
    SpareStrategy(4, 817.29, 3, 3, 10, 7),
    SpareStrategy(4, 862.40, 3, 3, 10, 8),
)


def test_simulation_ranks_the_optimum_below_the_search_end_points(capsys):
    # Decision-level validation. A replication's failures depend only on
    # its seed, the failure rate and the plane count, so designs run at
    # one seed share every failure (common random numbers), and their
    # per-replication TESSAC differences have a small variance.
    def simulated(strategy):
        sc = SimConfig(
            constellation=CFG, strategy=strategy, launch=LAUNCH,
            costs=COSTS, satellite=SAT, replications=100, horizon_years=15.0, seed=5,
        )
        return [r.tessac for r in run_batch(sc).per_replication]

    def model(strategy):
        return evaluate_design(CFG, strategy, LAUNCH, COSTS, SAT, WGS84)[1].tessac

    best = simulated(EXACT_OPTIMUM)
    for rival in GA_END_POINTS:
        diffs = [r - b for r, b in zip(simulated(rival), best, strict=True)]
        mean = statistics.fmean(diffs)
        se = statistics.stdev(diffs) / math.sqrt(len(diffs))
        model_diff = model(rival) - model(EXACT_OPTIMUM)
        # Reported only: the simulator's full start (ROADMAP item 3, mode
        # (a)) biases launch cost differently per design.
        agree = abs(mean - model_diff) <= 4 * se
        with capsys.disabled():
            print(
                f"\n{rival}: paired sim diff {mean:+.2f} +/- {se:.2f}, model diff "
                f"{model_diff:+.2f}, |sim - model| {abs(mean - model_diff) / se:.1f} SE"
                f" ({'within' if agree else 'beyond'} 4 SE)"
            )
        assert model_diff > 0
        assert mean > 4 * se
