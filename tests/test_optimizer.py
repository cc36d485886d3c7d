import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from sparechain import chain, costs, inventory, optimizer, orbits
from sparechain.chain import (
    STRATEGY_BOUNDS,
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    StageMemo,
    evaluate_inplane_only,
)
from sparechain.cli import command_seed
from sparechain.config import bundled_case_study_path, load_run_config
from sparechain.costs import CostParams, tessac_inplane_only
from sparechain.inventory import SQPolicy
from sparechain.optimizer import (
    ERROR_PENALTY,
    PENALTY_SCALE,
    FitnessResult,
    GAParams,
    OptimizationProblem,
    VariableBounds,
    fitness,
    optimize,
    optimize_inplane_only,
    sensitivity_sweep,
)

COSTS = CostParams(
    p_sat_musd=0.5,
    p_holding_musd_per_sat_year=0.5,
    p_launch_full_musd=47.6,
    p_launch_unit_musd=10.0,
    eps_maneuvering_musd_per_kg=0.001,
)
SAT = SatelliteParams(m_dry_kg=150.0, v_exhaust_km_s=2.16)
CASE_CFG = ConstellationConfig(
    h_plane_km=1200.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.05
)
CASE_LAUNCH = LaunchParams(mu_launch_days=66.7, pt_launch_days=90.0, cap_launch=34)
CASE_PROBLEM = OptimizationProblem(
    constellation=CASE_CFG, launch=CASE_LAUNCH, costs=COSTS, satellite=SAT
)
CASE_STRATEGY = SpareStrategy(
    n_parking=3, h_parking_km=792.3, q_plane=4, s_plane=3, k_q_parking=8, k_s_parking=8
)
CASE_TESSAC = 319.1326941382908


def test_variable_bounds_validation():
    with pytest.raises(ValueError):
        VariableBounds(q_plane=(5, 3))
    with pytest.raises(ValueError):
        VariableBounds(q_plane=(1, 50))
    with pytest.raises(ValueError):
        VariableBounds(h_parking_km=(500.0, 900.0))
    for pair in ((1.5, 3), (1, 3.0), (True, 3)):
        with pytest.raises(ValueError, match="n_parking"):
            VariableBounds(n_parking=pair)


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GAParams(population=1)
    # Two elite genomes would fill a population of two.
    with pytest.raises(ValueError):
        GAParams(population=2)


def test_problem_rejects_bad_target():
    with pytest.raises(ValueError):
        dataclasses.replace(CASE_PROBLEM, rho_target=1.0)


def test_fitness_feasible_candidate():
    f = fitness(CASE_STRATEGY, CASE_PROBLEM)
    assert f.feasible
    assert f.capacity_violation == 0.0
    assert f.fillrate_violation == 0.0
    assert f.tessac == pytest.approx(CASE_TESSAC, rel=1e-12)
    assert f.penalized == f.tessac
    assert f.fill_rate_product >= 0.95
    assert f.cost.tessac == f.tessac


def test_fitness_capacity_penalty():
    # k_q = 10 pushes the batch to 40 satellites against a cap of 34
    over = dataclasses.replace(CASE_STRATEGY, k_q_parking=10)
    f = fitness(over, CASE_PROBLEM)
    assert not f.feasible
    assert f.capacity_violation == pytest.approx((40 - 34) / 34, rel=1e-15)
    assert f.fillrate_violation == 0.0
    assert f.penalized == pytest.approx(f.tessac + PENALTY_SCALE * f.capacity_violation, rel=1e-12)


def test_fitness_fillrate_penalty():
    weak = dataclasses.replace(CASE_STRATEGY, s_plane=1)
    f = fitness(weak, CASE_PROBLEM)
    assert not f.feasible
    assert f.capacity_violation == 0.0
    assert f.fill_rate_product == pytest.approx(0.3322918138006399, rel=1e-9)
    assert f.fillrate_violation == pytest.approx((0.95 - f.fill_rate_product) / 0.95, rel=1e-12)
    assert f.penalized == pytest.approx(f.tessac + PENALTY_SCALE * f.fillrate_violation, rel=1e-12)


def test_fitness_unevaluable_candidate_gets_flat_penalty():
    # parking ring above the constellation cannot be evaluated at all
    low_cfg = ConstellationConfig(
        h_plane_km=900.0, inclination_deg=50.0, n_plane=40, n_sats=40, lambda_sat_per_year=0.05
    )
    prob = dataclasses.replace(CASE_PROBLEM, constellation=low_cfg)
    f = fitness(dataclasses.replace(CASE_STRATEGY, h_parking_km=1000.0), prob)
    assert not f.feasible
    assert f.tessac is None
    assert f.penalized == ERROR_PENALTY
    assert math.isnan(f.capacity_violation)


BOX = VariableBounds(
    n_parking=(2, 3),
    h_parking_km=(792.3, 792.3),
    q_plane=(3, 5),
    s_plane=(2, 3),
    k_q_parking=(6, 8),
    k_s_parking=(4, 8),
)


def test_ga_matches_exhaustive_optimum_on_restricted_box():
    # altitude pinned to one value makes the box fully enumerable
    best = None
    for n, q, s, kq, ks in itertools.product(
        range(2, 4), range(3, 6), range(2, 4), range(6, 9), range(4, 9)
    ):
        f = fitness(SpareStrategy(n, 792.3, q, s, kq, ks), CASE_PROBLEM)
        if f.feasible and (best is None or f.tessac < best):
            best = f.tessac
    assert best is not None
    prob = dataclasses.replace(
        CASE_PROBLEM, bounds=BOX, ga=GAParams(population=40, generations=60, restarts=3)
    )
    result = optimize(prob, seed=0)
    assert result.feasible
    assert result.best_cost == pytest.approx(best, rel=1e-12)
    assert result.breakdown.tessac == result.best_cost


def test_optimize_is_deterministic_per_seed():
    prob = dataclasses.replace(
        CASE_PROBLEM, bounds=BOX, ga=GAParams(population=12, generations=8, restarts=2)
    )
    a = optimize(prob, seed=7)
    b = optimize(prob, seed=7)
    assert a == b
    assert len(a.trace) == 2 * 8
    restarts = {row[0] for row in a.trace}
    assert restarts == {0, 1}


def test_ga_result_matches_a_fresh_fitness_call():
    # The search keeps only each genome's penalized fitness; the reported
    # cost, breakdown and fill rate come from the winner alone.
    prob = dataclasses.replace(CASE_PROBLEM, ga=GAParams(population=20, generations=15, restarts=2))
    result = optimize(prob, seed=5)
    assert result.feasible
    fresh = fitness(result.best_strategy, prob)
    assert result.best_cost == fresh.tessac
    assert result.breakdown == fresh.cost
    assert result.fill_rate_product == fresh.fill_rate_product
    assert min(row[2] for row in result.trace) == fresh.penalized


def test_memoized_fitness_matches_memo_free_fitness():
    # One memo serves a seeded sequence of candidates on a loaded and a
    # zero-failure problem; small value pools repeat every stage key. Each
    # result must equal a memo-free fitness call field for field, errors
    # (flat penalty, NaN slacks) included.
    rng = np.random.default_rng(20261019)
    problems = (
        CASE_PROBLEM,
        dataclasses.replace(
            CASE_PROBLEM, constellation=dataclasses.replace(CASE_CFG, lambda_sat_per_year=0.0)
        ),
    )
    memo = StageMemo()
    outcomes = Counter()
    for _ in range(600):
        prob = problems[int(rng.integers(2))]
        candidate = SpareStrategy(
            n_parking=int(rng.choice([1, 3, 7])),
            h_parking_km=float(rng.choice([700.0, 792.3, 999.0])),
            q_plane=int(rng.choice([1, 4])),
            s_plane=int(rng.choice([1, 3, 10])),
            k_q_parking=int(rng.choice([1, 8])),
            k_s_parking=int(rng.choice([1, 8])),
        )
        memoized, fresh = fitness(candidate, prob, memo), fitness(candidate, prob)
        for field in dataclasses.fields(FitnessResult):
            a, b = getattr(memoized, field.name), getattr(fresh, field.name)
            assert a == b or (math.isnan(a) and math.isnan(b)), (candidate, field.name)
        if fresh.tessac is None:
            outcomes["error"] += 1
        else:
            outcomes["feasible" if fresh.feasible else "penalized"] += 1
    assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes
    assert all(table.cache_info().hits > 0 for table in (memo.parking, memo.altitude, memo.plane))


def test_searches_share_no_work(monkeypatch):
    # The benchmark requires the work counts of a search to repeat exactly
    # at one seed; a cache that outlived a search would lower the next
    # search's counts. Each counted function is replaced wherever a module
    # looks it up, so the altitude stage's orbit work is counted too.
    calls = Counter()
    counted = {
        "fitness": optimizer.fitness,
        "poisson_tails": inventory._poisson_tails,
        "raan_drift_rate": orbits.raan_drift_rate,
        "hohmann_transfer": orbits.hohmann_transfer,
    }
    for label, real in counted.items():

        def count(*args, _label=label, _real=real):
            calls[_label] += 1
            return _real(*args)

        for module in (chain, costs, inventory, optimizer, orbits):
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, count)
    prob = dataclasses.replace(CASE_PROBLEM, ga=GAParams(population=20, generations=15, restarts=2))
    counts, results = [], []
    for _ in range(2):
        calls.clear()
        results.append(optimize(prob, seed=11))
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert all(counts[0].get(label, 0) > 0 for label in counted), counts[0]
    assert results[0] == results[1]


def test_ga_trajectory_is_pinned_on_bundled_case_study(monkeypatch):
    # Any change to the chain's numbers or the search's RNG use shows here
    # as a different best strategy, or, when the search still ends at the
    # same winner, as a different fitness-call count or trace.
    real_fitness = optimizer.fitness
    calls = Counter()

    def counted_fitness(*args):
        calls["fitness"] += 1
        return real_fitness(*args)

    monkeypatch.setattr(optimizer, "fitness", counted_fitness)
    rc = load_run_config(bundled_case_study_path())
    prob = OptimizationProblem(
        constellation=rc.constellation,
        launch=rc.launch,
        costs=rc.costs,
        satellite=rc.satellite,
        rho_target=rc.optimization.rho_target,
        bounds=rc.optimization.bounds,
        ga=rc.optimization.ga,
        consts=rc.earth,
    )
    result = optimize(prob, command_seed(0, "optimize"))
    assert result.feasible
    assert dataclasses.astuple(result.best_strategy) == (3, 745.0040573408563, 4, 3, 8, 7)
    assert result.best_cost == pytest.approx(314.26466802965, rel=1e-9)
    assert calls["fitness"] == 12769
    assert sum(row[2] for row in result.trace) == pytest.approx(253178.3464859282, rel=1e-12)
    assert sum(row[3] for row in result.trace) == pytest.approx(1063993756.3472103, rel=1e-12)


def test_ga_candidates_stay_in_bounds_with_exact_types(monkeypatch):
    # With four genomes, two elites and 300 generations, nearly every gene
    # value is reached by a mutation draw, so a replacement range that
    # dropped its upper end would leave a value unvisited.
    box = VariableBounds(
        n_parking=(4, 6),
        h_parking_km=(750.0, 760.0),
        q_plane=(2, 4),
        s_plane=(5, 7),
        k_q_parking=(1, 3),
        k_s_parking=(8, 10),
    )
    seen = []

    def record(candidate, prob, memo=None):
        genome = dataclasses.astuple(candidate)
        seen.append(genome)
        return FitnessResult(
            tessac=None,
            feasible=False,
            capacity_violation=0.0,
            fillrate_violation=0.0,
            penalized=float(sum(genome)),
            fill_rate_product=None,
            cost=None,
        )

    monkeypatch.setattr(optimizer, "fitness", record)
    prob = dataclasses.replace(
        CASE_PROBLEM, bounds=box, ga=GAParams(population=4, generations=300, restarts=1)
    )
    optimize(prob, seed=3)
    for g, name in enumerate(STRATEGY_BOUNDS):
        lo, hi = getattr(box, name)
        values = [genome[g] for genome in seen]
        assert all(lo <= v <= hi for v in values), name
        if isinstance(lo, float):
            assert all(type(v) is float for v in values), name
        else:
            assert all(type(v) is int for v in values), name
            assert set(values) == set(range(lo, hi + 1)), name


def test_tessac_and_fill_rate_never_rise_with_parking_altitude():
    # The exact search over h_parking relies on both falling (or staying
    # flat) as the parking orbit rises, at every fixed integer design.
    rng = np.random.default_rng(20261018)
    int_bounds = [b for name, b in STRATEGY_BOUNDS.items() if name != "h_parking_km"]
    combos = []
    while len(combos) < 100:
        n, q, s, kq, ks = (int(rng.integers(lo, hi + 1)) for lo, hi in int_bounds)
        if kq * q <= CASE_LAUNCH.cap_launch:
            combos.append((n, q, s, kq, ks))
    altitudes = [700.0 + 10.0 * i for i in range(31)]
    checked = 0
    for rate in (0.01, 0.05, 0.1):
        prob = dataclasses.replace(
            CASE_PROBLEM, constellation=dataclasses.replace(CASE_CFG, lambda_sat_per_year=rate)
        )
        for n, q, s, kq, ks in combos:
            fits = [fitness(SpareStrategy(n, h, q, s, kq, ks), prob) for h in altitudes]
            # The parking stage does not depend on the altitude, so a design
            # the model cannot evaluate fails at every altitude.
            if fits[0].tessac is None:
                assert all(f.tessac is None for f in fits)
                continue
            for low, high in zip(fits, fits[1:]):
                assert high.tessac <= low.tessac, (rate, n, q, s, kq, ks)
                assert high.fill_rate_product <= low.fill_rate_product, (rate, n, q, s, kq, ks)
            checked += 1
    assert checked >= 250


def test_tessac_and_fill_rate_never_fall_with_reorder_points():
    # The exact search over the reorder points relies on this, at every
    # fixed design: TESSAC rises by exactly p_holding * n_plane per unit of
    # s_plane and never falls as k_s_parking rises, and the fill-rate
    # product never falls as either rises.
    rng = np.random.default_rng(20261019)
    designs = []
    while len(designs) < 60:
        genes = [
            float(rng.uniform(lo, hi)) if isinstance(lo, float) else int(rng.integers(lo, hi + 1))
            for lo, hi in STRATEGY_BOUNDS.values()
        ]
        if genes[2] * genes[4] <= CASE_LAUNCH.cap_launch:
            designs.append(genes)
    s_step = COSTS.p_holding_musd_per_sat_year * CASE_CFG.n_plane
    pairs = Counter()
    for rate in (0.01, 0.05, 0.1):
        prob = dataclasses.replace(
            CASE_PROBLEM, constellation=dataclasses.replace(CASE_CFG, lambda_sat_per_year=rate)
        )
        for genes in designs:
            for gene, name in ((3, "s"), (5, "k_s")):
                lo, hi = list(STRATEGY_BOUNDS.values())[gene]
                fits = []
                for value in range(lo, hi + 1):
                    trial = list(genes)
                    trial[gene] = value
                    fits.append(fitness(SpareStrategy(*trial), prob))
                for low, high in zip(fits, fits[1:]):
                    # Too small a stock can leave the design unevaluable
                    # (negative holding); a larger one may mend it.
                    if low.tessac is None or high.tessac is None:
                        continue
                    if name == "s":
                        assert high.tessac - low.tessac == pytest.approx(s_step, rel=1e-9)
                    else:
                        assert high.tessac >= low.tessac, (rate, genes, name)
                    assert high.fill_rate_product >= low.fill_rate_product, (rate, genes, name)
                    pairs[name] += 1
    assert pairs["s"] >= 1400 and pairs["k_s"] >= 1400, pairs


def test_optimize_reports_infeasible_space():
    # a one-satellite launch cap leaves no evaluable strategy feasible
    prob = dataclasses.replace(
        CASE_PROBLEM,
        launch=LaunchParams(mu_launch_days=66.7, pt_launch_days=90.0, cap_launch=1),
        bounds=VariableBounds(
            n_parking=(1, 3),
            h_parking_km=(792.3, 792.3),
            q_plane=(1, 2),
            s_plane=(1, 3),
            k_q_parking=(1, 2),
            k_s_parking=(1, 3),
        ),
        ga=GAParams(population=12, generations=10, restarts=2),
    )
    result = optimize(prob, seed=0)
    assert not result.feasible
    assert result.best_strategy is None
    assert result.best_cost is None
    assert result.breakdown is None
    assert len(result.trace) == 20


def test_inplane_exhaustive_optimum():
    result = optimize_inplane_only(CASE_PROBLEM)
    assert result.best_policy == SQPolicy(reorder_point_s=3, order_quantity_q=21)
    assert result.best_cost == pytest.approx(484.16073059360735, rel=1e-12)
    assert result.fill_rate_product == pytest.approx(0.951032161874933, rel=1e-9)
    assert result.fill_rate_product >= 0.95


def test_inplane_optimum_with_twenty_satellite_rockets():
    # The paper's in-plane baseline of about 503 M$/yr is reproduced by the
    # q <= 20 optimum; the bundled 34-satellite cap gives (21, 3) above.
    prob = dataclasses.replace(
        CASE_PROBLEM, launch=dataclasses.replace(CASE_LAUNCH, cap_launch=20)
    )
    result = optimize_inplane_only(prob)
    assert result.best_policy == SQPolicy(reorder_point_s=4, order_quantity_q=20)
    assert result.best_cost == pytest.approx(503.227, abs=0.05)
    assert result.fill_rate_product == pytest.approx(0.98574, abs=1e-5)


@pytest.mark.parametrize("rate", [0.05, 0.5, 1.0])
def test_inplane_step_up_matches_a_wide_scan(rate):
    # Brute force over every Q up to the launch capacity and s up to 200,
    # ties to the smaller (Q, s); the step-up must land on the same policy
    # with the same floats.
    cfg = dataclasses.replace(CASE_CFG, lambda_sat_per_year=rate)
    prob = dataclasses.replace(CASE_PROBLEM, constellation=cfg)
    best = None
    for q in range(1, CASE_LAUNCH.cap_launch + 1):
        for s in range(0, 201):
            policy = SQPolicy(reorder_point_s=s, order_quantity_q=q)
            metrics = evaluate_inplane_only(cfg, policy, CASE_LAUNCH)
            product = metrics.rho_plane**cfg.n_plane
            if product < prob.rho_target:
                continue
            cost = tessac_inplane_only(cfg, policy, metrics, COSTS, CASE_LAUNCH).tessac
            if best is None or (cost, q, s) < best[:3]:
                best = (cost, q, s, product)
    assert best is not None and best[2] < 200  # the scan reached past the optimum
    result = optimize_inplane_only(prob)
    assert result.best_policy == SQPolicy(reorder_point_s=best[2], order_quantity_q=best[1])
    assert result.best_cost == best[0]
    assert result.fill_rate_product == best[3]


def test_sweep_records_errors_and_continues():
    infeasible_prob = dataclasses.replace(
        CASE_PROBLEM,
        launch=LaunchParams(mu_launch_days=66.7, pt_launch_days=90.0, cap_launch=1),
        bounds=VariableBounds(
            n_parking=(1, 3),
            h_parking_km=(792.3, 792.3),
            q_plane=(1, 2),
            s_plane=(1, 3),
            k_q_parking=(1, 2),
            k_s_parking=(1, 3),
        ),
        ga=GAParams(population=8, generations=4, restarts=1),
    )
    points = sensitivity_sweep(infeasible_prob, [0.05, 0.05], seed=0)
    assert len(points) == 2
    for p in points:
        assert p.error is not None
        assert p.savings_pct is None
        assert p.best_strategy is None


def test_sweep_savings_identity():
    prob = dataclasses.replace(
        CASE_PROBLEM, ga=GAParams(population=30, generations=40, restarts=2)
    )
    points = sensitivity_sweep(prob, [0.05], seed=0)
    (p,) = points
    assert p.error is None
    assert p.lambda_sat_per_year == 0.05
    assert p.tessac_multi > 0 and p.tessac_inplane > 0
    assert p.savings_pct == pytest.approx(
        (p.tessac_inplane - p.tessac_multi) / p.tessac_inplane * 100.0, rel=1e-12
    )
    assert p.tessac_multi < p.tessac_inplane
