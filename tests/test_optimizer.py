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
    SpareStrategy,
    StageMemo,
    evaluate_inplane_only,
)
from sparechain.cli import command_seed
from sparechain.costs import tessac_inplane_only
from sparechain.inventory import SQPolicy
from sparechain.optimizer import (
    ELITISM,
    ERROR_PENALTY,
    PENALTY_SCALE,
    FitnessResult,
    GAParams,
    VariableBounds,
    fitness,
    optimize,
    optimize_inplane_only,
    sensitivity_sweep,
)

from case import CFG, COSTS, LAUNCH, PROBLEM, STRATEGY
from oracles import breed_reference

CASE_TESSAC = 319.1326941382908
# The default search box, (lo, hi) per strategy field in field order.
SEARCH_BOX = vars(VariableBounds())


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


@pytest.mark.parametrize("name", ["s_plane", "k_s_parking"])
def test_variable_bounds_reject_an_infinite_upper_bound(name):
    # A strategy may take any reorder point, but a search box must be finite.
    with pytest.raises(ValueError, match=name):
        VariableBounds(**{name: (1, math.inf)})


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GAParams(population=1)
    # Two elite genomes would fill a population of two.
    with pytest.raises(ValueError):
        GAParams(population=2)


@pytest.mark.parametrize("name", ["population", "generations", "restarts"])
def test_ga_counts_must_be_integers(name):
    # A float or a bool count is rejected by name at construction, not
    # carried to a late TypeError; numpy integers pass.
    value = getattr(GAParams(), name)
    for bad in (float(value), value + 0.5, True):
        with pytest.raises(ValueError, match=name):
            GAParams(**{name: bad})
    assert GAParams(**{name: np.int64(value)}) == GAParams()


def test_problem_rejects_bad_target():
    with pytest.raises(ValueError):
        dataclasses.replace(PROBLEM, rho_target=1.0)


def test_fitness_feasible_candidate():
    f = fitness(STRATEGY, PROBLEM)
    assert f.feasible
    assert f.capacity_violation == 0.0
    assert f.fillrate_violation == 0.0
    assert f.tessac == pytest.approx(CASE_TESSAC, rel=1e-12)
    assert f.penalized == f.tessac
    assert f.fill_rate_product >= 0.95
    assert f.cost.tessac == f.tessac


def test_fitness_capacity_penalty():
    # k_q = 10 pushes the batch to 40 satellites against a cap of 34
    over = dataclasses.replace(STRATEGY, k_q_parking=10)
    f = fitness(over, PROBLEM)
    assert not f.feasible
    assert f.capacity_violation == pytest.approx((40 - 34) / 34, rel=1e-15)
    assert f.fillrate_violation == 0.0
    assert f.penalized == pytest.approx(f.tessac + PENALTY_SCALE * f.capacity_violation, rel=1e-12)


def test_fitness_fillrate_penalty():
    weak = dataclasses.replace(STRATEGY, s_plane=1)
    f = fitness(weak, PROBLEM)
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
    prob = dataclasses.replace(PROBLEM, constellation=low_cfg)
    f = fitness(dataclasses.replace(STRATEGY, h_parking_km=1000.0), prob)
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
        f = fitness(SpareStrategy(n, 792.3, q, s, kq, ks), PROBLEM)
        if f.feasible and (best is None or f.tessac < best):
            best = f.tessac
    assert best is not None
    prob = dataclasses.replace(
        PROBLEM, bounds=BOX, ga=GAParams(population=40, generations=60, restarts=3)
    )
    result = optimize(prob, seed=0)
    assert result.feasible
    assert result.best_cost == pytest.approx(best, rel=1e-12)
    assert result.breakdown.tessac == result.best_cost


def test_optimize_is_deterministic_per_seed():
    prob = dataclasses.replace(
        PROBLEM, bounds=BOX, ga=GAParams(population=12, generations=8, restarts=2)
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
    prob = dataclasses.replace(PROBLEM, ga=GAParams(population=20, generations=15, restarts=2))
    result = optimize(prob, seed=5)
    assert result.feasible
    fresh = fitness(result.best_strategy, prob)
    assert result.best_cost == fresh.tessac
    assert result.breakdown == fresh.cost
    assert result.fill_rate_product == fresh.fill_rate_product
    assert min(row[2] for row in result.trace) == fresh.penalized


def test_memoized_fitness_matches_memo_free_fitness():
    # One memo per problem, a loaded and a zero-failure one, serves a seeded
    # sequence of candidates; small value pools repeat every stage key.
    # Each result must equal a fitness call without a memo, which builds a
    # fresh one, field for field, errors (flat penalty, NaN slacks)
    # included.
    rng = np.random.default_rng(20261019)
    problems = (
        PROBLEM,
        dataclasses.replace(
            PROBLEM, constellation=dataclasses.replace(CFG, lambda_sat_per_year=0.0)
        ),
    )
    memos = [StageMemo(p.constellation, p.launch, p.consts, p.satellite) for p in problems]
    outcomes = Counter()
    for _ in range(600):
        i = int(rng.integers(2))
        prob, memo = problems[i], memos[i]
        candidate = SpareStrategy(
            n_parking=int(rng.choice([1, 3, 7])),
            h_parking_km=float(rng.choice([700.0, 792.3, 999.0])),
            q_plane=int(rng.choice([1, 4])),
            s_plane=int(rng.choice([1, 3, 10])),
            k_q_parking=int(rng.choice([1, 8])),
            k_s_parking=int(rng.choice([1, 8])),
        )
        memoized, fresh = fitness(candidate, prob, memo), fitness(candidate, prob)
        for field in FitnessResult._fields:
            a, b = getattr(memoized, field), getattr(fresh, field)
            assert a == b or (math.isnan(a) and math.isnan(b)), (candidate, field)
        if fresh.tessac is None:
            outcomes["error"] += 1
        else:
            outcomes["feasible" if fresh.feasible else "penalized"] += 1
    assert min(outcomes.values()) > 0 and len(outcomes) == 3, outcomes
    for memo in memos:
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
    prob = dataclasses.replace(PROBLEM, ga=GAParams(population=20, generations=15, restarts=2))
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
    result = optimize(PROBLEM, command_seed(0, "optimize"))
    assert result.feasible
    assert dataclasses.astuple(result.best_strategy) == (3, 745.0040573408563, 4, 3, 8, 7)
    assert result.best_cost == pytest.approx(314.26466802965, rel=1e-9)
    assert calls["fitness"] == 12769
    assert sum(row[2] for row in result.trace) == pytest.approx(253178.3464859282, rel=1e-12)
    assert sum(row[3] for row in result.trace) == pytest.approx(1063993756.3472103, rel=1e-12)


def test_breed_matches_the_reference_breed():
    # The crossover getters and the hit-only mutation loop must breed, from
    # an equally seeded stream, the children the reference breeds, value
    # and type, over random populations (with repeated genomes and tied
    # scores), bounds boxes (some pinning a variable, lo == hi) and seeds.
    rng = np.random.default_rng(20261021)
    pinned = 0
    for case in range(240):
        bounds = []
        for lo, hi in SEARCH_BOX.values():
            if isinstance(lo, float):
                a, b = sorted(float(x) for x in rng.uniform(lo, hi, 2))
            else:
                a, b = sorted(int(x) for x in rng.integers(lo, hi + 1, 2))
            if rng.random() < 0.15:
                b = a
                pinned += 1
            bounds.append((a, b))
        size = int(rng.integers(ELITISM + 1, 70))
        population = [optimizer._random_genome(rng, bounds) for _ in range(size)]
        for i in rng.integers(0, size, size // 4):
            population[i] = population[int(rng.integers(size))]
        scored = rng.integers(0, 5, size).tolist()
        order = sorted(range(size), key=lambda i: (scored[i], population[i]))
        seed = int(rng.integers(2**63))
        streams = [np.random.Generator(np.random.Philox(seed)) for _ in range(2)]
        got = optimizer._breed(population, order, streams[0], bounds)
        want = breed_reference(population, order, streams[1], bounds)
        assert got == [tuple(child) for child in want], case
        assert [tuple(map(type, c)) for c in got] == [tuple(map(type, c)) for c in want], case
    assert pinned >= 100


def test_bundled_search_computes_each_parking_key_once(monkeypatch):
    # The parking table keeps every key of its search. A stage that raises
    # stores nothing, so only its keys are computed again, on each visit.
    real_stage = chain.parking_stage
    calls, raised = Counter(), Counter()

    def counted_stage(*key):
        calls[key] += 1
        try:
            return real_stage(*key)
        except ValueError:
            raised[key] += 1
            raise

    monkeypatch.setattr(chain, "parking_stage", counted_stage)
    optimize(PROBLEM, command_seed(0, "optimize"))
    assert len(calls) > 2000
    assert all(calls[key] == 1 for key in calls if key not in raised)
    assert all(calls[key] == raised[key] for key in raised)


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
        PROBLEM, bounds=box, ga=GAParams(population=4, generations=300, restarts=1)
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
    int_bounds = [b for name, b in SEARCH_BOX.items() if name != "h_parking_km"]
    combos = []
    while len(combos) < 100:
        n, q, s, kq, ks = (int(rng.integers(lo, hi + 1)) for lo, hi in int_bounds)
        if kq * q <= LAUNCH.cap_launch:
            combos.append((n, q, s, kq, ks))
    altitudes = [700.0 + 10.0 * i for i in range(31)]
    checked = 0
    for rate in (0.01, 0.05, 0.1):
        prob = dataclasses.replace(
            PROBLEM, constellation=dataclasses.replace(CFG, lambda_sat_per_year=rate)
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
            for lo, hi in SEARCH_BOX.values()
        ]
        if genes[2] * genes[4] <= LAUNCH.cap_launch:
            designs.append(genes)
    s_step = COSTS.p_holding_musd_per_sat_year * CFG.n_plane
    pairs = Counter()
    for rate in (0.01, 0.05, 0.1):
        prob = dataclasses.replace(
            PROBLEM, constellation=dataclasses.replace(CFG, lambda_sat_per_year=rate)
        )
        for genes in designs:
            for gene, name in ((3, "s"), (5, "k_s")):
                lo, hi = list(SEARCH_BOX.values())[gene]
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


def test_optimize_reports_the_best_feasible_genome_not_the_best_penalized(monkeypatch):
    # Stubbed fitness: every genome with s_plane 1 is infeasible yet has the
    # lowest penalized score, and the feasible costs tie in pairs, so the
    # winner must be the cheapest feasible genome scored, with an exact tie
    # going to the smaller genome.
    scored = {}

    def stub(candidate, prob, memo=None):
        genome = dataclasses.astuple(candidate)
        if candidate.s_plane == 1:
            fit = FitnessResult(1.0, False, 0.0, 1e-9, 1.0 + PENALTY_SCALE * 1e-9, 0.9, None)
        else:
            cost = 2.0 + candidate.q_plane // 2
            fit = FitnessResult(cost, True, 0.0, 0.0, cost, 0.99, None)
        scored[genome] = fit
        return fit

    monkeypatch.setattr(optimizer, "fitness", stub)
    prob = dataclasses.replace(
        PROBLEM,
        bounds=VariableBounds(
            n_parking=(3, 3),
            h_parking_km=(792.3, 792.3),
            q_plane=(1, 4),
            s_plane=(1, 3),
            k_q_parking=(8, 8),
            k_s_parking=(8, 8),
        ),
        ga=GAParams(population=6, generations=4, restarts=2),
    )
    result = optimize(prob, seed=0)
    assert min(row[2] for row in result.trace) == 1.0 + PENALTY_SCALE * 1e-9
    feasible = sorted((f.tessac, g) for g, f in scored.items() if f.feasible)
    assert feasible[0][0] == feasible[1][0], "the test needs an exact tie"
    assert result.feasible
    assert dataclasses.astuple(result.best_strategy) == feasible[0][1]
    assert result.best_cost == feasible[0][0]
    assert result.fill_rate_product == 0.99


def test_optimize_reports_infeasible_space():
    # a one-satellite launch cap leaves no evaluable strategy feasible
    prob = dataclasses.replace(
        PROBLEM,
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
    result = optimize_inplane_only(PROBLEM)
    assert result.best_policy == SQPolicy(reorder_point_s=3, order_quantity_q=21)
    assert result.best_cost == pytest.approx(484.16073059360735, rel=1e-12)
    assert result.fill_rate_product == pytest.approx(0.951032161874933, rel=1e-9)
    assert result.fill_rate_product >= 0.95


def test_inplane_optimum_with_twenty_satellite_rockets():
    # The paper's in-plane baseline of about 503 M$/yr is reproduced by the
    # q <= 20 optimum; the bundled 34-satellite cap gives (21, 3) above.
    prob = dataclasses.replace(
        PROBLEM, launch=dataclasses.replace(LAUNCH, cap_launch=20)
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
    cfg = dataclasses.replace(CFG, lambda_sat_per_year=rate)
    prob = dataclasses.replace(PROBLEM, constellation=cfg)
    best = None
    for q in range(1, LAUNCH.cap_launch + 1):
        for s in range(0, 201):
            policy = SQPolicy(reorder_point_s=s, order_quantity_q=q)
            metrics = evaluate_inplane_only(cfg, policy, LAUNCH)
            product = metrics.rho_plane**cfg.n_plane
            if product < prob.rho_target:
                continue
            cost = tessac_inplane_only(cfg, policy, metrics, COSTS, LAUNCH).tessac
            if best is None or (cost, q, s) < best[:3]:
                best = (cost, q, s, product)
    assert best is not None and best[2] < 200  # the scan reached past the optimum
    result = optimize_inplane_only(prob)
    assert result.best_policy == SQPolicy(reorder_point_s=best[2], order_quantity_q=best[1])
    assert result.best_cost == best[0]
    assert result.fill_rate_product == best[3]


def test_least_reorder_point_is_the_baseline_step_up_at_every_q():
    # The loop the in-plane search ran before the walk was shared: s steps
    # up from 0 until the fill-rate product meets the target.
    cfg, target = CFG, PROBLEM.rho_target

    def product(s, q):
        metrics = evaluate_inplane_only(cfg, SQPolicy(s, q), LAUNCH)
        return metrics.rho_plane**cfg.n_plane

    for q in range(1, LAUNCH.cap_launch + 1):
        step_up = next(s for s in itertools.count() if product(s, q) >= target)
        assert inventory.least_reorder_point(lambda s: product(s, q) >= target, 0) == step_up


def test_reorder_point_past_the_default_box_beats_the_ground_only_optimum():
    # k_s_parking 35 lies outside the default search box but is a valid
    # strategy. At 0.5/yr it meets the fill-rate target for less than the
    # exact ground-only optimum, which the capped search cannot reach.
    prob = dataclasses.replace(
        PROBLEM, constellation=dataclasses.replace(CFG, lambda_sat_per_year=0.5)
    )
    fit = fitness(SpareStrategy(7, 706.0, 4, 8, 8, 35), prob)
    assert fit.feasible
    assert fit.tessac == pytest.approx(2165.3050842316034, rel=1e-12)
    assert fit.fill_rate_product == pytest.approx(0.95013, abs=5e-6)
    base = optimize_inplane_only(prob)
    assert base.best_policy == SQPolicy(reorder_point_s=24, order_quantity_q=34)
    assert base.best_cost == pytest.approx(2178.274, abs=5e-4)
    assert fit.tessac < base.best_cost


@pytest.mark.parametrize(
    ("change", "cause"),
    [
        ({"inclination_deg": 90.0}, "^zero relative drift rate: planes never align$"),
        ({"h_plane_km": 650.0}, "lowest parking altitude 700.0 km of the search box is not below"),
    ],
)
def test_searches_reject_a_problem_no_candidate_escapes(change, cause, monkeypatch):
    # Both searches name the cause before they score a single candidate.
    def unexpected(*args):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(optimizer, "fitness", unexpected)
    prob = dataclasses.replace(PROBLEM, constellation=dataclasses.replace(CFG, **change))
    with pytest.raises(ValueError, match=cause):
        optimize(prob, seed=0)
    with pytest.raises(ValueError, match=cause):
        sensitivity_sweep(prob, [0.01, 0.1])


def test_fitness_passes_problem_errors_through():
    # Only candidate-level errors earn the flat penalty; a polar problem
    # fails every candidate, and its cause reaches the caller.
    polar = dataclasses.replace(CFG, inclination_deg=90.0)
    prob = dataclasses.replace(PROBLEM, constellation=polar)
    with pytest.raises(ValueError, match="^zero relative drift rate: planes never align$"):
        fitness(STRATEGY, prob)


def test_fitness_penalizes_negative_holding():
    # A widened box reaches designs whose stock formulas, and so holding
    # cost, go negative: at 0.1/yr one satellite per plane batch leaves the
    # mean plane stock below zero. A larger stock may mend it.
    prob = dataclasses.replace(
        PROBLEM, constellation=dataclasses.replace(CFG, lambda_sat_per_year=0.1)
    )
    strategy = SpareStrategy(2, 700.0, 1, 1, 8, 30)
    memo = StageMemo(prob.constellation, prob.launch, prob.consts, prob.satellite)
    metrics, transfer = memo.figures(strategy)
    with pytest.raises(costs.NegativeHoldingError):
        costs.tessac(prob.constellation, strategy, metrics, transfer, COSTS, LAUNCH)
    assert fitness(strategy, prob).penalized == ERROR_PENALTY


def test_sweep_records_errors_and_continues():
    infeasible_prob = dataclasses.replace(
        PROBLEM,
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
        PROBLEM, ga=GAParams(population=30, generations=40, restarts=2)
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
