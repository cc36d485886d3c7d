"""End-to-end acceptance checks of the seven headline behaviors.

Each test prints one PASS/FAIL scorecard line with the measured numbers
(visible even under output capture). Statistical checks run with fixed
seeds; the asserted bands are the documented release targets.
"""

import math
import statistics
import time
from datetime import datetime, timedelta

import numpy as np
import pytest
from scipy import stats

from sparechain.chain import (
    evaluate_strategy,
    leadtime_expected_shortage,
    plane_leadtime,
    supply_probabilities,
)
from sparechain.config import bundled_launch_dates_path
from sparechain.inventory import expected_shortage
from sparechain.optimizer import (
    GAParams,
    optimize,
    optimize_inplane_only,
    sensitivity_sweep,
)
from sparechain.orbits import WGS84, CircularOrbit, hohmann_transfer

from case import CFG, COSTS, LAUNCH, PROBLEM, SAT, STRATEGY
from oracles import (
    enumerated_rank_probabilities,
    expected_shortage_mixture,
    poisson_shortage,
    supply_probabilities_raw,
)
from sparechain.simulator import SimConfig, run_batch
from sparechain.validation import (
    TradeSpace,
    fit_launch_gaps,
    read_launch_dates,
    run_validation,
)


TARGET_TESSAC_MULTI = 319.1
TARGET_TESSAC_INPLANE = 503.2
TARGET_SAVINGS_PCT = 36.6


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def ga_outcome():
    start = time.perf_counter()
    result = optimize(PROBLEM, seed=1)
    return result, time.perf_counter() - start


def test_criterion_1_optimized_case_study(ga_outcome, capsys):
    result, elapsed = ga_outcome
    assert result.feasible
    cost = result.best_cost
    deviation = abs(cost - TARGET_TESSAC_MULTI) / TARGET_TESSAC_MULTI

    strategy = result.best_strategy
    metrics = evaluate_strategy(CFG, strategy, LAUNCH)  # independent re-check
    product = metrics.rho_plane**CFG.n_plane * metrics.rho_parking**strategy.n_parking

    ok = (
        deviation <= 0.10
        and strategy.q_parking <= LAUNCH.cap_launch
        and product >= 0.95
        and elapsed <= 15 * 60
    )
    _report(
        capsys,
        1,
        ok,
        f"tessac {cost:.4f} MUSD/yr ({deviation * 100:+.2f}% of {TARGET_TESSAC_MULTI}), "
        f"q_parking {strategy.q_parking} <= {LAUNCH.cap_launch}, "
        f"fill-rate product {product:.6f} >= 0.95, {elapsed:.1f}s",
    )
    assert deviation <= 0.10
    assert strategy.q_parking <= LAUNCH.cap_launch
    assert product >= 0.95
    assert elapsed <= 15 * 60


def test_criterion_2_single_echelon_baseline_and_savings(ga_outcome, capsys):
    baseline = optimize_inplane_only(PROBLEM)
    deviation = abs(baseline.best_cost - TARGET_TESSAC_INPLANE) / TARGET_TESSAC_INPLANE

    multi, _ = ga_outcome
    savings = (baseline.best_cost - multi.best_cost) / baseline.best_cost * 100.0

    ok = deviation <= 0.10 and abs(savings - TARGET_SAVINGS_PCT) <= 6.0
    _report(
        capsys,
        2,
        ok,
        f"baseline tessac {baseline.best_cost:.4f} MUSD/yr "
        f"({deviation * 100:+.2f}% of {TARGET_TESSAC_INPLANE}) at "
        f"(Q={baseline.best_policy.order_quantity_q}, s={baseline.best_policy.reorder_point_s}), "
        f"savings {savings:.2f}% vs target {TARGET_SAVINGS_PCT}% +/- 6pp",
    )
    assert deviation <= 0.10
    assert abs(savings - TARGET_SAVINGS_PCT) <= 6.0


# Criterion 3's bands on the averaged % error of each output.
CRITERION_3_LIMITS = {
    "mean_stock_plane": 10.0,
    "mean_stock_parking": 10.0,
    "rho_plane": 2.5,
    "rho_parking": 2.5,
    "tessac": 10.0,
}


def criterion_3_study(seed: int):
    """Criterion 3's accuracy study: 25 cases, 100 reps x 15 years."""
    return run_validation(
        TradeSpace(),
        25,
        costs=COSTS,
        satellite=SAT,
        consts=WGS84,
        replications=100,
        horizon_years=15.0,
        warmup_years=1.0,
        seed=seed,
    )


def test_criterion_3_model_accuracy_study(capsys):
    start = time.perf_counter()
    report = criterion_3_study(seed=20)
    elapsed = time.perf_counter() - start
    errors = report.averaged_errors_pct
    ok = (
        report.infeasible_count < 25
        and all(errors[name] <= lim for name, lim in CRITERION_3_LIMITS.items())
        and elapsed <= 2 * 3600
    )
    detail = ", ".join(
        f"{name} {errors[name]:.2f}%<={lim}" for name, lim in CRITERION_3_LIMITS.items()
    )
    _report(
        capsys,
        3,
        ok,
        f"25 cases ({report.infeasible_count} infeasible), 100 reps x 15 yr: "
        f"{detail}, {elapsed:.0f}s",
    )
    assert report.infeasible_count < 25
    for name, lim in CRITERION_3_LIMITS.items():
        assert errors[name] <= lim, f"{name}: {errors[name]:.3f}% > {lim}%"
    assert elapsed <= 2 * 3600


def test_criterion_4_savings_across_failure_rates(capsys):
    rates = [0.001, 0.005, 0.01, 0.05, 0.1]
    points = sensitivity_sweep(PROBLEM, rates, seed=0)
    assert all(p.error is None for p in points)
    savings = [p.savings_pct for p in points]
    peak_idx = max(range(len(rates)), key=lambda i: savings[i])
    ok = (
        all(s > 0 for s in savings)
        and rates[peak_idx] == 0.01
        and 0 < peak_idx < len(rates) - 1
        and 35.0 <= savings[peak_idx] <= 50.0
    )
    profile = ", ".join(f"{r:g}: {s:.1f}%" for r, s in zip(rates, savings))
    _report(
        capsys,
        4,
        ok,
        f"savings positive at all rates ({profile}); peak {savings[peak_idx]:.1f}% "
        f"at interior rate {rates[peak_idx]:g} within [35, 50]",
    )
    assert all(s > 0 for s in savings)
    assert rates[peak_idx] == 0.01 and 0 < peak_idx < len(rates) - 1
    assert 35.0 <= savings[peak_idx] <= 50.0


def test_criterion_5_model_identity_oracles(capsys):
    start = time.perf_counter()

    # closed-form expected shortage vs a straight Poisson tail sum
    worst_es = 0.0
    for s in range(30):
        for m in (1e-6, 0.01, 0.3, 1.0, 2.7, 5.0, 9.99, 17.3, 40.0):
            k_hi = int(m + 20.0 * math.sqrt(m) + 120.0)
            ks = np.arange(s + 1, k_hi + 1)
            tail = float(np.sum((ks - s) * stats.poisson.pmf(ks, m)))
            got = expected_shortage(s, m)
            if tail > 0:
                worst_es = max(worst_es, abs(got - tail) / tail)
    es_ok = worst_es <= 1e-10

    # supplier-rank probabilities vs 2^N enumeration, and the mass identity
    worst_rank = 0.0
    worst_mass = 0.0
    for n in (1, 2, 3, 5, 8, 10):
        for p in (0.05, 0.37, 0.5, 0.9951431731426084, 1.0):
            enumerated = enumerated_rank_probabilities(p, n)
            total = math.fsum(enumerated)
            got = supply_probabilities(p, n)
            worst_rank = max(
                worst_rank,
                max(abs(g - e / total) for g, e in zip(got, enumerated)),
            )
            raw_sum = math.fsum(supply_probabilities_raw(p, n))
            worst_mass = max(worst_mass, abs(raw_sum - (1.0 - (1.0 - p) ** n)))
    rank_ok = worst_rank <= 1e-12
    mass_ok = worst_mass <= 1e-12

    # closed-form lead-time shortages vs 1e6-sample Monte Carlo
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20260815)))
    n_mc = 1_000_000
    metrics = evaluate_strategy(CFG, STRATEGY, LAUNCH)
    weights, segments = plane_leadtime(STRATEGY, CFG, metrics.p_av)
    seg = np.asarray(segments)
    choice = rng.choice(len(weights), size=n_mc, p=np.asarray(weights))
    taus = rng.uniform(seg[choice, 0], seg[choice, 1])
    lam_plane = metrics.lambda_plane_per_day
    mc_plane = float(np.mean(poisson_shortage(STRATEGY.s_plane, lam_plane * taus)))
    exact_plane = expected_shortage_mixture(
        STRATEGY.s_plane, weights, [(lam_plane * lo, lam_plane * hi) for lo, hi in segments]
    )
    taus = LAUNCH.pt_launch_days + rng.exponential(LAUNCH.mu_launch_days, size=n_mc)
    mc_park = float(
        np.mean(
            poisson_shortage(
                STRATEGY.k_s_parking, metrics.lambda_parking_batches_per_day * taus
            )
        )
    )
    exact_park = leadtime_expected_shortage(
        STRATEGY.k_s_parking, metrics.lambda_parking_batches_per_day, LAUNCH
    )
    mc_plane_err = abs(exact_plane - mc_plane) / mc_plane
    mc_park_err = abs(exact_park - mc_park) / mc_park
    mc_ok = mc_plane_err <= 0.01 and mc_park_err <= 0.01

    # two-impulse transfer speed change for the 700 -> 1200 km raise
    dv = hohmann_transfer(
        CircularOrbit(700.0, 50.0), CircularOrbit(1200.0, 50.0), SAT.m_dry_kg, SAT.v_exhaust_km_s
    ).delta_v_km_s
    dv_ok = abs(dv - 0.2517) <= 0.0001

    elapsed = time.perf_counter() - start
    ok = es_ok and rank_ok and mass_ok and mc_ok and dv_ok and elapsed < 60.0
    _report(
        capsys,
        5,
        ok,
        f"shortage closed form vs tail sum rel {worst_es:.1e}<=1e-10; rank probs vs "
        f"enumeration abs {worst_rank:.1e}<=1e-12; mass identity abs {worst_mass:.1e}<=1e-12; "
        f"closed form vs 1e6-sample MC rel {mc_plane_err * 100:.2f}%/{mc_park_err * 100:.2f}%<=1%; "
        f"delta-v {dv:.5f} km/s = 0.2517 +/- 0.0001; {elapsed:.1f}s < 60s",
    )
    assert es_ok and rank_ok and mass_ok and mc_ok and dv_ok
    assert elapsed < 60.0


def test_criterion_6_conservation_and_worker_invariance(capsys):
    sc = SimConfig(
        constellation=CFG,
        strategy=STRATEGY,
        launch=LAUNCH,
        costs=COSTS,
        satellite=SAT,
        horizon_years=15.0,
        replications=30,
        seed=77,
        warmup_years=1.0,
    )
    serial = run_batch(sc, jobs=1)
    threaded = run_batch(sc, jobs=7)
    identical = serial == threaded

    conserved = True
    for rep in serial.per_replication:
        launched = STRATEGY.q_parking * rep.ground_orders
        if rep.final_on_hand + rep.final_in_transit + rep.served != rep.initial_on_hand + launched:
            conserved = False
        if rep.served + rep.backorders_end != rep.failures:
            conserved = False

    ok = identical and conserved
    _report(
        capsys,
        6,
        ok,
        f"30 replications: satellite conservation exact in all; "
        f"jobs=1 vs jobs=7 aggregates bit-identical: {identical}",
    )
    assert conserved
    assert identical


def test_criterion_7_launch_gap_estimator(capsys):
    gaps = [3.25, 66.5, 1.0, 12.75, 128.0]
    stamps = [datetime(2019, 6, 1)]
    for g in gaps:
        stamps.append(stamps[-1] + timedelta(days=g))
    exact = fit_launch_gaps(stamps) == statistics.fmean(gaps)

    bundled = fit_launch_gaps(read_launch_dates(bundled_launch_dates_path()))
    in_band = abs(bundled - 66.7) <= 0.1

    ok = exact and in_band
    _report(
        capsys,
        7,
        ok,
        f"estimator equals the sample mean exactly: {exact}; "
        f"bundled history mean gap {bundled:.4f} d = 66.7 +/- 0.1",
    )
    assert exact
    assert in_band
