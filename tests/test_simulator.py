import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from sparechain.chain import (
    DAYS_PER_YEAR,
    ConstellationConfig,
    LaunchParams,
    SpareStrategy,
    evaluate_strategy,
    plane_demand_rate,
)
from sparechain.orbits import CircularOrbit, hohmann_transfer, raan_drift_rate
from case import CFG, COSTS, LAUNCH, SAT, STRATEGY
from oracles import LogMismatch, nearest_parking, replay_events
from sparechain import simulator
from sparechain.simulator import (
    _FAILURE_BLOCK,
    Estimates,
    SimConfig,
    _closest_parking,
    _draw_failures,
    _run_with_rng,
    child_seed,
    run_batch,
    run_replication,
    stream,
)


DRIFT_700_50 = -0.07764129229814469
DRIFT_1200_50 = -0.0611421276394433
TOF_700_1200_DAYS = 0.036129139021561396
FUEL_700_1200 = 18.53943710466358


class ScriptedLaunchRng:
    """Replays fixed launch-window waits."""

    def __init__(self, exponentials):
        self._exp = list(exponentials)

    def exponential(self, scale):
        return self._exp.pop(0)


def _toy_config(**overrides):
    cfg = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=1, n_sats=1, lambda_sat_per_year=1.0
    )
    strategy = SpareStrategy(
        n_parking=1, h_parking_km=700.0, q_plane=1, s_plane=1, k_q_parking=1, k_s_parking=1
    )
    launch = LaunchParams(mu_launch_days=66.7, pt_launch_days=20.0, cap_launch=34)
    base = dict(
        constellation=cfg,
        strategy=strategy,
        launch=launch,
        costs=COSTS,
        satellite=SAT,
        horizon_years=2.0,
        replications=1,
        seed=0,
        warmup_years=0.0,
        capture_events=True,
    )
    base.update(overrides)
    return SimConfig(**base)


def _case_config(**overrides):
    """A simulation of the bundled case study."""
    base = dict(constellation=CFG, strategy=STRATEGY, launch=LAUNCH, costs=COSTS, satellite=SAT)
    return SimConfig(**base, **overrides)


def test_hand_traced_replication():
    # Scripted draws: failure gaps 50 then 500 then 5000 days on plane 0
    # (the last lands beyond the 730-day horizon), launch-window waits 10
    # and 100.
    sc = _toy_config()
    waits = ScriptedLaunchRng([10.0, 100.0])
    rep = _run_with_rng(sc, [50.0, 50.0 + 500.0, 550.0 + 5000.0], [0, 0, 0], waits)

    relative = DRIFT_700_50 - DRIFT_1200_50
    wait1 = ((relative * 50.0) % (2 * math.pi)) / abs(relative)
    wait2 = ((relative * 550.0) % (2 * math.pi)) / abs(relative)
    arr1 = 50.0 + wait1 + TOF_700_1200_DAYS

    expected = [
        (50.0, "failure", 0, 1),
        (50.0, "plane_order", 0, 1),
        (50.0, "transfer_start", 0, 1),
        (50.0, "ground_order", 0, 1),
        (80.0, "parking_arrival", 0, 2),
        (arr1, "plane_arrival", 0, 2),
        (550.0, "failure", 0, 1),
        (550.0, "plane_order", 0, 1),
        (550.0, "transfer_start", 0, 1),
        (550.0, "ground_order", 0, 1),
        (670.0, "parking_arrival", 0, 2),
    ]
    assert len(rep.events) == len(expected)
    for got, want in zip(rep.events, expected):
        assert got[1:] == want[1:]
        assert got[0] == pytest.approx(want[0], rel=1e-12)

    assert waits._exp == []  # one wait per ground order
    assert rep.failures == 2
    assert rep.served == 2
    assert rep.backorders_end == 0
    assert rep.plane_orders == 2
    assert rep.transfers == 2
    assert rep.plane_arrivals == 1  # second batch still in flight at the end
    assert rep.ground_orders == 2
    assert rep.ground_arrivals == 2
    assert rep.initial_on_hand == 4
    assert rep.final_on_hand == 3
    assert rep.final_in_transit == 1
    assert rep.rho_plane == 1.0
    assert rep.rho_parking == 1.0
    replay = replay_events(sc, rep, [(50.0, 0), (550.0, 0), (5550.0, 0)], [10.0, 100.0])
    assert replay.result == rep
    assert replay.leadtimes == pytest.approx(
        [wait1 + TOF_700_1200_DAYS, wait2 + TOF_700_1200_DAYS], rel=1e-12
    )

    int_plane = 2 * 50.0 + 1 * (arr1 - 50.0) + 2 * (550.0 - arr1) + 1 * (730.0 - 550.0)
    int_park = 2 * 50.0 + 1 * 30.0 + 2 * 470.0 + 1 * 120.0 + 2 * 60.0
    assert rep.mean_stock_plane == pytest.approx(int_plane / 730.0, rel=1e-12)
    assert rep.mean_stock_parking_batches == pytest.approx(int_park / 730.0, rel=1e-12)

    manufacturing = 0.5 * 2 / 2.0
    holding = 0.5 * (int_plane / 730.0 + int_park / 730.0)
    launch = 10.0 * 2 / 2.0  # one-satellite batches price per unit
    maneuvering = 0.001 * FUEL_700_1200 * 2 / 2.0
    assert rep.tessac == pytest.approx(manufacturing + holding + launch + maneuvering, rel=1e-12)


def _toy_drift_and_flight():
    """Relative drift and flight time from the toy 700 km parking orbit to its plane."""
    parking, plane = CircularOrbit(700.0, 50.0), CircularOrbit(1200.0, 50.0)
    relative = raan_drift_rate(parking) - raan_drift_rate(plane)
    tof = hohmann_transfer(parking, plane, SAT.m_dry_kg, SAT.v_exhaust_km_s).time_of_flight_days
    return relative, tof


def _toy_plane_arrival(t):
    """When a batch ordered at time t reaches the toy config's single plane."""
    relative, tof = _toy_drift_and_flight()
    (wait, _), _ = _closest_parking(t, 0.0, relative, [0.0], [2])
    return t + wait + tof


def test_hand_traced_restock_serves_queued_orders_in_order():
    # Nine planes fail once each at days 10-18; each orders one batch.
    # The two parking orbits hold 3 batches each, so the orders of planes
    # 6, 7 and 8 queue. A restock brings k_q_parking = 2 batches: it
    # serves planes 6 and 7, and plane 8 waits for the next arrival.
    cfg = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=9, n_sats=1, lambda_sat_per_year=1.0
    )
    two = SpareStrategy(
        n_parking=2, h_parking_km=700.0, q_plane=1, s_plane=1, k_q_parking=2, k_s_parking=1
    )
    sc = _toy_config(constellation=cfg, strategy=two, horizon_years=3.0)
    times = [10.0 + j for j in range(9)]
    waits = [100.0, 400.0, 5e3, 5e3]
    rep = _run_with_rng(sc, times, list(range(9)), ScriptedLaunchRng(waits))
    replay = replay_events(sc, rep, list(zip(times, range(9))), waits)
    assert replay.result == rep

    relative, tof = _toy_drift_and_flight()

    def wait(p, j, t):
        # Orbit p (phase pi*p + relative*t) closes on plane j's RAAN
        # backwards, since relative < 0.
        gap = (math.pi * p + relative * t - 2 * math.pi * j / 9) % (2 * math.pi)
        return gap / abs(relative)

    assert relative < 0.0
    queued = [(e[0], e[2]) for e in rep.events if e[1] == "order_queued"]
    assert queued == [(16.0, 6), (17.0, 7), (18.0, 8)]
    # Orbit 1 is emptied first: its ground order (wait 100) lands before
    # orbit 0's (wait 400).
    ground = [(e[0], e[2]) for e in rep.events if e[1] == "ground_order"]
    assert [p for _, p in ground[:2]] == [1, 0]
    t1, t2 = ground[0][0] + 120.0, ground[1][0] + 420.0
    assert t1 < t2
    assert [e[1:] for e in rep.events if e[0] == t1] == [
        ("parking_arrival", 1, 2),
        ("transfer_start", 1, 1),
        ("ground_order", 1, 1),
        ("transfer_start", 1, 0),
    ]
    assert [e[1:] for e in rep.events if e[0] == t2] == [
        ("parking_arrival", 0, 2),
        ("transfer_start", 0, 1),
        ("ground_order", 0, 1),
    ]
    starts = [e[0] for e in rep.events if e[1] == "transfer_start"]
    assert starts[6:] == [t1, t1, t2]
    # Transfers 7-9 serve planes 6 and 7 from orbit 1, then plane 8 from
    # orbit 0, each after its exact alignment wait.
    served = [(1, 6, t1), (1, 7, t1), (0, 8, t2)]
    assert replay.leadtimes[6:] == [wait(p, j, t) + tof for p, j, t in served]
    arrivals = {e[2]: e[0] for e in rep.events if e[1] == "plane_arrival"}
    assert [arrivals[j] for _, j, _ in served] == [t + wait(p, j, t) + tof for p, j, t in served]
    assert rep.transfers == 9


def _nudge_until(f, target, x):
    """Step x one ulp at a time until f(x) == target exactly; None if it skips it."""
    for _ in range(64):
        y = f(x)
        if y == target:
            return x
        x = math.nextafter(x, math.inf if y < target else -math.inf)
    return None


def test_failure_at_an_arrival_time_is_handled_first():
    # The ground order placed at 50 lands at 50 + (20 + 10) = 80, the
    # time of the second failure; the batch sent at 50 is still in flight.
    # Its arrival reorders, and that transfer's ground order waits 1000.
    sc = _toy_config()
    rep = _run_with_rng(sc, [50.0, 80.0], [0, 0], ScriptedLaunchRng([10.0, 1000.0]))
    at_80 = [e for e in rep.events if e[0] == 80.0]
    assert at_80 == [(80.0, "failure", 0, 0), (80.0, "parking_arrival", 0, 2)]
    assert _toy_plane_arrival(50.0) > 80.0


def test_equal_time_arrivals_are_handled_in_scheduling_order():
    # A plane and a parking arrival at one time: the transfer is
    # scheduled before its parking orbit's ground order.
    sc = _toy_config()
    arrival = _toy_plane_arrival(50.0)
    wait = _nudge_until(lambda w: 50.0 + (20.0 + w), arrival, arrival - 70.0)
    assert wait is not None
    rep = _run_with_rng(sc, [50.0], [0], ScriptedLaunchRng([wait]))
    tied = [e[1:] for e in rep.events if e[0] == arrival]
    assert tied == [("plane_arrival", 0, 2), ("parking_arrival", 0, 2)]

    # Two parking arrivals at 500: orbit 1's ground order (placed at 50)
    # before orbit 0's (placed at 250), so orbit 1 is restocked first.
    two = SpareStrategy(
        n_parking=2, h_parking_km=700.0, q_plane=1, s_plane=1, k_q_parking=1, k_s_parking=1
    )
    sc = _toy_config(strategy=two)
    rep = _run_with_rng(sc, [50.0, 250.0], [0, 0], ScriptedLaunchRng([430.0, 230.0]))
    starts = [e[2] for e in rep.events if e[1] == "transfer_start"]
    assert starts == [1, 0]
    tied = [e[1:] for e in rep.events if e[0] == 500.0]
    assert tied == [("parking_arrival", 1, 2), ("parking_arrival", 0, 2)]


def test_failure_at_the_horizon_counts_and_one_past_it_does_not():
    sc = _toy_config(warmup_years=1.0)
    horizon = 2.0 * DAYS_PER_YEAR
    at = _run_with_rng(sc, [horizon], [0], ScriptedLaunchRng([1000.0]))
    assert (at.failures, at.failures_window, at.plane_orders) == (1, 1, 1)
    assert at.events[0] == (horizon, "failure", 0, 1)
    past = _run_with_rng(
        sc, [math.nextafter(horizon, math.inf)], [0], ScriptedLaunchRng([1000.0])
    )
    assert (past.failures, past.failures_window, past.plane_orders) == (0, 0, 0)
    assert past.events == ()


def test_failure_at_the_end_of_the_warmup_is_in_the_window():
    sc = _toy_config(warmup_years=1.0)
    warmup = 1.0 * DAYS_PER_YEAR
    at = _run_with_rng(sc, [warmup], [0], ScriptedLaunchRng([1000.0]))
    assert (at.failures, at.failures_window, at.transfers_window) == (1, 1, 1)
    before = _run_with_rng(sc, [math.nextafter(warmup, 0.0)], [0], ScriptedLaunchRng([1000.0]))
    assert (before.failures, before.failures_window, before.transfers_window) == (1, 0, 0)


def test_arrivals_at_the_horizon_are_handled():
    # Ground order at 50 landing at 50 + (20 + 660) = 730, the horizon.
    sc = _toy_config()
    rep = _run_with_rng(sc, [50.0], [0], ScriptedLaunchRng([660.0]))
    assert (rep.ground_arrivals, rep.ground_arrivals_window) == (1, 1)
    assert rep.events[-1] == (730.0, "parking_arrival", 0, 2)

    # A horizon that ends exactly at a batch's plane arrival. Not every
    # arrival time is some float horizon_years * DAYS_PER_YEAR, so the
    # failure that orders the batch moves until one is.
    for t in range(50, 80):
        arrival = _toy_plane_arrival(float(t))
        years = _nudge_until(lambda y: y * DAYS_PER_YEAR, arrival, arrival / DAYS_PER_YEAR)
        if years is not None:
            break
    assert years is not None
    sc = _toy_config(horizon_years=years)
    rep = _run_with_rng(sc, [float(t)], [0], ScriptedLaunchRng([1000.0]))
    assert rep.plane_arrivals == 1
    assert rep.events[-1] == (arrival, "plane_arrival", 0, 2)
    assert rep.final_in_transit == 1  # the ground batch only


def _random_oracle_config(rng):
    """A short random simulation that reaches backorders and queued orders."""
    hi = 4 if rng.random() < 0.7 else 11  # mostly small stocks, so orders queue
    cfg = ConstellationConfig(
        h_plane_km=1200.0,
        inclination_deg=50.0,
        n_plane=int(rng.integers(1, 41)),
        n_sats=int(rng.integers(1, 21)),
        lambda_sat_per_year=float(rng.uniform(0.0, 0.4)),
    )
    strategy = SpareStrategy(
        n_parking=int(rng.integers(1, 21)),
        h_parking_km=float(rng.uniform(700.0, 1000.0)),
        q_plane=1 if rng.random() < 0.3 else int(rng.integers(1, hi)),
        s_plane=int(rng.integers(1, hi)),
        k_q_parking=int(rng.integers(1, hi)),
        k_s_parking=int(rng.integers(1, hi)),
    )
    launch = LaunchParams(
        mu_launch_days=float(rng.uniform(1.0, 200.0)),
        pt_launch_days=float(rng.uniform(0.0, 200.0)),
        cap_launch=200,
    )
    horizon = float(rng.uniform(0.05, 3.0))
    return SimConfig(
        constellation=cfg,
        strategy=strategy,
        launch=launch,
        costs=COSTS,
        satellite=SAT,
        horizon_years=horizon,
        replications=1,
        seed=0,
        warmup_years=0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, horizon)),
        capture_events=bool(rng.random() < 0.5),
    )


def _stress_config(**overrides):
    """Small stocks, a slow ground loop and high demand, so orders queue."""
    cfg = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=25, n_sats=40, lambda_sat_per_year=0.1
    )
    strategy = SpareStrategy(
        n_parking=2, h_parking_km=750.0, q_plane=2, s_plane=1, k_q_parking=2, k_s_parking=1
    )
    launch = LaunchParams(mu_launch_days=80.0, pt_launch_days=150.0, cap_launch=34)
    base = dict(
        constellation=cfg, strategy=strategy, launch=launch,
        horizon_years=10.0, replications=5, seed=11, warmup_years=1.0,
    )
    return _toy_config(**{**base, **overrides})


def _logged(sc, failure_rng, launch_rng, twin_rng):
    """A replication's log, failures and launch waits, as `replay_events` reads them.

    ``twin_rng`` is seeded as ``launch_rng``. It draws one wait per logged
    ground order, and must then stand where the loop left ``launch_rng``.
    """
    cfg = sc.constellation
    times, planes = _draw_failures(
        failure_rng, plane_demand_rate(cfg) * cfg.n_plane, cfg.n_plane,
        sc.horizon_years * DAYS_PER_YEAR,
    )
    rep = _run_with_rng(sc, times, planes, launch_rng)
    n_ground = sum(e[1] == "ground_order" for e in rep.events)
    waits = twin_rng.exponential(sc.launch.mu_launch_days, n_ground).tolist()
    assert launch_rng.random() == twin_rng.random()  # one wait per ground order
    return rep, list(zip(times, planes)), waits


def _replayed(sc, seed):
    """Replication ``seed`` on `run_replication`'s streams, checked by its replay."""
    rep, failures, waits = _logged(sc, stream(seed, 0), stream(seed, 1), stream(seed, 1))
    replay = replay_events(sc, rep, failures, waits)
    assert replay.result == rep
    return replay


def test_replay_rederives_every_random_replication_from_its_log():
    rng = np.random.default_rng(1807)
    backordered = queued = 0
    for case in range(240):
        sc = dataclasses.replace(_random_oracle_config(rng), capture_events=True)
        for seed in range(3):
            rep, failures, waits = _logged(
                sc,
                np.random.Generator(np.random.Philox(1000 * case + seed)),
                np.random.Generator(np.random.Philox(10**6 + 1000 * case + seed)),
                np.random.Generator(np.random.Philox(10**6 + 1000 * case + seed)),
            )
            assert replay_events(sc, rep, failures, waits).result == rep, (case, seed, sc)
            backordered += rep.rho_plane < 1.0
            queued += "order_queued" in {e[1] for e in rep.events}
    # The stockout paths ran: plane backorders and queued plane orders.
    assert backordered > 20
    assert queued > 20


def test_replay_rederives_the_case_study_and_a_retrograde_constellation():
    # The random configs all drift backwards over at most 3 years. The
    # case study runs 15 years with a warm-up; above 90 degrees of
    # inclination the parking ring drifts forwards past the planes.
    sc = _case_config(capture_events=True)
    for i in range(3):
        seed = child_seed(sc.seed, i)
        assert _replayed(sc, seed).result == run_replication(sc, seed)
    retrograde = _stress_config(
        constellation=dataclasses.replace(CFG, inclination_deg=130.0, n_plane=12),
        horizon_years=5.0,
    )
    h_parking = retrograde.strategy.h_parking_km
    assert raan_drift_rate(CircularOrbit(h_parking, 130.0)) > raan_drift_rate(
        CircularOrbit(1200.0, 130.0)
    )
    logs = [_replayed(retrograde, seed).result.events for seed in range(3)]
    assert any(e[1] == "order_queued" for log in logs for e in log)


def _with(log, k, *entries):
    """A copy of the log with ``entries`` in place of its entry k."""
    return log[:k] + list(entries) + log[k + 1 :]


def test_replay_rejects_a_doctored_log():
    sc = _stress_config()
    rep, failures, waits = _logged(sc, stream(5, 0), stream(5, 1), stream(5, 1))
    assert replay_events(sc, rep, failures, waits).result == rep
    log = list(rep.events)
    first = {}
    for k, entry in enumerate(log):
        first.setdefault(entry[1], k)
    # Two transfers at one restock, which serve the queue's front in turn.
    restocks = {t for t, what, _, _ in log if what == "parking_arrival"}
    i, j = [k for k, e in enumerate(log) if e[1] == "transfer_start" and e[0] in restocks][:2]
    assert log[i][0] == log[j][0] and log[i] != log[j]
    arrival = first["plane_arrival"]
    t, _, plane, stock = log[arrival]
    t_f, _, plane_f, stock_f = log[first["failure"]]
    doctored = {
        "queued transfers swapped": _with(_with(log, i, log[j]), j, log[i]),
        "stock_after off by one": _with(log, arrival, (t, "plane_arrival", plane, stock + 1)),
        "plane order deleted": _with(log, first["plane_order"]),
        "plane arrival one ulp later": _with(
            log, arrival, (math.nextafter(t, math.inf), "plane_arrival", plane, stock)
        ),
        "extra ground order": _with(log, first["ground_order"], *[log[first["ground_order"]]] * 2),
        "failure on another plane": _with(
            log, first["failure"], (t_f, "failure", plane_f + 1, stock_f)
        ),
    }
    for name, events in doctored.items():
        try:
            replay_events(sc, dataclasses.replace(rep, events=tuple(events)), failures, waits)
        except LogMismatch:
            continue
        pytest.fail(f"the replay accepts a log with its {name}")


def test_closest_parking_matches_the_full_scan():
    rng = np.random.default_rng(2024)
    for n_park in range(1, 21):
        spacing = 2 * math.pi / n_park
        for relative in (-0.016503, 0.012347):
            states = []
            for _ in range(150):
                omega = 2 * math.pi * int(rng.integers(0, 40)) / 40
                states.append((float(rng.uniform(0.0, 6000.0)), omega))
            # Times that put every ring orbit exactly on the plane's RAAN,
            # and one ulp either side.
            for k in range(n_park):
                for m in (1, 7):
                    omega = 2 * math.pi * int(rng.integers(0, 40)) / 40
                    t = (omega - k * spacing + math.copysign(2 * math.pi * m, relative)) / relative
                    for tt in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
                        states.append((tt, omega))
            ring = [2 * math.pi * p / n_park for p in range(n_park)]
            for t, omega in states:
                stock = [int(x) for x in rng.integers(0, 3, size=n_park)]
                got = _closest_parking(t, omega, relative, ring, stock)
                assert got == nearest_parking(t, omega, relative, stock), (t, omega, stock)
    ring = [2 * math.pi * p / 3 for p in range(3)]
    assert _closest_parking(10.0, 0.0, 0.01, ring, [0, 0, 0])[1] is None


def _failures(rep):
    return [(t, loc) for t, what, loc, _ in rep.events if what == "failure"]


def test_failure_sequence_depends_only_on_seed_rate_and_planes():
    base = dict(
        constellation=CFG,
        costs=COSTS,
        satellite=SAT,
        horizon_years=15.0,
        replications=1,
        seed=0,
        capture_events=True,
    )
    a = run_replication(
        SimConfig(strategy=STRATEGY, launch=LAUNCH, **base), 987654321
    )
    other_strategy = SpareStrategy(
        n_parking=5, h_parking_km=700.0, q_plane=2, s_plane=1, k_q_parking=3, k_s_parking=2
    )
    other_launch = LaunchParams(mu_launch_days=5.0, pt_launch_days=300.0, cap_launch=34)
    b = run_replication(
        SimConfig(strategy=other_strategy, launch=other_launch, **base), 987654321
    )
    assert a.ground_orders != b.ground_orders  # the runs differ after the failures
    assert _failures(a) == _failures(b)

    # More failures than one block: the sequence runs on across block
    # boundaries exactly as a scalar walk over the failure stream.
    horizon = 15.0 * DAYS_PER_YEAR
    rate = plane_demand_rate(CFG) * CFG.n_plane
    failure_ss, _ = np.random.SeedSequence(987654321).spawn(2)
    rng = np.random.Generator(np.random.Philox(failure_ss))
    want, t = [], 0.0
    while t <= horizon:
        gaps = rng.exponential(1.0 / rate, _FAILURE_BLOCK)
        planes = rng.integers(0, CFG.n_plane, _FAILURE_BLOCK)
        for gap, j in zip(gaps.tolist(), planes.tolist()):
            t += gap
            if t <= horizon:
                want.append((t, j))
    assert len(want) > _FAILURE_BLOCK
    assert _failures(a) == want


def test_no_failures_means_constant_stocks():
    sc = _toy_config()
    quiet = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=1, n_sats=1, lambda_sat_per_year=0.0
    )
    sc = SimConfig(
        constellation=quiet,
        strategy=sc.strategy,
        launch=sc.launch,
        costs=COSTS,
        satellite=SAT,
        horizon_years=2.0,
        replications=1,
        seed=7,
        warmup_years=0.0,
    )
    rep = run_replication(sc, 123)
    assert rep.failures == 0
    assert rep.rho_plane == 1.0
    assert rep.rho_parking == 1.0
    assert rep.mean_stock_plane == pytest.approx(2.0, rel=0)
    assert rep.mean_stock_parking_batches == pytest.approx(2.0, rel=0)
    # only holding cost is incurred
    assert rep.tessac == pytest.approx(0.5 * (2.0 + 1 * 2.0), rel=1e-12)


def test_conservation_ledger_under_stress():
    # Exercises queueing, backorders and rerouting while the in-engine
    # ledger asserts hold.
    sc = _stress_config()
    strategy = sc.strategy
    res = run_batch(sc)
    queued = 0
    for rep in res.per_replication:
        launched = strategy.q_parking * rep.ground_orders
        assert (
            rep.final_on_hand + rep.final_in_transit + rep.served
            == rep.initial_on_hand + launched
        )
        assert rep.served + rep.backorders_end == rep.failures
        assert rep.ground_arrivals <= rep.ground_orders
        assert rep.plane_arrivals <= rep.transfers <= rep.plane_orders
        queued += sum(1 for e in rep.events if e[1] == "order_queued")
    assert queued > 0  # the stockout path actually ran


def test_empirical_failure_rate_matches_poisson_intensity():
    sc = _case_config(horizon_years=15.0, replications=20, seed=5, warmup_years=0.0)
    res = run_batch(sc)
    total = sum(r.failures for r in res.per_replication)
    expected = 40 * 40 * 0.05 * 15.0 * 20  # planes x sats x rate x years x reps
    assert abs(total - expected) <= 3.0 * math.sqrt(expected)


def test_case_study_simulation_tracks_model():
    metrics = evaluate_strategy(CFG, STRATEGY, LAUNCH)
    sc = _case_config(horizon_years=15.0, replications=30, seed=0, warmup_years=1.0)
    res = run_batch(sc).mean
    assert abs(res.mean_stock_plane - metrics.mean_stock_plane) / res.mean_stock_plane < 0.02
    assert (
        abs(res.mean_stock_parking_batches - metrics.mean_stock_parking_batches)
        / res.mean_stock_parking_batches
        < 0.05
    )
    assert abs(res.rho_plane - metrics.rho_plane) < 0.01
    assert abs(res.rho_parking - metrics.rho_parking) < 0.01
    assert abs(res.tessac - 319.1326941382908) / res.tessac < 0.05


def test_leadtimes_uniform_when_parking_always_stocked():
    # With deep parking stocks and a fast ground loop every transfer
    # departs immediately, so waits should be uniform over one ring
    # spacing of drift (the first mixture segment of the lead-time law).
    cfg = ConstellationConfig(
        h_plane_km=1200.0, inclination_deg=50.0, n_plane=20, n_sats=40, lambda_sat_per_year=0.1
    )
    strategy = SpareStrategy(
        n_parking=3, h_parking_km=700.0, q_plane=10, s_plane=1, k_q_parking=10, k_s_parking=10
    )
    launch = LaunchParams(mu_launch_days=1.0, pt_launch_days=1.0, cap_launch=200)
    sc = _toy_config(constellation=cfg, strategy=strategy, launch=launch, horizon_years=15.0)
    # The replications of seed 0. The replay's lead times include those
    # of batches still in flight at the horizon.
    leadtimes = np.concatenate([_replayed(sc, child_seed(0, i)).leadtimes for i in range(10)])
    relative, tof = _toy_drift_and_flight()
    segment = (2 * math.pi / 3) / abs(relative)
    assert leadtimes.size > 500
    assert np.all(leadtimes >= tof - 1e-9)
    assert np.all(leadtimes <= tof + segment + 1e-9)
    ks = stats.kstest(leadtimes, "uniform", args=(tof, segment))
    assert ks.pvalue > 0.05


def test_same_seed_reproduces_bit_identical_results():
    sc = _case_config(horizon_years=5.0, replications=12, seed=42, warmup_years=1.0)
    a = run_batch(sc)
    b = run_batch(sc)
    assert a == b


def test_replication_seeds_are_distinct():
    # Replication keys (i,) and validation case keys (1, i) under one seed.
    seeds = [child_seed(0, i) for i in range(200)] + [child_seed(0, 1, i) for i in range(200)]
    assert len(set(seeds)) == 400
    assert child_seed(0, 3) != child_seed(1, 3)


def test_only_the_simulator_derives_random_streams():
    # simulator.child_seed and simulator.stream are the one rule that turns
    # a seed and a spawn key into a child seed or a generator.
    package = Path(simulator.__file__).parent
    derivers = {
        path.name
        for path in package.glob("*.py")
        if re.search(r"SeedSequence|Philox", path.read_text(encoding="utf-8"))
    }
    assert derivers == {"simulator.py"}


def test_standard_error_shrinks_with_replications():
    def se(reps):
        sc = _case_config(horizon_years=5.0, replications=reps, seed=3, warmup_years=1.0)
        return run_batch(sc).se.tessac

    assert se(64) < se(8)


def test_batch_aggregates_each_estimate_over_its_replications():
    # Means and standard errors of every estimated output, field by field;
    # one replication has no spread to estimate, so its errors are 0.0.
    res = run_batch(_toy_config(replications=5, capture_events=False))
    assert res.mean._fields == res.se._fields == Estimates._fields
    for name in Estimates._fields:
        values = [getattr(r, name) for r in res.per_replication]
        assert getattr(res.mean, name) == np.mean(values)
        assert getattr(res.se, name) == np.std(values, ddof=1) / math.sqrt(5)
    single = run_batch(_toy_config(capture_events=False))
    assert single.se == Estimates(0.0, 0.0, 0.0, 0.0, 0.0)
    (rep,) = single.per_replication
    assert single.mean == Estimates(*(getattr(rep, n) for n in Estimates._fields))


def test_event_capture_flag():
    sc = _toy_config(capture_events=False)
    rep = run_replication(sc, 9)
    assert rep.events is None
    sc = _toy_config(capture_events=True)
    rep = run_replication(sc, 9)
    assert rep.events is not None


def test_warmup_window_counters():
    sc = _toy_config(horizon_years=2.0, warmup_years=1.0, capture_events=False)
    rep = run_replication(sc, 21)
    assert rep.failures_window <= rep.failures
    assert rep.ground_arrivals_window <= rep.ground_arrivals
    assert rep.transfers_window <= rep.transfers


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_is_rejected(horizon):
    # Construction only: a replication over an infinite horizon never ends.
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        _toy_config(horizon_years=horizon)


@pytest.mark.parametrize("name", ["replications", "seed"])
def test_config_counts_must_be_integers(name):
    # A float or a bool count is rejected by name at construction, not
    # carried to a late TypeError; numpy integers pass.
    value = getattr(_toy_config(), name)
    for bad in (float(value), value + 0.5, True):
        with pytest.raises(ValueError, match=name):
            _toy_config(**{name: bad})
    assert _toy_config(**{name: np.int64(value)}) == _toy_config()


def test_config_validation():
    with pytest.raises(ValueError):
        _toy_config(horizon_years=0.0)
    with pytest.raises(ValueError):
        _toy_config(warmup_years=3.0)  # beyond the horizon
    with pytest.raises(ValueError):
        _toy_config(replications=0)
    with pytest.raises(ValueError):
        _toy_config(seed=-1)
    # Parking orbits at the planes' altitude drift with them, and polar
    # orbits do not drift at all: neither ever aligns with a plane.
    cfg = _toy_config().constellation
    for never in (dict(h_plane_km=700.0), dict(inclination_deg=90.0)):
        with pytest.raises(ValueError, match="^zero relative drift rate: planes never align$"):
            run_batch(_toy_config(constellation=dataclasses.replace(cfg, **never)))
