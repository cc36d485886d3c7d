"""Discrete-event Monte Carlo of the spare supply chain.

Event-driven counterpart of the analytical chain model, used to measure
its accuracy. Satellites fail as a Poisson process per plane; planes and
parking orbits run (s,Q) policies with at most one order outstanding per
location; transfers depart from the parking orbit that reaches nodal
alignment soonest among those with stock, and ground resupply arrives
after a fixed processing time plus an exponential launch-window wait.

Randomness comes from counter-based generators, so runs are reproducible
across platforms. Seeds and streams derive by the package's one seed rule,
`config.child_seed` and `config.stream` (the key table is in the `config`
docstring): replication ``i`` of a batch with seed ``s`` has seed
``child_seed(s, i)``. A replication with seed ``r`` draws from two
streams, one per purpose:

* failures, ``stream(r, 0)``: blocks of _FAILURE_BLOCK exponential
  interarrival gaps of the merged failure process, each followed by as
  many failed-plane indices, drawn until the running time passes the
  horizon. The failures of a replication therefore depend only on its
  seed, the failure rate and the plane count, not on the strategy or
  the launch law.
* launch waits, ``stream(r, 1)``: one exponential launch-window wait per
  ground order, in the order the orders are placed.

numpy is imported only inside the seed functions of `config` and the
aggregation of replications (`run_batch`), so importing this module does
not load it. The package loads this module lazily, so a command that
does not simulate (``evaluate``, ``optimize``, ``sensitivity``) does not
execute it.

The event loop takes the failures as a sorted list and keeps only plane
and parking arrivals on its heap. A failure at exactly the same time as
an arrival is handled first; arrivals at the same time are handled in the
order they were scheduled.

The loop is shaped so that the common event makes no Python call. One
block at its top advances the stock integrals to the event's time; all
three event kinds are then handled in the loop body. Helpers run only on
the order path, once per batch: placing a plane order, assigning a
transfer and placing a ground order. The loop keeps no count it can
derive: the failure counts follow from the failure list, the plane
orders from the transfers and the orders still queued.

The parking ring is evenly spaced, so `_closest_parking` finds an
order's nearest parking orbit by arithmetic on the phase gap, not by a
scan: an order costs O(1) when its nearest orbit has stock, whatever
the ring size. The full scan over the ring lives only in the tests
(``tests/oracles.py::nearest_parking``), as the reference it must equal.

A replication's TESSAC is `costs.annual_cost` of its window's yearly
flows, the function that also prices the analytic chain.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .chain import (
    DAYS_PER_YEAR,
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    altitude_stage,
    plane_demand_rate,
)
from .config import SimulationSettings, check_run_size, child_seed, stream
from .costs import CostParams, annual_cost
from .inventory import check_integer
from .orbits import WGS84, CircularOrbit, EarthConstants, check_earth, raan_drift_rate

_TWO_PI = 2.0 * math.pi

# Event kinds. Failures never enter the heap, which holds only arrivals.
_FAILURE = 0
_PARKING_ARRIVAL = 1
_PLANE_ARRIVAL = 2

# Failure interarrival gaps and plane indices are drawn this many at a time.
_FAILURE_BLOCK = 256

# A parking orbit's phase gap computed within _WRAP_MARGIN * (|drift| + 8)
# radians of the ring spacing or of a full turn may be one rounding from
# the other side. The gap expression rounds five times, each time by at
# most 2**-53 * (|drift| + 4*pi), so its error is below
# 1e-15 * (|drift| + 8): the margin is a thousand times that.
_WRAP_MARGIN = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Complete input of a simulation study."""

    constellation: ConstellationConfig
    strategy: SpareStrategy
    launch: LaunchParams
    costs: CostParams
    satellite: SatelliteParams
    horizon_years: float = SimulationSettings.horizon_years
    replications: int = SimulationSettings.replications
    seed: int = 0
    warmup_years: float = SimulationSettings.warmup_years
    capture_events: bool = False
    # Must be WGS84: kept only for bench/run.py, which passes it.
    consts: EarthConstants = WGS84

    def __post_init__(self) -> None:
        check_earth(self.consts)
        check_integer("replications", self.replications)
        check_integer("seed", self.seed)
        check_run_size(vars(self), {name: name for name in vars(self)})
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class ReplicationResult:
    """Outputs and bookkeeping of a single replication.

    Metric fields are averages over the post-warm-up window; counter
    fields marked _window likewise, the rest cover the whole horizon.
    """

    mean_stock_plane: float
    mean_stock_parking_batches: float
    rho_plane: float
    rho_parking: float
    tessac: float
    failures: int
    failures_window: int
    served: int
    backorders_end: int
    plane_orders: int
    transfers: int
    plane_arrivals: int
    ground_orders: int
    ground_arrivals: int
    ground_arrivals_window: int
    transfers_window: int
    initial_on_hand: int
    final_on_hand: int
    final_in_transit: int
    events: tuple[tuple[float, str, int, int], ...] | None


class Estimates(NamedTuple):
    """The outputs a simulation estimates, named as in `ReplicationResult`."""

    mean_stock_plane: float
    mean_stock_parking_batches: float
    rho_plane: float
    rho_parking: float
    tessac: float


@dataclass(frozen=True)
class SimulationResult:
    """Across-replication means and standard errors of the estimated outputs."""

    mean: Estimates
    se: Estimates
    per_replication: tuple[ReplicationResult, ...]


def _closest_parking(
    t: float, omega: float, relative: float, stock: list[int]
) -> tuple[tuple[float, int], tuple[float, int] | None]:
    """(wait in days, index) of the nearest parking orbit and of the nearest with stock.

    Orbit p of the n = len(stock) orbits has phase 2*pi*p/n + relative*t
    at time t. Its wait is its phase gap to RAAN omega, closed in the
    drift direction, divided by |relative|. The result is the exact
    minimum over the ring of that wait expression as written below, the
    lower index winning on equal waits; the second is ``None`` when no
    orbit has stock. ``tests/oracles.py::nearest_parking`` is the full
    scan it must equal.

    The ring is evenly spaced, so the gaps are those of one orbit plus
    whole ring spacings 2*pi/n, and the orbit whose gap lies in
    [0, 2*pi/n) follows from the gap to orbit 0 by arithmetic: c is
    x = ((omega - relative*t) mod 2*pi) * n / 2*pi rounded up when the
    ring drifts backwards (relative < 0), down when it drifts forwards.
    Rounding errs only near the wrap, where a gap is within rounding of
    0 or a full turn:
    - if c's computed gap is below the spacing by more than _WRAP_MARGIN,
      every other gap exceeds it by at least about a spacing and none is
      near a full turn, so c is the nearest;
    - otherwise c may be one index off, or the orbit on the wrap may
      round to a gap of 0 or to a full turn, and the nearest is the
      least of orbits c - 1, c and c + 1.
    Two different orbits never tie: their gaps differ by about a spacing.
    Dividing by |relative| keeps their order, so the gaps are compared
    and only the winners are divided.
    Gaps grow from the nearest orbit in the drift direction (index +1
    when relative < 0, -1 otherwise) up to the orbit one spacing behind
    it, so the nearest stocked orbit is the first stocked one on that
    walk. An order therefore costs O(1) when its nearest orbit has stock
    and walks at most n - 1 orbits when it does not.
    """
    n = len(stock)
    drift = relative * t
    # -(theta - omega) is exactly omega - theta, and % gives +0.0 for a
    # zero remainder, so one sign factor serves both drift directions.
    if relative < 0.0:
        sign, step, rate = 1.0, 1, -relative
        c = math.ceil((omega - drift) % _TWO_PI * n / _TWO_PI) % n
    else:
        sign, step, rate = -1.0, -1, relative
        c = math.floor((omega - drift) % _TWO_PI * n / _TWO_PI) % n
    near, near_gap = c, sign * (_TWO_PI * c / n + drift - omega) % _TWO_PI
    if not near_gap < _TWO_PI / n - _WRAP_MARGIN * (abs(drift) + 8.0):
        for p in (c - 1) % n, (c + 1) % n:
            gap = sign * (_TWO_PI * p / n + drift - omega) % _TWO_PI
            if gap < near_gap:
                near, near_gap = p, gap
    nearest = (near_gap / rate, near)
    if stock[near] > 0:
        return nearest, nearest
    p = near
    for _ in range(n - 1):
        p = (p + step) % n
        if stock[p] > 0:
            return nearest, (sign * (_TWO_PI * p / n + drift - omega) % _TWO_PI / rate, p)
    return nearest, None


def _draw_failures(
    rng, rate: float, n_plane: int, horizon: float
) -> tuple[list[float], list[int]]:
    """Failure times in order, until one passes the horizon, and their planes.

    Draws blocks of _FAILURE_BLOCK interarrival gaps, then as many plane
    indices, until the running time passes the horizon. Times accumulate
    left to right across blocks, as a scalar loop over the gaps would.
    """
    times: list[float] = []
    planes: list[int] = []
    last = 0.0
    while rate > 0.0 and last <= horizon:
        gaps = rng.exponential(1.0 / rate, _FAILURE_BLOCK)
        planes += rng.integers(0, n_plane, _FAILURE_BLOCK).tolist()
        gaps[0] += last
        times += gaps.cumsum(out=gaps).tolist()
        last = times[-1]
    return times, planes


def run_replication(sc: SimConfig, seed: int) -> ReplicationResult:
    """Run one replication: failures and launch waits from two child streams."""
    cfg = sc.constellation
    times, planes = _draw_failures(
        stream(seed, 0),
        plane_demand_rate(cfg) * cfg.n_plane,
        cfg.n_plane,
        sc.horizon_years * DAYS_PER_YEAR,
    )
    return _run_with_rng(sc, times, planes, stream(seed, 1))


def _run_with_rng(
    sc: SimConfig, failure_times: list[float], failure_planes: list[int], launch_rng
) -> ReplicationResult:
    """The event loop over failures, in time order, and a launch-wait stream.

    Failure j happens at failure_times[j] on plane failure_planes[j];
    failures past the horizon are ignored.
    """
    cfg, st, lp = sc.constellation, sc.strategy, sc.launch
    n_plane, n_park = cfg.n_plane, st.n_parking
    q_plane, s_plane = st.q_plane, st.s_plane
    k_q, k_s = st.k_q_parking, st.k_s_parking
    q_parking = st.q_parking

    horizon = sc.horizon_years * DAYS_PER_YEAR
    warmup = sc.warmup_years * DAYS_PER_YEAR
    window = horizon - warmup

    plane = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
    relative, tof, transfer = altitude_stage(
        st.h_parking_km, plane, raan_drift_rate(plane), sc.satellite
    )

    plane_raan = [_TWO_PI * j / n_plane for j in range(n_plane)]

    plane_stock = [s_plane + q_plane] * n_plane
    plane_backorders = [0] * n_plane
    plane_in_transit = [False] * n_plane
    parking_stock = [k_s + k_q] * n_park
    parking_in_transit = [False] * n_park
    waiting_orders: deque[int] = deque()

    initial_on_hand = n_plane * (s_plane + q_plane) + n_park * (k_s + k_q) * q_plane

    agg_plane = float(sum(plane_stock))
    agg_park = float(sum(parking_stock))
    int_plane = 0.0
    int_park = 0.0
    last_t = 0.0

    served = backorder_events_window = 0
    transfers = plane_arrivals = 0
    plane_cycles_window = transfers_window = 0
    ground_orders = ground_arrivals = ground_arrivals_window = 0
    parking_backorders_window = 0
    events: list[tuple[float, str, int, int]] | None = [] if sc.capture_events else None

    # Heap entries are (time, scheduling sequence number, kind, location),
    # so equal-time arrivals pop in the order they were scheduled.
    heap: list[tuple[float, int, int, int]] = []
    sequence = itertools.count()

    def place_ground_order_if_due(p: int, t: float) -> None:
        nonlocal ground_orders
        if parking_stock[p] <= k_s and not parking_in_transit[p]:
            parking_in_transit[p] = True
            ground_orders += 1
            delay = lp.pt_launch_days + launch_rng.exponential(lp.mu_launch_days)
            heapq.heappush(heap, (t + delay, next(sequence), _PARKING_ARRIVAL, p))
            if events is not None:
                events.append((t, "ground_order", p, parking_stock[p]))

    def assign_transfer(j: int, t: float, choice: tuple[float, int]) -> None:
        """Send one batch toward plane j from parking orbit p, choice = (wait, p)."""
        nonlocal agg_park, transfers, transfers_window
        wait, p = choice
        parking_stock[p] -= 1
        agg_park -= 1.0
        heapq.heappush(heap, (t + wait + tof, next(sequence), _PLANE_ARRIVAL, j))
        transfers += 1
        if warmup <= t:
            transfers_window += 1
        if events is not None:
            events.append((t, "transfer_start", p, parking_stock[p]))
        place_ground_order_if_due(p, t)

    def place_plane_order(j: int, t: float) -> None:
        """Order a batch for plane j, which is at or below s_plane with none in transit."""
        nonlocal parking_backorders_window
        plane_in_transit[j] = True
        if events is not None:
            events.append((t, "plane_order", j, plane_stock[j]))
        # Demand accounting: the order targets the geometrically closest
        # parking orbit; finding it empty is a parking backorder even if
        # another orbit ends up serving the transfer.
        (_, nearest), choice = _closest_parking(
            t, plane_raan[j], relative, parking_stock
        )
        if parking_stock[nearest] < 1 and warmup <= t:
            parking_backorders_window += 1
        if choice is None:
            waiting_orders.append(j)
            if events is not None:
                events.append((t, "order_queued", j, 0))
        else:
            assign_transfer(j, t, choice)

    # Failures come from their sorted list, arrivals from the heap; a
    # failure at the same time as an arrival is handled first. Every event
    # handled lies at or before the horizon, so it is in the window once
    # it is past the warm-up.
    n_failures = len(failure_times)
    next_failure = 0
    t_failure = failure_times[0] if n_failures else math.inf
    while True:
        if heap and heap[0][0] < t_failure:
            t, _, kind, loc = heapq.heappop(heap)
        else:
            t, kind = t_failure, _FAILURE
        if t > horizon:
            break
        # max(last_t, warmup), without a call on every event.
        overlap = t - (warmup if warmup > last_t else last_t)
        if overlap > 0.0:
            int_plane += agg_plane * overlap
            int_park += agg_park * overlap
        last_t = t

        if kind == _FAILURE:
            j = failure_planes[next_failure]
            next_failure += 1
            t_failure = failure_times[next_failure] if next_failure < n_failures else math.inf
            stock = plane_stock[j]
            if stock > 0:
                stock -= 1
                plane_stock[j] = stock
                agg_plane -= 1.0
                served += 1
            else:
                plane_backorders[j] += 1
                if warmup <= t:
                    backorder_events_window += 1
            if events is not None:
                events.append((t, "failure", j, stock))
            if stock <= s_plane and not plane_in_transit[j]:
                place_plane_order(j, t)
        elif kind == _PLANE_ARRIVAL:
            plane_arrivals += 1
            if warmup <= t:
                plane_cycles_window += 1
            assert plane_in_transit[loc], "arrival without an outstanding order"
            plane_in_transit[loc] = False
            backlog = min(q_plane, plane_backorders[loc])
            plane_backorders[loc] -= backlog
            served += backlog
            stock = plane_stock[loc] + q_plane - backlog
            plane_stock[loc] = stock
            agg_plane += float(q_plane - backlog)
            if events is not None:
                events.append((t, "plane_arrival", loc, stock))
            if stock <= s_plane:  # and no batch is in transit any more
                place_plane_order(loc, t)
        else:
            ground_arrivals += 1
            assert parking_in_transit[loc], "arrival without an outstanding order"
            parking_in_transit[loc] = False
            parking_stock[loc] += k_q
            agg_park += float(k_q)
            if warmup <= t:
                ground_arrivals_window += 1
            if events is not None:
                events.append((t, "parking_arrival", loc, parking_stock[loc]))
            # Queued plane orders re-pick the closest stocked orbit now, in
            # queue order, until no orbit has stock.
            while waiting_orders:
                j = waiting_orders[0]
                _, choice = _closest_parking(
                    t, plane_raan[j], relative, parking_stock
                )
                if choice is None:
                    break
                assign_transfer(waiting_orders.popleft(), t, choice)
            place_ground_order_if_due(loc, t)

    # The loop handled the first next_failure failures; those before the
    # warm-up lie outside the window. Every plane order became a transfer
    # or is still queued.
    failures = next_failure
    failures_window = failures - bisect.bisect_left(failure_times, warmup, 0, failures)
    plane_orders = transfers + len(waiting_orders)

    overlap = horizon - max(last_t, warmup)
    if overlap > 0.0:
        int_plane += agg_plane * overlap
        int_park += agg_park * overlap

    final_on_hand = sum(plane_stock) + q_plane * sum(parking_stock)
    final_in_transit = q_parking * (ground_orders - ground_arrivals) + q_plane * (
        transfers - plane_arrivals
    )
    launched = q_parking * ground_orders
    backorders_end = sum(plane_backorders)
    assert final_on_hand + final_in_transit + served == initial_on_hand + launched, (
        "satellite conservation violated"
    )
    assert served + backorders_end == failures, "every failure is served or backordered"

    mean_stock_plane = int_plane / window / n_plane
    mean_stock_park = int_park / window / n_park
    rho_plane = (
        1.0 - (backorder_events_window / plane_cycles_window) / q_plane
        if plane_cycles_window
        else 1.0
    )
    rho_parking = (
        1.0 - (parking_backorders_window / ground_arrivals_window) / k_q
        if ground_arrivals_window
        else 1.0
    )

    years = window / DAYS_PER_YEAR
    cost = annual_cost(
        sc.costs,
        failures_window / years,
        int_plane / window + q_plane * int_park / window,
        ground_arrivals_window / years,
        q_parking,
        q_plane * transfers_window / years,
        transfer.fuel_mass_kg,
    )

    return ReplicationResult(
        mean_stock_plane=mean_stock_plane,
        mean_stock_parking_batches=mean_stock_park,
        rho_plane=rho_plane,
        rho_parking=rho_parking,
        tessac=cost.tessac,
        failures=failures,
        failures_window=failures_window,
        served=served,
        backorders_end=backorders_end,
        plane_orders=plane_orders,
        transfers=transfers,
        plane_arrivals=plane_arrivals,
        ground_orders=ground_orders,
        ground_arrivals=ground_arrivals,
        ground_arrivals_window=ground_arrivals_window,
        transfers_window=transfers_window,
        initial_on_hand=initial_on_hand,
        final_on_hand=final_on_hand,
        final_in_transit=final_in_transit,
        events=tuple(events) if events is not None else None,
    )


def run_batch(sc: SimConfig, jobs: int | None = None) -> SimulationResult:
    """Run all replications and aggregate the means and standard errors of `Estimates`.

    Replications run in order on the calling thread; each is a pure
    function of its derived seed, and aggregation follows replication order.
    ``jobs`` is not read; it stays because the benchmark (``bench/``)
    still passes it.
    """
    import numpy as np

    reps = [run_replication(sc, child_seed(sc.seed, i)) for i in range(sc.replications)]
    n = len(reps)
    mean, se = [], []
    for name in Estimates._fields:
        arr = np.asarray([getattr(r, name) for r in reps])
        mean.append(float(arr.mean()))
        se.append(float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
    return SimulationResult(Estimates(*mean), Estimates(*se), tuple(reps))
