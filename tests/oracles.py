"""Reference implementations the tests compare the package against.

Each one takes a different route to a quantity the package computes in
closed form, so agreement checks the closed form rather than restating it.
segment_shortages and expected_shortage_mixture compose the package's
bound_shortages into the shortage of a mixture of uniform demand-mean
segments, which the tests use as a reference and the package does not
need. replay_events checks a simulated replication against the rules of
the policy: it walks the replication's event log and derives each entry
from the earlier ones, with its own ring geometry (nearest_parking) and
bookkeeping, and returns the replication that the log implies.
breed_reference is the one bit-for-bit reference: the GA's breeding step
as it was before it applied only the drawn mutation hits, which the
package must reproduce exactly.
"""

import heapq
import itertools
import math
from collections import Counter, deque
from typing import NamedTuple

import numpy as np

from sparechain.chain import DAYS_PER_YEAR
from sparechain.costs import annual_cost
from sparechain.inventory import bound_shortages
from sparechain.optimizer import (
    _FLOAT_GENES,
    _INT_GENES,
    CROSSOVER_RATE,
    ELITISM,
    MUTATION_RATE,
    MUTATION_SIGMA_KM,
    TOURNAMENT_SIZE,
)
from sparechain.orbits import CircularOrbit, hohmann_transfer, raan_drift_rate
from sparechain.simulator import ReplicationResult, SimConfig


def supply_probabilities_raw(p_av: float, n_parking: int) -> list[float]:
    """Probability that the i-th closest parking orbit serves an order.

    Sums, over the number of available orbits k, the chance that the i-th
    closest is available and all closer ones are not. The list sums to
    1 - (1 - p_av)^n, the chance of any supplier at all. This is the
    binomial reference for the geometric form in
    sparechain.chain.supply_probabilities.
    """
    if not 0.0 < p_av <= 1.0:
        raise ValueError(f"availability must be in (0, 1], got {p_av}")
    if n_parking < 1:
        raise ValueError(f"n_parking must be >= 1, got {n_parking}")
    probs = []
    for i in range(1, n_parking + 1):
        total = 0.0
        for k in range(1, n_parking - i + 2):
            total += (
                math.comb(n_parking - i, k - 1)
                * p_av**k
                * (1.0 - p_av) ** (n_parking - k)
            )
        probs.append(total)
    return probs


def enumerated_rank_probabilities(p_av: float, n_parking: int) -> list[float]:
    """`supply_probabilities_raw` by brute force over all 2^n availability patterns."""
    raw = [0.0] * n_parking
    for pattern in itertools.product((True, False), repeat=n_parking):
        weight = math.prod(p_av if available else 1.0 - p_av for available in pattern)
        for rank, available in enumerate(pattern):
            if available:
                raw[rank] += weight
                break
    return raw


def expected_shortage_series(s: int, mean_demand: float) -> float:
    """Expected backorders per cycle by direct tail summation.

    Reference route used to cross-check the closed form. Terms
    (k - s) * P(D = k) are accumulated from k = s + 1 upward and the sum
    stops once a term falls below 1e-15 of the running total, capped at
    k <= s + 40*sqrt(m) + 40.
    """
    if s < 0 or mean_demand < 0:
        raise ValueError("reorder point and mean demand must be nonnegative")
    m = float(mean_demand)
    if m == 0.0:
        return 0.0
    k_cap = int(s + 40.0 * math.sqrt(m) + 40.0)
    # P(D = k) built iteratively to avoid factorial overflow.
    log_pmf = -m + (s + 1) * math.log(m) - math.lgamma(s + 2)
    pmf = math.exp(log_pmf)
    total = 0.0
    for k in range(s + 1, k_cap + 1):
        term = (k - s) * pmf
        total += term
        if total > 0.0 and term < 1e-15 * total:
            break
        pmf *= m / (k + 1)
    return total


def segment_shortages(s: int, mean_segments) -> list[float]:
    """`bound_shortages` of each (lo, hi) demand-mean segment.

    Each run of contiguous segments, where one segment's hi is the next
    one's lo, is averaged as one list of bounds, so a run of n segments
    costs n + 1 kernel calls.
    """
    out: list[float] = []
    run: list[float] = []
    for lo, hi in mean_segments:
        if run and lo != run[-1]:
            out += bound_shortages(s, run)
            run = []
        run += (hi,) if run else (lo, hi)
    return out + bound_shortages(s, run)


def expected_shortage_mixture(s: int, weights, mean_segments) -> float:
    """Expected backorders for a demand mean that is a mixture of uniforms.

    This is the shortage for a lead time that is a mixture of uniform
    segments: the weighted sum of `segment_shortages` over the (lo, hi)
    demand-mean segments.
    """
    return sum(w * a for w, a in zip(weights, segment_shortages(s, mean_segments)))


def poisson_shortage(s: int, mean_demand):
    """E[(D - s)+], D ~ Poisson(mean_demand), element-wise over an array, s >= 1.

    The closed form m*P(D >= s) - s*P(D >= s+1) with scipy's Poisson
    tails, so it shares no code with the package's tail kernel. scipy is
    imported here, not at the top, so the other oracles run without it.
    """
    from scipy import special

    m = np.asarray(mean_demand, dtype=float)
    return np.maximum(m * special.pdtrc(s - 1, m) - s * special.pdtrc(s, m), 0.0)


class LogMismatch(AssertionError):
    """An event log entry that the simulator's rules do not give."""


class Replay(NamedTuple):
    """What `replay_events` derives from one replication's event log."""

    result: ReplicationResult
    leadtimes: list[float]  # wait + flight of each transfer in the window, in log order


def nearest_parking(
    t: float, omega: float, relative: float, stock: list[int]
) -> tuple[tuple[float, int], tuple[float, int] | None]:
    """(wait, index) of the nearest parking orbit and of the nearest stocked one.

    The exact minimum over the whole ring. Orbit p of n has RAAN
    2*pi*p/n + relative*t at time t and waits for the gap to the plane's
    RAAN omega, closed in the drift direction, at |relative|; the lower
    index wins on equal waits. The second is None when no orbit has stock.
    """
    n = len(stock)
    rate = abs(relative)
    near = stocked = None
    for p in range(n):
        theta = 2 * math.pi * p / n + relative * t
        if relative < 0.0:
            gap = (theta - omega) % (2 * math.pi)
        else:
            gap = (omega - theta) % (2 * math.pi)
        wait = gap / rate
        if near is None or wait < near[0]:
            near = (wait, p)
        if stock[p] > 0 and (stocked is None or wait < stocked[0]):
            stocked = (wait, p)
    return near, stocked


def replay_events(
    sc: SimConfig,
    rep: ReplicationResult,
    failures: list[tuple[float, int]],
    launch_waits: list[float],
) -> Replay:
    """Check one replication's event log against the simulator's rules.

    ``rep.events`` is the log of a run with ``capture_events=True``,
    ``failures`` its (time, plane) pairs in time order and ``launch_waits``
    the launch-window waits of its ground orders, one each, in order. The
    replay derives each entry from the state the earlier ones left:
    - the next event is the earliest failure or arrival, a failure first on
      a tie and arrivals at one time in the order they were scheduled; a
      batch reaches plane j at t + wait + tof and parking orbit p at
      t + (pt + wait_i);
    - each ``stock_after`` is the location's stock: a failure takes one
      satellite if there is one, a plane arrival brings q less the
      backlog it serves, a transfer takes one batch, a restock brings k_q;
    - a location orders when its stock is at or below its reorder point
      with none outstanding;
    - a plane order counts a parking backorder when the nearest orbit is
      empty, and leaves from the nearest stocked orbit, or queues;
    - a restock serves the queue first in, first out, while any orbit
      has stock.
    The log names no target for a transfer: a transfer at a plane order
    serves that plane, and the transfers at a restock serve the queue's
    front in order. Only `orbits` geometry and `costs.annual_cost` are
    shared with the package.

    Returns the replication the log implies, with the lead times of the
    window's transfers, including those still in flight at the horizon.

    Raises:
        LogMismatch: At the first entry the rules do not give.
    """
    cfg, st, lp = sc.constellation, sc.strategy, sc.launch
    q, s, k_q, k_s = st.q_plane, st.s_plane, st.k_q_parking, st.k_s_parking
    horizon = sc.horizon_years * DAYS_PER_YEAR
    warmup = sc.warmup_years * DAYS_PER_YEAR
    window = horizon - warmup

    parking = CircularOrbit(st.h_parking_km, cfg.inclination_deg)
    plane = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
    relative = raan_drift_rate(parking) - raan_drift_rate(plane)
    transfer = hohmann_transfer(parking, plane, sc.satellite.m_dry_kg, sc.satellite.v_exhaust_km_s)
    tof = transfer.time_of_flight_days
    raan = [2 * math.pi * j / cfg.n_plane for j in range(cfg.n_plane)]

    plane_stock = [s + q] * cfg.n_plane
    backorders = [0] * cfg.n_plane
    plane_ordered = [False] * cfg.n_plane
    parking_stock = [k_s + k_q] * st.n_parking
    parking_ordered = [False] * st.n_parking
    queue: deque[int] = deque()
    # Events to come: (time, scheduling number, entry kind, location). The
    # failures are numbered before every arrival, so one comes first on a tie.
    pending = [(t, i - len(failures), "failure", j) for i, (t, j) in enumerate(failures)]
    heapq.heapify(pending)
    scheduled = itertools.count()
    leadtimes: list[float] = []
    log = rep.events
    at = ground_orders = parking_backorders = 0

    def expect(t: float, what: str, loc: int, stock: int) -> None:
        """The log's next entry must be the one the rules give."""
        nonlocal at
        want = (t, what, loc, stock)
        if at == len(log) or log[at] != want:
            got = log[at] if at < len(log) else "the end of the log"
            raise LogMismatch(f"entry {at} is {got}; the rules give {want}")
        at += 1

    def ground_order_if_due(p: int, t: float) -> None:
        nonlocal ground_orders
        if parking_stock[p] <= k_s and not parking_ordered[p]:
            expect(t, "ground_order", p, parking_stock[p])
            if ground_orders == len(launch_waits):
                raise LogMismatch(f"ground order {ground_orders} at {t} has no launch wait")
            arrival = t + (lp.pt_launch_days + launch_waits[ground_orders])
            heapq.heappush(pending, (arrival, next(scheduled), "parking_arrival", p))
            parking_ordered[p] = True
            ground_orders += 1

    def send(j: int, t: float, supplier: tuple[float, int]) -> None:
        """One batch toward plane j from supplier = (wait, orbit)."""
        wait, p = supplier
        parking_stock[p] -= 1
        expect(t, "transfer_start", p, parking_stock[p])
        heapq.heappush(pending, (t + wait + tof, next(scheduled), "plane_arrival", j))
        if warmup <= t:
            leadtimes.append(wait + tof)
        ground_order_if_due(p, t)

    def plane_order_if_due(j: int, t: float) -> None:
        nonlocal parking_backorders
        if plane_stock[j] <= s and not plane_ordered[j]:
            expect(t, "plane_order", j, plane_stock[j])
            plane_ordered[j] = True
            (_, nearest), stocked = nearest_parking(t, raan[j], relative, parking_stock)
            if parking_stock[nearest] == 0 and warmup <= t:
                parking_backorders += 1
            if stocked is None:
                expect(t, "order_queued", j, 0)
                queue.append(j)
            else:
                send(j, t, stocked)

    served = backorder_events = 0
    int_plane = int_park = last = 0.0
    while pending and pending[0][0] <= horizon:
        t, _, kind, loc = heapq.heappop(pending)
        overlap = t - max(last, warmup)
        if overlap > 0.0:
            int_plane += sum(plane_stock) * overlap
            int_park += sum(parking_stock) * overlap
        last = t
        if kind == "failure":
            if plane_stock[loc] > 0:
                plane_stock[loc] -= 1
                served += 1
            else:
                backorders[loc] += 1
                backorder_events += warmup <= t
            expect(t, kind, loc, plane_stock[loc])
            plane_order_if_due(loc, t)
        elif kind == "plane_arrival":
            plane_ordered[loc] = False
            backlog = min(q, backorders[loc])
            backorders[loc] -= backlog
            served += backlog
            plane_stock[loc] += q - backlog
            expect(t, kind, loc, plane_stock[loc])
            plane_order_if_due(loc, t)
        else:
            parking_ordered[loc] = False
            parking_stock[loc] += k_q
            expect(t, kind, loc, parking_stock[loc])
            while queue:
                _, stocked = nearest_parking(t, raan[queue[0]], relative, parking_stock)
                if stocked is None:
                    break
                send(queue.popleft(), t, stocked)
            ground_order_if_due(loc, t)
    overlap = horizon - max(last, warmup)
    if overlap > 0.0:
        int_plane += sum(plane_stock) * overlap
        int_park += sum(parking_stock) * overlap
    if at < len(log):
        raise LogMismatch(f"entry {at} is {log[at]}, after the last event by the horizon")
    if ground_orders != len(launch_waits):
        raise LogMismatch(f"{ground_orders} ground orders for {len(launch_waits)} launch waits")

    tally = Counter((what, warmup <= t) for t, what, _, _ in log)

    def count(what: str) -> int:
        return tally[what, False] + tally[what, True]

    years = window / DAYS_PER_YEAR
    cost = annual_cost(
        sc.costs,
        tally["failure", True] / years,
        int_plane / window + q * int_park / window,
        tally["parking_arrival", True] / years,
        st.q_parking,
        q * tally["transfer_start", True] / years,
        transfer.fuel_mass_kg,
    )
    batch = {"failure": 0, "plane_arrival": q, "parking_arrival": st.q_parking}
    plane_cycles, restocks = tally["plane_arrival", True], tally["parking_arrival", True]
    result = ReplicationResult(
        mean_stock_plane=int_plane / window / cfg.n_plane,
        mean_stock_parking_batches=int_park / window / st.n_parking,
        rho_plane=1.0 - (backorder_events / plane_cycles) / q if plane_cycles else 1.0,
        rho_parking=1.0 - (parking_backorders / restocks) / k_q if restocks else 1.0,
        tessac=cost.tessac,
        failures=count("failure"),
        failures_window=tally["failure", True],
        served=served,
        backorders_end=sum(backorders),
        plane_orders=count("plane_order"),
        transfers=count("transfer_start"),
        plane_arrivals=count("plane_arrival"),
        ground_orders=ground_orders,
        ground_arrivals=count("parking_arrival"),
        ground_arrivals_window=restocks,
        transfers_window=tally["transfer_start", True],
        initial_on_hand=cfg.n_plane * (s + q) + st.n_parking * (k_s + k_q) * q,
        final_on_hand=sum(plane_stock) + q * sum(parking_stock),
        final_in_transit=sum(batch[kind] for _, _, kind, _ in pending),
        events=log,
    )
    return Replay(result, leadtimes)


def breed_reference(population: list, order: list[int], rng, bounds: list[tuple[float, float]]) -> list:
    """The children of one generation, bred from six whole-array draws.

    The reference for sparechain.optimizer._breed, kept as it was when its
    mutation loop visited every gene of every child: the package's
    hit-only loop must give equal children from an equally seeded stream.

    ``order`` is the stable sort of ``population`` by (penalized, genome); a
    tournament's winner is its contender of lowest rank in that order.
    """
    n_children = len(population) - ELITISM
    n_pairs = (n_children + 1) // 2
    n_genes = len(bounds)
    # Candidates with equal sort keys are equal genomes, so the lowest
    # stable-sort rank picks the same parent as comparing keys.
    rank = np.argsort(order)
    contenders = rng.integers(0, len(population), size=(n_pairs, 2, TOURNAMENT_SIZE))
    parents = np.asarray(order)[rank[contenders].min(axis=2)].tolist()
    crossed = (rng.random(n_pairs) < CROSSOVER_RATE).tolist()
    swaps = (rng.random((n_pairs, n_genes)) < 0.5).tolist()
    mutated = (rng.random((2 * n_pairs, n_genes)) < MUTATION_RATE).tolist()
    int_lo, int_hi = np.array([bounds[g] for g in _INT_GENES]).T
    new_ints = rng.integers(int_lo, int_hi + 1, size=(2 * n_pairs, len(_INT_GENES))).tolist()
    steps = rng.normal(0.0, MUTATION_SIGMA_KM, size=(2 * n_pairs, len(_FLOAT_GENES))).tolist()

    children = []
    for (i, j), cross, swap in zip(parents, crossed, swaps):
        a, b = population[i], population[j]
        if cross:
            children.append([y if s else x for x, y, s in zip(a, b, swap)])
            children.append([x if s else y for x, y, s in zip(a, b, swap)])
        else:
            children.append(list(a))
            children.append(list(b))
    for child, hits, ints, step in zip(children, mutated, new_ints, steps):
        for g, value in zip(_INT_GENES, ints):
            if hits[g]:
                child[g] = value
        for g, dh in zip(_FLOAT_GENES, step):
            if hits[g]:
                lo, hi = bounds[g]
                child[g] = float(min(max(child[g] + dh, lo), hi))
    return children[:n_children]
