"""Reference implementations the tests compare the package against.

Each one takes a different route to a quantity the package computes in
closed form, so agreement checks the closed form rather than restating it.
The exceptions are run_with_rng_reference, the simulator's event loop in
its plainer shape with one closure call per event, and breed_reference,
the GA's breeding step as it was before it applied only the drawn
mutation hits: the package must reproduce both bit for bit.
segment_shortages and expected_shortage_mixture compose the package's
bound_shortages into the shortage of a mixture of uniform demand-mean
segments, which the tests use as a reference and the package does not
need.
"""

import heapq
import itertools
import math
from collections import deque

import numpy as np
from scipy import special

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
from sparechain.simulator import (
    _PARKING_ARRIVAL,
    _PLANE_ARRIVAL,
    _TWO_PI,
    ReplicationResult,
    SimConfig,
    _closest_parking,
)


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
    tails, so it shares no code with the package's tail kernel.
    """
    m = np.asarray(mean_demand, dtype=float)
    return np.maximum(m * special.pdtrc(s - 1, m) - s * special.pdtrc(s, m), 0.0)


def run_with_rng_reference(
    sc: SimConfig, failure_times: list[float], failure_planes: list[int], launch_rng
) -> ReplicationResult:
    """The simulator's event loop with one closure call per event.

    The reference for sparechain.simulator._run_with_rng, which handles
    failures and plane arrivals inline: both must give equal
    ReplicationResults, field for field, on the same failures and
    identically seeded launch-wait streams. Failure j happens at
    failure_times[j] on plane failure_planes[j]; failures past the
    horizon are ignored. The cost block calls sparechain.costs.annual_cost
    with the same flows as the package loop, so TESSAC compares with ==
    too; the loop itself is what this reference checks.
    """
    cfg, st, lp = sc.constellation, sc.strategy, sc.launch
    n_plane, n_park = cfg.n_plane, st.n_parking
    q_plane, s_plane = st.q_plane, st.s_plane
    k_q, k_s = st.k_q_parking, st.k_s_parking
    q_parking = st.q_parking

    horizon = sc.horizon_years * DAYS_PER_YEAR
    warmup = sc.warmup_years * DAYS_PER_YEAR
    window = horizon - warmup

    parking_orbit = CircularOrbit(st.h_parking_km, cfg.inclination_deg)
    plane_orbit = CircularOrbit(cfg.h_plane_km, cfg.inclination_deg)
    relative = raan_drift_rate(parking_orbit, sc.consts) - raan_drift_rate(plane_orbit, sc.consts)
    if relative == 0.0:
        raise ValueError("zero relative drift rate: transfers never depart")
    transfer = hohmann_transfer(
        parking_orbit, plane_orbit, sc.satellite.m_dry_kg, sc.satellite.v_exhaust_km_s, sc.consts
    )
    tof = transfer.time_of_flight_days

    plane_raan = [_TWO_PI * j / n_plane for j in range(n_plane)]
    parking_ring = [_TWO_PI * p / n_park for p in range(n_park)]

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

    failures = failures_window = served = 0
    backorder_events_window = 0
    plane_orders = transfers = plane_arrivals = 0
    plane_cycles_window = transfers_window = 0
    ground_orders = ground_arrivals = ground_arrivals_window = 0
    parking_cycles_window = parking_backorders_window = 0
    leadtimes: list[float] = []
    events: list[tuple[float, str, int, int]] | None = [] if sc.capture_events else None

    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    def push(t: float, kind: int, loc: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, loc))
        seq += 1

    def log(t: float, what: str, loc: int, stock: int) -> None:
        if events is not None:
            events.append((t, what, loc, stock))

    def advance(t: float) -> None:
        nonlocal int_plane, int_park, last_t
        overlap = min(t, horizon) - max(last_t, warmup)
        if overlap > 0.0:
            int_plane += agg_plane * overlap
            int_park += agg_park * overlap
        last_t = t

    def in_window(t: float) -> bool:
        return warmup <= t <= horizon

    def closest_parking(t: float, j: int) -> tuple[tuple[float, int], tuple[float, int] | None]:
        return _closest_parking(t, plane_raan[j], relative, parking_ring, parking_stock)

    def place_ground_order_if_due(p: int, t: float) -> None:
        nonlocal ground_orders
        if parking_stock[p] <= k_s and not parking_in_transit[p]:
            parking_in_transit[p] = True
            ground_orders += 1
            delay = lp.pt_launch_days + launch_rng.exponential(lp.mu_launch_days)
            push(t + delay, _PARKING_ARRIVAL, p)
            log(t, "ground_order", p, parking_stock[p])

    def assign_transfer(j: int, t: float, choice: tuple[float, int]) -> None:
        """Send one batch toward plane j from parking orbit p, choice = (wait, p)."""
        nonlocal agg_park, transfers, transfers_window
        wait, p = choice
        parking_stock[p] -= 1
        agg_park -= 1.0
        push(t + wait + tof, _PLANE_ARRIVAL, j)
        transfers += 1
        if in_window(t):
            transfers_window += 1
            leadtimes.append(wait + tof)
        log(t, "transfer_start", p, parking_stock[p])
        place_ground_order_if_due(p, t)

    def place_plane_order_if_due(j: int, t: float) -> None:
        nonlocal plane_orders, parking_backorders_window
        if plane_stock[j] <= s_plane and not plane_in_transit[j]:
            plane_in_transit[j] = True
            plane_orders += 1
            log(t, "plane_order", j, plane_stock[j])
            # Demand accounting: the order targets the geometrically closest
            # parking orbit; finding it empty is a parking backorder even if
            # another orbit ends up serving the transfer. When it is stocked,
            # it is also the closest stocked orbit.
            choice, stocked = closest_parking(t, j)
            if parking_stock[choice[1]] < 1:
                if in_window(t):
                    parking_backorders_window += 1
                choice = stocked
            if choice is None:
                waiting_orders.append(j)
                log(t, "order_queued", j, 0)
            else:
                assign_transfer(j, t, choice)

    def handle_failure(j: int, t: float) -> None:
        nonlocal agg_plane, failures, failures_window, served, backorder_events_window
        failures += 1
        if in_window(t):
            failures_window += 1
        if plane_stock[j] > 0:
            plane_stock[j] -= 1
            agg_plane -= 1.0
            served += 1
        else:
            plane_backorders[j] += 1
            if in_window(t):
                backorder_events_window += 1
        log(t, "failure", j, plane_stock[j])
        place_plane_order_if_due(j, t)

    def handle_plane_arrival(j: int, t: float) -> None:
        nonlocal agg_plane, served, plane_arrivals, plane_cycles_window
        plane_arrivals += 1
        if in_window(t):
            plane_cycles_window += 1
        assert plane_in_transit[j], "arrival without an outstanding order"
        plane_in_transit[j] = False
        delivered = q_plane
        backlog = min(delivered, plane_backorders[j])
        plane_backorders[j] -= backlog
        served += backlog
        plane_stock[j] += delivered - backlog
        agg_plane += float(delivered - backlog)
        log(t, "plane_arrival", j, plane_stock[j])
        place_plane_order_if_due(j, t)

    def handle_parking_arrival(p: int, t: float) -> None:
        nonlocal agg_park, ground_arrivals, ground_arrivals_window, parking_cycles_window
        ground_arrivals += 1
        assert parking_in_transit[p], "arrival without an outstanding order"
        parking_in_transit[p] = False
        parking_stock[p] += k_q
        agg_park += float(k_q)
        if in_window(t):
            ground_arrivals_window += 1
            parking_cycles_window += 1
        log(t, "parking_arrival", p, parking_stock[p])
        # Queued plane orders re-pick the closest stocked orbit now.
        while waiting_orders and any(s > 0 for s in parking_stock):
            j = waiting_orders.popleft()
            assign_transfer(j, t, closest_parking(t, j)[1])
        place_ground_order_if_due(p, t)

    # Failures come from their sorted list, arrivals from the heap; a
    # failure at the same time as an arrival is handled first.
    n_failures = len(failure_times)
    next_failure = 0
    t_failure = failure_times[0] if n_failures else math.inf
    while True:
        if heap and heap[0][0] < t_failure:
            t, _, kind, loc = heapq.heappop(heap)
            if t > horizon:
                break
            advance(t)
            if kind == _PLANE_ARRIVAL:
                handle_plane_arrival(loc, t)
            else:
                handle_parking_arrival(loc, t)
        else:
            t = t_failure
            if t > horizon:
                break
            advance(t)
            handle_failure(failure_planes[next_failure], t)
            next_failure += 1
            t_failure = failure_times[next_failure] if next_failure < n_failures else math.inf
    advance(horizon)

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
        1.0 - (parking_backorders_window / parking_cycles_window) / k_q
        if parking_cycles_window
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
        plane_leadtimes=tuple(leadtimes),
        events=tuple(events) if events is not None else None,
    )


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
