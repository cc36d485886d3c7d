"""Spare-strategy optimization.

A mixed-integer genetic algorithm searches the six-variable strategy
space (five integers plus the continuous parking altitude) for the lowest
annual cost subject to a launch-capacity constraint and a constellation
fill-rate requirement. The ground-only baseline has just two variables
and is solved exactly: per order quantity, the reorder point steps up to
the first one that meets the fill-rate target. A sweep utility reruns
both per failure rate to map the savings of the orbital echelon.

Each restart has its own random stream (keys in the `config`
docstring). It first draws the initial population genome by genome, then
per generation six arrays in this order: tournament contenders,
crossover coins, gene-swap coins, mutation coins, replacement integer
genes and altitude steps. Every array is drawn whole, used or not, so
the draws never depend on fitness values.

Only the genetic search uses numpy (`_breed` and `optimize` import it
when called), so the exact ground-only search runs on the standard
library. The search settings (`VariableBounds`, `GAParams` and the
elitism count), their defaults (`OptimizationSettings`) and the seed rule
are defined in `config`, so loading a config does not execute this
module, and a search does not execute `simulator`; the package loads
this module lazily, on first use.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .chain import (
    STRATEGY_BOUNDS,
    ConstellationConfig,
    LaunchParams,
    ParkingAltitudeError,
    SatelliteParams,
    SpareStrategy,
    StageMemo,
    UndefinedAvailabilityError,
    evaluate_inplane_only,
)
from .config import ELITISM, GAParams, OptimizationSettings, VariableBounds, child_seed, stream
from .costs import CostBreakdown, CostParams, NegativeHoldingError, tessac, tessac_inplane_only
from .inventory import SQPolicy, least_reorder_point
from .orbits import WGS84, EarthConstants, check_earth

PENALTY_SCALE = 1e6
ERROR_PENALTY = 1e9

# Fixed genetic operators besides `config.ELITISM`: candidates per parent
# tournament, probability that a pair of parents is recombined, per-gene
# mutation probability, and the standard deviation of an altitude mutation.
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.8
MUTATION_RATE = 0.1
MUTATION_SIGMA_KM = 30.0


@dataclass(frozen=True)
class OptimizationProblem:
    """Everything a strategy search needs besides the seed."""

    constellation: ConstellationConfig
    launch: LaunchParams
    costs: CostParams
    satellite: SatelliteParams
    rho_target: float = OptimizationSettings.rho_target
    bounds: VariableBounds = OptimizationSettings.bounds
    ga: GAParams = OptimizationSettings.ga
    # Must be WGS84: kept only for bench/reference.py, which passes it.
    consts: EarthConstants = WGS84

    def __post_init__(self) -> None:
        check_earth(self.consts)
        if not 0.0 < self.rho_target < 1.0:
            raise ValueError(f"fill-rate target must be in (0, 1), got {self.rho_target}")


class FitnessResult(NamedTuple):
    """Objective and constraint view of one candidate."""

    tessac: float | None
    feasible: bool
    capacity_violation: float
    fillrate_violation: float
    penalized: float
    fill_rate_product: float | None
    cost: CostBreakdown | None


def fitness(
    candidate: SpareStrategy, prob: OptimizationProblem, memo: StageMemo | None = None
) -> FitnessResult:
    """Evaluate one candidate: annual cost plus normalized constraint slacks.

    Infeasible candidates carry an additive penalty proportional to the
    violation so the search still senses direction. A candidate that the
    model cannot evaluate, for a reason another candidate may escape (too
    small a parking stock, a parking orbit not below the planes, negative
    holding), gets a flat maximal penalty; every other error reaches the
    caller. A search passes its ``memo``, built for ``prob``, to share chain
    stages between candidates; without one, a one-use memo is built.
    """
    cfg, lp = prob.constellation, prob.launch
    if memo is None:
        memo = StageMemo(cfg, lp, prob.satellite)
    try:
        metrics, transfer = memo.figures(candidate)
        cost = tessac(cfg, candidate, metrics, transfer, prob.costs, lp)
    except (UndefinedAvailabilityError, ParkingAltitudeError, NegativeHoldingError):
        return FitnessResult(None, False, math.nan, math.nan, ERROR_PENALTY, None, None)
    product = metrics.rho_plane**cfg.n_plane * metrics.rho_parking**candidate.n_parking
    cap = lp.cap_launch
    capacity_violation = max(0.0, (candidate.q_parking - cap) / cap)
    fillrate_violation = max(0.0, (prob.rho_target - product) / prob.rho_target)
    feasible = capacity_violation == 0.0 and fillrate_violation == 0.0
    total = cost.tessac
    penalized = total + PENALTY_SCALE * (capacity_violation + fillrate_violation)
    # Positional, in field order: a search builds one per scored candidate.
    return FitnessResult(
        total, feasible, capacity_violation, fillrate_violation, penalized, product, cost
    )


@dataclass(frozen=True)
class OptimizationResult:
    """Best strategy found, or an explicit infeasibility marker."""

    feasible: bool
    best_strategy: SpareStrategy | None
    best_cost: float | None
    breakdown: CostBreakdown | None
    fill_rate_product: float | None
    trace: tuple[tuple[int, int, float, float], ...]  # restart, generation, best, mean


# Genomes are tuples of SpareStrategy's fields in field order, so
# SpareStrategy(*genome) is the candidate. Genes with float bounds in
# STRATEGY_BOUNDS are real-valued; the others are integers.
_N_GENES = len(STRATEGY_BOUNDS)
_FLOAT_GENES = tuple(
    g for g, (lo, _) in enumerate(STRATEGY_BOUNDS.values()) if isinstance(lo, float)
)
_INT_GENES = tuple(g for g in range(_N_GENES) if g not in _FLOAT_GENES)
# Each gene's column in its kind's draws: the replacement integers or the
# altitude steps.
_COLUMN = {g: col for genes in (_INT_GENES, _FLOAT_GENES) for col, g in enumerate(genes)}
# Uniform crossover as one item getter per swap mask, applied to the
# concatenated parents a + b: bit g of the mask takes gene g from b.
_CROSSOVER = [
    operator.itemgetter(*(g + _N_GENES * (mask >> g & 1) for g in range(_N_GENES)))
    for mask in range(1 << _N_GENES)
]
_BIT_VALUES = tuple(1 << g for g in range(_N_GENES))


def _search_memo(prob: OptimizationProblem) -> StageMemo:
    """A `StageMemo` for a search on ``prob``, after checking that it can be searched.

    Raises:
        ValueError: If the box's lowest parking altitude is not below the
            planes, or a parking orbit there never aligns with a plane (zero
            relative drift, as for polar planes): every candidate in the box
            would fail, so the search would find nothing.
    """
    memo = StageMemo(prob.constellation, prob.launch, prob.satellite)
    h_lo, h_plane = prob.bounds.h_parking_km[0], prob.constellation.h_plane_km
    if h_lo >= h_plane:
        raise ValueError(
            f"lowest parking altitude {h_lo} km of the search box is not below "
            f"plane altitude {h_plane} km"
        )
    memo.altitude(h_lo)
    return memo


def _random_genome(rng, bounds: list[tuple[float, float]]) -> tuple:
    genome = []
    for g, (lo, hi) in enumerate(bounds):
        if g in _FLOAT_GENES:
            genome.append(float(rng.uniform(lo, hi)))
        else:
            genome.append(int(rng.integers(lo, hi + 1)))
    return tuple(genome)


def _breed(population: list, order: list[int], rng, bounds: list[tuple[float, float]]) -> list:
    """The children of one generation, bred from six whole-array draws.

    ``order`` is the stable sort of ``population`` by (penalized fitness,
    genome); a tournament's winner is its contender of lowest rank in that
    order. Every draw is made whole, but a child's gene changes only where
    its mutation coin hit.
    """
    import numpy as np

    n_children = len(population) - ELITISM
    n_pairs = (n_children + 1) // 2
    # Candidates with equal sort keys are equal genomes, so the lowest
    # stable-sort rank picks the same parent as comparing keys. rank is the
    # inverse permutation of order. Here and below, ufuncs and array
    # methods are called directly: at these sizes numpy's Python-level
    # wrappers cost more than the work.
    ranked = np.array(order)
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(len(ranked))
    contenders = rng.integers(0, len(population), size=(n_pairs, 2, TOURNAMENT_SIZE))
    parents = ranked[np.minimum.reduce(rank[contenders], axis=2)].tolist()
    crossed = rng.random(n_pairs) < CROSSOVER_RATE
    swaps = rng.random((n_pairs, _N_GENES)) < 0.5
    mutated = rng.random((2 * n_pairs, _N_GENES)) < MUTATION_RATE
    int_lo, int_hi = np.array([bounds[g] for g in _INT_GENES]).T
    new_ints = rng.integers(int_lo, int_hi + 1, size=(2 * n_pairs, len(_INT_GENES))).tolist()
    steps = rng.normal(0.0, MUTATION_SIGMA_KM, size=(2 * n_pairs, len(_FLOAT_GENES))).tolist()

    # A pair that is not crossed swaps no gene; its second child takes the
    # complementary mask.
    masks = ((swaps & crossed[:, None]) @ _BIT_VALUES).tolist()
    full = (1 << _N_GENES) - 1
    children = []
    for (i, j), mask in zip(parents, masks):
        both = population[i] + population[j]
        children += (_CROSSOVER[mask](both), _CROSSOVER[full ^ mask](both))
    del children[n_children:]
    hit_children, hit_genes = mutated[:n_children].nonzero()
    for c, g in zip(hit_children.tolist(), hit_genes.tolist()):
        child = children[c]
        if g in _FLOAT_GENES:
            lo, hi = bounds[g]
            value = float(min(max(child[g] + steps[c][_COLUMN[g]], lo), hi))
        else:
            value = new_ints[c][_COLUMN[g]]
        children[c] = child[:g] + (value,) + child[g + 1 :]
    return children


def optimize(prob: OptimizationProblem, seed: int) -> OptimizationResult:
    """Genetic search over the full strategy space.

    Runs the configured number of independent restarts (restart r draws
    from ``config.stream(seed, r)``) and returns the
    best feasible candidate found, with exact ties broken toward the
    lexicographically smallest variable vector. Selection ranks genomes by
    penalized fitness, so an infeasible genome may rank first; the winner
    is the cheapest feasible genome ever scored. The search keeps only the
    penalized fitness of each genome it has scored and the best feasible
    (TESSAC, genome), shares one `StageMemo` between its fitness calls, and
    scores the winner once more at the end for its full result.

    Returns:
        OptimizationResult; ``feasible`` is False when no candidate ever
        satisfied both constraints.

    Raises:
        ValueError: If no candidate in the box can be evaluated (see
            `_search_memo`), naming the cause.
    """
    import numpy as np

    ga = prob.ga
    bounds = [getattr(prob.bounds, name) for name in STRATEGY_BOUNDS]
    memo = _search_memo(prob)
    scores: dict[tuple, float] = {}
    best: tuple[float, tuple] | None = None  # (TESSAC, genome) of the best feasible candidate

    def score(genome: tuple) -> float:
        nonlocal best
        penalized = scores.get(genome)
        if penalized is None:
            fit = fitness(SpareStrategy(*genome), prob, memo)
            penalized = scores[genome] = fit.penalized
            if fit.feasible and (best is None or (fit.tessac, genome) < best):
                best = (fit.tessac, genome)
        return penalized

    trace: list[tuple[int, int, float, float]] = []

    for restart in range(ga.restarts):
        rng = stream(seed, restart)
        population = [_random_genome(rng, bounds) for _ in range(ga.population)]

        for generation in range(ga.generations):
            # One table lookup per visit; the misses are scored in order, so
            # that a new genome seen twice is scored once.
            scored = list(map(scores.get, population))
            for i, penalized in enumerate(scored):
                if penalized is None:
                    scored[i] = score(population[i])
            # Sort keys (penalized, genome): lexicographic genome order
            # breaks exact fitness ties deterministically.
            keys = list(zip(scored, population))
            order = sorted(range(ga.population), key=keys.__getitem__)
            # np.mean's sum and division, bit for bit, without its wrappers.
            mean = float(np.add.reduce(scored)) / ga.population
            trace.append((restart, generation, keys[order[0]][0], mean))

            if generation == ga.generations - 1:
                break
            elites = [population[i] for i in order[:ELITISM]]
            population = elites + _breed(population, order, rng, bounds)

    if best is None:
        return OptimizationResult(False, None, None, None, None, tuple(trace))
    winner = SpareStrategy(*best[1])
    fit = fitness(winner, prob, memo)
    return OptimizationResult(True, winner, fit.tessac, fit.cost, fit.fill_rate_product, tuple(trace))


@dataclass(frozen=True)
class InplaneOptimizationResult:
    """Exact optimum of the ground-to-plane baseline."""

    best_policy: SQPolicy
    best_cost: float
    fill_rate_product: float


def optimize_inplane_only(prob: OptimizationProblem) -> InplaneOptimizationResult:
    """Exact baseline optimum over order quantity and reorder point.

    For a fixed Q, TESSAC rises with s by p_holding * n_plane per unit and
    the expected shortage never does, so the cheapest feasible s is the
    smallest one, `least_reorder_point` from 0 with no upper limit. The
    fill rate tends to 1 as s grows, so every Q up to the launch capacity
    has a feasible s and the baseline is always feasible. An exact cost tie
    goes to the smaller Q.
    """
    cfg, lp = prob.constellation, prob.launch
    best: InplaneOptimizationResult | None = None
    for q in range(1, lp.cap_launch + 1):
        # Kept per s, so that the winner's evaluation is not repeated.
        metrics_at = functools.cache(lambda s: evaluate_inplane_only(cfg, SQPolicy(s, q), lp))
        s = least_reorder_point(
            lambda s: metrics_at(s).rho_plane**cfg.n_plane >= prob.rho_target, 0
        )
        policy, metrics = SQPolicy(s, q), metrics_at(s)
        product = metrics.rho_plane**cfg.n_plane
        cost = tessac_inplane_only(cfg, policy, metrics, prob.costs, lp).tessac
        if best is None or cost < best.best_cost:
            best = InplaneOptimizationResult(policy, cost, product)
    assert best is not None
    return best


@dataclass(frozen=True)
class SweepPoint:
    """Both optima and the relative savings at one failure rate."""

    lambda_sat_per_year: float
    tessac_multi: float | None = None
    tessac_inplane: float | None = None
    savings_pct: float | None = None
    best_strategy: SpareStrategy | None = None
    best_policy: SQPolicy | None = None
    error: str | None = None


def sensitivity_sweep(
    prob: OptimizationProblem, failure_rates: Sequence[float], seed: int = 0
) -> list[SweepPoint]:
    """Optimize both strategies across failure rates and report the savings.

    Rate index i searches with seed ``config.child_seed(seed, i)``. A
    failure at one rate is recorded in that point and the sweep continues.

    Raises:
        ValueError: Before any search, if no candidate in the box can be
            evaluated at any rate (see `_search_memo`).
    """
    _search_memo(prob)
    points: list[SweepPoint] = []
    for i, rate in enumerate(failure_rates):
        cfg = dataclasses.replace(prob.constellation, lambda_sat_per_year=rate)
        sub_prob = dataclasses.replace(prob, constellation=cfg)
        try:
            multi = optimize(sub_prob, child_seed(seed, i))
            if not multi.feasible:
                raise ValueError("no feasible strategy at this rate")
            base = optimize_inplane_only(sub_prob)
            savings = (base.best_cost - multi.best_cost) / base.best_cost * 100.0
            points.append(
                SweepPoint(
                    lambda_sat_per_year=rate,
                    tessac_multi=multi.best_cost,
                    tessac_inplane=base.best_cost,
                    savings_pct=savings,
                    best_strategy=multi.best_strategy,
                    best_policy=base.best_policy,
                )
            )
        except ValueError as exc:
            points.append(SweepPoint(lambda_sat_per_year=rate, error=str(exc)))
    return points
