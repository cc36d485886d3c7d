"""Spare-strategy optimization.

A mixed-integer genetic algorithm searches the six-variable strategy
space (five integers plus the continuous parking altitude) for the lowest
annual cost subject to a launch-capacity constraint and a constellation
fill-rate requirement. The ground-only baseline has just two variables
and is solved exactly: per order quantity, the reorder point steps up to
the first one that meets the fill-rate target. A sweep utility reruns
both per failure rate to map the savings of the orbital echelon.

Each restart has its own Philox stream. It first draws the initial
population genome by genome, then per generation six arrays in this
order: tournament contenders, crossover coins, gene-swap coins, mutation
coins, replacement integer genes and altitude steps. Every array is drawn
whole, used or not, so the draws never depend on fitness values.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    STRATEGY_BOUNDS,
    ConstellationConfig,
    LaunchParams,
    SatelliteParams,
    SpareStrategy,
    StageMemo,
    check_strategy_value,
    evaluate_inplane_only,
)
from .costs import CostBreakdown, CostParams, evaluate_design, tessac_inplane_only
from .inventory import SQPolicy
from .orbits import WGS84, EarthConstants

PENALTY_SCALE = 1e6
ERROR_PENALTY = 1e9

# Fixed genetic operators: elite genomes copied unchanged into each next
# generation, candidates per parent tournament, probability that a pair of
# parents is recombined, per-gene mutation probability, and the standard
# deviation of an altitude mutation.
ELITISM = 2
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.8
MUTATION_RATE = 0.1
MUTATION_SIGMA_KM = 30.0


@dataclass(frozen=True)
class VariableBounds:
    """Search bounds per design variable; must fit the strategy type bounds."""

    n_parking: tuple[int, int] = STRATEGY_BOUNDS["n_parking"]
    h_parking_km: tuple[float, float] = STRATEGY_BOUNDS["h_parking_km"]
    q_plane: tuple[int, int] = STRATEGY_BOUNDS["q_plane"]
    s_plane: tuple[int, int] = STRATEGY_BOUNDS["s_plane"]
    k_q_parking: tuple[int, int] = STRATEGY_BOUNDS["k_q_parking"]
    k_s_parking: tuple[int, int] = STRATEGY_BOUNDS["k_s_parking"]

    def __post_init__(self) -> None:
        for name in STRATEGY_BOUNDS:
            lo, hi = getattr(self, name)
            check_strategy_value(name, lo)
            check_strategy_value(name, hi)
            if lo > hi:
                raise ValueError(f"{name} bounds ({lo}, {hi}) must be ordered")


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm run size; the operators are the module constants."""

    population: int = 60
    generations: int = 150
    restarts: int = 5

    def __post_init__(self) -> None:
        if self.population <= ELITISM or self.generations < 1 or self.restarts < 1:
            raise ValueError(f"population > {ELITISM}, generations >= 1, restarts >= 1 required")


@dataclass(frozen=True)
class OptimizationProblem:
    """Everything a strategy search needs besides the seed."""

    constellation: ConstellationConfig
    launch: LaunchParams
    costs: CostParams
    satellite: SatelliteParams
    rho_target: float = 0.95
    bounds: VariableBounds = VariableBounds()
    ga: GAParams = GAParams()
    consts: EarthConstants = WGS84

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_target < 1.0:
            raise ValueError(f"fill-rate target must be in (0, 1), got {self.rho_target}")


@dataclass(frozen=True)
class FitnessResult:
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
    violation so the search still senses direction; candidates the model
    cannot evaluate at all get a flat maximal penalty. A search passes its
    ``memo`` to share chain stages between candidates.
    """
    try:
        metrics, cost = evaluate_design(
            prob.constellation,
            candidate,
            prob.launch,
            prob.costs,
            prob.satellite,
            prob.consts,
            memo,
        )
    except ValueError:
        return FitnessResult(
            tessac=None,
            feasible=False,
            capacity_violation=math.nan,
            fillrate_violation=math.nan,
            penalized=ERROR_PENALTY,
            fill_rate_product=None,
            cost=None,
        )
    product = (
        metrics.rho_plane**prob.constellation.n_plane
        * metrics.rho_parking**candidate.n_parking
    )
    cap = prob.launch.cap_launch
    capacity_violation = max(0.0, (candidate.q_parking - cap) / cap)
    fillrate_violation = max(0.0, (prob.rho_target - product) / prob.rho_target)
    feasible = capacity_violation == 0.0 and fillrate_violation == 0.0
    penalized = cost.tessac + PENALTY_SCALE * (capacity_violation + fillrate_violation)
    return FitnessResult(
        tessac=cost.tessac,
        feasible=feasible,
        capacity_violation=capacity_violation,
        fillrate_violation=fillrate_violation,
        penalized=penalized,
        fill_rate_product=product,
        cost=cost,
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
    seed: int


# Genomes are plain lists of SpareStrategy's fields in field order, so
# SpareStrategy(*genome) is the candidate. Genes with float bounds in
# STRATEGY_BOUNDS are real-valued; the others are integers.
_FLOAT_GENES = tuple(
    g for g, (lo, _) in enumerate(STRATEGY_BOUNDS.values()) if isinstance(lo, float)
)
_INT_GENES = tuple(g for g in range(len(STRATEGY_BOUNDS)) if g not in _FLOAT_GENES)


def _random_genome(rng, bounds: list[tuple[float, float]]) -> list:
    genome = []
    for g, (lo, hi) in enumerate(bounds):
        if g in _FLOAT_GENES:
            genome.append(float(rng.uniform(lo, hi)))
        else:
            genome.append(int(rng.integers(lo, hi + 1)))
    return genome


def _breed(population: list, order: list[int], rng, bounds: list[tuple[float, float]]) -> list:
    """The children of one generation, bred from six whole-array draws.

    ``order`` is the stable sort of ``population`` by ``_sort_key``; a
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


def _sort_key(genome: list, penalized: float) -> tuple:
    # Lexicographic genome order breaks exact fitness ties deterministically.
    return (penalized, tuple(genome))


def optimize(prob: OptimizationProblem, seed: int) -> OptimizationResult:
    """Genetic search over the full strategy space.

    Runs the configured number of independent restarts (restart r draws
    its stream from SeedSequence(seed, spawn_key=(r,))) and returns the
    best feasible candidate found, with exact ties broken toward the
    lexicographically smallest variable vector. The search keeps only the
    penalized fitness of each genome it has scored, shares one `StageMemo`
    between its fitness calls, and scores the winner once more at the end
    for its full result.

    Returns:
        OptimizationResult; ``feasible`` is False when no candidate ever
        satisfied both constraints.
    """
    ga = prob.ga
    bounds = [getattr(prob.bounds, name) for name in STRATEGY_BOUNDS]
    memo = StageMemo()
    scores: dict[tuple, float] = {}

    def score(genome: list) -> float:
        key = tuple(genome)
        penalized = scores.get(key)
        if penalized is None:
            penalized = scores[key] = fitness(SpareStrategy(*genome), prob, memo).penalized
        return penalized

    trace: list[tuple[int, int, float, float]] = []
    best_key: tuple | None = None

    for restart in range(ga.restarts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(restart,))))
        population = [_random_genome(rng, bounds) for _ in range(ga.population)]

        for generation in range(ga.generations):
            scored = [score(g) for g in population]
            order = sorted(range(ga.population), key=lambda i: _sort_key(population[i], scored[i]))
            gen_best = scored[order[0]]
            trace.append((restart, generation, gen_best, float(np.mean(scored))))
            candidate_key = _sort_key(population[order[0]], gen_best)
            if best_key is None or candidate_key < best_key:
                best_key = candidate_key

            if generation == ga.generations - 1:
                break
            elites = [list(population[i]) for i in order[:ELITISM]]
            population = elites + _breed(population, order, rng, bounds)

    assert best_key is not None
    best_genome = best_key[1]
    best_fit = fitness(SpareStrategy(*best_genome), prob, memo)
    if not best_fit.feasible:
        return OptimizationResult(
            feasible=False,
            best_strategy=None,
            best_cost=None,
            breakdown=None,
            fill_rate_product=None,
            trace=tuple(trace),
            seed=seed,
        )
    return OptimizationResult(
        feasible=True,
        best_strategy=SpareStrategy(*best_genome),
        best_cost=best_fit.cost.tessac,
        breakdown=best_fit.cost,
        fill_rate_product=best_fit.fill_rate_product,
        trace=tuple(trace),
        seed=seed,
    )


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
    smallest one: s steps up from 0 until the fill-rate product meets the
    target (Federgruen & Zheng's monotonicity in the reorder point). The
    fill rate tends to 1 as s grows, so every Q up to the launch capacity
    has a feasible s and the baseline is always feasible. An exact cost tie
    goes to the smaller Q.
    """
    cfg, lp = prob.constellation, prob.launch
    best: InplaneOptimizationResult | None = None
    for q in range(1, lp.cap_launch + 1):
        for s in itertools.count():
            policy = SQPolicy(reorder_point_s=s, order_quantity_q=q)
            metrics = evaluate_inplane_only(cfg, policy, lp)
            product = metrics.rho_plane**cfg.n_plane
            if product >= prob.rho_target:
                break
        cost = tessac_inplane_only(cfg, policy, metrics, prob.costs, lp).tessac
        if best is None or cost < best.best_cost:
            best = InplaneOptimizationResult(policy, cost, product)
    assert best is not None
    return best


@dataclass(frozen=True)
class SweepPoint:
    """Both optima and the relative savings at one failure rate."""

    lambda_sat_per_year: float
    tessac_multi: float | None
    tessac_inplane: float | None
    savings_pct: float | None
    best_strategy: SpareStrategy | None
    best_policy: SQPolicy | None
    error: str | None = None


def sensitivity_sweep(
    prob: OptimizationProblem, failure_rates: Sequence[float], seed: int = 0
) -> list[SweepPoint]:
    """Optimize both strategies across failure rates and report the savings.

    Rate index i derives its search seed from SeedSequence(seed,
    spawn_key=(i,)). A failure at one rate is recorded in that point and
    the sweep continues.
    """
    points: list[SweepPoint] = []
    for i, rate in enumerate(failure_rates):
        sub_seed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])
        cfg = dataclasses.replace(prob.constellation, lambda_sat_per_year=rate)
        sub_prob = dataclasses.replace(prob, constellation=cfg)
        try:
            multi = optimize(sub_prob, sub_seed)
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
            points.append(
                SweepPoint(
                    lambda_sat_per_year=rate,
                    tessac_multi=None,
                    tessac_inplane=None,
                    savings_pct=None,
                    best_strategy=None,
                    best_policy=None,
                    error=str(exc),
                )
            )
    return points
