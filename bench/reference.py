"""Establish the reference optima that the optimize-case checks compare against.

Run once from the repository root; it writes ``bench/reference.json``:

    python3 bench/reference.py

Multi-echelon optimum of the bundled case study, found without the GA:

1. For fixed (n_parking, h_parking, q_plane, k_q_parking, k_s_parking),
   TESSAC rises with s_plane by exactly p_holding * n_plane per unit
   (mean plane stock is Q/2 + s - E[D] + 1/2 and no other cost term
   depends on s), and the fill-rate product rises with it too. So the
   cheapest feasible s_plane is the smallest feasible one, found by
   bisection. The script re-checks this on every grid point it visits.
2. Every integer gene combination inside the search bounds with
   k_q * q <= cap_launch is evaluated on a 25 km parking-altitude grid.
3. The best combinations are rescanned on a 1 km grid over the whole
   altitude range, and the best 1 km point of each is refined by
   golden-section search to 1e-7 km.

The single-echelon optimum is found by enumerating q in [1, cap_launch]
and s in [0, 60], a wider s range than the CLI's own search.

The objective and constraints are those of ``sparechain.optimizer.fitness``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from sparechain import optimizer  # noqa: E402
from sparechain.chain import SpareStrategy, evaluate_inplane_only  # noqa: E402
from sparechain.config import bundled_case_study_path, load_run_config  # noqa: E402
from sparechain.costs import tessac_inplane_only  # noqa: E402
from sparechain.inventory import SQPolicy  # noqa: E402

COARSE_STEP_KM = 25.0
FINE_STEP_KM = 1.0
REFINE_TOL_KM = 1e-7
FINE_COMBOS = 300


def load_problem() -> optimizer.OptimizationProblem:
    rc = load_run_config(bundled_case_study_path())
    return optimizer.OptimizationProblem(
        constellation=rc.constellation,
        launch=rc.launch,
        costs=rc.costs,
        satellite=rc.satellite,
        rho_target=rc.optimization.rho_target,
        bounds=rc.optimization.bounds,
        ga=rc.optimization.ga,
        consts=rc.earth,
    )


class Search:
    def __init__(self, prob: optimizer.OptimizationProblem):
        self.prob = prob
        self.evaluations = 0
        self.s_lo, self.s_hi = prob.bounds.s_plane

    def fit(self, n, h, q, s, kq, ks) -> optimizer.FitnessResult:
        self.evaluations += 1
        return optimizer.fitness(SpareStrategy(n, h, q, s, kq, ks), self.prob)

    def best_s(self, n, h, q, kq, ks) -> tuple[float, int] | None:
        """Cheapest feasible (tessac, s_plane) at fixed other genes, or None."""
        top = self.fit(n, h, q, self.s_hi, kq, ks)
        if not top.feasible:
            return None
        lo, hi, hi_fit = self.s_lo - 1, self.s_hi, top  # lo infeasible (or below range)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f = self.fit(n, h, q, mid, kq, ks)
            if f.feasible:
                hi, hi_fit = mid, f
            else:
                lo = mid
        if hi > self.s_lo:
            below = self.fit(n, h, q, hi - 1, kq, ks)
            if below.feasible or (below.tessac is not None and below.tessac >= hi_fit.tessac):
                raise AssertionError(f"s-monotonicity violated at {(n, h, q, hi, kq, ks)}")
        return hi_fit.tessac, hi


def integer_combos(prob):
    b = prob.bounds
    cap = prob.launch.cap_launch
    for n in range(b.n_parking[0], b.n_parking[1] + 1):
        for q in range(b.q_plane[0], b.q_plane[1] + 1):
            for kq in range(b.k_q_parking[0], b.k_q_parking[1] + 1):
                if kq * q > cap:
                    continue
                for ks in range(b.k_s_parking[0], b.k_s_parking[1] + 1):
                    yield n, q, kq, ks


def grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1)]


def multi_echelon_optimum(search: Search) -> dict:
    prob = search.prob
    h_lo, h_hi = prob.bounds.h_parking_km
    coarse = []
    for combo in integer_combos(prob):
        n, q, kq, ks = combo
        best = None
        for h in grid(h_lo, h_hi, COARSE_STEP_KM):
            r = search.best_s(n, h, q, kq, ks)
            if r is not None and (best is None or r[0] < best):
                best = r[0]
        if best is not None:
            coarse.append((best, combo))
    coarse.sort()
    coarse_evals = search.evaluations

    refined = []
    for _, (n, q, kq, ks) in coarse[:FINE_COMBOS]:
        cost = lambda h: (search.best_s(n, h, q, kq, ks) or (math.inf, None))[0]  # noqa: E731
        fine = [(cost(h), h) for h in grid(h_lo, h_hi, FINE_STEP_KM)]
        _, h0 = min(fine)
        a, b = max(h_lo, h0 - FINE_STEP_KM), min(h_hi, h0 + FINE_STEP_KM)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        fc, fd = cost(c), cost(d)
        while b - a > REFINE_TOL_KM:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = cost(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = cost(d)
        candidates = [(fc, c), (fd, d), min(fine)]
        best_cost, best_h = min(candidates)
        s = search.best_s(n, best_h, q, kq, ks)[1]
        refined.append((best_cost, (n, best_h, q, s, kq, ks)))
    refined.sort()
    best_cost, genes = refined[0]
    check = search.fit(*genes)
    assert check.feasible and check.tessac == best_cost
    return {
        "tessac": best_cost,
        "strategy": dict(
            zip(
                ["n_parking", "h_parking_km", "q_plane", "s_plane", "k_q_parking", "k_s_parking"],
                genes,
            )
        ),
        "fill_rate_product": check.fill_rate_product,
        "integer_combinations": len(coarse),
        "coarse_evaluations": coarse_evals,
        "total_evaluations": search.evaluations,
        "runner_up_tessac": refined[1][0],
    }


def inplane_optimum(prob) -> dict:
    cfg, lp = prob.constellation, prob.launch
    best = None
    for q in range(1, lp.cap_launch + 1):
        for s in range(0, 61):
            policy = SQPolicy(reorder_point_s=s, order_quantity_q=q)
            metrics = evaluate_inplane_only(cfg, policy, lp)
            if metrics.rho_plane**cfg.n_plane < prob.rho_target:
                continue
            cost = tessac_inplane_only(cfg, policy, metrics, prob.costs, lp).tessac
            if best is None or (cost, q, s) < best:
                best = (cost, q, s)
    return {"tessac": best[0], "q_plane": best[1], "s_plane": best[2]}


def main() -> int:
    prob = load_problem()
    t0 = time.perf_counter()
    search = Search(prob)
    multi = multi_echelon_optimum(search)
    inplane = inplane_optimum(prob)
    elapsed = time.perf_counter() - t0
    record = {
        "config": "bundled case study (src/sparechain/data/case_study.json)",
        "multi_echelon": multi,
        "inplane_only": inplane,
        "derivation": (
            "Exhaustive enumeration of every integer gene combination within the "
            "search bounds with k_q*q <= cap_launch, with s_plane set to its smallest "
            f"feasible value by bisection; parking altitude on a {COARSE_STEP_KM:g} km grid, "
            f"then the best {FINE_COMBOS} combinations on a {FINE_STEP_KM:g} km grid, then "
            f"golden-section refinement to {REFINE_TOL_KM:g} km. Single-echelon: q in "
            "[1, cap_launch], s in [0, 60]. Objective and constraints: "
            "sparechain.optimizer.fitness. Produced by bench/reference.py."
        ),
        "elapsed_s": round(elapsed, 1),
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
