"""Reference implementations the tests compare the package against.

Each one takes a different route to a quantity the package computes in
closed form, so agreement checks the closed form rather than restating it.
"""

import math

import numpy as np
from scipy import special


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


def poisson_shortage(s: int, mean_demand):
    """E[(D - s)+], D ~ Poisson(mean_demand), element-wise over an array, s >= 1.

    The closed form m*P(D >= s) - s*P(D >= s+1) with scipy's Poisson
    tails, so it shares no code with the package's tail kernel.
    """
    m = np.asarray(mean_demand, dtype=float)
    return np.maximum(m * special.pdtrc(s - 1, m) - s * special.pdtrc(s, m), 0.0)
