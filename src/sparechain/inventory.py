"""Continuous-review (s,Q) inventory analytics under Poisson demand.

Shared toolkit for both supply-chain echelons: expected shortage per
replenishment cycle, order fill rate, and cycle-average stock level. All
quantities are per location and per cycle. The exact shortages for the two
random lead-time shapes (a demand mean uniform on a segment, and Poisson
plus geometric demand) live here too; the chain model maps its lead-time
laws onto them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class SQPolicy:
    """Reorder point / order quantity pair for one stock location.

    A replenishment order of ``order_quantity_q`` units is placed whenever
    the stock level falls to the reorder point with no order outstanding.
    """

    reorder_point_s: int
    order_quantity_q: int

    def __post_init__(self) -> None:
        if self.order_quantity_q < 1:
            raise ValueError(f"order quantity must be >= 1, got {self.order_quantity_q}")
        if self.reorder_point_s < 0:
            raise ValueError(f"reorder point must be >= 0, got {self.reorder_point_s}")


def expected_shortage(s: int, mean_demand):
    """Expected backorders per cycle, E[(D - s)+] with D ~ Poisson(mean_demand).

    Uses the closed form m*P(D >= s) - s*P(D >= s+1), which the survival
    function of the Poisson distribution evaluates without explicit tail
    summation. Vectorized over ``mean_demand``.

    Args:
        s: Reorder point (units), >= 0.
        mean_demand: Expected lead-time demand, scalar or array.

    Returns:
        Scalar for scalar input, ndarray otherwise; always >= 0.
    """
    if s < 0:
        raise ValueError(f"reorder point must be >= 0, got {s}")
    m = np.asarray(mean_demand, dtype=float)
    if (m < 0).any():
        raise ValueError("mean demand must be nonnegative")
    if s == 0:
        out = m.copy()
    else:
        # pdtrc(k, m) = P(D > k); cancellation can leave a tiny negative residue.
        out = m * special.pdtrc(s - 1, m) - s * special.pdtrc(s, m)
        out = np.maximum(out, 0.0)
    return float(out) if np.isscalar(mean_demand) else out


def expected_shortage_uniform(s: int, mean_segments):
    """Average of E[(D - s)+], D ~ Poisson(m), over m uniform on a segment.

    This is the shortage for a lead time uniform on a segment. With
    S_s(m) = E[(D - s)+], the antiderivative is
    H_s(M) = (M^2 P(D >= s) - 2sM P(D >= s+1) + s(s+1) P(D >= s+2)) / 2 for
    D ~ Poisson(M), so the average over [lo, hi] is
    (H_s(hi) - H_s(lo)) / (hi - lo). Vectorized over segments.

    Args:
        s: Reorder point (units), >= 0.
        mean_segments: Demand means at the segment ends, shape (..., 2) as
            (lo, hi) pairs with 0 <= lo < hi.

    Returns:
        Scalar for a single (lo, hi) pair, ndarray of shape (...) otherwise;
        always >= 0.
    """
    if s < 0:
        raise ValueError(f"reorder point must be >= 0, got {s}")
    m = np.asarray(mean_segments, dtype=float)
    lo, hi = m[..., 0], m[..., 1]
    width = hi - lo
    if lo.min() < 0 or width.min() <= 0:
        raise ValueError("demand segments must satisfy 0 <= lo < hi")
    if s == 0:
        out = lo + 0.5 * width
    else:
        # pdtrc(k, M) = P(D > k) for D ~ Poisson(M)
        h = 0.5 * (
            m**2 * special.pdtrc(s - 1, m)
            - 2 * s * m * special.pdtrc(s, m)
            + s * (s + 1) * special.pdtrc(s + 1, m)
        )
        # Cancellation in H can leave a tiny negative residue where S_s is ~0.
        out = np.maximum((h[..., 1] - h[..., 0]) / width, 0.0)
    return float(out) if out.ndim == 0 else out


def expected_shortage_geometric(s: int, mean_demand: float, geometric_mean: float) -> float:
    """Expected backorders E[(A + G - s)+] for a Poisson plus geometric demand.

    A ~ Poisson(mean_demand) and G is an independent geometric count on
    {0, 1, ...} with mean g = geometric_mean and ratio q = g / (1 + g).
    That is the demand of a Poisson stream over a fixed shift plus an
    exponential wait. G is memoryless, so E[(a + G - s)+] = g q^(s-a) for
    a < s, and the shortage is
    S_s(m) + g (P(A >= s) + sum_{a<s} P(A = a) q^(s-a)),
    a sum of nonnegative terms.
    """
    if s < 0:
        raise ValueError(f"reorder point must be >= 0, got {s}")
    if mean_demand < 0 or geometric_mean < 0:
        raise ValueError("demand means must be nonnegative")
    m = float(mean_demand)
    g = float(geometric_mean)
    if s == 0:
        return m + g
    q = g / (1.0 + g)
    if m == 0.0:
        return g * q**s
    # P(A = a) from logs, so that exp(-m) cannot underflow for large m.
    log_m = math.log(m)
    below = sum(math.exp(a * log_m - m - math.lgamma(a + 1)) * q ** (s - a) for a in range(s))
    return expected_shortage(s, m) + g * (float(special.pdtrc(s - 1, m)) + below)


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


def fill_rate(es: float, q: int) -> float:
    """Fraction of cycle demand served from stock, 1 - ES/Q clamped to [0, 1].

    Raises:
        ValueError: If the expected shortage is negative or Q < 1.
    """
    if es < 0:
        raise ValueError(f"expected shortage must be nonnegative, got {es}")
    if q < 1:
        raise ValueError(f"order quantity must be >= 1, got {q}")
    return min(max(1.0 - es / q, 0.0), 1.0)


def mean_stock(policy: SQPolicy, expected_leadtime_demand: float) -> float:
    """Cycle-average stock level, Q/2 + s - E[demand over lead time] + 1/2.

    The formula assumes backorders are rare; it can go negative for
    policies far below that regime, and such values are returned as-is so
    that fill-rate screening (not this function) rejects the policy.
    """
    if expected_leadtime_demand < 0:
        raise ValueError("expected lead-time demand must be nonnegative")
    return (
        policy.order_quantity_q / 2.0
        + policy.reorder_point_s
        - expected_leadtime_demand
        + 0.5
    )
