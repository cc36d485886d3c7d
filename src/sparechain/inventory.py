"""Continuous-review (s,Q) inventory analytics under Poisson demand.

Shared toolkit for both supply-chain echelons: expected shortage per
replenishment cycle, order fill rate, and cycle-average stock level. All
quantities are per location and per cycle. The exact shortages for the two
random lead-time shapes (a demand mean uniform on a segment, and Poisson
plus geometric demand) live here too; the chain model maps its lead-time
laws onto them.

Every shortage comes down to Poisson tail probabilities, and one scalar
kernel, `_poisson_tails`, supplies them all in plain floats: each tail is a
sum of positive, decreasing terms built from one pmf taken from logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative size below which a further term cannot change a float sum.
_EPS = 2.0**-53


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


def _poisson_tails(s: int, m: float) -> tuple[float, float, float]:
    """(P(D >= s), P(D >= s+1), P(D >= s+2)) for D ~ Poisson(m), s >= 1, m >= 0.

    One pmf value is taken from logs, so that exp(-m) cannot underflow for
    large m, and every other term follows from it by the ratio
    P(D = k+1) / P(D = k) = m / (k+1). For m <= s + 2 the tail from s + 2
    is summed forward, where that ratio is below 1. Above, each tail is
    1 - cdf, with the cdf summed downward from s - 1, where the inverse
    ratio k / m is below 1; that cdf stays under about one half, so the
    subtraction keeps the tail's relative accuracy. Each sum of positive,
    decreasing terms stops once a term can no longer change it.
    """
    if m == 0.0:
        return 0.0, 0.0, 0.0
    log_m = math.log(m)
    if m <= s + 2:
        p0 = math.exp(s * log_m - m - math.lgamma(s + 1))
        p1 = p0 * m / (s + 1)
        term = p1 * m / (s + 2)
        tail2 = 0.0
        k = s + 2
        while term > tail2 * _EPS:
            tail2 += term
            k += 1
            term *= m / k
        tail1 = tail2 + p1
        return tail1 + p0, tail1, tail2
    term = math.exp((s - 1) * log_m - m - math.lgamma(s))
    p0 = term * m / s
    p1 = p0 * m / (s + 1)
    cdf = 0.0
    k = s - 1
    while term > cdf * _EPS:
        cdf += term
        term *= k / m
        k -= 1
    return 1.0 - cdf, 1.0 - (cdf + p0), 1.0 - (cdf + p0 + p1)


def expected_shortage(s: int, mean_demand: float) -> float:
    """Expected backorders per cycle, E[(D - s)+] with D ~ Poisson(mean_demand).

    Uses the closed form m*P(D >= s) - s*P(D >= s+1), with both tails from
    the module's Poisson tail kernel, so no term of the shortage itself is
    summed.

    Args:
        s: Reorder point (units), >= 0.
        mean_demand: Expected lead-time demand, finite and >= 0.

    Returns:
        The expected shortage as a float, always >= 0.
    """
    if s < 0:
        raise ValueError(f"reorder point must be >= 0, got {s}")
    m = float(mean_demand)
    if not 0.0 <= m < math.inf:
        raise ValueError("mean demand must be finite and nonnegative")
    if s == 0:
        return m
    tail0, tail1, _ = _poisson_tails(s, m)
    # Cancellation can leave a tiny negative residue where the shortage is ~0.
    return max(m * tail0 - s * tail1, 0.0)


def _antiderivative(s: int, m: float) -> float:
    # H_s(m) of segment_shortages' docstring, for s >= 1.
    tail0, tail1, tail2 = _poisson_tails(s, m)
    return 0.5 * (m * m * tail0 - 2 * s * m * tail1 + s * (s + 1) * tail2)


def segment_shortages(s: int, mean_segments) -> list[float]:
    """Expected backorders for a demand mean uniform on each segment.

    For each (lo, hi) demand-mean segment, the average of
    S_s(m) = E[(D - s)+], D ~ Poisson(m), for m uniform on [lo, hi]. The
    antiderivative of S_s is
    H_s(M) = (M^2 P(D >= s) - 2sM P(D >= s+1) + s(s+1) P(D >= s+2)) / 2 for
    D ~ Poisson(M), so each segment's average is
    (H_s(hi) - H_s(lo)) / (hi - lo). H_s is evaluated once per distinct
    end, so contiguous segments, which share their ends, cost one kernel
    call per segment plus one.

    Args:
        s: Reorder point (units), >= 0.
        mean_segments: (lo, hi) demand means at the segment ends, with
            0 <= lo < hi < inf.
    """
    if s < 0:
        raise ValueError(f"reorder point must be >= 0, got {s}")
    for lo, hi in mean_segments:
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError("demand segments must satisfy 0 <= lo < hi < inf")
    if s == 0:
        return [lo + 0.5 * (hi - lo) for lo, hi in mean_segments]
    h: dict[float, float] = {}
    for lo, hi in mean_segments:
        for end in (lo, hi):
            if end not in h:
                h[end] = _antiderivative(s, end)
    # Cancellation in H can leave a tiny negative residue where S_s is ~0.
    return [max((h[hi] - h[lo]) / (hi - lo), 0.0) for lo, hi in mean_segments]


def expected_shortage_mixture(s: int, weights, mean_segments) -> float:
    """Expected backorders for a demand mean that is a mixture of uniforms.

    This is the shortage for a lead time that is a mixture of uniform
    segments: the weighted sum of `segment_shortages` over the (lo, hi)
    demand-mean segments.
    """
    return sum(w * a for w, a in zip(weights, segment_shortages(s, mean_segments)))


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
    return expected_shortage(s, m) + g * (_poisson_tails(s, m)[0] + below)


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


def mean_stock(s: int, q: int, expected_leadtime_demand: float) -> float:
    """Cycle-average stock level of an (s, Q) policy.

    Q/2 + s - E[demand over lead time] + 1/2, from the plain integers so
    that a search builds no `SQPolicy` per candidate.

    The formula assumes backorders are rare; it can go negative for
    policies far below that regime, and such values are returned as-is so
    that fill-rate screening (not this function) rejects the policy.
    """
    if expected_leadtime_demand < 0:
        raise ValueError("expected lead-time demand must be nonnegative")
    return q / 2.0 + s - expected_leadtime_demand + 0.5
