import math

import numpy as np
import pytest
from scipy import special, stats

from sparechain import inventory
from sparechain.inventory import (
    SQPolicy,
    _poisson_tails,
    expected_shortage,
    expected_shortage_geometric,
    fill_rate,
    least_reorder_point,
    mean_stock,
)

from oracles import expected_shortage_mixture, expected_shortage_series

# Anchors from a 50-digit direct tail summation.
ES_REFS = [
    (2, 1.0, 0.10363832351432696),
    (0, 1.0, 1.0),
    (5, 2.3, 0.04274818585534965),
    (10, 0.01, 2.48442215448682e-30),
    (1, 0.5, 0.10653065971263342),
    (3, 4.0, 1.3479971388859495),
    (8, 11.454, 3.676062923229941),
    (0, 0.25, 0.25),
    (6, 6.0, 0.9637388462878802),
    (2, 11.4545, 9.454642640029526),
]


@pytest.mark.parametrize("s,m,ref", ES_REFS)
def test_expected_shortage_anchors(s, m, ref):
    assert expected_shortage(s, m) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_closed_form_matches_series_on_grid():
    # two independent routes to the same quantity
    for s in range(0, 30):
        for m in (1e-6, 0.01, 0.3, 1.0, 2.7, 5.0, 9.99, 17.3, 40.0):
            a = expected_shortage(s, m)
            b = expected_shortage_series(s, m)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10), (s, m)


def test_expected_shortage_scalar_type_and_edges():
    assert isinstance(expected_shortage(4, 2.0), float)
    assert expected_shortage(0, 3.7) == pytest.approx(3.7, rel=1e-14)
    assert expected_shortage(5, 0.0) == 0.0
    # never negative even when the two cdf terms nearly cancel
    assert expected_shortage(200, 1.0) >= 0.0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            expected_shortage(2, bad)
    with pytest.raises(ValueError, match="reorder point must be >= 0"):
        expected_shortage(-1, 1.0)


def test_expected_shortage_monotonicity():
    # decreasing in s, increasing in m
    for m in (0.5, 3.0, 12.0):
        values = [expected_shortage(s, m) for s in range(0, 25)]
        assert all(x >= y for x, y in zip(values, values[1:]))
    for s in (0, 2, 7):
        values = [expected_shortage(s, m) for m in (0.1, 0.5, 1.0, 3.0, 8.0)]
        assert all(x <= y for x, y in zip(values, values[1:]))


def _uniform(s, seg):
    return expected_shortage_mixture(s, (1.0,), [seg])


def test_single_segment_mixture_edges():
    assert isinstance(_uniform(4, (1.0, 2.0)), float)
    assert _uniform(0, (1.0, 2.5)) == pytest.approx(1.75, rel=1e-15)
    # a narrow segment averages to the shortage at its midpoint
    assert _uniform(3, (2.0, 2.0 + 1e-6)) == pytest.approx(
        expected_shortage(3, 2.0 + 5e-7), rel=1e-6
    )
    assert _uniform(30, (0.0, 1e-3)) >= 0.0
    for s, seg in (
        (-1, (1.0, 2.0)),
        (2, (-0.1, 2.0)),
        (2, (2.0, 2.0)),
        (2, (3.0, 2.0)),
        (2, (1.0, math.inf)),
    ):
        with pytest.raises(ValueError):
            _uniform(s, seg)


def test_mixture_evaluates_each_shared_end_once(monkeypatch):
    ends = []

    def counted(s, m):
        ends.append(m)
        return _poisson_tails(s, m)

    monkeypatch.setattr(inventory, "_poisson_tails", counted)
    weights = (0.5, 0.3, 0.2)
    segments = [(0.5, 1.0), (1.0, 1.5), (1.5, 4.0)]
    got = expected_shortage_mixture(3, weights, segments)
    assert sorted(ends) == [0.5, 1.0, 1.5, 4.0]
    parts = [_uniform(3, seg) for seg in segments]
    assert got == pytest.approx(sum(w * p for w, p in zip(weights, parts)), rel=1e-15)


def _convolved_shortage(s: int, m: float, g: float) -> float:
    """E[(A + G - s)+] by a direct double sum over the Poisson and geometric counts."""
    a = np.arange(int(m + 40.0 * np.sqrt(m) + 40.0))
    pa = stats.poisson.pmf(a, m)
    q = g / (1.0 + g)
    k = np.arange(s + int(60.0 / -np.log(q)) + 1) if g > 0 else np.zeros(1, dtype=int)
    pk = (1.0 - q) * q**k
    excess = np.maximum(a[:, None] + k[None, :] - s, 0)
    return float(pa @ excess @ pk)


@pytest.mark.parametrize("s", [0, 1, 3, 8, 20])
@pytest.mark.parametrize("m", [0.0, 0.01, 1.7, 12.0])
@pytest.mark.parametrize("g", [0.0, 0.05, 1.0, 10.0])
def test_expected_shortage_geometric_matches_double_sum(s, m, g):
    ref = _convolved_shortage(s, m, g)
    got = expected_shortage_geometric(s, m, g)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_expected_shortage_geometric_large_demand():
    # exp(-m) underflows here, so the Poisson pmf must not be built from it
    for s in (20, 790, 830):
        ref = _convolved_shortage(s, 800.0, 3.0)
        assert expected_shortage_geometric(s, 800.0, 3.0) == pytest.approx(ref, rel=1e-10)


def test_expected_shortage_geometric_rejects_negative():
    for args in ((-1, 1.0, 1.0), (2, -1.0, 1.0), (2, 1.0, -1.0)):
        with pytest.raises(ValueError):
            expected_shortage_geometric(*args)


def test_fill_rate():
    assert fill_rate(0.0, 5) == 1.0
    assert fill_rate(5.0, 5) == 0.0
    assert fill_rate(0.10363832351432696, 4) == pytest.approx(0.9740904191214182, rel=1e-12)
    # shortages beyond one batch clamp at zero
    assert fill_rate(7.2, 5) == 0.0
    with pytest.raises(ValueError):
        fill_rate(-0.1, 5)
    with pytest.raises(ValueError):
        fill_rate(1.0, 0)


def test_mean_stock():
    # s = 3, Q = 4: Q/2 + s - demand over the lead + 1/2
    assert mean_stock(3, 4, 0.9) == pytest.approx(2.0 + 3.0 - 0.9 + 0.5, rel=0)
    # deeply backordered systems may go negative; value is reported raw
    assert mean_stock(3, 4, 20.0) < 0.0
    with pytest.raises(ValueError, match="lead-time demand must be nonnegative"):
        mean_stock(1, 1, -1.0)


def test_policy_and_demand_validation():
    with pytest.raises(ValueError):
        SQPolicy(reorder_point_s=-1, order_quantity_q=4)
    with pytest.raises(ValueError):
        SQPolicy(reorder_point_s=0, order_quantity_q=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, math.nan])
def test_policy_counts_must_be_integers(bad):
    # A float or a bool is rejected by name, not truncated; numpy integers
    # pass, as in the strategy checks.
    with pytest.raises(ValueError, match="reorder_point_s"):
        SQPolicy(reorder_point_s=bad, order_quantity_q=3)
    with pytest.raises(ValueError, match="order_quantity_q"):
        SQPolicy(reorder_point_s=2, order_quantity_q=bad)
    assert SQPolicy(np.int64(2), np.int32(3)) == SQPolicy(2, 3)


def test_poisson_tail_kernel_matches_scipy():
    # P(D >= s + j) = pdtrc(s - 1 + j, m); the grid includes both sides of
    # the switch between the forward series and 1 - cdf at m = s + 2.
    for s in range(1, 41):
        ms = [0.0, 800.0, *np.logspace(-8, 3, 221)]
        for edge in (float(s + 1), float(s + 2)):
            ms += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        for m in ms:
            got = np.array(_poisson_tails(s, m))
            ref = special.pdtrc(np.arange(s - 1, s + 2), m)
            if m == 0.0:
                assert got.tolist() == [0.0, 0.0, 0.0]
                continue
            big = ref >= 1e-300
            assert np.all(np.abs(got - ref)[big] <= 1e-12 * ref[big]), (s, m, got, ref)


def test_least_reorder_point_equals_a_linear_scan():
    # Random monotone predicates: each turns true at a random threshold,
    # before, inside or past the range. The walk checks each point once,
    # in order, and stops at the first that meets the predicate.
    rng = np.random.default_rng(20261019)
    none_found = 0
    for _ in range(500):
        lo = int(rng.integers(0, 5))
        hi = lo + int(rng.integers(0, 12))
        first = int(rng.integers(lo - 3, hi + 4))
        checked = []

        def meets(s):
            checked.append(s)
            return s >= first

        want = next((s for s in range(lo, hi + 1) if s >= first), None)
        assert least_reorder_point(meets, lo, hi) == want
        assert checked == list(range(lo, (hi if want is None else want) + 1))
        none_found += want is None
        # An open upper bound walks on until the predicate holds.
        assert least_reorder_point(meets, lo) == max(lo, first)
    assert 50 < none_found < 450, none_found
