"""Differential tests of the prefix-tree walk against obviously correct oracles."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercesum import (
    CoverSum,
    PierceSeq,
    box_count_empirical,
    calibrate_product_bound,
    count_bounded_products,
    cylinder_extrema,
    estar_by_definition,
    estar_digits,
    evaluate_digits,
    hausdorff_cover_sum,
    oscillation,
    partition,
    phi,
    variation_over_partition,
)
from piercesum import analysis, lambda_cover_counts
from piercesum.analysis import _grid_equivalent, _qualifying_children, _run_end
from piercesum.core import child_numerators, digit_numerators
from piercesum.intervals import capped_masses, interval_length
from piercesum.sequences import walk_prefixes


def box_count_oracle(epsilon):
    """Box count by plain recursion over every sampled node, one cell at a time."""
    P, depth_cap = calibrate_product_bound(epsilon)
    en, ed = epsilon.numerator, epsilon.denominator
    cells = set()

    def rec(last, prod, value_num, err_num, k):
        # value = value_num/prod, negated error sum = err_num/prod, k digits chosen
        cells.add(((value_num * ed) // (prod * en), (err_num * ed) // (prod * en)))
        if k >= depth_cap:
            return
        d = last + 1
        while prod * d <= P:
            rec(
                d,
                prod * d,
                value_num * d + (1 if k % 2 == 0 else -1),
                err_num * d + (k if k % 2 else -k),
                k + 1,
            )
            d += 1

    d = 1
    while d <= P:
        rec(d, d, 1, 0, 1)
        d += 1
    return len(cells)


# rationals p/q in [2^-10, 1/2)
epsilons = st.integers(min_value=3, max_value=4096).flatmap(
    lambda q: st.integers(min_value=-(-q // 1024), max_value=(q - 1) // 2).map(lambda p: F(p, q))
)


# the oracle stops at the calibrated depth; the walk has only the product cap
@given(epsilons)
@example(F(1, 1024))
@example(F(7, 6000))
# a 2001-bit denominator, as the eps of lambda_cover_counts(M) has thousands of bits
@example(F(3**1262 // 100 + 1, 3**1262))
# 1/eps a hair off a fraction m/a with a <= P: samples sit exactly on grid lines
@example(1 / (F(1024) - F(1, 2**200)))
@example(1 / (F(1024) + F(1, 2**200)))
@example(1 / (F(1000, 7) - F(1, 2**200)))
@example(1 / (F(1000, 7) + F(1, 2**200)))
@example(lambda_cover_counts(9).epsilon)
@settings(max_examples=40, deadline=None)
def test_box_count_matches_recursive_oracle(epsilon):
    assert box_count_empirical(epsilon) == box_count_oracle(epsilon)


def test_product_cap_bounds_the_walk_depth():
    # m is the calibrated depth of box_count_empirical: the largest with m! <= P
    m = 1
    for P in range(1, 5001):
        while math.factorial(m + 1) <= P:
            m += 1
        longest = max(len(prefix) for prefix, *_ in walk_prefixes(lambda k, last, prod: P // prod))
        assert longest == m - 1, P


@st.composite
def bounds_and_inverse_scales(draw):
    """A bound B <= 300 and Q = 1/eps > 1: random with a huge denominator,
    2^-200 below or above some m/a with a <= B, or exactly m/a."""
    bound = draw(st.integers(min_value=1, max_value=300))
    kind = draw(st.sampled_from(["random", "below", "above", "exact"]))
    if kind == "random":
        den = draw(st.integers(min_value=2**40, max_value=2**3000))
        return bound, F(draw(st.integers(min_value=den + 1, max_value=64 * den)), den)
    a = draw(st.integers(min_value=1, max_value=bound))
    m = draw(st.integers(min_value=a + 1, max_value=64 * a))
    return bound, F(m, a) + {"below": -1, "above": 1, "exact": 0}[kind] * F(1, 2**200)


@given(bounds_and_inverse_scales())
@example((1, F(3, 2)))
@example((300, F(9001, 300) - F(1, 2**200)))
@example((300, F(9001, 300)))
@settings(max_examples=300, deadline=None)
def test_grid_equivalent_scale_matches_a_farey_oracle(bound_and_inv):
    bound, inv = bound_and_inv  # inv = 1/eps
    en, ed = _grid_equivalent(1 / inv, bound)
    if inv.denominator <= bound:
        assert (en, ed) == (inv.denominator, inv.numerator)
        return
    inv_new = F(ed, en)
    assert inv_new.denominator <= 2 * bound
    # the fractions p/q, q <= bound, nearest 1/eps on each side bound all the others
    for q in range(1, bound + 1):
        p = math.floor(q * inv)
        for cand in (F(p, q), F(p + 1, q)):
            assert cand != inv_new and (cand < inv) == (cand < inv_new)


def cell_index(a, b, c, d):
    return (a * d + b) // (c * d)


# c of up to 4000 bits; a/c in [-3, 3] and b/c in [-80, 80] put the index
# changes at small d, where a scan can reach them
big_c = st.integers(min_value=1, max_value=4000).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
)
ratios = st.fractions(min_value=-3, max_value=3, max_denominator=60)
offsets = st.fractions(min_value=-80, max_value=80, max_denominator=60)
nudges = st.integers(min_value=-3, max_value=3)


@given(big_c, ratios, nudges, offsets, nudges, st.integers(min_value=1, max_value=8))
@example(7, F(1, 3), 0, F(5), 0, 1)  # b > 0
@example(7, F(1, 3), 0, F(-5), 0, 1)  # b < 0
@example(7, F(1, 3), 0, F(0), 0, 1)  # b = 0
@example(2**3000 + 1, F(-2), 1, F(-17), -1, 3)
@settings(max_examples=300, deadline=None)
def test_run_end_matches_a_brute_force_scan(c, ratio, da, offset, db, d0):
    a = math.floor(c * ratio) + da
    b = math.floor(c * offset) + db
    hi = d0 + 400
    i = cell_index(a, b, c, d0)
    end = d0
    while end < hi and cell_index(a, b, c, end + 1) == i:
        end += 1
    assert _run_end(a, b, c, i, hi) == end


def floor_root(n, k):
    """Largest r with r**k <= n, by bisection on the integers."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)  # hi**k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


def cover_sum_oracle(n, s, digit_cap, scale):
    """Cover sum with one exact length and two independent root bounds per prefix."""
    p, q = s.numerator, s.denominator
    diam_sq = n * n + 1
    lo_total = hi_total = 0
    for prefix in combinations(range(1, digit_cap + 1), n):
        base = F(diam_sq) ** p * interval_length(prefix) ** (2 * p)
        shifted = base.numerator * scale ** (2 * q) // base.denominator
        lo_total += floor_root(shifted, 2 * q)
        hi_total += floor_root(shifted + 1, 2 * q) + 1
    residual = capped_masses(n, digit_cap)[1]
    longest_omitted = F(1, math.factorial(n - 1) * (digit_cap + 1) * (digit_cap + 2))

    def pow_hi(x, e):  # upper end of the floor-root bracket of x^e at this scale
        shifted = math.floor(x**e.numerator * scale**e.denominator)
        return F(floor_root(shifted, e.denominator) + 1, scale)

    tail = pow_hi(F(diam_sq), s / 2) * pow_hi(longest_omitted, s - 1) * residual
    return CoverSum(n, s, digit_cap, F(lo_total, scale), F(hi_total, scale), tail, residual)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=n, max_value=14))
    ),
    st.sampled_from([F(1), F(3, 2), F(5, 3), F(2), F(7, 3)]),
    st.sampled_from([10**6, 10**18]),
)
@example((5, 14), F(7, 3), 10**18)
@settings(max_examples=60, deadline=None)
def test_cover_sum_matches_the_per_prefix_oracle(order_cap, s, scale):
    n, cap = order_cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "COVER_SCALE", scale)
        assert hausdorff_cover_sum(n, s, cap) == cover_sum_oracle(n, s, cap, scale)


def test_box_count_oracle_counts_the_seed_pins():
    assert [box_count_oracle(F(1, 2**k)) for k in range(6, 10)] == [160, 336, 721, 1518]


def test_increasing_count_matches_filtered_combinations():
    for n in range(1, 6):
        for p in range(1, 41):
            oracle = sum(1 for c in combinations(range(1, p + 1), n) if math.prod(c) <= p)
            assert count_bounded_products(p, n, increasing=True).count == oracle, (p, n)


def test_walk_numerators_match_the_digit_kernels():
    def last_child(k, last, prod):
        return 7 if k < 3 else 0

    for prefix, prod, value_num, err_num, hi in walk_prefixes(last_child):
        assert digit_numerators(prefix) == (prod, value_num, err_num)
        assert prod == math.prod(prefix) and hi == 7
        assert F(value_num, prod) == evaluate_digits(prefix)
        assert F(err_num, prod) == estar_digits(prefix)


def test_walk_is_not_limited_by_the_recursion_limit():
    depth = 3000

    def last_child(k, last, prod):
        return last + 1 if k < depth else 0

    *_, (prefix, _, _, _, hi) = walk_prefixes(last_child)
    assert prefix == tuple(range(1, depth)) and hi == depth


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("cap", range(1, 10))
def test_residual_closed_form_matches_brute_force(n, cap):
    brute = sum(
        (F(1, math.prod(c) * (cap + 1)) for j in range(n) for c in combinations(range(1, cap + 1), j)),
        F(0),
    )
    assert capped_masses(n, cap)[1] == brute


def variation_oracle(n, cap):
    """The capped oscillation sum, one fundamental interval at a time."""
    return sum((oscillation(iv.sigma) for iv in partition(n, cap).intervals), F(0))


@pytest.mark.parametrize("n", range(1, 6))
def test_variation_matches_the_partition_oracle(n):
    for cap in range(1, 21):  # cap < n included: nothing is enumerated there
        rep = variation_over_partition(n, cap)
        assert rep.capped_sum == variation_oracle(n, cap)
        assert rep.residual_mass == partition(n, cap).residual and rep.total == n


@given(
    st.lists(st.integers(min_value=1, max_value=40), max_size=7, unique=True),
    st.integers(min_value=1, max_value=40),
)
@example([], 1)
@example([1, 2], 1)
@settings(max_examples=300, deadline=None)
def test_digit_numerators_match_the_definitions(digits, step):
    prefix = tuple(sorted(digits))
    prod, value_num, err_num = digit_numerators(prefix)
    assert prod == math.prod(prefix)
    series = sum((F((-1) ** k, math.prod(prefix[: k + 1])) for k in range(len(prefix))), F(0))
    assert F(value_num, prod) == series == phi(PierceSeq(prefix)).lo
    assert F(err_num, prod) == estar_by_definition(PierceSeq(prefix)).lo
    # one kernel step appends a digit d > prefix[-1]; at d = 0 it gives the constant terms
    n, d = len(prefix), (prefix[-1] if prefix else 0) + step
    child = child_numerators(n, prod, value_num, err_num, d)
    assert child == digit_numerators(prefix + (d,))
    assert F(child[1], child[0]) == series + F((-1) ** n, prod * d)
    assert F(child[2], child[0]) == estar_by_definition(PierceSeq(prefix + (d,))).lo
    assert child_numerators(n, prod, value_num, err_num, 0) == (0, (-1) ** n, (-1) ** n * n)


@pytest.mark.parametrize("n,cap", [(1, 10), (2, 8), (3, 9), (4, 8)])
def test_cover_sum_and_partition_share_the_residual(n, cap):
    assert hausdorff_cover_sum(n, F(3, 2), cap).residual_mass == partition(n, cap).residual


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4, unique=True),
    st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=1000),
)
# below (1,) the low branch alone holds k = 2 for y in [-0.1716, -1/6]
@example([1], F(2, 3))
@example([1], F(33, 50))
# k_hi = 5000: the high branch (children 4999, 5000) lies far above the low window
@example([2, 5], F(3, 2500))
@settings(max_examples=300, deadline=None)
def test_qualifying_children_match_a_brute_force_scan(digits, t):
    prefix = tuple(sorted(digits))
    ext = cylinder_extrema(prefix)
    y = ext.minimum + t * ext.spread
    value, prod, n = estar_digits(prefix), math.prod(prefix), len(prefix)
    delta = (value - y) if n % 2 else (y - value)
    # no child past n/(P delta) can reach y; scan well beyond it
    horizon = prefix[-1] + 60 + (math.floor(n / (prod * delta)) if delta > 0 else 0)
    brute = []
    for k in range(prefix[-1] + 1, horizon + 1):
        child = cylinder_extrema(prefix + (k,))
        if child.minimum <= y <= child.maximum:
            brute.append(k)
    assert _qualifying_children(prefix, prod, int(value * prod), y) == brute
