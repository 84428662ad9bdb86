"""Differential tests of the prefix-tree walk against obviously correct oracles."""

import math
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, count, groupby, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercesum import (
    CoverSum,
    PierceSeq,
    box_count_empirical,
    box_count_sweep,
    calibrate_product_bound,
    count_bounded_products,
    cylinder_extrema,
    estar_digits,
    evaluate_digits,
    hausdorff_cover_sum,
    oscillation,
    partition,
    phi,
    variation_over_partition,
)
from piercesum import analysis, lambda_cover_counts
from piercesum.analysis import _cell_runs, _grid_equivalent, _qualifying_children, _sample_parents
from piercesum.core import child_numerators, digit_numerators
from piercesum.intervals import capped_masses, interval_length
from piercesum.sequences import walk_prefixes

from oracles import capped_masses_oracle, cover_sum_square_oracle, estar_by_definition


@lru_cache(maxsize=128)
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


# the certified covering scale at M = 9, of thousands of bits
lambda_eps = lambda_cover_counts(9).epsilon


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
@example(lambda_eps)
@settings(max_examples=40, deadline=None)
def test_box_count_matches_recursive_oracle(epsilon):
    assert box_count_empirical(epsilon) == box_count_oracle(epsilon)


@st.composite
def scale_lists(draw):
    """Two to four decreasing scales in [2^-10, 1/2): each step divides by an
    integer 2..4 (a chain link) or scales by a fraction in [1/5, 9/10] (a
    break, unless its inverse is an integer)."""
    scales = [draw(epsilons.filter(lambda e: e >= F(1, 256)))]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            step = F(1, draw(st.integers(min_value=2, max_value=4)))
        else:
            step = draw(st.fractions(min_value=F(1, 5), max_value=F(9, 10), max_denominator=12))
        if scales[-1] * step < F(1, 1024):
            break
        scales.append(scales[-1] * step)
    return scales


@given(scale_lists())
@example([F(1, 10), F(1, 30), F(1, 64), F(1, 100), F(1, 300), F(3, 1000), F(1, 1000)])
@example([6 * lambda_eps, 2 * lambda_eps, lambda_eps])
@settings(max_examples=20, deadline=None)
def test_sweep_chains_match_the_oracle_scale_by_scale(scales):
    assert [c for _, c in box_count_sweep(scales)] == [box_count_oracle(e) for e in scales]


def test_one_walk_per_chain(monkeypatch):
    walks = []

    def counting_walk(children):
        walks.append(children)
        return walk_prefixes(children)

    monkeypatch.setattr(analysis, "walk_prefixes", counting_walk)
    box_count_sweep([F(1, 2**k) for k in range(3, 11)])
    assert len(walks) == 1
    walks.clear()
    # 1/16 to 1/24 is the one break: ratio 3/2
    box_count_sweep([F(1, 8), F(1, 16), F(1, 24), F(1, 48), F(1, 96)])
    assert len(walks) == 2


def test_product_cap_bounds_the_walk_depth():
    # m is the calibrated depth of box_count_empirical: the largest with m! <= P; it
    # moves only where P crosses a factorial, so past 6! only P near 7! and 8! are walked
    m = 1
    near = [*range(5040 - 8, 5040 + 9), *range(40320 - 2, 40320 + 3)]
    for P in [*range(1, 1001), *near]:
        while math.factorial(m + 1) <= P:
            m += 1
        longest = max(len(prefix) for prefix, *_ in walk_prefixes(_sample_parents(P)))
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
# one coordinate: a = floor(c ratio) + nudge, b = floor(c offset) + nudge
lines = st.tuples(ratios, nudges, offsets, nudges)


@given(big_c, lines, lines, st.integers(min_value=1, max_value=8))
@example(7, (F(1, 3), 0, F(5), 0), (F(1, 3), 0, F(-5), 0), 1)  # b > 0, then b < 0
@example(7, (F(1, 3), 0, F(-5), 0), (F(1, 3), 0, F(0), 0), 1)  # b < 0, then b = 0
@example(7, (F(1, 3), 0, F(0), 0), (F(1, 3), 0, F(5), 0), 1)  # b = 0, then b > 0
@example(2**3000 + 1, (F(-2), 1, F(-17), -1), (F(2), -1, F(17), 1), 3)
# x (then y) reaches its next index exactly on a grid line at d = 7, and y (then x)
# moves at d = 8: the cell at d = 7 is a run of one
@example(7, (F(-3), 0, F(-7), 0), (F(1, 3), 0, F(5), 0), 1)
@example(7, (F(1, 3), 0, F(5), 0), (F(-3), 0, F(-7), 0), 1)
@settings(max_examples=300, deadline=None)
def test_cell_runs_match_a_brute_force_scan(c, x, y, d0):
    (ratio_x, da_x, offset_x, db_x), (ratio_y, da_y, offset_y, db_y) = x, y
    ax, bx = math.floor(c * ratio_x) + da_x, math.floor(c * offset_x) + db_x
    ay, by = math.floor(c * ratio_y) + da_y, math.floor(c * offset_y) + db_y
    hi = d0 + 400
    scan = [(cell_index(ax, bx, c, d), cell_index(ay, by, c, d)) for d in range(d0, hi + 1)]
    runs = [cell for cell, _ in groupby(scan)]
    # one cell past the runs at most, so that a step which fails to advance cannot hang
    assert list(islice(_cell_runs(ax, bx, ay, by, c, d0, hi), len(runs) + 1)) == runs


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
        root = floor_root(shifted, 2 * q)  # term^(2q) < shifted + 1 <= (root + 1)^(2q)
        lo_total += root
        hi_total += root + 1
    residual = capped_masses(n, digit_cap)[1]
    longest_omitted = F(1, math.factorial(n - 1) * (digit_cap + 1) * (digit_cap + 2))

    def pow_hi(x, e):  # upper end of the floor-root bracket of x^e at this scale
        shifted = math.floor(x**e.numerator * scale**e.denominator)
        return F(floor_root(shifted, e.denominator) + 1, scale)

    tail = pow_hi(F(diam_sq), s / 2) * pow_hi(longest_omitted, s - 1) * residual
    return CoverSum(n, s, digit_cap, F(lo_total, scale), F(hi_total, scale), tail, residual)


def cover_width_bound(n, s, cap, scale):
    """Width the integer recursion of hausdorff_cover_sum may reach, s >= 1.

    In units of 1/scale, with w_d = d^-s <= 1/d, e_j(d) the elementary
    symmetric sums of w_1..w_{d-1}, l_j <= e_j <= u_j their floored and
    ceiled integer brackets, g_j = u_j - l_j, U(d) = sum_j u_j(d) and
    G(d) = sum_j g_j(d) (j < n):
    - a step adds ceil(u_{j-1} (r+1)/S) - floor(l_{j-1} r/S) with r <= S w_d,
      so g_j(d+1) <= g_j(d) + g_{j-1}(d)/d + u_{j-1}(d)/S + 2;
    - U(d+1) <= U(d) (1 + 1/d + 1/S) + n and U(1) = S, so U(d)/d <= S (1 + 1/S)^d
      (1 + n H_d/S) <= 2S when cap and n H_cap are at most S/4;
    - then G(d+1)/(d+1) <= G(d)/d + 2 + 2n/(d+1), so G(d) <= 2d (d + n H_d).
    Each digit d adds ceil(u_{n-1}(t+1)/S) - floor(l_{n-1} t/S) with t <= S tau_d,
    tau_d = (n^2+1)^(s/2) (d(d+1))^-s, so the width is at most
    sum_d (G(d) tau_d + U(d) + 2) / S <= (cap (cap+3) + 2 sum_d d (d + n H_d) tau_d) / S.
    """
    assert 4 * cap <= scale and 4 * n * sum(1 / d for d in range(1, cap + 1)) <= scale
    total, harmonic = cap * (cap + 3), 0.0
    for d in range(1, cap + 1):
        harmonic += 1 / d
        total += 2 * d * (d + n * harmonic) * (n * n + 1) ** (s / 2) / (d * (d + 1)) ** s
    return total / scale


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=n, max_value=14))
    ),
    st.sampled_from([F(1), F(3, 2), F(5, 3), F(2), F(7, 3)]),
    st.sampled_from([10**6, 10**18]),
)
@example((5, 14), F(7, 3), 10**18)
@example((5, 14), F(1), 10**6)
@settings(max_examples=60, deadline=None)
def test_cover_sum_matches_the_per_prefix_oracle(order_cap, s, scale):
    # the 10^-40 per-prefix bracket lies inside the recursion's, which is no
    # wider than cover_width_bound; the tail and residual agree at the same scale
    n, cap = order_cap
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "COVER_SCALE", scale)
        rep = hausdorff_cover_sum(n, s, cap)
    fine = cover_sum_oracle(n, s, cap, 10**40)
    assert rep.capped_lower <= fine.capped_lower <= fine.capped_upper <= rep.capped_upper
    assert rep.capped_upper - rep.capped_lower <= cover_width_bound(n, float(s), cap, scale)
    assert rep.residual_mass == fine.residual_mass
    assert rep.tail_bound == cover_sum_oracle(n, s, cap, scale).tail_bound


def test_cover_sum_width_at_the_benchmark_size():
    # order 8, s = 3/2, cap 20 at scale 10^18: 1.3e-17 wide, where
    # cover_width_bound allows 1.0e-15
    rep = hausdorff_cover_sum(8, F(3, 2), 20)
    assert rep.capped_upper - rep.capped_lower < F(1, 10**16)


def test_cover_sum_bracket_holds_the_sum_at_a_finer_scale():
    # at scale 10^6 one length of this case has (r+1)^(2q) = shifted + 1 for its
    # floor root r; its term still lies below (r+1)/scale, here checked per prefix
    n, s, cap, fine = 5, F(3, 2), 8, 10**30
    p, q = s.numerator, s.denominator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "COVER_SCALE", 10**6)
        rep = hausdorff_cover_sum(n, s, cap)
    lo = hi = 0
    for prefix in combinations(range(1, cap + 1), n):
        base = F(n * n + 1) ** p * interval_length(prefix) ** (2 * p)
        root = floor_root(base.numerator * fine ** (2 * q) // base.denominator, 2 * q)
        lo, hi = lo + root, hi + root + 1
    assert rep.capped_lower <= F(lo, fine) and F(hi, fine) <= rep.capped_upper


def test_square_oracle_matches_the_per_prefix_sum():
    for n, cap in [(1, 6), (2, 7), (3, 8), (4, 9)]:
        direct = sum(
            (n * n + 1) * interval_length(prefix) ** 2
            for prefix in combinations(range(1, cap + 1), n)
        )
        assert cover_sum_square_oracle(n, cap) == direct


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("cap", [10, 50])
def test_cover_sum_brackets_the_exact_sum_at_a_coarse_scale(n, cap):
    # at scale 10^3 each lost unit of a floored or ceiled step is large, so a step
    # rounded the wrong way shows; at s = 2 the capped sum is exact in Fractions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "COVER_SCALE", 10**3)
        rep = hausdorff_cover_sum(n, 2, cap)
    assert rep.capped_lower <= cover_sum_square_oracle(n, cap) <= rep.capped_upper


def test_box_count_oracle_counts_the_seed_pins():
    assert [box_count_oracle(F(1, 2**k)) for k in range(6, 10)] == [160, 336, 721, 1518]


def test_increasing_count_matches_filtered_combinations():
    for n in range(1, 6):
        for p in range(1, 41):
            oracle = sum(1 for c in combinations(range(1, p + 1), n) if math.prod(c) <= p)
            assert count_bounded_products(p, n, increasing=True).count == oracle, (p, n)


def test_walk_numerators_match_the_digit_kernels():
    def children(node):
        prefix = node[0]
        return range(prefix[-1] + 1 if prefix else 1, 8) if len(prefix) < 3 else ()

    nodes = list(walk_prefixes(children))
    # every increasing prefix of at most 3 digits below 8, in lexicographic preorder
    assert [prefix for prefix, *_ in nodes] == sorted(
        c for n in range(4) for c in combinations(range(1, 8), n)
    )
    for prefix, prod, value_num, err_num in nodes:
        assert digit_numerators(prefix) == (prod, value_num, err_num)
        assert prod == math.prod(prefix)
        assert F(value_num, prod) == evaluate_digits(prefix)
        assert F(err_num, prod) == estar_digits(prefix)


def test_walk_is_not_limited_by_the_recursion_limit():
    depth = 3000

    def children(node):
        prefix = node[0]
        return (len(prefix) + 1,) if len(prefix) < depth else ()

    *_, (prefix, prod, _, _) = walk_prefixes(children)
    assert prefix == tuple(range(1, depth + 1)) and prod == math.factorial(depth)


def test_walk_expands_children_lazily():
    # unbounded rules at two levels: the walk still yields its first nodes in order
    def children(node):
        prefix = node[0]
        return count(prefix[-1] + 1 if prefix else 1) if len(prefix) < 2 else ()

    first = [prefix for prefix, *_ in islice(walk_prefixes(children), 5)]
    assert first == [(), (1,), (1, 2), (1, 3), (1, 4)]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("cap", range(1, 10))
def test_residual_closed_form_matches_brute_force(n, cap):
    brute = sum(
        (F(1, math.prod(c) * (cap + 1)) for j in range(n) for c in combinations(range(1, cap + 1), j)),
        F(0),
    )
    assert capped_masses(n, cap)[1] == brute


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=60))
@example(1, 1)
@example(1, 5)
@example(3, 7)
@example(5, 14)
@example(8, 20)
@example(2, 50)
@example(30, 40)
@settings(max_examples=100, deadline=None)
def test_capped_masses_match_the_fraction_oracle(n, cap):
    assert capped_masses(n, cap) == capped_masses_oracle(n, cap)


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
    yn, yd = y.numerator, y.denominator
    assert _qualifying_children(prefix, prod, int(value * prod), yn, yd) == brute
