"""Differential tests of the prefix-tree walk against obviously correct oracles."""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from piercesum import (
    box_count_empirical,
    calibrate_product_bound,
    cylinder_extrema,
    enumerate_prefixes,
    estar_digits,
    evaluate_digits,
    hausdorff_cover_sum,
    partition,
)
from piercesum.analysis import _qualifying_children
from piercesum.intervals import residual_mass
from piercesum.sequences import walk_prefixes


def box_count_oracle(epsilon, sample_depth=None):
    """Box count by plain recursion over every sampled node, one cell at a time."""
    P, depth_cap = calibrate_product_bound(epsilon)
    if sample_depth is not None:
        depth_cap = min(depth_cap, sample_depth)
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


@given(epsilons, st.none() | st.integers(min_value=1, max_value=6))
@example(F(1, 1024), None)
@example(F(7, 6000), 3)
@settings(max_examples=40, deadline=None)
def test_box_count_matches_recursive_oracle(epsilon, sample_depth):
    assert box_count_empirical(epsilon, sample_depth) == box_count_oracle(epsilon, sample_depth)


def test_box_count_oracle_counts_the_seed_pins():
    assert [box_count_oracle(F(1, 2**k)) for k in range(6, 10)] == [160, 336, 721, 1518]


def prefixes_oracle(n, max_product, max_digit):
    top = max_digit if max_digit is not None else max_product
    return [
        c
        for c in combinations(range(1, top + 1), n)
        if max_product is None or math.prod(c) <= max_product
    ]


@given(
    st.integers(min_value=1, max_value=5),
    st.none() | st.integers(min_value=0, max_value=150),
    st.none() | st.integers(min_value=0, max_value=12),
)
@settings(max_examples=300, deadline=None)
def test_enumerate_prefixes_matches_filtered_combinations(n, max_product, max_digit):
    assume(max_product is not None or max_digit is not None)
    assume(max_digit is not None or max_product <= 40)
    got = list(enumerate_prefixes(n, max_product=max_product, max_digit=max_digit))
    assert got == prefixes_oracle(n, max_product, max_digit)


def test_walk_numerators_match_the_digit_kernels():
    def last_child(k, last, prod):
        return 7 if k < 3 else 0

    for prefix, prod, value_num, err_num, hi in walk_prefixes(last_child):
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
    assert residual_mass(n, cap) == brute


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
            brute.append(prefix + (k,))
    assert _qualifying_children(prefix, prod, value, y) == brute
