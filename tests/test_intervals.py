import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercesum import (
    MAX_DEPTH,
    DomainError,
    ResourceLimitError,
    expand,
    fundamental_interval,
    interval_length,
    is_realizable,
    jumps_at,
    locate,
    partition,
    phi,
)
from piercesum import intervals
from piercesum.core import child_numerators, digit_numerators, parent_numerators
from piercesum.intervals import MAX_INTERVALS, _check_mass_budget, check_interval_budget

unit_rationals = st.builds(
    lambda p, q: F(min(p, q), max(p, q, 1)),
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
prefixes = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5, unique=True).map(
    lambda ds: tuple(sorted(ds))
)


class TestFundamentalInterval:
    def test_order_one(self):
        iv = fundamental_interval((2,))
        assert (iv.left, iv.right) == (F(1, 3), F(1, 2))
        assert not iv.left_closed and iv.right_closed
        assert iv.length == F(1, 6)

    def test_non_realizable_is_open(self):
        iv = fundamental_interval((1, 2))
        assert (iv.left, iv.right) == (F(1, 2), F(2, 3))
        assert not iv.left_closed and not iv.right_closed

    def test_even_order_realizable(self):
        iv = fundamental_interval((2, 4))
        assert (iv.left, iv.right) == (F(3, 8), F(2, 5))
        assert iv.left_closed and not iv.right_closed
        assert iv.length == F(1, 40)

    def test_empty_prefix_rejected(self):
        with pytest.raises(DomainError):
            fundamental_interval(())

    @given(prefixes)
    @settings(max_examples=300)
    def test_endpoint_identity_and_flags(self, prefix):
        iv = fundamental_interval(prefix)
        assert iv.right - iv.left == interval_length(prefix)
        # the prefix's own value is in the interval iff realizable
        assert iv.contains(phi(prefix).lo) == is_realizable(prefix)
        assert (iv.left_closed or iv.right_closed) == is_realizable(prefix)


@pytest.mark.parametrize("n", [*range(65), MAX_DEPTH - 1, MAX_DEPTH])
def test_side_is_the_sign_the_kernels_give_digit_n_plus_1(n):
    # the geometry's one parity rule against the inline signs of the three L0 kernels
    s = intervals.side(n)
    assert s in (1, -1)
    _, value_step, err_step = child_numerators(n, 1, 0, 0, 1)
    assert value_step == s
    assert err_step == s * n  # the sign of s for n >= 1; the root's E* step is 0
    assert parent_numerators(n, 1, s, s * n, 1) == (1, 0, 0)
    prefix = tuple(range(1, n + 1))
    _, value_num, err_num = digit_numerators(prefix)
    _, child_value, child_err = digit_numerators(prefix + (n + 1,))
    assert (child_value - value_num * (n + 1), child_err - err_num * (n + 1)) == (s, s * n)


class TestIntervalLength:
    @pytest.mark.parametrize(
        "prefix,value", [((2,), F(1, 6)), ((1,), F(1, 2)), ((2, 4), F(1, 40))]
    )
    def test_examples(self, prefix, value):
        assert interval_length(prefix) == value

    @given(prefixes)
    def test_product_formula_and_factorial_bound(self, prefix):
        n = len(prefix)
        expected = F(1, math.prod(prefix) * (prefix[-1] + 1))
        assert interval_length(prefix) == expected
        assert interval_length(prefix) <= F(1, math.factorial(n + 1))


class TestPartition:
    def test_order_one_cap_three(self):
        part = partition(1, 3)
        assert [iv.sigma for iv in part.intervals] == [(1,), (2,), (3,)]
        assert [iv.length for iv in part.intervals] == [F(1, 2), F(1, 6), F(1, 12)]
        assert part.residual == F(1, 4)

    def test_order_two_cap_three(self):
        part = partition(2, 3)
        assert [iv.sigma for iv in part.intervals] == [(1, 2), (1, 3), (2, 3)]
        assert part.covered_mass + part.residual == 1

    @pytest.mark.parametrize("n,cap", [(1, 1), (1, 30), (2, 12), (3, 9), (4, 8)])
    def test_mass_identity_exact(self, n, cap):
        # enumerated interval mass + closed-form pruned mass is exactly 1
        part = partition(n, cap)
        assert part.covered_mass + part.residual == 1

    def test_telescoping_toward_full_mass(self):
        # order-1 mass: sum 1/(k(k+1)) for k <= cap = 1 - 1/(cap+1)
        for cap in (2, 10, 100):
            part = partition(1, cap)
            assert part.covered_mass == 1 - F(1, cap + 1)

    def test_disjoint_and_ordered(self):
        part = partition(2, 6)
        ivs = sorted(part.intervals, key=lambda iv: iv.left)
        for a, b in zip(ivs, ivs[1:]):
            assert a.right <= b.left

    def test_cap_smaller_than_order(self):
        part = partition(2, 1)
        assert part.intervals == () and part.residual == 1

    @pytest.mark.parametrize("n,cap", [(30, 200), (2, 725), (10**6, 10**9), (10**9, 10**18)])
    def test_budget_refuses_before_any_work(self, n, cap, monkeypatch):
        def refuse(prefix):
            raise AssertionError("partition started above MAX_INTERVALS")

        monkeypatch.setattr(intervals, "fundamental_interval", refuse)
        with pytest.raises(ResourceLimitError, match="MAX_INTERVALS"):
            partition(n, cap)

    def test_budget_edge(self):
        # C(724, 2) = 261726 and C(cap, 1) = cap fit in 2^18; C(725, 2) = 262450
        # does not, nor C(50, 25), which the 2^k bound refuses uncounted
        assert MAX_INTERVALS == 2**18
        for n, cap in [(2, 724), (1, MAX_INTERVALS), (30, 29)]:
            check_interval_budget((n,), cap, "edge")
        for n, cap in [(2, 725), (1, MAX_INTERVALS + 1), (25, 50)]:
            with pytest.raises(ResourceLimitError):
                check_interval_budget((n,), cap, "edge")
        # orders add up: 18 + 153 + ... + C(18, 18) = 2^18 - 1, one more order is over
        check_interval_budget(range(1, 19), 18, "edge")
        with pytest.raises(ResourceLimitError):
            check_interval_budget(range(1, 20), 19, "edge")


class TestMassBudget:
    def test_edge(self):
        # (n + 2) * cap * (cap * bit_length(cap) + 6000) <= 2^35 = 34,359,738,368
        for n, cap in [(1, 27433), (3, 21204), (1299, 1299)]:
            _check_mass_budget(n, cap, "edge")
        for n, cap in [(1, 27434), (3, 21205), (1300, 1300)]:
            with pytest.raises(ResourceLimitError, match="mass budget"):
                _check_mass_budget(n, cap, "edge")

    # C(cap, n) fits MAX_INTERVALS on these, so the mass budget is what refuses
    @pytest.mark.parametrize("n,cap", [(1, 27434), (1300, 1300), (10**6, 10**6)])
    def test_partition_refuses_before_any_work(self, n, cap, monkeypatch):
        def refuse(*args):
            raise AssertionError("partition started above the mass budget")

        monkeypatch.setattr(intervals, "capped_masses", refuse)
        monkeypatch.setattr(intervals, "fundamental_interval", refuse)
        with pytest.raises(ResourceLimitError, match="mass budget"):
            partition(n, cap)


class TestLocate:
    def test_examples(self):
        assert locate(F(3, 8), 1) == (2,)
        assert locate(F(3, 8), 2) == (2, 4)
        assert locate(F(1, 2), 1) == (2,)

    def test_expansion_too_short(self):
        with pytest.raises(DomainError):
            locate(F(1, 2), 2)

    @pytest.mark.parametrize(
        "prefix,x", [((1,), F(0)), ((1,), F(1, 3)), ((1, 2), F(3, 4)), ((2,), F(2, 3))]
    )
    def test_points_outside_are_not_contained(self, prefix, x):
        iv = fundamental_interval(prefix)
        assert (x < iv.left or x > iv.right) and not iv.contains(x)

    def test_boundary_point_belongs_to_its_own_interval(self):
        # 1/2 expands as (2), so it sits in (1/3, 1/2], not in (1/2, 1]
        assert fundamental_interval((2,)).contains(F(1, 2))
        assert not fundamental_interval((1,)).contains(F(1, 2))

    @given(unit_rationals, st.integers(min_value=1, max_value=4))
    @settings(max_examples=300)
    def test_membership_with_flags(self, x, n):
        digits = expand(x)
        if len(digits) < n:
            return
        prefix = locate(x, n)
        assert prefix == digits[:n]
        assert fundamental_interval(prefix).contains(x)


def test_partition_intervals_tile_between_consecutive_prefixes():
    # inside one parent, order-2 intervals share endpoints with no gaps
    part = partition(2, 8)
    children = [iv for iv in part.intervals if iv.sigma[0] == 3]
    children.sort(key=lambda iv: iv.left)
    for a, b in zip(children, children[1:]):
        assert a.right == b.left
        assert a.right_closed != b.left_closed or not (a.right_closed or b.left_closed)


def test_every_interval_contains_a_realizable_witness():
    for prefix in combinations(range(1, 7), 2):
        iv = fundamental_interval(prefix)
        witness = phi(prefix + (prefix[-1] + 2,)).lo
        assert expand(witness)[:2] == prefix
        assert iv.contains(witness)


def test_endpoints_jump_away_from_closed_ends_and_towards_open_ends():
    # E is continuous from inside I_sigma at a closed end, so it jumps on the
    # far side there; at an open end the interval is the limit side that jumps
    checked = 0
    for n in range(1, 5):
        for prefix in combinations(range(1, 15), n):
            iv = fundamental_interval(prefix)
            for e, closed, inside in (
                (iv.left, iv.left_closed, "right"),
                (iv.right, iv.right_closed, "left"),
            ):
                if not 0 < e < 1:
                    continue
                report = jumps_at(e)
                outside = "left" if inside == "right" else "right"
                assert report.side == (outside if closed else inside), (prefix, e)
                assert report.jump_magnitude > 0, (prefix, e)
                checked += 1
    assert checked == 2939  # every endpoint but 1, the right end of I_(1)
