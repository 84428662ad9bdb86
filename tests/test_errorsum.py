import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercesum import (
    DomainError,
    PierceSeq,
    constant_stream,
    convergent,
    cylinder_extrema,
    estar,
    estar_by_definition,
    estar_digits,
    esum,
    esum_stream,
    evaluate_digits,
    expand,
    hat_prime,
    interval_length,
    jumps_at,
    oscillation,
    phi,
    preimage_pair,
    recursion_check,
    shift_power,
)

# 2/e - 1 to 35 digits, from an independent high-precision evaluation
TWO_OVER_E_MINUS_ONE = F(-26424111765711535680895245967707827, 10**35)

unit_rationals = st.builds(
    lambda p, q: F(min(p, q), max(p, q, 1)),
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
interior_rationals = unit_rationals.filter(lambda x: 0 < x < 1)
finite_seqs = st.lists(st.integers(min_value=1, max_value=60), max_size=6, unique=True).map(
    lambda ds: tuple(sorted(ds))
)


def stream_seq():
    return PierceSeq.from_stream(constant_stream("one-minus-inv-e"))


class TestEstar:
    @pytest.mark.parametrize(
        "digits,value",
        [
            ((1, 2), F(-1, 2)),
            ((2, 3), F(-1, 6)),
            ((7,), F(0)),
            ((), F(0)),
            ((2, 4), F(-1, 8)),
        ],
    )
    def test_exact_values(self, digits, value):
        enc = estar(digits)
        assert enc.is_exact and enc.lo == value

    def test_stream_brackets_reference(self):
        enc = estar(stream_seq(), depth=20)
        assert enc.contains(TWO_OVER_E_MINUS_ONE)
        assert enc.width == F(20, math.factorial(21))

    @given(finite_seqs)
    def test_closed_form_matches_direct_sum(self, digits):
        # independent oracle: sum (-1)^n n / (sigma_1...sigma_{n+1}) term by term
        direct = sum(
            (
                F((-1) ** n * n, math.prod(digits[: n + 1]))
                for n in range(1, len(digits))
            ),
            F(0),
        )
        assert estar_digits(digits) == direct

    @given(finite_seqs)
    def test_range(self, digits):
        assert F(-1, 2) <= estar_digits(digits) <= 0

    def test_truncation_bound_on_stream(self):
        seq = stream_seq()
        for n in range(2, 12):
            mid_n = estar(seq, depth=n).midpoint
            mid_deep = estar(seq, depth=n + 8).midpoint
            prod = math.factorial(n + 1)  # digits are 1, 2, 3, ...
            assert abs(mid_n - mid_deep) <= F(n, prod)


class TestEstarByDefinition:
    @pytest.mark.parametrize(
        "digits,value", [((2, 3), F(-1, 6)), ((), F(0)), ((2, 4), F(-1, 8))]
    )
    def test_exact_values(self, digits, value):
        enc = estar_by_definition(digits)
        assert enc.is_exact and enc.lo == value

    @given(finite_seqs)
    def test_agrees_with_closed_form_exactly(self, digits):
        assert estar_by_definition(digits).lo == estar(digits).lo

    def test_agrees_on_streams_within_widths(self):
        for depth in (6, 10, 20):
            a = estar(stream_seq(), depth)
            b = estar_by_definition(stream_seq(), depth)
            assert a.overlaps(b)
            assert b.contains(TWO_OVER_E_MINUS_ONE)


class TestEsum:
    def test_examples(self):
        assert esum(F(3, 8)) == F(-1, 8)
        assert esum(0) == 0
        assert esum(F(1, 2)) == 0
        assert esum(1) == 0

    @given(unit_rationals)
    @settings(max_examples=300)
    def test_matches_definition_and_range(self, x):
        # independent oracle: sum x - s_k over the expansion length
        digits = expand(x)
        direct = sum((x - convergent(x, k) for k in range(1, len(digits) + 1)), F(0))
        assert esum(x) == direct
        assert F(-1, 2) < esum(x) <= 0

    @given(unit_rationals.filter(lambda x: x != F(1, 2)))
    @settings(max_examples=300)
    def test_sum_with_the_reflection_is_minus_the_smaller(self, x):
        # for x < 1/2 the first digit of 1 - x is 1 and its shift is x,
        # so E(1 - x) = -x - E(x): the pairing the grid sum rests on
        assert esum(x) + esum(1 - x) == -min(x, 1 - x)

    def test_one_half_is_its_own_reflection(self):
        # 1/2 and 1 - 1/2 share the digits (2,), so the pair sum is 0, not
        # -1/2; an even grid's point k = grid/2 therefore stands alone
        assert expand(F(1, 2)) == (2,)
        assert esum(F(1, 2)) + esum(1 - F(1, 2)) == 0

    def test_non_commutation_witness(self):
        # estar and esum-after-phi disagree on non-realizable input
        sigma = (2, 3)
        assert esum(phi(sigma).lo) == 0
        assert estar(sigma).lo == F(-1, 6)


class TestEsumStream:
    def test_stream_enclosure(self):
        enc = esum_stream(stream_seq(), depth=20)
        assert enc.contains(TWO_OVER_E_MINUS_ONE)

    def test_finite_adapter(self):
        enc = esum_stream(PierceSeq((2, 4)))
        assert enc.is_exact and enc.lo == F(-1, 8)

    def test_depth_five_width(self):
        enc = esum_stream(stream_seq(), depth=5)
        assert enc.width == F(5, math.factorial(6))

    def test_rejects_non_realizable(self):
        with pytest.raises(DomainError):
            esum_stream(PierceSeq((2, 3)))


class TestJumps:
    def test_one_half(self):
        rep = jumps_at(F(1, 2))
        assert rep.parity == "odd" and rep.side == "right"
        assert rep.left_limit == 0
        assert rep.right_limit == F(-1, 2)
        assert rep.jump_magnitude == F(1, 2)

    def test_one_third(self):
        assert jumps_at(F(1, 3)).right_limit == F(-1, 6)

    def test_three_eighths(self):
        rep = jumps_at(F(3, 8))
        assert rep.parity == "even" and rep.side == "left"
        assert rep.left_limit == F(-1, 12)
        assert rep.right_limit == F(-1, 8)

    @pytest.mark.parametrize("x", [0, 1, F(0), F(1)])
    def test_endpoints_rejected(self, x):
        with pytest.raises(DomainError):
            jumps_at(x)

    @given(interior_rationals)
    @settings(max_examples=300)
    def test_limits_equal_preimage_error_sums(self, x):
        rep = jumps_at(x)
        realizable, twin = preimage_pair(x)
        assert rep.interior_value == estar(realizable).lo == esum(x)
        assert rep.limit_value == estar(twin).lo
        assert rep.left_limit > rep.right_limit


def brute_force_extrema(prefix, max_extra, digit_cap):
    """Enumerate extensions of a prefix and track extreme error sums."""
    lo = hi = estar_digits(prefix)
    arg_lo = arg_hi = prefix
    stack = [prefix]
    while stack:
        base = stack.pop()
        start = base[-1] + 1
        if len(base) - len(prefix) >= max_extra:
            continue
        for d in range(start, digit_cap + 1):
            ext = base + (d,)
            value = estar_digits(ext)
            if value < lo:
                lo, arg_lo = value, ext
            if value > hi:
                hi, arg_hi = value, ext
            stack.append(ext)
    return lo, hi, arg_lo, arg_hi


class TestCylinderExtrema:
    def test_order_one(self):
        ext = cylinder_extrema((2,))
        assert ext.maximum == 0 and ext.argmax.prefix == (2,)
        assert ext.minimum == F(-1, 6) and ext.argmin.prefix == (2, 3)

    def test_global_minimum_cylinder(self):
        ext = cylinder_extrema((1,))
        assert ext.maximum == 0
        assert ext.minimum == F(-1, 2) and ext.argmin.prefix == (1, 2)

    def test_even_order(self):
        ext = cylinder_extrema((1, 2))
        assert ext.maximum == F(-1, 6) and ext.argmax.prefix == (1, 2, 3)
        assert ext.minimum == F(-1, 2) and ext.argmin.prefix == (1, 2)

    def test_brute_force_small(self):
        for order in (1, 2):
            for prefix in combinations(range(1, 7), order):
                ext = cylinder_extrema(prefix)
                lo, hi, _, _ = brute_force_extrema(prefix, max_extra=4, digit_cap=20)
                assert ext.minimum <= lo and hi <= ext.maximum

    @given(finite_seqs.filter(lambda d: d))
    def test_extrema_attained_at_stated_sequences(self, prefix):
        ext = cylinder_extrema(prefix)
        assert estar(ext.argmax).lo == ext.maximum
        assert estar(ext.argmin).lo == ext.minimum
        assert {ext.argmax.prefix, ext.argmin.prefix} == {
            prefix,
            hat_prime(PierceSeq(prefix)).prefix,
        }


class TestOscillation:
    @pytest.mark.parametrize(
        "prefix,value", [((2,), F(1, 6)), ((1,), F(1, 2)), ((1, 2), F(1, 3))]
    )
    def test_examples(self, prefix, value):
        assert oscillation(prefix) == value

    @given(finite_seqs.filter(lambda d: d))
    def test_equals_extrema_spread_and_length_formula(self, prefix):
        ext = cylinder_extrema(prefix)
        assert oscillation(prefix) == ext.spread
        assert oscillation(prefix) == len(prefix) * interval_length(prefix)


def recursion_rhs_oracle(x, n):
    """The right side of the recursion identity, one Fraction partial sum per k."""
    digits = expand(x)
    rhs = F(0)
    for k in range(1, n + 1):
        rhs += x - evaluate_digits(digits[:k])
    if n <= len(digits):
        tail_value = estar_digits(expand(shift_power(x, n)))
        rhs += F((-1) ** n, math.prod(digits[:n])) * tail_value
    return rhs


class TestRecursion:
    @pytest.mark.parametrize("x,n", [(F(3, 8), 1), (F(3, 8), 2), (F(0), 3)])
    def test_examples(self, x, n):
        assert recursion_check(x, n)

    @given(unit_rationals, st.integers(min_value=1, max_value=10))
    @settings(max_examples=300)
    def test_holds_everywhere(self, x, n):
        assert recursion_check(x, n)

    @given(unit_rationals, st.integers(min_value=1, max_value=12))
    @example(F(0), 1)
    @example(F(1), 4)
    @example(F(3, 8), 5)  # digits (2, 4): n past the expansion
    @example(F(12345, 67891), 7)
    @example(F(86243, 98765), 9)  # nine digits: n at the expansion length
    @example(F(86243, 98765), 12)
    @settings(max_examples=300)
    def test_running_sum_matches_the_per_k_oracle(self, x, n):
        # recursion_check holds exactly when its running right side equals
        # E(x), so both holding makes the two right sides equal
        assert recursion_rhs_oracle(x, n) == esum(x)
        assert recursion_check(x, n)


def test_jump_formula_spot_check_against_deeper_realizable_value():
    # approaching 1/3 from the right passes through points expanding as
    # (2, 3, k); their error sums converge to estar((2, 3))
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(5, 2000)
        x = phi((2, 3, k)).lo
        assert expand(x) == (2, 3, k)
        gap = abs(esum(x) - jumps_at(F(1, 3)).right_limit)
        assert gap <= F(2, 6 * k)
