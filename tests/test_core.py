import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercesum import (
    INF,
    MAX_DEPTH,
    DepthOverflowError,
    DigitStream,
    DomainError,
    as_rational,
    constant_stream,
    convergent,
    cylinder_extrema,
    digit1,
    esum,
    evaluate_digits,
    expand,
    fundamental_interval,
    jumps_at,
    phi,
    shift,
    shift_power,
)
from piercesum import core
from piercesum.core import digit_numerators

from oracles import expand_oracle, numerators_oracle, random_unit_rationals

# random rationals in [0, 1]
unit_rationals = st.builds(
    lambda p, q: F(min(p, q), max(p, q, 1)),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


class TestAsRational:
    def test_parses_fraction_literals(self):
        assert as_rational("3/8") == F(3, 8)
        assert as_rational("-1/10") == F(-1, 10)
        assert as_rational("2") == 2
        assert as_rational(F(1, 3)) == F(1, 3)

    @pytest.mark.parametrize("bad", [0.375, "0.375", "1/0", "a/b", "1/2/3", None, [1]])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(DomainError):
            as_rational(bad)

    def test_exact_fraction_comes_back_as_is(self):
        x = F(3, 8)
        assert as_rational(x) is x

    def test_fraction_subclass_becomes_exact_fraction(self):
        class Sub(F):
            pass

        out = as_rational(Sub(3, 8))
        assert type(out) is F and out == F(3, 8)

    @pytest.mark.parametrize("bad", [F(-1, 3), F(4, 3)])
    def test_unit_checks_reject_outside_points(self, bad):
        for fn in (expand, shift, digit1):
            with pytest.raises(DomainError):
                fn(bad)


class TestKernelMemos:
    """The kernel memos keep a few results; they must equal the memo-free oracles."""

    def _check(self, x):
        digits = expand(x)
        assert digits == expand_oracle(x)
        for ds in (digits, digits[:-1]):  # a point's node and its parent's: 2 nodes a point
            assert digit_numerators(ds) == numerators_oracle(ds)
        return digits

    def test_a_forward_query_expands_once_and_folds_once(self):
        # the six calls of the benchmark's forward query on one point: one expansion,
        # one fold, and each of the node's two values built once and shared
        for x in random_unit_rationals(50, seed=34):
            if not 0 < x < 1:
                continue
            memos = (core._expand, core._fold, core.node_fraction)
            for memo in memos:
                memo.cache_clear()
            digits = expand(x)
            value, e, jump = phi(digits), esum(x), jumps_at(x)
            iv, ext = fundamental_interval(digits), cylinder_extrema(digits)
            assert [memo.cache_info().misses for memo in memos] == [1, 1, 2], x
            odd = len(digits) % 2
            assert e is jump.interior_value is (ext.maximum if odd else ext.minimum)
            assert value.lo is value.hi is (iv.right if odd else iv.left)

    def test_hits_and_evictions_match_the_oracles(self):
        xs = random_unit_rationals(40)
        for x in xs:  # each x twice in a row: the second call is a hit
            self._check(x)
            hits = core._expand.cache_info().hits, core._fold.cache_info().hits
            self._check(x)
            assert core._expand.cache_info().hits == hits[0] + 1
            assert core._fold.cache_info().hits == hits[1] + 2
        for x in xs:  # 39 other points since each was last asked: evicted
            self._check(x)

    def test_tuple_list_and_generator_give_the_same_triple(self):
        for x in random_unit_rationals(20):
            digits = expand(x)
            triple = numerators_oracle(digits)
            assert digit_numerators(digits) == triple
            assert digit_numerators(list(digits)) == triple
            assert digit_numerators(d for d in digits) == triple

    def test_fraction_string_and_int_inputs_expand_alike(self):
        for x in random_unit_rationals(20) + [F(0), F(1)]:
            want = expand_oracle(x)
            assert expand(x) == expand(f"{x.numerator}/{x.denominator}") == want
            if x.denominator == 1:
                assert expand(x.numerator) == want

    def test_other_digit_types_never_enter_the_memo(self):
        # a float or Fraction twin of an int tuple is refused, every time, and
        # leaves nothing that the int tuple could read back
        core._fold.cache_clear()
        for twin in [(3.0, 7.0, 12.0), (F(3), F(7), F(12)), (3, 7, INF)]:
            for _ in range(2):
                with pytest.raises(DomainError):
                    digit_numerators(twin)
        triple = digit_numerators((3, 7, 12))
        assert triple == numerators_oracle((3, 7, 12)) and {type(v) for v in triple} == {int}

    def test_expand_hands_out_plain_ints(self):
        # numpy keeps its own integer type in a Fraction; the memo must not
        # pass it on to a later caller with plain ints
        np = pytest.importorskip("numpy")
        core._expand.cache_clear()
        assert {type(d) for d in expand(F(np.int64(3), np.int64(8)))} == {int}
        assert {type(d) for d in expand(F(3, 8))} == {int}

    def test_memos_stay_within_their_size(self):
        for x in random_unit_rationals(100):
            digit_numerators(expand(x))
        for memo in (core._expand, core._fold):
            info = memo.cache_info()
            assert info.currsize <= info.maxsize


class TestDigit1:
    def test_half(self):
        assert digit1(F(1, 2)) == 2

    def test_zero_gives_infinite_digit(self):
        assert digit1(0) == INF

    def test_three_eighths(self):
        # floor(8/3) = 2 by integer division
        assert digit1(F(3, 8)) == 2

    def test_one(self):
        assert digit1(1) == 1

    @pytest.mark.parametrize("x", [F(-1, 8), F(9, 8)])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            digit1(x)

    @given(unit_rationals)
    def test_digit_brackets_its_point(self, x):
        d = digit1(x)
        if d != INF:
            assert F(1, d + 1) < x <= F(1, d)


class TestShift:
    def test_three_eighths(self):
        # 1 - 2*(3/8) = 1/4 exactly
        assert shift(F(3, 8)) == F(1, 4)

    def test_fixed_points(self):
        assert shift(0) == 0
        assert shift(1) == 0

    def test_power_past_the_expansion_stays_at_zero(self):
        # 3/8 has the two digits (2, 4): T(3/8) = 1/4, T(1/4) = 0
        assert [shift_power(F(3, 8), n) for n in range(5)] == [F(3, 8), F(1, 4), 0, 0, 0]

    @given(unit_rationals)
    def test_shift_matches_definition(self, x):
        d = digit1(x)
        expected = F(0) if x == 0 else 1 - d * x
        assert shift(x) == expected
        if d != INF:
            assert 0 <= shift(x) < F(1, d + 1)


class TestExpand:
    @pytest.mark.parametrize(
        "x,digits",
        [
            (F(1, 2), (2,)),
            (F(0), ()),
            (F(3, 8), (2, 4)),
            (F(1), (1,)),
            (F(1, 3), (3,)),
            (F(2, 3), (1, 3)),
        ],
    )
    def test_known_expansions(self, x, digits):
        assert expand(x) == digits

    def test_depth_cap(self):
        # a realizable digit tuple one longer than the cap: the expansion of
        # its value has MAX_DEPTH + 1 digits
        # twice in a row: the memo under expand must not keep a failed call
        x = evaluate_digits((*range(1, MAX_DEPTH + 1), MAX_DEPTH + 2))
        for _ in range(2):
            with pytest.raises(DepthOverflowError):
                expand(x)

    @given(unit_rationals)
    @settings(max_examples=300)
    def test_round_trip_and_digit_growth(self, x):
        digits = expand(x)
        assert evaluate_digits(digits) == x
        for k, d in enumerate(digits, start=1):
            assert d >= k
        for a, b in zip(digits, digits[1:]):
            assert b >= a + 1
        if len(digits) >= 2:
            # last two digits are never consecutive
            assert digits[-2] + 1 < digits[-1]


class TestConvergent:
    def test_examples(self):
        assert convergent(F(3, 8), 1) == F(1, 2)
        assert convergent(F(3, 8), 2) == F(3, 8)
        assert convergent(0, 5) == 0

    @given(unit_rationals, st.integers(min_value=1, max_value=12))
    @settings(max_examples=300)
    def test_remainder_identity(self, x, n):
        # x - s_n = (-1)^n T^n x / (d_1 ... d_n), with infinite digits
        # killing the correction term entirely
        digits = expand(x)
        s_n = convergent(x, n)
        if n <= len(digits):
            prod = math.prod(digits[:n])
            assert x - s_n == F((-1) ** n, prod) * shift_power(x, n)
        else:
            assert s_n == x
        assert abs(x - s_n) <= F(1, math.factorial(n))


class TestDigitStream:
    def test_named_constant(self):
        stream = constant_stream("one-minus-inv-e")
        assert list(stream.digits(5)) == [1, 2, 3, 4, 5]

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            constant_stream("pi")

    def test_custom_rule(self):
        assert list(DigitStream(2, 0).digits(3)) == [2, 4, 6]

    def test_bad_arithmetic_rule(self):
        with pytest.raises(DomainError):
            DigitStream(0, 5)
        with pytest.raises(DomainError):
            DigitStream(1, -1)

    def test_rule_equality_is_by_parameters(self):
        assert DigitStream(1, 0) == constant_stream("one-minus-inv-e")
        assert DigitStream(1, 0) != DigitStream(2, 0)
