import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercesum import (
    INF,
    DigitStream,
    DomainError,
    Enclosure,
    PierceSeq,
    estar,
    expand,
    hat,
    hat_prime,
    is_realizable,
    phi,
    phi_partial,
    rho,
    rho_seq,
    truncate,
)

from oracles import stream_seq

# 1 - 1/e to 35 digits, from an independent high-precision evaluation
ONE_MINUS_INV_E = F(63212055882855767840447622983853913, 10**35)

# strictly increasing digit tuples, possibly empty
finite_seqs = st.lists(st.integers(min_value=1, max_value=60), max_size=6, unique=True).map(
    lambda ds: tuple(sorted(ds))
)
unit_rationals = st.builds(
    lambda p, q: F(min(p, q), max(p, q, 1)),
    st.integers(min_value=0, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)


class TestPierceSeq:
    def test_prefix_validation(self):
        with pytest.raises(DomainError):
            PierceSeq((2, 2))
        with pytest.raises(DomainError):
            PierceSeq((0, 1))

    def test_bool_digits_rejected(self):
        with pytest.raises(DomainError):
            PierceSeq((True, 3))

    def test_stream_junction_validated_at_construction(self):
        with pytest.raises(DomainError, match="breaks monotonicity"):
            PierceSeq((5,), DigitStream(1, 0))  # continues 1, 2, ...
        with pytest.raises(DomainError):
            PierceSeq((5,), DigitStream(1, 4))  # continues 5, 6, ...
        assert PierceSeq((5,), DigitStream(1, 5)).digits(3) == (5, 6, 7)

    def test_str(self):
        assert str(PierceSeq((2, 4))) == "(2, 4)"
        assert str(stream_seq()) == "(1, 2, 3, 4, 5, 6, ...)"

    def test_finite_length(self):
        assert PierceSeq((2, 4)).length == 2
        assert stream_seq().length is None

    def test_digit_at_pads_with_inf(self):
        seq = PierceSeq((2, 4))
        assert seq.digit_at(2) == 4
        assert seq.digit_at(3) == INF

    @pytest.mark.parametrize("seq", [PierceSeq((2, 4)), stream_seq(), PierceSeq()])
    @pytest.mark.parametrize("n", [0, -1])
    def test_digit_at_rejects_positions_below_one(self, seq, n):
        with pytest.raises(DomainError):
            seq.digit_at(n)


class TestRealizability:
    def test_consecutive_tail_is_not_realizable(self):
        assert not is_realizable((2, 3))

    def test_gap_is_realizable(self):
        assert is_realizable((2, 4))

    def test_streams_and_short_sequences_are_realizable(self):
        assert is_realizable(stream_seq())
        assert is_realizable(())
        assert is_realizable((7,))

    @given(unit_rationals)
    def test_expansions_are_realizable(self, x):
        assert is_realizable(expand(x))

    @given(finite_seqs.filter(lambda d: d))
    def test_hat_prime_never_is(self, digits):
        assert not is_realizable(hat_prime(PierceSeq(digits)))


class TestPhi:
    @pytest.mark.parametrize(
        "digits,value",
        [((2, 3), F(1, 3)), ((1, 2), F(1, 2)), ((5,), F(1, 5)), ((), F(0))],
    )
    def test_exact_values(self, digits, value):
        enc = phi(PierceSeq(digits))
        assert enc.is_exact and enc.lo == value

    def test_stream_enclosure_brackets_reference(self):
        enc = phi(stream_seq(), depth=12)
        assert enc.contains(ONE_MINUS_INV_E)
        assert enc.width == F(1, math.factorial(13))

    @given(finite_seqs, st.integers(min_value=1, max_value=5))
    def test_tail_bound(self, digits, n):
        # |phi - phi_n| <= 1/(sigma_1 ... sigma_{n+1}) with INF digits -> 0
        seq = PierceSeq(digits)
        total = phi(seq).lo
        partial = phi_partial(seq, n)
        if n + 1 <= len(digits):
            bound = F(1, math.prod(digits[: n + 1]))
        else:
            bound = F(0) if n >= len(digits) else F(1, math.prod(digits))
        assert abs(total - partial) <= bound

    @given(unit_rationals)
    def test_preimage_pair_evaluates_back(self, x):
        digits = expand(x)
        assert phi(PierceSeq(digits)).lo == x
        if 0 < x < 1:
            twin = digits[:-1] + (digits[-1] - 1, digits[-1])
            assert phi(PierceSeq(twin)).lo == x
            assert not is_realizable(twin)


class TestHatOperators:
    def test_examples(self):
        assert hat((2,)).prefix == (3,)
        assert hat((2, 4)).prefix == (2, 5)
        assert hat_prime((2,)).prefix == (2, 3)
        assert hat_prime((2, 4)).prefix == (2, 4, 5)

    def test_errors(self):
        for op in (hat, hat_prime):
            with pytest.raises(DomainError):
                op(())
            with pytest.raises(DomainError):
                op(stream_seq())

    @given(finite_seqs.filter(lambda d: d))
    def test_hat_and_hat_prime_agree_under_phi(self, digits):
        seq = PierceSeq(digits)
        assert phi(hat(seq)).lo == phi(hat_prime(seq)).lo


class TestTruncate:
    def test_examples(self):
        assert truncate((2, 4, 7), 2).prefix == (2, 4)
        assert truncate(stream_seq(), 3).prefix == (1, 2, 3)
        assert truncate((2,), 5).prefix == (2,)

    def test_truncation_may_lose_realizability(self):
        assert is_realizable((2, 3, 7))
        assert not is_realizable(truncate((2, 3, 7), 2))


class TestRho:
    def test_examples(self):
        assert rho(1, 2) == F(3, 2)
        assert rho(3, 3) == 0
        assert rho(3, INF) == F(1, 3)
        assert rho(INF, INF) == 0

    def test_bool_digits_rejected(self):
        with pytest.raises(DomainError):
            rho(True, 2)
        with pytest.raises(DomainError):
            rho(2, False)

    @given(st.lists(st.integers(min_value=1, max_value=50) | st.just(INF), min_size=3, max_size=3))
    def test_metric_axioms(self, triple):
        a, b, c = triple
        assert rho(a, b) == rho(b, a)
        assert (rho(a, b) == 0) == (a == b)
        assert rho(a, c) <= rho(a, b) + rho(b, c)


class TestRhoSeq:
    def test_hand_values(self):
        assert rho_seq((2,), (3,)).lo == F(5, 6)  # (1/2 + 1/3)/1!
        assert rho_seq((1, 2), (1, 3)).lo == F(5, 12)  # (1/2 + 1/3)/2!
        enc = rho_seq((1, 2), (1, 2))
        assert enc.is_exact and enc.lo == 0

    def test_finite_pairs_are_exact(self):
        assert rho_seq((2, 5), (3,)).is_exact

    def test_stream_tail_bound(self):
        enc = rho_seq(stream_seq(), PierceSeq((1, 2)), depth=10)
        assert enc.width == F(4, math.factorial(10) * 11)

    @given(finite_seqs, finite_seqs)
    @settings(max_examples=300)
    def test_phi_gap_bounded_by_shared_prefix_factor(self, a, b):
        # the evaluation map is uniformly continuous for this metric but NOT
        # 1-Lipschitz: after a shared prefix of length s, both evaluations
        # deviate from their common partial sum by up to ρ(next digits)/s!,
        # which is (s+1) times the metric's own (s+1)-th term
        if a == b:
            return
        gap = abs(phi(PierceSeq(a)).lo - phi(PierceSeq(b)).lo)
        s = 0
        for x, y in zip(a, b):
            if x != y:
                break
            s += 1
        prod = math.prod(a[:s])
        next_a = a[s] if s < len(a) else INF
        next_b = b[s] if s < len(b) else INF
        assert gap <= F(1, prod) * rho(next_a, next_b)
        assert gap <= (s + 1) * rho_seq(a, b).lo

    def test_phi_gap_can_exceed_the_metric(self):
        # deterministic witness that a plain 1-Lipschitz bound fails: the
        # pair agrees at position 1, so the metric halves the digit distance
        # while the value gap does not shrink
        a, b = (1, 3), (1, 99)
        gap = abs(phi(a).lo - phi(b).lo)
        assert gap == F(32, 99)
        assert rho_seq(a, b).lo == F(17, 99)
        assert gap > rho_seq(a, b).lo
        assert gap <= 2 * rho_seq(a, b).lo


signed_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=60)
# shift 0 keeps an enclosure nonnegative, the other shifts make it signed or negative
enclosures = st.builds(
    lambda t, shift: Enclosure(min(t) + shift, max(t) + shift),
    st.tuples(
        st.fractions(min_value=0, max_value=5, max_denominator=60),
        st.fractions(min_value=0, max_value=5, max_denominator=60),
    ),
    st.sampled_from([0, -3, F(-1, 7)]),
)


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Enclosure(F(1), F(0))
        with pytest.raises(DomainError):
            Enclosure(F(-1), F(1)).reciprocal()

    def test_floats_and_bools_rejected(self):
        # 0.1 used to come back as 3602879701896397/36028797018963968
        enc = Enclosure(F(1, 3), F(1, 2))
        for value in (0.1, 0.5, True, 2.5):
            with pytest.raises(DomainError):
                Enclosure.exact(value)
            for combine in (enc.__add__, enc.__radd__, enc.__sub__, enc.__mul__, enc.__rmul__):
                with pytest.raises(DomainError):
                    combine(value)
        for lo, hi in ((0.5, 1.0), (F(1, 2), 1.0), (False, True), (0, True)):
            with pytest.raises(DomainError):
                Enclosure(lo, hi)
        assert Enclosure(0, F(1, 2)).hi == F(1, 2) and Enclosure.exact("1/3").lo == F(1, 3)
        assert (enc + 1, 2 * enc, enc - F(1, 3)) == (
            Enclosure(F(4, 3), F(3, 2)),
            Enclosure(F(2, 3), F(1)),
            Enclosure(F(0), F(1, 6)),
        )

    def test_interval_arithmetic(self):
        a, b = Enclosure(F(1), F(2)), Enclosure(F(-3), F(5))
        assert (a + b).lo == -2 and (a + b).hi == 7
        assert (a * b).lo == -6 and (a * b).hi == 10
        assert a.reciprocal().lo == F(1, 2)
        assert b.power(2).contains(F(9))  # endpoints squared straddle zero

    @given(enclosures, enclosures | signed_fractions)
    @example(Enclosure(F(0), F(2)), Enclosure(F(0), F(3)))  # both start at zero
    @example(Enclosure(F(0), F(2)), Enclosure(F(-1), F(3)))  # one straddles zero
    @example(Enclosure(F(1), F(2)), Enclosure(F(-3), F(-1)))  # one negative
    @example(Enclosure(F(1, 3), F(1, 2)), F(-2))  # a negative scalar
    @example(Enclosure(F(1, 3), F(1, 2)), 3)  # an int scalar
    @settings(max_examples=300)
    def test_product_is_the_hull_of_the_endpoint_products(self, a, b):
        other = b if isinstance(b, Enclosure) else Enclosure.exact(b)
        products = [x * y for x in (a.lo, a.hi) for y in (other.lo, other.hi)]
        assert a * b == b * a == Enclosure(min(products), max(products))

    def test_power_equals_repeated_product(self):
        for enc in (Enclosure(F(0), F(3, 2)), Enclosure(F(2, 7), F(5, 3)), Enclosure(F(-3), F(5))):
            product = Enclosure.exact(1)
            for k in range(7):
                assert enc.power(k) == product, (enc, k)
                product = product * enc

    def test_str(self):
        assert str(Enclosure(F(1, 3), F(1, 2))) == "[1/3, 1/2]"
        assert str(Enclosure(2, F(5, 2))) == "[2/1, 5/2]"
        assert str(Enclosure.exact(F(1, 3))) == "1/3"

    def test_repr_within_the_int_str_limit(self):
        assert repr(Enclosure(F(1, 3), 2)) == "Enclosure(lo=Fraction(1, 3), hi=2)"
        assert repr(Enclosure.exact(F(-5, 2))) == (
            "Enclosure(lo=Fraction(-5, 2), hi=Fraction(-5, 2))"
        )

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int->str limit"
    )
    def test_text_past_the_int_str_limit(self):
        # E* of the stream at depth 2000 has terms of about 19,000 bits, past str()'s
        # default 4300 digits; str and repr show them by bit length
        enc = estar(stream_seq(), 2000)
        bits = (enc.lo.numerator.bit_length(), enc.lo.denominator.bit_length())
        shown = f"Fraction(<{bits[0]}-bit int>, <{bits[1]}-bit int>)"
        assert str(enc).startswith(f"[{shown}, Fraction(<") and str(enc).endswith("-bit int>)]")
        assert repr(enc).startswith(f"Enclosure(lo={shown}, hi=Fraction(<")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str limit")
    def test_text_follows_a_lowered_int_str_limit(self):
        # 640 digits, the least limit allowed, admits ints of up to 3 * 640 bits
        small, big = F(2**1919 + 1, 2), F(1, 2**1920)
        enc = Enclosure(small, small + 1)
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert str(enc) == f"[{2**1919 + 1}/2, {2**1919 + 3}/2]"
            shown = "Fraction(<1-bit int>, <1921-bit int>)"
            assert str(Enclosure.exact(big)) == shown
            assert repr(Enclosure(big, 1)) == f"Enclosure(lo={shown}, hi=1)"
        finally:
            sys.set_int_max_str_digits(before)

    def test_round_outward(self):
        enc = Enclosure(F(1, 3), F(2, 3)).round_outward(100)
        assert enc.lo == F(33, 100) and enc.hi == F(67, 100)


def test_stream_gaps_obey_the_shared_prefix_bound():
    rng = random.Random(7)
    stream = stream_seq()
    stream_digits = stream.digits(30)
    for _ in range(50):
        digits = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 4))))
        shared = 0
        for x, y in zip(digits, stream_digits):
            if x != y:
                break
            shared += 1
        lhs = abs(phi(PierceSeq(digits)).lo - phi(stream, depth=30).midpoint)
        rhs = (shared + 1) * rho_seq(digits, stream, depth=30).hi
        assert lhs <= rhs + phi(stream, depth=30).width
