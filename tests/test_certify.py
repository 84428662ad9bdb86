import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piercesum
from piercesum import analysis, certify, core
from piercesum.certify import (
    SERIES_TERMS,
    exp_enclosure,
    iroot,
    log_enclosure,
    pow_enclosure,
    refine,
    root_enclosure,
)
from piercesum.core import DomainError, ResourceLimitError

from oracles import exp_enclosure_oracle, log_enclosure_oracle

#: 2 and 3 terms, the first term count and its first two doublings
DIFFERENTIAL_TERMS = [2, 3, 48, 96, 192]


class TestIroot:
    @given(st.integers(min_value=0, max_value=2**4000), st.integers(min_value=1, max_value=16))
    @settings(max_examples=300)
    def test_floor_root_definition(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_perfect_powers(self):
        assert iroot(7**6, 6) == 7
        assert iroot(7**6 - 1, 6) == 6

    @given(st.integers(min_value=1, max_value=2**250), st.sampled_from([2, 4, 6, 8, 12, 16]))
    @settings(max_examples=200)
    def test_perfect_power_edges_at_even_index(self, m, k):
        # the halving steps floor the argument; the edges of m^k must survive them
        assert iroot(m**k, k) == m
        assert iroot(m**k - 1, k) == m - 1
        assert iroot(m**k + 1, k) == m
        assert iroot((m + 1) ** k - 1, k) == m

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            iroot(-1, 2)


class TestExpEnclosure:
    @pytest.mark.parametrize("x", [0, 1, 2, F(1, 2), F(-1), F(49), F(-7, 3)])
    def test_contains_float_reference(self, x):
        enc = exp_enclosure(x)
        assert enc.lo <= F(math.exp(x)) * (1 + F(1, 10**12))
        assert enc.hi >= F(math.exp(x)) * (1 - F(1, 10**12))

    def test_exact_at_zero(self):
        enc = exp_enclosure(0)
        assert enc.lo == enc.hi == 1

    def test_width_shrinks_with_terms(self):
        wide = exp_enclosure(5, terms=8)
        tight = exp_enclosure(5, terms=40)
        assert tight.width < wide.width
        assert wide.contains(tight)

    def test_reciprocal_pair(self):
        pos, neg = exp_enclosure(3), exp_enclosure(-3)
        prod = pos * neg
        assert prod.lo <= 1 <= prod.hi


class TestLogEnclosure:
    @pytest.mark.parametrize("x", [2, 3, 10, 1000, F(3, 2), F(1, 7), F(10**6), F(5, 3)])
    def test_contains_float_reference(self, x):
        enc = log_enclosure(x)
        ref = math.log(x)
        assert float(enc.lo) <= ref + 1e-12
        assert float(enc.hi) >= ref - 1e-12
        assert enc.width < F(1, 10**10)

    def test_log_one_is_zero(self):
        enc = log_enclosure(1)
        assert enc.lo <= 0 <= enc.hi and enc.width < F(1, 10**10)

    def test_rejects_nonpositive(self):
        for x in (0, -3):
            with pytest.raises(DomainError):
                log_enclosure(x)

    def test_inverse_of_exp(self):
        # e^(log 5) must enclose 5 after composing certified bounds
        enc = log_enclosure(5)
        assert exp_enclosure(enc.lo).lo <= 5 <= exp_enclosure(enc.hi).hi


class TestRoots:
    @given(
        st.fractions(min_value=0, max_value=1000, max_denominator=10**6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200)
    def test_root_encloses(self, x, k):
        enc = root_enclosure(x, k)
        assert enc.lo**k <= x
        assert enc.hi**k >= x

    def test_sqrt_known_value(self):
        enc = root_enclosure(F(1, 4), 2)
        assert enc.lo <= F(1, 2) <= enc.hi and enc.width <= F(2, 10**30)

    def test_pow_fractional(self):
        # 8^(2/3) = 4 exactly
        enc = pow_enclosure(8, F(2, 3))
        assert enc.lo <= 4 <= enc.hi and enc.width <= F(2, 10**30)

    def test_pow_zero_exponent(self):
        assert pow_enclosure(F(17, 3), 0).contains(F(1))

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError, match="x >= 0"):
            root_enclosure(F(-1, 4), 2)
        with pytest.raises(DomainError, match="non-negative exponent"):
            pow_enclosure(8, F(-2, 3))


class TestRefine:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_stops_at_the_first_deciding_attempt(self, k):
        calls = []

        def enclose(terms):
            calls.append(terms)
            return len(calls)

        assert refine(enclose, lambda attempt: attempt == k, "fake") == k
        assert calls == [SERIES_TERMS << i for i in range(k)]
        assert calls[0] == 48

    def test_undecided_raises_naming_what(self):
        calls = []
        with pytest.raises(ResourceLimitError, match="the fake comparison"):
            refine(calls.append, lambda value: False, "the fake comparison")
        assert len(calls) == 6

    def test_reads_the_first_term_count_at_call_time(self, monkeypatch):
        monkeypatch.setattr(certify, "SERIES_TERMS", 5)
        calls = []
        refine(calls.append, lambda value: len(calls) == 3, "fake")
        assert calls == [5, 10, 20]

    def test_one_error_class(self):
        assert analysis.ResourceLimitError is core.ResourceLimitError is piercesum.ResourceLimitError

    def test_enclosure_defaults_use_the_first_term_count(self):
        assert exp_enclosure(F(7, 3)) == exp_enclosure(F(7, 3), SERIES_TERMS)
        assert log_enclosure(F(7, 3)) == log_enclosure(F(7, 3), SERIES_TERMS)


class TestIntegerSeries:
    # the Horner sums on ints give the same rationals as the per-term Fraction series

    @pytest.mark.parametrize("terms", DIFFERENTIAL_TERMS)
    @pytest.mark.parametrize("x", [0, 1, 9, F(-17, 4), F(7, 3)])
    def test_exp_equals_the_term_by_term_series(self, x, terms):
        assert exp_enclosure(x, terms) == exp_enclosure_oracle(x, terms)

    @pytest.mark.parametrize("terms", DIFFERENTIAL_TERMS)
    @pytest.mark.parametrize("x", [1, F(1, 5), F(5, 3), 10**6])
    def test_log_equals_the_term_by_term_series(self, x, terms):
        assert log_enclosure(x, terms) == log_enclosure_oracle(x, terms)

    @given(
        st.fractions(min_value=-60, max_value=60, max_denominator=1000),
        st.integers(min_value=2, max_value=192),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_equals_the_series_on_draws(self, x, terms):
        assert exp_enclosure(x, terms) == exp_enclosure_oracle(x, terms)

    @given(
        st.fractions(min_value=F(1, 10**6), max_value=10**9, max_denominator=10**6),
        st.integers(min_value=2, max_value=192),
    )
    @settings(max_examples=60, deadline=None)
    def test_log_equals_the_series_on_draws(self, x, terms):
        assert log_enclosure(x, terms) == log_enclosure_oracle(x, terms)

    @pytest.mark.parametrize("enclose,x", [(log_enclosure, 10**6), (exp_enclosure, 9)])
    def test_last_refine_attempt_is_quick(self, enclose, x):
        # at 1536 terms the per-term series took 2.7 s (log 10^6) and 0.73 s (e^9)
        certify._log2_enclosure.cache_clear()
        start = time.process_time()
        enclose(x, SERIES_TERMS << 5)
        assert time.process_time() - start < 0.5
