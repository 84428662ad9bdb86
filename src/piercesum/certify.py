"""Certified rational enclosures of the few transcendental values we need.

Inequalities against e^M, log p, or fractional powers must be decidable in
exact arithmetic, so these helpers enclose each value between two rationals
using truncated series with explicit remainder bounds.  Machine floats
never enter.  Each decision tightens by one rule, ``refine``: SERIES_TERMS
terms, doubled at most five times, then ResourceLimitError, never a guess.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .core import DomainError, Rat, ResourceLimitError, as_rational, check_count
from .sequences import Enclosure

SERIES_TERMS = 48  # first term count of the e^x and log enclosures; refine doubles it


def refine(enclose, decided, what: str):
    """First enclose(terms) that decided accepts, for terms = SERIES_TERMS * 2^i, i < 6."""
    for attempt in range(6):
        value = enclose(SERIES_TERMS << attempt)
        if decided(value):
            return value
    raise ResourceLimitError(f"{what} undecided at {SERIES_TERMS << 5} series terms")


def iroot(n: int, k: int) -> int:
    """Floor k-th root of a non-negative int.

    Floor roots nest: floor(floor(n^(1/a))^(1/b)) = floor(n^(1/ab)).  So each
    factor 2 of k is taken by math.isqrt, and Newton iteration finds the
    root for the odd index that is left.
    """
    check_count(n, 0, "iroot radicand")
    check_count(k, 1, "root index")
    while k % 2 == 0:
        n, k = math.isqrt(n), k // 2
    if n == 0 or k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_enclosure(x, k: int, scale: int = 10**30) -> Enclosure:
    """Enclosure of x^(1/k) for rational x >= 0, to roughly 1/scale."""
    x = as_rational(x)
    if x < 0:
        raise DomainError("root_enclosure needs x >= 0")
    check_count(k, 1, "root index")
    check_count(scale, 1, "scale")
    # x^(1/k) * scale = (num * scale^k / den)^(1/k)
    shifted = x.numerator * scale**k // x.denominator
    lo = iroot(shifted, k)
    return Enclosure(Fraction(lo, scale), Fraction(lo + 1, scale))


def pow_enclosure(x, exponent, scale: int = 10**30) -> Enclosure:
    """Enclosure of x^s for rational x >= 0 and rational s >= 0."""
    x = as_rational(x)
    s = as_rational(exponent)
    if s < 0:
        raise DomainError("pow_enclosure needs a non-negative exponent")
    return root_enclosure(x**s.numerator, s.denominator, scale)


def exp_enclosure(x, terms: int = SERIES_TERMS) -> Enclosure:
    """Enclosure of e^x for rational x.

    The argument is halved into [0, 1], the series is summed exactly, and
    the remainder is bounded by the first omitted term times a geometric
    factor.  Squarings undo the halving; negative x goes through the
    reciprocal.
    """
    x = as_rational(x)
    check_count(terms, 2, "series terms")
    if x < 0:
        return exp_enclosure(-x, terms).reciprocal()
    halvings = 0
    while x > 1:
        x /= 2
        halvings += 1
    total = Fraction(1)
    term = Fraction(1)
    for k in range(1, terms + 1):
        term = term * x / k
        total += term
    # remainder: first omitted term * 1/(1 - x/(terms+2)), valid since x <= 1
    remainder = term * x / (terms + 1) * Fraction(terms + 2, terms + 1)
    enc = Enclosure(total, total + remainder)
    for _ in range(halvings):
        enc = enc * enc
    return enc


def _atanh_series(z: Rat, terms: int) -> Enclosure:
    # 2 * sum z^(2j+1)/(2j+1), all terms positive, tail geometric in z^2
    z2 = z * z
    total = Fraction(0)
    power = z
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= z2
    tail = power / ((2 * terms + 1) * (1 - z2))
    return Enclosure(2 * total, 2 * (total + tail))


@cache
def _log2_enclosure(terms: int) -> Enclosure:
    return _atanh_series(Fraction(1, 3), terms)


def log_enclosure(x, terms: int = SERIES_TERMS) -> Enclosure:
    """Enclosure of log x for rational x > 0.

    x is scaled by a power of two into [1, 2), where the atanh series
    converges at least as fast as 9^-terms.
    """
    x = as_rational(x)
    if x <= 0:
        raise DomainError("log_enclosure needs x > 0")
    check_count(terms, 2, "series terms")
    if x < 1:
        return -log_enclosure(1 / x, terms)
    m = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** m:
        m -= 1
    reduced = x / Fraction(2) ** m
    main = _atanh_series((reduced - 1) / (reduced + 1), terms)
    return m * _log2_enclosure(terms) + main
