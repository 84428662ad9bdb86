"""Exact geometry of the fundamental intervals of Pierce expansions.

The set of points whose first n digits match a given prefix is an
interval; which endpoints it contains depends on the parity of n and on
whether the prefix is realizable.  Getting those flags wrong is easy and
silent, so they are computed once here and carried explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import DomainError, Rat, as_rational, digit_numerators, expand
from .sequences import _check_prefix, _realizable_digits


@dataclass(frozen=True)
class FundInterval:
    """Interval of points sharing a digit prefix, with explicit endpoint flags."""

    sigma: tuple[int, ...]
    order: int
    left: Rat
    right: Rat
    left_closed: bool
    right_closed: bool

    @property
    def length(self) -> Rat:
        return self.right - self.left

    def contains(self, x) -> bool:
        x = as_rational(x)
        if x < self.left or x > self.right:
            return False
        if x == self.left:
            return self.left_closed
        if x == self.right:
            return self.right_closed
        return True

    def __str__(self):
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        return f"{lb}{self.left}, {self.right}{rb}"


def fundamental_interval(prefix) -> FundInterval:
    """The order-n interval for a digit prefix, endpoints exact.

    Odd order: (phi(hat), phi(sigma)] when realizable.  Even order:
    [phi(sigma), phi(hat)).  Non-realizable prefixes lose the closed
    endpoint and the interval is open on both sides.
    """
    prefix = _check_prefix(prefix)
    n = len(prefix)
    if n < 1:
        raise DomainError("fundamental intervals need a non-empty prefix")
    # hat moves the last term s/prod, s = (-1)^(n-1), to s/(prod/d (d+1))
    d = prefix[-1]
    prod, value_num, _ = digit_numerators(prefix)
    value = Fraction(value_num, prod)
    hat_value = Fraction(value_num * (d + 1) + (-1 if n % 2 else 1), prod * (d + 1))
    if n % 2 == 1:
        return FundInterval(prefix, n, hat_value, value, False, _realizable_digits(prefix))
    return FundInterval(prefix, n, value, hat_value, _realizable_digits(prefix), False)


def interval_length(prefix) -> Rat:
    """Exact length 1/(sigma_1 ... sigma_{n-1} sigma_n (sigma_n + 1))."""
    prefix = _check_prefix(prefix)
    if not prefix:
        raise DomainError("fundamental intervals need a non-empty prefix")
    return Fraction(1, math.prod(prefix) * (prefix[-1] + 1))


@dataclass(frozen=True)
class Partition:
    """All order-n intervals with digits <= cap, plus the mass left out.

    The residual comes from the closed form of the pruned tails (see
    ``residual_mass``), not from 1 minus the enumerated mass, so enumerated
    mass + residual = 1 is an exact two-route identity, not a definition.
    """

    order: int
    digit_cap: int
    intervals: tuple[FundInterval, ...]
    residual: Rat

    @property
    def covered_mass(self) -> Rat:
        return sum((iv.length for iv in self.intervals), Fraction(0))


def residual_mass(n: int, digit_cap: int) -> Rat:
    """Total length of the order-n intervals with some digit above digit_cap.

    Below a prefix with digit product P, the intervals whose next digit
    exceeds the cap have total length 1/(P (cap+1)), since the lengths
    1/(P k (k+1)) telescope.  Summing over the prefixes of 0..n-1 digits
    <= cap gives sum_{j<n} e_j(1, 1/2, ..., 1/cap) / (cap+1), with e_j the
    elementary symmetric sums, computed exactly in O(n cap) steps.
    """
    e = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for d in range(1, digit_cap + 1):
        for j in range(n - 1, 0, -1):
            e[j] += e[j - 1] / d
    return sum(e) / (digit_cap + 1)


def partition(n: int, digit_cap: int) -> Partition:
    """Order-n fundamental intervals with all digits <= digit_cap.

    Intervals come out in lexicographic prefix order and are mutually
    disjoint; the exact residual says how much of [0, 1] the cap leaves out.
    """
    if n < 1:
        raise DomainError("partition order must be >= 1")
    if digit_cap < 1:
        raise DomainError("digit cap must be >= 1")
    intervals = tuple(fundamental_interval(p) for p in combinations(range(1, digit_cap + 1), n))
    return Partition(n, digit_cap, intervals, residual_mass(n, digit_cap))


def locate(x, n: int) -> tuple[int, ...]:
    """First n digits of x, verified to place x inside their interval."""
    if n < 1:
        raise DomainError("locate order must be >= 1")
    x = as_rational(x)
    digits = expand(x)
    if len(digits) < n:
        raise DomainError(
            f"expansion of {x} has only {len(digits)} digits, cannot locate at order {n}"
        )
    prefix = digits[:n]
    interval = fundamental_interval(prefix)
    if not interval.contains(x):
        raise AssertionError(f"{x} escaped its own fundamental interval {interval}")
    return prefix
