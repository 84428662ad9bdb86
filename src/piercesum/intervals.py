"""Exact geometry of the fundamental intervals of Pierce expansions.

The set of points whose first n digits match a given prefix is an
interval; which endpoints it contains depends on the parity of n and on
whether the prefix is realizable.  Getting those flags wrong is easy and
silent, so ``side`` decides the parity once here, for every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import DomainError, Rat, ResourceLimitError, as_rational, check_count, check_prefix
from .core import child_numerators, digit_numerators, expand
from .sequences import _realizable_digits

#: Most fundamental intervals one digit-capped enumeration (partition, CLI
#: graph) may build or emit; each holds about 0.4 kB.
MAX_INTERVALS = 2**18


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


def side(n: int) -> int:
    """(-1)^n, digit n + 1's sign in child_numerators: the side an order-n node's children take."""
    return -1 if n % 2 else 1


def node_span(n: int, here, there, here_closed: bool):
    """(left, right, left_closed, right_closed) of a node's value and there, its open far end."""
    return (here, there, here_closed, False) if side(n) > 0 else (there, here, False, here_closed)


def fundamental_interval(prefix) -> FundInterval:
    """The order-n interval for a digit prefix, endpoints exact.

    Odd order: (phi(hat), phi(sigma)] when realizable.  Even order:
    [phi(sigma), phi(hat)).  Non-realizable prefixes lose the closed
    endpoint and the interval is open on both sides.
    """
    prefix = check_prefix(prefix, "fundamental_interval")
    return _fundamental_interval(prefix, *digit_numerators(prefix))


def _fundamental_interval(prefix, prod, value_num, err_num) -> FundInterval:
    """fundamental_interval from a node; phi(hat) is phi of the prefix with last + 1 appended."""
    n = len(prefix)
    hat_prod, hat_num, _ = child_numerators(n, prod, value_num, err_num, prefix[-1] + 1)
    here, there = Fraction(value_num, prod), Fraction(hat_num, hat_prod)
    return FundInterval(prefix, n, *node_span(n, here, there, _realizable_digits(prefix)))


def interval_length(prefix) -> Rat:
    """Exact length 1/(sigma_1 ... sigma_{n-1} sigma_n (sigma_n + 1))."""
    prefix = check_prefix(prefix, "interval_length")
    return Fraction(1, math.prod(prefix) * (prefix[-1] + 1))


@dataclass(frozen=True)
class Partition:
    """All order-n intervals with digits <= cap, plus the mass left out.

    The residual comes from the closed form of the pruned tails (see
    ``capped_masses``), not from 1 minus the enumerated mass, so enumerated
    mass + residual = 1 is an exact two-route identity, not a definition.
    """

    order: int
    digit_cap: int
    intervals: tuple[FundInterval, ...]
    residual: Rat

    @property
    def covered_mass(self) -> Rat:
        return sum((iv.length for iv in self.intervals), Fraction(0))


def capped_masses(n: int, digit_cap: int) -> tuple[Rat, Rat]:
    """Total lengths of the order-n intervals with all digits <= digit_cap, and of the rest.

    With e_j the elementary symmetric sums of 1, 1/2, ..., 1/(d-1), the
    intervals whose last digit is d have total length e_{n-1}/(d(d+1)).
    Below a prefix with digit product P, the intervals whose next digit
    exceeds the cap have total length 1/(P (cap+1)), since the lengths
    1/(P k (k+1)) telescope; so the residual is sum_{j<n} e_j / (cap+1)
    over the final e_j.  One pass over d gives both exactly in O(n cap) steps.
    """
    e = [Fraction(1)] + [Fraction(0)] * (n - 1)
    covered = Fraction(0)
    for d in range(1, digit_cap + 1):
        covered += e[n - 1] / (d * (d + 1))
        for j in range(n - 1, 0, -1):
            e[j] += e[j - 1] / d
    return covered, sum(e) / (digit_cap + 1)


def check_interval_budget(orders, digit_cap: int, what: str) -> None:
    """ResourceLimitError if there are more than MAX_INTERVALS intervals of the orders given.

    Counted are the intervals with digits <= digit_cap, C(digit_cap, n) of
    order n.  C(cap, k) >= 2^k for k <= cap/2, so a k = min(n, cap - n) past
    the budget's bit length is over it uncounted.
    """
    total = 0
    for n in orders:
        if min(n, digit_cap - n) > MAX_INTERVALS.bit_length():
            total = MAX_INTERVALS + 1
        else:
            total += math.comb(digit_cap, n)
        if total > MAX_INTERVALS:
            raise ResourceLimitError(f"{what} exceeds MAX_INTERVALS = {MAX_INTERVALS} intervals")


def _check_mass_budget(n: int, digit_cap: int, what: str) -> None:
    """ResourceLimitError if capped_masses(n, digit_cap) would take more than about a second."""
    # n * cap Fraction steps, each about 30 ns per unit of cap (the denominators grow) plus 6 us
    if n * digit_cap * (digit_cap + 200) > 2**25:
        raise ResourceLimitError(f"{what} exceeds the mass budget n * cap * (cap + 200) <= 2^25")


def partition(n: int, digit_cap: int) -> Partition:
    """Order-n fundamental intervals with all digits <= digit_cap.

    Intervals come out in lexicographic prefix order and are mutually
    disjoint; the exact residual says how much of [0, 1] the cap leaves out.
    Past MAX_INTERVALS or the mass budget, ResourceLimitError comes before any work.
    """
    check_count(n, 1, "partition order")
    check_count(digit_cap, 1, "digit cap")
    check_interval_budget((n,), digit_cap, f"partition({n}, {digit_cap})")
    _check_mass_budget(n, digit_cap, f"partition({n}, {digit_cap})")
    intervals = tuple(fundamental_interval(p) for p in combinations(range(1, digit_cap + 1), n))
    return Partition(n, digit_cap, intervals, capped_masses(n, digit_cap)[1])


def locate(x, n: int) -> tuple[int, ...]:
    """First n digits of x, verified to place x inside their interval."""
    check_count(n, 1, "locate order")
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
