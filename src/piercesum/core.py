"""Digit machinery for Pierce expansions on the closed unit interval.

Everything here runs in exact rational arithmetic (``fractions.Fraction``)
so that the algebraic identities relating a number, its digits, and its
partial sums can be checked with equality rather than tolerances.  The
infinite digit that pads finite expansions is represented by ``math.inf``,
which orders correctly against every int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Sequence

Rat = Fraction

#: The infinite digit (one-point compactification of the positive integers).
INF = math.inf

#: Most digits an expansion, a prefix or a truncation may have.  Rational
#: expansions are always finite, but their length is only bounded by the
#: numerator; fail loudly instead of looping on absurd inputs.
MAX_DEPTH = 10_000

#: Nodes kept by the expand, digit_numerators and node_fraction memos.  A query
#: on a point takes one expansion and one fold, of its digits, and builds each
#: of that node's two values, phi and E*, once: every query reads the same Fraction.
_MEMO_SIZE = 8


class DomainError(ValueError):
    """Input outside an operation's domain (e.g. x not in [0, 1])."""


class ResourceLimitError(RuntimeError):
    """An enumeration, refinement or output would pass one of its fixed caps."""


class DepthOverflowError(ResourceLimitError):
    """An expansion or truncation depth exceeded its configured cap."""


def check_count(value, least: int, what: str) -> int:
    """value if it is an int, not a bool, and at least least; else DomainError.

    The one rule for counts, orders, depths, indices, caps and grids: a
    bool or a float would otherwise be read as 0, 1 or a slice bound.
    """
    if type(value) is not int or value < least:
        raise DomainError(f"{what} must be an int >= {least}, got {value!r}")
    return value


def check_prefix(prefix: Sequence[int], what: str | None = None) -> tuple[int, ...]:
    """prefix as a tuple if its digits are ints, not bools, strictly increasing from 1.

    The one rule for digit prefixes: more than MAX_DEPTH digits raise
    DepthOverflowError, any other fault DomainError.  Given the name of the
    operation, ``what``, the empty prefix is refused too.
    """
    prefix = tuple(prefix)
    if len(prefix) > MAX_DEPTH:
        raise DepthOverflowError(f"depth {len(prefix)} exceeds cap {MAX_DEPTH}")
    if what is not None and not prefix:
        raise DomainError(f"{what} needs a non-empty prefix")
    last = 0
    for d in prefix:
        if type(d) is not int:
            raise DomainError(f"prefix digit {d!r} is not an int")
        if d <= last:
            raise DomainError(f"prefix {prefix} is not strictly increasing from 1")
        last = d
    return prefix


def as_rational(value) -> Rat:
    """Coerce to an exact Fraction; an exact Fraction comes back as is.

    Accepts Fraction, int, or a "p/q" / "p" string.  Floats and decimal
    strings are rejected: silently expanding the nearest binary or decimal
    rational is exactly the bug this library exists to avoid.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise DomainError(f"refusing inexact input {value!r}; pass a Fraction, int, or 'p/q'")
    if isinstance(value, str):
        text = value.strip()
        parts = text.split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                return Fraction(int(parts[0]), int(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational literal {value!r}: {exc}") from None
        raise DomainError(f"cannot parse rational literal {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise DomainError(f"unsupported rational input of type {type(value).__name__}")


def _check_unit(x: Rat) -> Rat:
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"{x} is outside [0, 1]")
    return x


def digit1(x) -> "int | float":
    """First Pierce digit: floor(1/x) for x != 0, INF at 0."""
    x = _check_unit(as_rational(x))
    if x == 0:
        return INF
    return x.denominator // x.numerator


def shift(x) -> Rat:
    """One step of the Pierce shift: 1 - digit1(x) * x, with shift(0) = 0.

    For x = p/q in lowest terms this is (q mod p)/q, so iterating strictly
    decreases the numerator and terminates for every rational.
    """
    x = _check_unit(as_rational(x))
    if x == 0:
        return Fraction(0)
    return Fraction(x.denominator % x.numerator, x.denominator)


def shift_power(x, n: int) -> Rat:
    """n-th iterate of the shift map."""
    x = _check_unit(as_rational(x))
    check_count(n, 0, "iteration count")
    p, q = x.numerator, x.denominator
    for _ in range(n):
        if p == 0:
            break
        p = q % p
    return Fraction(p, q)


def expand(x) -> tuple[int, ...]:
    """Pierce digits of a rational x in [0, 1], as a (possibly empty) tuple.

    The digits are strictly increasing, satisfy d_k >= k, and when the
    expansion has length >= 2 its last two digits are never consecutive.
    Its last _MEMO_SIZE results are kept, so a point asked several ways is
    expanded once.
    """
    x = _check_unit(as_rational(x))
    # plain ints: an int-like numerator type must not reach other callers' results
    return _expand(int(x.numerator), int(x.denominator))


@lru_cache(maxsize=_MEMO_SIZE)
def _expand(p: int, q: int) -> tuple[int, ...]:
    digits = []
    while p:
        if len(digits) >= MAX_DEPTH:
            raise DepthOverflowError(f"expansion exceeds {MAX_DEPTH} digits")
        d, p = divmod(q, p)
        digits.append(d)
    return tuple(digits)


def convergent(x, n: int) -> Rat:
    """n-th partial sum of the Pierce expansion of x; INF digits contribute 0."""
    check_count(n, 1, "convergent order")
    digits = expand(x)
    return evaluate_digits(digits[:n])


def child_numerators(k, prod, value_num, err_num, d) -> tuple[int, int, int]:
    """digit_numerators of a k-digit prefix with d appended; d = 0 gives the constant terms."""
    s = -1 if k % 2 else 1
    return prod * d, value_num * d + s, err_num * d + s * k


def parent_numerators(k, prod, value_num, err_num, d) -> tuple[int, int, int]:
    """child_numerators undone: a k-digit prefix's triple from that of its child by d, exactly."""
    s = -1 if k % 2 else 1
    return prod // d, (value_num - s) // d, (err_num - s * k) // d


def digit_numerators(digits) -> tuple[int, int, int]:
    """The digit product and the phi and E* numerators over it, as a triple.

    Its last _MEMO_SIZE results are kept, keyed on the digits as a tuple, so
    a point asked several ways is folded once.  The digits must be ints: the
    fold refuses a float, Fraction or numpy digit with DomainError, so only
    ints enter the memo (an equal tuple of other digits may read their entry).
    """
    return _fold(tuple(digits))


@lru_cache(maxsize=_MEMO_SIZE)
def _fold(digits: tuple[int, ...]) -> tuple[int, int, int]:
    # the fold of child_numerators, inlined: a call per digit made it about
    # 1.7 times slower on 10.7-digit tuples
    prod, value_num, err_num, step = 1, 0, 0, 1
    for k, d in enumerate(digits):
        prod *= d
        value_num = value_num * d + step
        err_num = err_num * d + step * k
        step = -step
    if type(prod) is not int:
        raise DomainError(f"digits must be ints, got a {type(prod).__name__} product")
    return prod, value_num, err_num


@lru_cache(maxsize=2 * _MEMO_SIZE)
def node_fraction(num: int, prod: int) -> Rat:
    """num/prod of a node's digit_numerators: its phi or its E*, kept for _MEMO_SIZE nodes.

    Each value of a node is built once, and every caller that asks for it
    afterwards, folded or walk-fed, reads that same Fraction.  Pass plain ints.
    """
    return Fraction(num, prod)


def evaluate_digits(digits) -> Rat:
    """Exact alternating sum sum_k (-1)^(k+1) / (d_1 ... d_k) of finite digits."""
    prod, value_num, _ = digit_numerators(digits)
    return node_fraction(value_num, prod)


def estar_digits(digits) -> Rat:
    """Exact closed-form error sum of a finite digit tuple."""
    prod, _, err_num = digit_numerators(digits)
    return node_fraction(err_num, prod)


@dataclass(frozen=True)
class DigitStream:
    """The arithmetic rule d_n = a*n + b for the digits at positions 1, 2, 3, ...

    Streams stand in for infinite Pierce sequences, so equality is equality
    of the defining rule.  Needs a >= 1 and a + b >= 1 so that d_n >= n holds.
    """

    a: int
    b: int = 0

    def __post_init__(self):
        check_count(self.a, 1, "stream slope a")
        check_count(self.b, 1 - self.a, "stream offset b")  # so d_1 = a + b >= 1

    def digit(self, n: int) -> int:
        """Digit at 1-based position n."""
        return self.a * check_count(n, 1, "digit position") + self.b

    def digits(self, count: int) -> Iterator[int]:
        return (self.a * n + self.b for n in range(1, check_count(count, 0, "digit count") + 1))


#: Named digit streams for constants whose Pierce digits are known in
#: closed form. 1 - 1/e has digits 1, 2, 3, ... because its alternating
#: factorial series is already a Pierce expansion.
_NAMED_STREAMS = {
    "one-minus-inv-e": lambda: DigitStream(1, 0),
}


def constant_stream(name: str) -> DigitStream:
    """Digit stream of a named constant; build a DigitStream for other rules."""
    try:
        return _NAMED_STREAMS[name]()
    except KeyError:
        known = ", ".join(sorted(_NAMED_STREAMS))
        raise DomainError(f"unknown constant {name!r} (known: {known})") from None
