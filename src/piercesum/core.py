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
from fractions import Fraction
from typing import Iterator

Rat = Fraction

#: The infinite digit (one-point compactification of the positive integers).
INF = math.inf

#: A digit: positive int, or INF once an expansion has terminated.
ExtDigit = int | float

#: Most digits an expansion, a prefix or a truncation may have.  Rational
#: expansions are always finite, but their length is only bounded by the
#: numerator; fail loudly instead of looping on absurd inputs.
MAX_DEPTH = 10_000


class DomainError(ValueError):
    """Input outside an operation's domain (e.g. x not in [0, 1])."""


class DepthOverflowError(RuntimeError):
    """An expansion or truncation depth exceeded its configured cap."""


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
    if n < 0:
        raise DomainError("iteration count must be >= 0")
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
    """
    x = _check_unit(as_rational(x))
    digits = []
    p, q = x.numerator, x.denominator
    while p:
        if len(digits) >= MAX_DEPTH:
            raise DepthOverflowError(f"expansion exceeds {MAX_DEPTH} digits")
        d, p = divmod(q, p)
        digits.append(d)
    return tuple(digits)


def convergent(x, n: int) -> Rat:
    """n-th partial sum of the Pierce expansion of x; INF digits contribute 0."""
    if n < 1:
        raise DomainError("convergent order must be >= 1")
    digits = expand(x)
    return evaluate_digits(digits[:n])


def child_numerators(k, prod, value_num, err_num, d) -> tuple[int, int, int]:
    """digit_numerators of a k-digit prefix with d appended; d = 0 gives the constant terms."""
    s = -1 if k % 2 else 1
    return prod * d, value_num * d + s, err_num * d + s * k


def digit_numerators(digits) -> tuple[int, int, int]:
    """The digit product and the phi and E* numerators over it, as a triple.

    The fold of child_numerators, inlined: a call per digit made it about
    1.7 times slower on 10.7-digit tuples.
    """
    prod, value_num, err_num, step = 1, 0, 0, 1
    for k, d in enumerate(digits):
        prod *= d
        value_num = value_num * d + step
        err_num = err_num * d + step * k
        step = -step
    return prod, value_num, err_num


def evaluate_digits(digits) -> Rat:
    """Exact alternating sum sum_k (-1)^(k+1) / (d_1 ... d_k) of finite digits."""
    prod, value_num, _ = digit_numerators(digits)
    return Fraction(value_num, prod)


def estar_digits(digits) -> Rat:
    """Exact closed-form error sum of a finite digit tuple."""
    prod, _, err_num = digit_numerators(digits)
    return Fraction(err_num, prod)


@dataclass(frozen=True)
class DigitStream:
    """The arithmetic rule d_n = a*n + b for the digits at positions 1, 2, 3, ...

    Streams stand in for infinite Pierce sequences, so equality is equality
    of the defining rule.  Needs a >= 1 and a + b >= 1 so that d_n >= n holds.
    """

    a: int
    b: int = 0

    def __post_init__(self):
        if self.a < 1 or self.a + self.b < 1:
            raise DomainError(f"arithmetic rule d_n = {self.a}n + {self.b} violates d_n >= n")

    def digit(self, n: int) -> int:
        """Digit at 1-based position n."""
        if n < 1:
            raise DomainError("digit positions are 1-based")
        return self.a * n + self.b

    def digits(self, count: int) -> Iterator[int]:
        for n in range(1, count + 1):
            yield self.digit(n)


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
