"""The error-sum functions: E* on Pierce sequences and E on [0, 1].

E* sums the deviations of a sequence's value from its partial sums; the
closed form sum_n (-1)^n n / (sigma_1 ... sigma_{n+1}) makes it a finite
exact computation for finite sequences and a factorially convergent
alternating series for streams.  E is E* composed with the digit map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, Rat, as_rational, child_numerators, digit_numerators, estar_digits
from .core import evaluate_digits, expand, shift_power
from .intervals import interval_length
from .sequences import (
    DEFAULT_DEPTH,
    Enclosure,
    PierceSeq,
    _check_prefix,
    _truncation_bracket,
    as_sequence,
    is_realizable,
)


def estar(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Error sum of a Pierce sequence, exact when finite.

    Stream-backed sequences get the bracket between the truncated closed
    form and its next partial sum; its width is the truncation bound
    depth/(sigma_1 ... sigma_{depth+1}).
    """
    return _truncation_bracket(seq, depth, estar_digits)


def estar_by_definition(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Error sum evaluated straight from its definition, term by term.

    Sums value - partial_sum_n with per-term enclosures; kept deliberately
    independent of the closed form in estar so the two can cross-check each
    other.
    """
    seq = as_sequence(seq)
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if seq.is_finite:
        digits = seq.finite_digits()
        value = evaluate_digits(digits)
        total = Fraction(0)
        for n in range(1, len(digits)):
            total += value - evaluate_digits(digits[:n])
        return Enclosure.exact(total)

    digits = seq.digits(depth + 2)
    value_lo = evaluate_digits(digits[: depth + 1])
    value_hi = evaluate_digits(digits[: depth + 2])
    if value_lo > value_hi:
        value_lo, value_hi = value_hi, value_lo
    lo = hi = Fraction(0)
    for n in range(1, depth + 1):
        partial = evaluate_digits(digits[:n])
        lo += value_lo - partial
        hi += value_hi - partial
    # remaining terms: sum_{n>depth} |value - partial_n| <= geometric-ish tail
    tail = Fraction(depth + 3, math.prod(digits[: depth + 2]) * (depth + 2))
    return Enclosure(lo - tail, hi + tail)


def esum(x) -> Rat:
    """Error sum of Pierce expansions at a rational point, exact."""
    return estar_digits(expand(x))


def esum_stream(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Enclosure of E at the point a realizable sequence evaluates to."""
    seq = as_sequence(seq)
    if not is_realizable(seq):
        raise DomainError(
            f"{seq} is not realizable: no point has this digit sequence, "
            "so it does not name a value of E"
        )
    return estar(seq, depth)


def preimage_pair(x) -> tuple[PierceSeq, PierceSeq]:
    """Both sequences evaluating to a rational x in (0, 1).

    The first is the digit sequence of x; the second replaces the last
    digit d by (d-1, d) and is never realizable.
    """
    x = as_rational(x)
    if not 0 < x < 1:
        raise DomainError("interior rational required: preimages are unique at 0 and 1")
    digits = expand(x)
    twin = digits[:-1] + (digits[-1] - 1, digits[-1])
    return PierceSeq(digits), PierceSeq(twin)


@dataclass(frozen=True)
class JumpReport:
    """One-sided limits of E at a rational discontinuity.

    ``side`` names the discontinuous side: odd expansion length jumps on
    the right, even on the left.  The limit on the continuous side is the
    interior value itself.
    """

    x: Rat
    side: str
    parity: str
    interior_value: Rat
    limit_value: Rat
    jump_magnitude: Rat

    @property
    def left_limit(self) -> Rat:
        return self.limit_value if self.side == "left" else self.interior_value

    @property
    def right_limit(self) -> Rat:
        return self.limit_value if self.side == "right" else self.interior_value


def jumps_at(x) -> JumpReport:
    """Jump data of E at a rational x in (0, 1).

    The magnitude is 1/(d_1 ... d_{n-1} (d_n - 1) d_n); the discontinuous
    one-sided limit equals the error sum of the non-realizable preimage,
    which is recomputed independently here as a consistency check.
    """
    x = as_rational(x)
    if not 0 < x.numerator < x.denominator:
        raise DomainError("jump analysis is defined on rationals strictly inside (0, 1)")
    digits = expand(x)
    n, d = len(digits), digits[-1]
    prod, _, err_num = digit_numerators(digits)
    den = prod * (d - 1)  # E(x) = err_num (d - 1)/den; the limit is 1/den lower (odd n) or higher
    limit_num = err_num * (d - 1) + (-1 if n % 2 else 1)
    twin_prod, _, twin_err = digit_numerators(digits[:-1] + (d - 1, d))
    if twin_err * den != limit_num * twin_prod:
        raise AssertionError(f"jump formula and preimage error sum disagree at {x}")
    return JumpReport(
        x=x,
        side="right" if n % 2 else "left",
        parity="odd" if n % 2 else "even",
        interior_value=Fraction(err_num, prod),
        limit_value=Fraction(limit_num, den),
        jump_magnitude=Fraction(1, den),
    )


@dataclass(frozen=True)
class CylinderExtrema:
    """Exact extrema of E* over all sequences extending a prefix."""

    prefix: tuple[int, ...]
    maximum: Rat
    minimum: Rat
    argmax: PierceSeq
    argmin: PierceSeq

    @property
    def spread(self) -> Rat:
        return self.maximum - self.minimum


def cylinder_extrema(prefix) -> CylinderExtrema:
    """Max and min of E* over the cylinder of a finite prefix.

    One extremum sits at the prefix itself, the other, n/(P (d+1)) away for
    digit product P and last digit d, at the prefix with d + 1 appended;
    which is which flips with the parity of the order.
    """
    here = PierceSeq(prefix)
    if not here.prefix:
        raise DomainError("cylinder extrema need a non-empty prefix")
    return _cylinder_extrema(here, *digit_numerators(here.prefix))


def _cylinder_extrema(here: PierceSeq, prod, value_num, err_num) -> CylinderExtrema:
    """cylinder_extrema of a finite non-empty sequence and its digit_numerators."""
    n, d = len(here.prefix), here.prefix[-1]
    there = PierceSeq(here.prefix + (d + 1,))  # hat_prime(here)
    there_prod, _, there_err = child_numerators(n, prod, value_num, err_num, d + 1)
    at_prefix = Fraction(err_num, prod)
    at_there = Fraction(there_err, there_prod)
    if n % 2 == 1:
        return CylinderExtrema(here.prefix, at_prefix, at_there, here, there)
    return CylinderExtrema(here.prefix, at_there, at_prefix, there, here)


def oscillation(prefix) -> Rat:
    """Oscillation of E over the fundamental interval: n * length."""
    prefix = _check_prefix(prefix)
    if not prefix:
        raise DomainError("oscillation needs a non-empty prefix")
    return len(prefix) * interval_length(prefix)


def recursion_check(x, n: int) -> bool:
    """Verify E(x) = sum_{k<=n} (x - s_k(x)) + (-1)^n E(T^n x)/(d_1...d_n) exactly.

    Digits past the expansion length count as infinite, so s_k = x there,
    the trailing factor vanishes and the identity still holds.  The partial
    sums share one running denominator: sum_{j<=k} s_j = total_k/prod_k with
    total_k = total_{k-1} d_k + value_num_k, s_k = value_num_k/prod_k.
    """
    x = as_rational(x)
    if n < 1:
        raise DomainError("recursion depth must be >= 1")
    digits = expand(x)
    head = digits[:n]
    prod, value_num, total = 1, 0, 0
    for k, d in enumerate(head):
        prod, value_num, _ = child_numerators(k, prod, value_num, 0, d)
        total = total * d + value_num
    rhs = len(head) * x - Fraction(total, prod)
    if n <= len(digits):
        tail_value = estar_digits(expand(shift_power(x, n)))
        rhs += Fraction((-1) ** n, prod) * tail_value
    return estar_digits(digits) == rhs
