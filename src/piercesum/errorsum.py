"""The error-sum functions: E* on Pierce sequences and E on [0, 1].

E* sums the deviations of a sequence's value from its partial sums; the
closed form sum_n (-1)^n n / (sigma_1 ... sigma_{n+1}) makes it a finite
exact computation for finite sequences and a factorially convergent
alternating series for streams.  E is E* composed with the digit map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, Rat, as_rational, check_prefix, child_numerators, digit_numerators
from .core import estar_digits, expand, node_fraction, parent_numerators
from .intervals import interval_length, node_span, side
from .sequences import DEFAULT_DEPTH, Enclosure, PierceSeq, _truncation_bracket, as_sequence
from .sequences import is_realizable


def estar(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Error sum of a Pierce sequence, exact when finite.

    Stream-backed sequences get the bracket between the truncated closed
    form and its next partial sum; its width is the truncation bound
    depth/(sigma_1 ... sigma_{depth+1}).
    """
    return _truncation_bracket(seq, depth, estar_digits)


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
    one-sided limit equals the error sum of the non-realizable preimage.
    The digits are folded once; dividing d_n out gives the n - 1 digits x
    shares with its twin, from which child_numerators rebuilds the twin's
    error sum, cross-multiplied against the limit as a consistency check.
    """
    x = as_rational(x)
    if not 0 < x.numerator < x.denominator:
        raise DomainError("jump analysis is defined on rationals strictly inside (0, 1)")
    digits = expand(x)
    n, d = len(digits), digits[-1]
    prod, value_num, err_num = digit_numerators(digits)
    head = parent_numerators(n - 1, prod, value_num, err_num, d)  # what x shares with its twin
    den, s = prod * (d - 1), side(n)  # E(x) = err_num (d - 1)/den, the limit 1/den away on s
    limit_num = err_num * (d - 1) + s
    twin_prod, _, twin_err = child_numerators(n, *child_numerators(n - 1, *head, d - 1), d)
    if twin_err * den != limit_num * twin_prod:
        raise AssertionError(f"jump formula and preimage error sum disagree at {x}")
    return JumpReport(
        x=x,
        side="left" if s > 0 else "right",
        parity="even" if s > 0 else "odd",
        interior_value=node_fraction(err_num, prod),
        limit_value=Fraction(limit_num, den),
        jump_magnitude=Fraction(1, den),
    )


@dataclass(frozen=True)
class CylinderExtrema:
    """Exact extrema of E* over all sequences extending a prefix.

    argmax and argmin build their sequence when read, so of a MAX_DEPTH-digit
    prefix only the one at the hat-prime raises DepthOverflowError.
    """

    prefix: tuple[int, ...]
    maximum: Rat
    minimum: Rat

    @property
    def spread(self) -> Rat:
        return self.maximum - self.minimum

    @property
    def argmax(self) -> PierceSeq:
        return self._extremum(-1)

    @property
    def argmin(self) -> PierceSeq:
        return self._extremum(1)

    def _extremum(self, at_prefix_side: int) -> PierceSeq:
        p = self.prefix  # the extremum is at p if p's children lie on that side, else hat_prime(p)
        return PierceSeq(p if side(len(p)) == at_prefix_side else p + (p[-1] + 1,))


def cylinder_extrema(prefix) -> CylinderExtrema:
    """Max and min of E* over the cylinder of a finite prefix.

    One extremum sits at the prefix itself, the other, n/(P (d+1)) away for
    digit product P and last digit d, at the prefix with d + 1 appended;
    ``intervals.side`` says which is which.
    """
    prefix = check_prefix(prefix, "cylinder_extrema")
    return _cylinder_extrema(prefix, *digit_numerators(prefix))


def _cylinder_extrema(prefix: tuple[int, ...], prod, value_num, err_num) -> CylinderExtrema:
    """cylinder_extrema of a checked non-empty prefix and its digit_numerators."""
    n = len(prefix)
    there_prod, _, there_err = child_numerators(n, prod, value_num, err_num, prefix[-1] + 1)
    here, there = node_fraction(err_num, prod), Fraction(there_err, there_prod)
    low, high, _, _ = node_span(n, here, there, True)
    return CylinderExtrema(prefix, high, low)


def oscillation(prefix) -> Rat:
    """Oscillation of E over the fundamental interval: n * length."""
    prefix = check_prefix(prefix, "oscillation")
    return len(prefix) * interval_length(prefix)

