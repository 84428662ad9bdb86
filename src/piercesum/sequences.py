"""The space of Pierce sequences and its evaluation map.

A Pierce sequence is a strictly increasing run of positive integers,
either finite (padded by infinite digits) or extended forever by a digit
stream.  Evaluation of infinite sequences truncates an alternating series,
so results come back as certified rational enclosures rather than floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import (
    INF,
    MAX_DEPTH,
    DepthOverflowError,
    DigitStream,
    DomainError,
    Rat,
    as_rational,
    check_count,
    check_prefix,
    child_numerators,
    evaluate_digits,
)

#: Default truncation depth for stream-backed sequences.  The tail bounds
#: shrink factorially, so 64 digits is far beyond any practical tolerance
#: while staying cheap.
DEFAULT_DEPTH = 64

_RATIONAL = (int, Fraction)  # the endpoint types of an Enclosure


@dataclass(frozen=True)
class Enclosure:
    """Exact rational interval [lo, hi] certified to contain a real value.

    Both endpoints are ints or Fractions; a float or a bool raises DomainError.
    """

    lo: Rat
    hi: Rat

    def __post_init__(self):
        if type(self.lo) not in _RATIONAL or type(self.hi) not in _RATIONAL:
            raise DomainError(f"enclosure endpoints {self.lo!r}, {self.hi!r} are not rationals")
        if self.lo is not self.hi and self.lo > self.hi:
            raise DomainError(f"enclosure endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def exact(cls, value) -> "Enclosure":
        value = as_rational(value)
        return cls(value, value)

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value) -> bool:
        if isinstance(value, Enclosure):
            return self.lo <= value.lo and value.hi <= self.hi
        return self.lo <= value <= self.hi

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # Minimal interval arithmetic, enough for combining certified bounds.

    def __add__(self, other):
        other = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        other = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, Enclosure) else Enclosure.exact(other)
        if self.lo >= 0 and other.lo >= 0:  # the extreme products, without comparing them
            return Enclosure(self.lo * other.lo, self.hi * other.hi)
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0:
            raise DomainError("reciprocal needs a strictly positive enclosure")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def round_outward(self, scale: int = 10**12) -> "Enclosure":
        """Widen to the enclosing multiples of 1/scale (tames huge denominators)."""
        check_count(scale, 1, "scale")
        lo = Fraction(math.floor(self.lo * scale), scale)
        hi = Fraction(math.ceil(self.hi * scale), scale)
        return Enclosure(lo, hi)

    def power(self, k: int) -> "Enclosure":
        if k < 0:
            return self.power(-k).reciprocal()
        check_count(k, 0, "power exponent")
        if self.lo >= 0:  # the repeated product's endpoints, without a gcd per factor
            return Enclosure(Fraction(self.lo) ** k, Fraction(self.hi) ** k)
        out = Enclosure.exact(1)
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        if self.is_exact:
            return _frac_str(self.lo)
        return f"[{_frac_str(self.lo)}, {_frac_str(self.hi)}]"


def _frac_str(q: Rat) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PierceSeq:
    """A Pierce sequence: increasing finite prefix plus an optional tail stream.

    ``tail=None`` means the sequence ends with infinite digits (the finite
    case, a rational); a tail stream continues the prefix forever (an
    irrational): its position j supplies the digit at global position
    len(prefix) + j.  Two stream-backed sequences compare equal only when
    their rules do.
    """

    prefix: tuple[int, ...] = ()
    tail: DigitStream | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", check_prefix(self.prefix))
        if self.tail is not None and self.prefix and self.tail.digit(1) <= self.prefix[-1]:
            raise DomainError(
                f"stream digit {self.tail.digit(1)} at position {len(self.prefix) + 1} "
                f"breaks monotonicity (previous digit {self.prefix[-1]})"
            )

    @classmethod
    def from_stream(cls, stream: DigitStream) -> "PierceSeq":
        return cls((), stream)

    @property
    def length(self) -> "int | None":
        """Number of finite digits, or None for stream-backed sequences."""
        return len(self.prefix) if self.tail is None else None

    @property
    def is_finite(self) -> bool:
        return self.tail is None

    def digits(self, depth: int) -> tuple[int, ...]:
        """Digits at positions 1..depth (fewer if the sequence is finite).

        The junction of prefix and stream is checked at construction, and
        the stream's rule rises by a >= 1, so stream digits need no check.
        """
        if check_count(depth, 0, "depth") > MAX_DEPTH:
            raise DepthOverflowError(f"depth {depth} exceeds cap {MAX_DEPTH}")
        if self.tail is None or depth <= len(self.prefix):
            return self.prefix[:depth]
        return self.prefix + tuple(self.tail.digits(depth - len(self.prefix)))

    def digit_at(self, n: int) -> "int | float":
        """Digit at 1-based position n, INF past the end of a finite sequence."""
        ds = self.digits(check_count(n, 1, "digit position"))
        return ds[n - 1] if len(ds) >= n else INF

    def finite_digits(self) -> tuple[int, ...]:
        if self.tail is None:
            return self.prefix  # validated in __post_init__
        raise DomainError("sequence is stream-backed; use digits(depth)")

    def __str__(self):
        if self.is_finite:
            return "(" + ", ".join(map(str, self.finite_digits())) + ")"
        head = ", ".join(map(str, self.digits(6)))
        return f"({head}, ...)"


def as_sequence(value) -> PierceSeq:
    """Coerce tuples/lists of digits or streams into a PierceSeq."""
    if isinstance(value, PierceSeq):
        return value
    if isinstance(value, DigitStream):
        return PierceSeq.from_stream(value)
    return PierceSeq(tuple(value))


def is_realizable(seq) -> bool:
    """Whether some x in [0, 1] has exactly this digit sequence.

    The only non-realizable sequences are the finite ones of length >= 2
    whose last two digits are consecutive.
    """
    seq = as_sequence(seq)
    return not seq.is_finite or _realizable_digits(seq.prefix)


def _realizable_digits(digits: tuple[int, ...]) -> bool:
    return len(digits) < 2 or digits[-2] + 1 < digits[-1]


def phi_partial(seq, n: int) -> Rat:
    """n-th partial sum of the alternating evaluation series, exact."""
    seq = as_sequence(seq)
    return evaluate_digits(seq.digits(n))


def _truncation_bracket(seq, depth: int, kernel) -> Enclosure:
    """kernel of a finite sequence exactly, else between its depth and depth+1 truncations."""
    seq = as_sequence(seq)
    check_count(depth, 1, "depth")
    if seq.tail is None:
        return Enclosure.exact(kernel(seq.prefix))
    digits = seq.digits(depth + 1)
    lo, hi = kernel(digits[:depth]), kernel(digits)
    return Enclosure(lo, hi) if lo <= hi else Enclosure(hi, lo)


def phi(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Value of a Pierce sequence under the alternating evaluation series.

    Finite sequences evaluate exactly.  Stream-backed sequences return the
    bracket between consecutive partial sums, whose width is the tail bound
    1/(sigma_1 ... sigma_{depth+1}).
    """
    return _truncation_bracket(seq, depth, evaluate_digits)


def truncate(seq, n: int) -> PierceSeq:
    """Finite sequence keeping the first n digits (fewer if the input ends).

    The result can be non-realizable even when the input is realizable.
    """
    check_count(n, 1, "truncation order")
    return PierceSeq(as_sequence(seq).digits(n))


def hat(seq) -> PierceSeq:
    """Same finite sequence with its last digit incremented."""
    digits = check_prefix(as_sequence(seq).finite_digits(), "hat")
    return PierceSeq(digits[:-1] + (digits[-1] + 1,))


def hat_prime(seq) -> PierceSeq:
    """Finite sequence with last+1 appended; non-realizable, same value as hat."""
    digits = check_prefix(as_sequence(seq).finite_digits(), "hat_prime")
    return PierceSeq(digits + (digits[-1] + 1,))


def rho(a, b) -> Rat:
    """Digit metric: 0 when equal, else 1/a + 1/b with 1/INF = 0."""
    for d in (a, b):
        if d != INF:
            check_count(d, 1, "digit")
    if a == b:
        return Fraction(0)
    ra = Fraction(0) if a == INF else Fraction(1, a)
    rb = Fraction(0) if b == INF else Fraction(1, b)
    return ra + rb


def rho_seq(sigma, tau, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Sequence metric sum_n rho(sigma_n, tau_n)/n! as a certified enclosure.

    Exact whenever both sequences are finite (all later terms vanish), and
    exact for equal sequences.  Otherwise the tail past ``depth`` is
    enclosed by [0, 4/(depth+1)!], since rho(sigma_k, tau_k) <= 2/k.

    ``phi`` is not 1-Lipschitz for this metric: (1, 3) and (1, 99) are 32/99
    apart in value but 17/99 apart here.  If sigma and tau share a prefix of
    length s, then |phi(sigma) - phi(tau)| <= (s+1) * rho_seq(sigma, tau), and
    the factor s+1 is sharp: for (1, ..., s, s+1) against (1, ..., s, N) the
    ratio of the two distances tends to s+1 as N grows.
    """
    sigma, tau = as_sequence(sigma), as_sequence(tau)
    check_count(depth, 1, "depth")
    if sigma == tau:
        return Enclosure.exact(0)
    both_finite = sigma.is_finite and tau.is_finite
    horizon = max(sigma.length, tau.length, 1) if both_finite else depth
    ds, dt = sigma.digits(horizon), tau.digits(horizon)
    total = Fraction(0)
    fact = 1
    for n in range(1, horizon + 1):
        fact *= n
        a = ds[n - 1] if n <= len(ds) else INF
        b = dt[n - 1] if n <= len(dt) else INF
        total += rho(a, b) / fact
    if both_finite:
        return Enclosure.exact(total)
    return Enclosure(total, total + Fraction(4, fact * (horizon + 1)))


def walk_prefixes(children) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """Every strictly increasing prefix a child rule reaches, in preorder.

    Yields ``(prefix, prod, value_num, err_num)`` from the empty prefix on:
    the digit product, and phi and E* as numerators over it.
    ``children(node)`` gives the digits below a yielded node in visiting
    order.  The walk is lazy, stepping a child only when it reaches it, so
    a rule may be unbounded; the stack is explicit, so depth is not limited
    by the recursion limit.  Callers: the product-bounded trees of
    ``analysis.box_count_empirical`` and ``analysis.count_bounded_products``,
    and ``analysis.ivt_root``'s bracketing cylinders.
    """
    root = ((), 1, 0, 0)
    yield root
    stack = [(root, iter(children(root)))]
    while stack:
        (prefix, prod, value_num, err_num), digits = stack[-1]
        d = next(digits, None)
        if d is None:
            stack.pop()
            continue
        node = (prefix + (d,), *child_numerators(len(prefix), prod, value_num, err_num, d))
        yield node
        stack.append((node, iter(children(node))))
