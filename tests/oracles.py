"""Slow oracles that the library's fast paths are checked against.

Each oracle takes the definitional route to a value that the library
computes a faster way: the digit kernels without their memos, and the
point queries in ``Fraction`` arithmetic instead of integer numerators.
``criterion_2_rationals`` draws the points they are most often run on.

The point-query oracles write the parity flip of the geometry out as
``n % 2`` themselves and do not import ``intervals.side``, the library's
one rule for it, so that they stay a route independent of that rule.
"""

import math
import random
from fractions import Fraction as F

from piercesum import CylinderExtrema, FundInterval, JumpReport, PierceSeq, estar_digits
from piercesum import evaluate_digits, expand, hat_prime
from piercesum.core import child_numerators
from piercesum.intervals import interval_length


def criterion_2_rationals(count):
    # the first draws of acceptance criterion 2 (seed 20260809, den <= 10^6)
    rng = random.Random(20260809)
    out = []
    for _ in range(count):
        q = rng.randint(1, 10**6)
        out.append(F(rng.randint(0, q), q))
    return out


def expand_oracle(x):
    # Pierce digits of p/q by their definition: d = q // p, then p -> q - d p
    p, q = x.numerator, x.denominator
    digits = []
    while p:
        d = q // p
        digits.append(d)
        p = q - d * p
    return tuple(digits)


def numerators_oracle(digits):
    # digit_numerators as the fold of child_numerators, one call per digit
    node = (1, 0, 0)
    for k, d in enumerate(digits):
        node = child_numerators(k, *node, d)
    return node


def fundamental_interval_oracle(prefix):
    # phi of the prefix and of its hat; the phi(prefix) end is closed unless
    # the last two digits are consecutive (no point has those digits)
    n = len(prefix)
    value = evaluate_digits(prefix)
    hat_value = evaluate_digits(prefix[:-1] + (prefix[-1] + 1,))
    closed = n < 2 or prefix[-2] + 1 < prefix[-1]
    if n % 2 == 1:
        return FundInterval(prefix, n, hat_value, value, False, closed)
    return FundInterval(prefix, n, value, hat_value, closed, False)


def cylinder_extrema_oracle(prefix):
    # E* over the cylinder runs between its values at the prefix and at
    # hat_prime, which lie n * interval_length apart
    n = len(prefix)
    here = PierceSeq(prefix)
    there = hat_prime(here)
    at_prefix, at_hat_prime = estar_digits(prefix), estar_digits(there.prefix)
    spread = n * interval_length(prefix)
    if n % 2 == 1:
        ext = CylinderExtrema(prefix, at_prefix, at_prefix - spread)
        assert (ext.argmax, ext.argmin, ext.minimum) == (here, there, at_hat_prime)
    else:
        ext = CylinderExtrema(prefix, at_prefix + spread, at_prefix)
        assert (ext.argmax, ext.argmin, ext.maximum) == (there, here, at_hat_prime)
    return ext


def jumps_at_oracle(x):
    digits = expand(x)
    n = len(digits)
    magnitude = F(1, math.prod(digits[:-1]) * (digits[-1] - 1) * digits[-1])
    interior = estar_digits(digits)
    limit = interior - magnitude if n % 2 == 1 else interior + magnitude
    assert estar_digits(digits[:-1] + (digits[-1] - 1, digits[-1])) == limit
    return JumpReport(
        x=x,
        side="right" if n % 2 == 1 else "left",
        parity="odd" if n % 2 else "even",
        interior_value=interior,
        limit_value=limit,
        jump_magnitude=magnitude,
    )
