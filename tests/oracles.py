"""Slow oracles that the library's fast paths are checked against.

Each oracle takes the definitional route to a value that the library
computes a faster way: the digit kernels without their memos, and the
point queries in ``Fraction`` arithmetic instead of integer numerators.
``criterion_2_rationals`` draws the points they are most often run on.
"""

import random
from fractions import Fraction as F

from piercesum import CylinderExtrema, FundInterval, PierceSeq, estar_digits, evaluate_digits
from piercesum import hat_prime
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
