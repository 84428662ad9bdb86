"""Slow oracles that the library's fast paths are checked against, and their inputs.

Each oracle takes the definitional route to a value that the library
computes a faster way: the digit kernels without their memos, the point
queries in ``Fraction`` arithmetic instead of integer numerators, E* from
its defining sum instead of its closed form, the integral's Riemann sum
point by point, floored at a fixed scale, instead of in closed form, the
capped masses as elementary symmetric sums in ``Fraction`` steps instead of
integer Stirling numbers, the cover sum at s = 2 the same way instead of in
bracketed fixed point, and the right side of the paper's recursion
identity, whose callers check that it equals E(x).
The input draws that several test files share are here too, written once.

The point-query oracles write the parity flip of the geometry out as
``n % 2`` themselves and do not import ``intervals.side``, the library's
one rule for it, so that they stay a route independent of that rule;
``estar_by_definition`` does not call the closed form it checks.
"""

import math
import random
from fractions import Fraction as F

from piercesum import DEFAULT_DEPTH, CylinderExtrema, Enclosure, FundInterval, JumpReport
from piercesum import PierceSeq, constant_stream, esum, estar_digits, evaluate_digits, expand
from piercesum import hat_prime, shift_power
from piercesum.core import check_count, child_numerators
from piercesum.intervals import interval_length
from piercesum.sequences import as_sequence


def random_unit_rationals(count, seed=20260809):
    # p/q with q uniform in 1..10^6 and p uniform in 0..q; the default seed
    # draws acceptance criterion 2's points, the ones the oracles most often run on
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        q = rng.randint(1, 10**6)
        out.append(F(rng.randint(0, q), q))
    return out


def ivt_triples(seed, count):
    # (a, b, y) with E(a) < y < E(b), drawn as in acceptance criterion 10 (seed 101)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = F(rng.randint(1, 9999), 10000)
        b = a + F(rng.randint(1, 5000), 10000)
        if b >= 1:
            continue
        ea, eb = esum(a), esum(b)
        if not ea < eb:
            continue
        y = ea + F(rng.randint(1, 127), 128) * (eb - ea)
        if ea < y < eb:
            out.append((a, b, y))
    return out


def stream_seq():
    # the digits 1, 2, 3, ... of 1 - 1/e, whose error sum is 2/e - 1
    return PierceSeq.from_stream(constant_stream("one-minus-inv-e"))


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


def estar_by_definition(seq, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Error sum evaluated straight from its definition, term by term.

    Sums value - partial_sum_n with per-term enclosures; kept deliberately
    independent of the closed form in estar so the two can cross-check each
    other.
    """
    seq = as_sequence(seq)
    check_count(depth, 1, "depth")
    if seq.is_finite:
        digits = seq.finite_digits()
        value = evaluate_digits(digits)
        total = F(0)
        for n in range(1, len(digits)):
            total += value - evaluate_digits(digits[:n])
        return Enclosure.exact(total)

    digits = seq.digits(depth + 2)
    value_lo = evaluate_digits(digits[: depth + 1])
    value_hi = evaluate_digits(digits[: depth + 2])
    if value_lo > value_hi:
        value_lo, value_hi = value_hi, value_lo
    lo = hi = F(0)
    for n in range(1, depth + 1):
        partial = evaluate_digits(digits[:n])
        lo += value_lo - partial
        hi += value_hi - partial
    # remaining terms: sum_{n>depth} |value - partial_n| <= geometric-ish tail
    tail = F(depth + 3, math.prod(digits[: depth + 2]) * (depth + 2))
    return Enclosure(lo - tail, hi + tail)


def capped_masses_oracle(n, digit_cap):
    # intervals.capped_masses by its derivation: e_j the elementary symmetric sums
    # of 1, 1/2, ..., 1/(d-1) in Fractions; ending in d gives e_{n-1}/(d(d+1)), and
    # the tails past the cap telescope to sum_{j<n} e_j / (cap+1)
    e = [F(1)] + [F(0)] * (n - 1)
    covered = F(0)
    for d in range(1, digit_cap + 1):
        covered += e[n - 1] / (d * (d + 1))
        for j in range(n - 1, 0, -1):
            e[j] += e[j - 1] / d
    return covered, sum(e) / (digit_cap + 1)


def cover_sum_square_oracle(n, digit_cap):
    # hausdorff_cover_sum's capped sum at s = 2, exactly: an order-n prefix ending in d
    # has squared diameter (n^2+1) / (P d(d+1))^2, P the product of the others, and the
    # sum of 1/P^2 over the others is e_{n-1} of 1/1^2, ..., 1/(d-1)^2, stepped in Fractions
    e = [F(1)] + [F(0)] * (n - 1)
    total = F(0)
    for d in range(1, digit_cap + 1):
        total += e[n - 1] / (d * (d + 1)) ** 2
        for j in range(n - 1, 0, -1):
            e[j] += e[j - 1] / d**2
    return (n * n + 1) * total


def bounded_product_count_oracle(p, m):
    # sequences of length 1..m of positive digits with product <= p, one length at a
    # time: f(L, c) = sum_{d <= c} (1 + f(L-1, c // d)), f(0, c) = 0, over the states
    # c = p // j, one run of equal quotients c // d at a time
    def runs(c):
        d = 1
        while d <= c:
            q = c // d
            yield q, c // q - d + 1
            d = c // q + 1

    states = [q for q, _ in runs(p)]
    f = dict.fromkeys(states, 0)
    for _ in range(m):
        f = {c: sum(run * (1 + f[q]) for q, run in runs(c)) for c in states}
    return f[p]


def recursion_rhs_oracle(x, n):
    """The right side of E(x) = sum_{k<=n} (x - s_k(x)) + (-1)^n E(T^n x)/(d_1...d_n).

    Digits past the expansion length count as infinite, so s_k = x there,
    the trailing term vanishes and the identity still holds.  The partial
    sums share one running denominator: sum_{j<=k} s_j = total_k/prod_k with
    total_k = total_{k-1} d_k + value_num_k, s_k = value_num_k/prod_k.
    """
    digits = expand(x)
    head = digits[:n]
    prod, value_num, total = 1, 0, 0
    for k, d in enumerate(head):
        prod, value_num, _ = child_numerators(k, prod, value_num, 0, d)
        total = total * d + value_num
    rhs = len(head) * x - F(total, prod)
    if n <= len(digits):
        rhs += F((-1) ** n, prod) * estar_digits(expand(shift_power(x, n)))
    return rhs


def esum_floor_scaled(p: int, q: int, scale: int) -> int:
    # oracle: floor(E(p/q) * scale) for p/q in lowest terms, from the digits
    if p == 0:
        return 0
    num, den, k, r = 0, 1, 0, p
    while r:
        d, r = divmod(q, r)
        k += 1
        num = num * d + (k - 1 if k % 2 else -(k - 1))
        den *= d
    return (num * scale) // den


#: Fixed-point scale of ``grid_total_per_point``: each point value is floored
#: to a multiple of 1/GRID_SCALE, so the grid's N floors sum to an integer
#: within N of GRID_SCALE times the exact sum, without big denominators.
GRID_SCALE = 10**40


def grid_total_per_point(grid: int) -> int:
    # oracle: sum of floor(GRID_SCALE * E(k/grid)), each point expanded from scratch
    total = 0
    for k in range(grid):
        g = math.gcd(k, grid)
        total += esum_floor_scaled(k // g, grid // g, GRID_SCALE)
    return total
