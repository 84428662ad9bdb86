"""Higher-level numerics on top of the exact primitives.

Covers the Riemann integral of the error-sum function, variation growth
over digit partitions, intermediate-value root localization by interval
branch-and-bound, certified covering-sum diagnostics, and box-counting
dimension estimation of the function's graph.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .certify import exp_enclosure, iroot, log_enclosure, pow_enclosure
from .core import MAX_DEPTH, DepthOverflowError, DomainError, Rat, as_rational, child_numerators
from .errorsum import _cylinder_extrema, esum
from .intervals import FundInterval, _fundamental_interval, capped_masses
from .sequences import Enclosure, PierceSeq, walk_prefixes


class ResourceLimitError(RuntimeError):
    """An enumeration or refinement exceeded its configured budget."""


class DegenerateFitError(ValueError):
    """A regression input carries no usable signal."""


SERIES_TERMS = 48  # first term count of the e^x and log enclosures; retries double it
COVER_SCALE = 10**18  # fixed-point scale of the cover-sum root brackets
IVT_MAX_NODES = 10**6  # nodes one ivt_root call may visit; typical calls visit a handful


# ---------------------------------------------------------------------------
# Riemann integral of the error-sum function
# ---------------------------------------------------------------------------

#: Fixed-point scale of the grid sum.  Summing ~10^6 exact values directly
#: would blow up the common denominator, so each point value is floored to a
#: multiple of 10^-40 first; the grid average then carries a quantization
#: error below 10^-40, dozens of orders under any tolerance here.  The floors
#: come from the shift recursion on the grid: with d = N // k, r = N mod k
#: and H(k) = S*k + S*N*E(k/N), H(k) = S*k - H(r)/d.  A table holds
#: floor(H(r)) for small r, and each pair of points k, N - k is read off it
#: through the Pierce cylinder of k/N (see _grid_total).
INTEGRAL_SCALE = 10**40

INTEGRAL_TARGET = Fraction(-1, 8)

#: Largest grid integrate_esum accepts; its table grows as grid/64.
INTEGRAL_MAX_GRID = 2**26

#: Shifts r <= grid // (_DEEP_QUOTIENT + 1) are the table; any larger shift
#: has next digit grid // r at most this.
_DEEP_QUOTIENT = 63

#: Depth down to which the grid sum splits Pierce cylinders by their next
#: digit; below it each point steps its own shift chain to the table.  At
#: grid 2^21, depth 3 was faster than depths 1, 2, 4 and 5.
_CYLINDER_DEPTH = 3


def _grid_total(n: int) -> int:
    """Sum of floor(INTEGRAL_SCALE * E(k/n)) over k = 0 .. n-1.

    E(0) = E(1/2) = 0, and E(x) + E(1 - x) = -x for x < 1/2, so only pairs
    k, n - k with 2k < n add anything.  The k whose first t digits are
    d_1..d_t form a cylinder, a k-interval on which the shift r = p*k + b
    and the numerator w = u*k + v are linear, with p = (-1)^t d_1...d_t and
    p*z = S*w + H(r), z = S*n*E(k/n).  With P = |p|, m = w*sign(p) and x =
    floor(sign(p)*H(r)) from the table, the pair adds
    -(S // n)*k - ceil((e + (S*m + x) mod P*n + (S mod n)*k*P) / (P*n)),
    e the table's inexact flag: one big-integer remainder per pair, and
    the first terms sum in closed form.  Cylinders split by their next
    digit down to depth _CYLINDER_DEPTH; below it a point whose shift is
    not yet in the table steps r -> n mod r itself.
    """
    scale, stored = INTEGRAL_SCALE, n // (_DEEP_QUOTIENT + 1)
    # floor(H(r)) and ceil(H(r)) - floor(H(r)) for r <= stored; H(0) = 0
    lo, inexact = [0] * (stored + 1), bytearray(stored + 1)
    for k in range(1, stored + 1):
        d, r = divmod(n, k)
        c, f = -((-lo[r] - inexact[r]) // d), lo[r] // d
        lo[k], inexact[k] = scale * k - c, c - f
    half, g = (n - 1) // 2, scale % n
    # cylinders (k0, k1, p, b, u, v, t), walked depth first; digit d maps r to n - d*r
    cylinders, ceils = [(1, half, 1, 0, -1, 0, 0)], 0  # ceils stays a small int
    while cylinders:
        k0, k1, p, b, u, v, t = cylinders.pop()
        if t < _CYLINDER_DEPTH:
            # the next digit n // r is monotone in r, so each digit takes one k-interval;
            # the last span, digit 0 here, is the points finished from the table below
            r0, r1 = sorted((p * k0 + b, p * k1 + b))
            digits = range(n // r1, n // max(r0, stored + 1) + 1) if r1 > stored else ()
            spans = [(n // (d + 1) + 1, n // d, d) for d in digits] + [(0, stored, 0)]
            for lo_r, hi_r, d in spans:  # the k with lo_r <= p*k + b <= hi_r
                ka, kb = (lo_r, hi_r) if p > 0 else (hi_r, lo_r)
                ka, kb = max(k0, -((b - ka) // p)), min(k1, (kb - b) // p)
                if d and ka <= kb:
                    cylinders.append((ka, kb, -d * p, n - d * b, -d * (u + p), -d * (v + b), t + 1))
            k0, k1 = ka, kb
        for k in range(k0, k1 + 1):
            r, w, q = p * k + b, u * k + v, p
            while r > stored:  # only at depth _CYLINDER_DEPTH
                d = n // r
                r, w, q = n - d * r, -d * (w + r), -d * q
            e, x = inexact[r], lo[r]
            if q < 0:
                q, w, x = -q, -w, -x - e
            pn = q * n
            ceils += (e + (scale * w + x) % pn + g * q * k + pn - 1) // pn
    return -(scale // n) * (half * (half + 1) // 2) - ceils


@dataclass(frozen=True)
class IntegralReport:
    grid: int
    estimate: Rat
    target: Rat
    deviation: Rat
    quantization: Rat


def integrate_esum(grid: int) -> IntegralReport:
    """Left-endpoint Riemann sum of the error-sum function over k/grid.

    Every point value is floored exactly to a multiple of 1/INTEGRAL_SCALE,
    and the floors sum to an integer, so quantization bounds the only error.
    The points k/grid and 1 - k/grid are summed as one pair, read off a
    table of small shifts through the Pierce cylinder of k/grid with one
    big-integer remainder (see _grid_total).
    """
    if type(grid) is not int:
        raise DomainError(f"grid must be an int, got {grid!r}")
    if grid < 1:
        raise DomainError("grid must be >= 1")
    if grid > INTEGRAL_MAX_GRID:
        raise ResourceLimitError(f"grid {grid} exceeds the cap {INTEGRAL_MAX_GRID}")
    estimate = Fraction(_grid_total(grid), grid * INTEGRAL_SCALE)
    return IntegralReport(
        grid=grid,
        estimate=estimate,
        target=INTEGRAL_TARGET,
        deviation=estimate - INTEGRAL_TARGET,
        quantization=Fraction(1, INTEGRAL_SCALE),
    )


# ---------------------------------------------------------------------------
# Variation over order-n partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationReport:
    order: int
    digit_cap: "int | None"
    capped_sum: Rat
    residual_mass: Rat

    @property
    def total(self) -> Rat:
        """Capped oscillation sum plus the closed-form mass of the cutoff."""
        return self.capped_sum + self.order * self.residual_mass


def variation_over_partition(n: int, digit_cap: "int | None" = None) -> VariationReport:
    """Sum of oscillations of the error-sum function over order-n intervals.

    Uncapped, the answer is exactly n: every level of the partition carries
    unit total length, so a candidate variation bound V is already exceeded
    at order ceil(V) + 1.  With a digit cap, an interval's oscillation is n
    times its length, so the capped sum and the residual both come from the
    one digit pass of ``capped_masses``: the forward sum of child lengths
    and the telescoped tails.  They recombine to n exactly, which is
    asserted as a two-route consistency check.
    """
    if type(n) is not int or not (digit_cap is None or type(digit_cap) is int):
        raise DomainError(f"order and digit cap must be ints, got {n!r}, {digit_cap!r}")
    if n < 1:
        raise DomainError("partition order must be >= 1")
    if digit_cap is None:
        return VariationReport(n, None, Fraction(n), Fraction(0))
    if digit_cap < 1:
        raise DomainError("digit cap must be >= 1")
    covered, residual = capped_masses(n, digit_cap)
    report = VariationReport(n, digit_cap, n * covered, residual)
    if report.total != n:
        raise AssertionError(f"partition mass identity failed at order {n}, cap {digit_cap}")
    return report


# ---------------------------------------------------------------------------
# Intermediate-value root localization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootBracket:
    """A fundamental interval whose error-sum range provably contains the target."""

    interval: FundInterval
    value_min: Rat
    value_max: Rat
    target: Rat

    def __post_init__(self):
        if not self.value_min <= self.target <= self.value_max:
            raise AssertionError("bracket does not contain its target value")


def _qualifying_children(prefix, prod, err_num, y):
    """Digits k extending ``prefix`` whose cylinder still brackets y.

    ``err_num`` is the prefix's E* numerator over its digit product P =
    ``prod``; delta > 0 is how far y lies from that E* value on the side
    the children reach.  The child ranges are explicit in k: for odd order
    they span [E - n/(Pk), E - n/(Pk) + (n+1)/(Pk(k+1))], mirrored for even
    order.  Bracketing y therefore needs k <= n/(P delta) together with the
    quadratic (P delta)k^2 + (P delta - n)k + 1 >= 0, which holds outside
    its root interval.  In units of y's denominator q, pd = P delta q is an
    integer, k <= nq/pd and pd k^2 + (pd - nq)k + q >= 0; rearranged,
    (nq - k pd)(k+1) <= (n+1)q is the test each candidate k <= k_hi gets.

    The low branch (k at most the smaller root r1) holds only k <= 2.  With
    x = P delta <= n (else k_hi < 1), r1 = 2/((n - x) + sqrt(disc)), disc =
    (n - x)^2 - 4x.  Both terms of the denominator fall as x grows, so r1
    grows until disc = 0, at x = (sqrt(n+1) - 1)^2, where it equals
    1/(sqrt(n+1) - 1) <= 1 + sqrt(2) < 3.

    The high branch is [r2, nq/pd], r2 the larger root.  The roots sum to
    nq/pd - 1, so the branch has length 1 + r1 < 4 and holds only k >=
    k_hi - 3, k_hi = floor(nq/pd).  Without real roots, (n - x)^2 < 4x
    forces x > (sqrt(2) - 1)^2 and so k_hi < 1 + 2/sqrt(x) < 6.  Either
    way first .. 2 and k_hi - 3 .. k_hi hold every child: at most six.
    """
    n = len(prefix)
    yn, yd = y.numerator, y.denominator
    pd = (err_num * yd - prod * yn) if n % 2 == 1 else (prod * yn - err_num * yd)
    if pd <= 0:
        return []
    nq = n * yd
    k_hi = nq // pd
    first = prefix[-1] + 1
    return [
        k
        for k in (*range(first, min(2, k_hi) + 1), *range(max(first, 3, k_hi - 3), k_hi + 1))
        if (nq - k * pd) * (k + 1) <= nq + yd
    ]


def ivt_root(a, b, y, width_tol) -> RootBracket:
    """Localize a solution of E(x) = y inside (a, b) by branch and bound.

    Keeps fundamental intervals that meet (a, b) and whose exact error-sum
    range contains y, always refining the leftmost candidate first, until
    an interval narrower than width_tol remains.
    """
    a, b, y = as_rational(a), as_rational(b), as_rational(y)
    width_tol = as_rational(width_tol)
    if not a < b:
        raise DomainError("need a < b")
    if width_tol <= 0:
        raise DomainError("width tolerance must be positive")
    ea, eb = esum(a), esum(b)
    if not ea < y < eb:
        raise DomainError(f"need E(a) < y < E(b), got E(a)={ea}, y={y}, E(b)={eb}")

    ad, bd = a.denominator, b.denominator
    an, bn, D = a.numerator * bd, b.numerator * ad, ad * bd  # a, b = an/D, bn/D
    yn, yd, tn, td = y.numerator, y.denominator, width_tol.numerator, width_tol.denominator
    # order-1 cylinders (1/(k+1), 1/k] meet (a, b) exactly for k_min..ceil(1/a) - 1,
    # a > 0 as E(a) < y < 0; their E* ranges [-1/(k(k+1)), 0] hold y while k(k+1) <= 1/|y|
    k_min = max(1, math.floor((1 - b) / b) + 1)
    k_top = min(math.ceil(1 / a) - 1, (math.isqrt(4 * (yd // -yn) + 1) - 1) // 2)

    def children(node):
        prefix, prod, value_num, err_num = node
        n = len(prefix)
        if not n:
            return range(k_top, k_min - 1, -1)
        if n >= MAX_DEPTH:
            return ()
        # in units of 1/prod about phi(prefix), mirrored for odd n, child k's cylinder
        # spans [1/(k+1), 1/k]; it meets (a, b), moved likewise to (lo/D, hi/D), iff
        # k lo < D < (k+1) hi.  phi(child k) rises with k for odd n; leftmost first
        lo, hi = an * prod - value_num * D, bn * prod - value_num * D
        if n % 2:
            lo, hi = -hi, -lo
        ks = _qualifying_children(prefix, prod, err_num, y)[:: 1 if n % 2 else -1]
        return [k for k in ks if k * lo < D < (k + 1) * hi]

    nodes = walk_prefixes(children)
    next(nodes)  # the empty prefix, whose cylinder is all of [0, 1]
    for visited, node in enumerate(nodes):
        if visited == IVT_MAX_NODES:
            raise ResourceLimitError(f"ivt_root visited {IVT_MAX_NODES} nodes without a bracket")
        prefix, prod, value_num, err_num = node
        if prod * (prefix[-1] + 1) * tn > td:  # length 1/(prod (last+1)) < width_tol
            ext = _cylinder_extrema(PierceSeq(prefix), prod, value_num, err_num)
            return RootBracket(_fundamental_interval(*node), ext.minimum, ext.maximum, y)
    raise DepthOverflowError(f"no bracket narrower than {width_tol} found within depth {MAX_DEPTH}")


# ---------------------------------------------------------------------------
# Covering-sum diagnostic for the graph dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverSum:
    """Certified bounds on sum over order-n prefixes of (diam of graph box)^s.

    The boxes have base length(I_sigma) and height n*length(I_sigma), so
    each diameter is sqrt(n^2+1) * length.  capped_* bound the enumerated
    part; tail_bound covers everything past the digit cap.
    """

    order: int
    exponent: Rat
    digit_cap: int
    capped_lower: Rat
    capped_upper: Rat
    tail_bound: Rat
    residual_mass: Rat

    @property
    def lower(self) -> Rat:
        return self.capped_lower

    @property
    def upper(self) -> Rat:
        return self.capped_upper + self.tail_bound


def hausdorff_cover_sum(n: int, s, digit_cap: int) -> CoverSum:
    """Cover sum for the order-n box covering of the graph, exponent s >= 1.

    A term depends only on its interval length, so the prefixes are
    grouped by length through a table of subset digit products, and the
    cost grows with the number of distinct lengths.  Fractional powers of
    rationals are irrational, so each length's term is bracketed by one
    floor root at scale COVER_SCALE, and the brackets, times the length's
    multiplicity, are summed as integers.  The omitted prefixes contribute
    at most (sqrt(n^2+1) * max omitted length)^(s-1) times their total
    length, which telescopes exactly.
    """
    s = as_rational(s)
    if n < 1:
        raise DomainError("order must be >= 1")
    if s < 1:
        raise DomainError("exponent must be >= 1")
    if digit_cap < n:
        raise DomainError(f"digit cap {digit_cap} cannot host an order-{n} prefix")
    p, q, scale = s.numerator, s.denominator, COVER_SCALE
    diam_sq = n * n + 1  # diameter^2 = (n^2+1) * length^2

    # an order-n prefix ending in d has length exactly 1/L, L = prod * d(d+1)
    # with prod the product of its first n-1 digits, so terms depend on L only;
    # layers[j] counts the digit products of the j-subsets of 1..d-1; a j-subset
    # taking d still reaches n-1 digits below the cap only if j >= n - cap + d
    layers = [Counter({1: 1})] + [Counter() for _ in range(n - 1)]
    multiplicity = Counter()
    for d in range(1, digit_cap + 1):
        for prod, mult in layers[n - 1].items():
            multiplicity[prod * d * (d + 1)] += mult
        for j in range(min(n - 1, d), max(0, n - digit_cap + d - 1), -1):
            for prod, mult in layers[j - 1].items():
                layers[j][prod * d] += mult

    # each term is ((n^2+1)^p / L^(2p)) ^ (1/(2q)), scaled and bracketed by one
    # floor root r: the root of shifted+1 is r+1 if (r+1)^(2q) = shifted+1, else r
    numerator = diam_sq**p * scale ** (2 * q)
    lo_total = hi_total = 0
    for L, mult in multiplicity.items():
        shifted = numerator // L ** (2 * p)
        root = iroot(shifted, 2 * q)
        lo_total += mult * root
        hi_total += mult * (root + 2 if (root + 1) ** (2 * q) == shifted + 1 else root + 1)
    residual = capped_masses(n, digit_cap)[1]

    # every omitted interval has some digit > cap, so its length is at most
    longest_omitted = Fraction(1, math.factorial(n - 1) * (digit_cap + 1) * (digit_cap + 2))
    diam_pow = pow_enclosure(Fraction(diam_sq), s / 2, scale).hi
    omitted_factor = pow_enclosure(longest_omitted, s - 1, scale).hi
    tail = diam_pow * omitted_factor * residual
    return CoverSum(
        order=n,
        exponent=s,
        digit_cap=digit_cap,
        capped_lower=Fraction(lo_total, scale),
        capped_upper=Fraction(hi_total, scale),
        tail_bound=tail,
        residual_mass=residual,
    )


# ---------------------------------------------------------------------------
# Theoretical covering counts at scale eps = 2 e^-M
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverReport:
    """Square counts for the theoretical graph covering at eps = 2e^-M.

    Sequences are split by where their running digit product first reaches
    e^M; group k needs at most a_k squares, with a_1 = 1 for the group
    whose first digit alone exceeds e^M.
    """

    M: Rat
    epsilon: Rat  # certified rational lower bound of 2 e^-M
    n: int  # the order with (n-1)! <= e^M <= n!
    a: tuple[Enclosure, ...]
    total_bound: int
    chain_holds: bool


def lambda_cover_counts(M) -> CoverReport:
    """Per-group square counts a_k and their total for the covering proof.

    Requires M > n(M) (true once M >= 8.6 or so); smaller M breaks the
    monotonicity argument and is rejected.  All comparisons against e^M,
    log k and factorials are certified, with automatic tightening.
    """
    M = as_rational(M)
    if M <= 0:
        raise DomainError("M must be positive")

    for attempt in range(6):
        eM = exp_enclosure(M, SERIES_TERMS << attempt)
        n, fact = 1, 1  # smallest n with n! >= e^M
        while fact < eM.hi:
            n += 1
            fact *= n
        if math.factorial(n - 1) <= eM.lo:
            break
    else:
        raise ResourceLimitError(f"cannot separate e^{M} from neighboring factorials")
    if M <= n:
        raise DomainError(
            f"M = {M} is too small: the covering argument needs M > n(M) = {n}"
        )

    for attempt in range(6):
        t = SERIES_TERMS << attempt
        eM = exp_enclosure(M, t)
        a = [Enclosure.exact(1)]
        for k in range(2, n + 2):
            base = Enclosure.exact(2 + M) + log_enclosure(k - 1, t)
            a_k = Fraction(k - 1, math.factorial(k - 1)) * eM * base.power(k - 2)
            a.append(a_k)
        chain = all(a[i + 1].lo > a[i].hi for i in range(len(a) - 1))
        if chain:
            break
    total_hi = sum(enc.hi for enc in a)
    return CoverReport(
        M=M,
        epsilon=2 * eM.reciprocal().lo,
        n=n,
        a=tuple(a),
        total_bound=math.ceil(total_hi),
        chain_holds=chain,
    )


# ---------------------------------------------------------------------------
# Empirical box counting and the dimension slope
# ---------------------------------------------------------------------------


def calibrate_product_bound(epsilon) -> tuple[int, int]:
    """Digit-product cap P making graph samples eps-dense, with its depth.

    For any sequence, truncating where the product first exceeds P moves
    the graph point by at most (1/P, n/P) with n at most the largest m
    having m! <= P; so P is grown until n(P)/P <= eps.
    """
    epsilon = as_rational(epsilon)
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must be in (0, 1)")
    inv = math.ceil(1 / epsilon)
    P = inv
    while True:
        m, fact = 1, 1
        while fact * (m + 1) <= P:
            m += 1
            fact *= m
        if m * inv <= P:
            return P, m
        P = m * inv


def _run_end(a: int, b: int, c: int, i: int, hi: int) -> int:
    """Last d <= hi up to which the cell index floor((a d + b)/(c d)) stays i.

    For c > 0 the index tends monotonically to a/c: it falls with d when
    b > 0 and rises when b < 0.  Given that it is i at some d, it stays i up
    to b // (i c - a) when b > 0, and up to (-b - 1) // (a - (i+1) c) when
    b < 0; it never changes when that divisor is not positive or b = 0.
    """
    if b > 0 and i * c > a:
        return min(hi, b // (i * c - a))
    if b < 0 and a > (i + 1) * c:
        return min(hi, (-b - 1) // (a - (i + 1) * c))
    return hi


def _grid_equivalent(epsilon: Fraction, bound: int) -> tuple[int, int]:
    """Numerator and denominator of the simplest scale whose grid matches eps's.

    A sample a/b with |a| <= b <= bound changes cell, floor(a Q / b) with
    Q = 1/eps, only where Q crosses a fraction of denominator at most
    bound.  If Q's own denominator exceeds bound, its Farey neighbours of
    that order, found by a Stern-Brocot descent in continued-fraction
    steps, have none strictly between them, so their mediant (denominator
    at most 2 bound) cuts every sample where Q does.
    """
    en, ed = epsilon.numerator, epsilon.denominator  # Q = ed/en
    if en <= bound:
        return en, ed
    # p0/q0 and p1/q1 are the last two convergents of Q, both denominators <= bound
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = ed, en
    while q0 + (a := n // d) * q1 <= bound:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    # the neighbours are (p0 + k p1)/(q0 + k q1), k = (bound - q0) // q1, and
    # p1/q1; their mediant takes k + 1
    k = (bound - q0) // q1 + 1
    return q0 + k * q1, p0 + k * p1


def _sample_parents(P: int):
    """box_count_empirical's child rule: digit d has samples below it while prod d (d+1) <= P."""
    return lambda node: range(
        node[0][-1] + 1 if node[0] else 1, (math.isqrt(4 * (P // node[1]) + 1) - 1) // 2 + 1
    )


def box_count_empirical(epsilon) -> int:
    """Occupied eps-grid squares over samples of the reflected graph.

    Samples (value, -error sum) for every finite sequence with digit
    product below the calibrated cap, so that unsampled points sit within
    one grid cell of a sample.  The set counted is {(x, -E(x))}, the graph
    reflected in the x-axis: an isometric copy with the same box-counting
    dimension, though its counts differ slightly from those of the graph
    itself.  Deterministic for fixed inputs.

    Every sample is a/b with |a| <= b <= P, so its cell index floor(a/(b
    eps)) moves only where 1/eps crosses a fraction of denominator at most
    P.  The walk therefore runs at the simplest scale that no such fraction
    separates from eps (see _grid_equivalent): the same cells, on integers
    of about log2(P) bits whatever the size of eps's own.

    The cap P alone ends the walk: k increasing digits have product at
    least k!, so a node at the calibrated depth m, m! <= P < (m+1)!, has
    P // prod <= m <= its last digit, and no child.
    """
    epsilon = as_rational(epsilon)
    P, m = calibrate_product_bound(epsilon)
    en, ed = _grid_equivalent(epsilon, P)
    # the children's constant terms by node depth k < m; a call per node cost 2% here
    consts = [child_numerators(k, 0, 0, 0, 0)[1:] for k in range(m)]
    cells = set()
    for prefix, prod, value_num, err_num in walk_prefixes(_sample_parents(P)):
        # child d <= hi = P // prod has cell ((ax d + bx) // (c d), (ay d + by) // (c d));
        # both indices are monotone in d, so each run of equal cells is one step
        x0, y0 = consts[len(prefix)]
        c = prod * en
        ax, bx = value_num * ed, x0 * ed
        ay, by = -err_num * ed, -y0 * ed
        d, hi = prefix[-1] + 1 if prefix else 1, P // prod
        while d <= hi:
            ix, iy = (ax * d + bx) // (c * d), (ay * d + by) // (c * d)
            cells.add((ix, iy))
            d = min(_run_end(ax, bx, c, ix, hi), _run_end(ay, by, c, iy, hi)) + 1
    return len(cells)


def box_count_sweep(epsilons) -> list[tuple[Rat, int]]:
    """Box counts over a strictly decreasing scale sweep."""
    eps = [as_rational(e) for e in epsilons]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise DomainError("scales must be strictly decreasing")
    return [(e, box_count_empirical(e)) for e in eps]


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log 1/eps, log N_eps)."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def dimension_slope(points) -> SlopeFit:
    """Fit log(count) on log(1/eps) exactly, rounded once; the slope estimates the dimension."""
    pts = [(as_rational(e), c) for e, c in points]
    if any(type(c) is not int for _, c in pts):
        raise DomainError(f"counts must be ints, got {[c for _, c in pts]}")
    if len(pts) < 3:
        raise DegenerateFitError("need at least 3 scales for a slope")
    if any(e2 >= e1 for (e1, _), (e2, _) in zip(pts, pts[1:])):
        raise DegenerateFitError("scales must be strictly decreasing")
    if any(c < 1 for _, c in pts):
        raise DegenerateFitError("counts must be positive")
    if len({c for _, c in pts}) == 1:
        raise DegenerateFitError("all counts equal: no scaling signal to fit")
    # math.log(e) goes through float(e), which underflows to 0.0 below about 2^-1074
    xs = [
        -math.log(e) if float(e) else math.log(e.denominator) - math.log(e.numerator)
        for e, _ in pts
    ]
    ys = [math.log(c) for _, c in pts]
    if len(set(xs)) == 1:
        raise DegenerateFitError("scales too close to tell apart in floating point")
    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(X) / len(X), sum(Y) / len(Y)
    slope = sum((x - mx) * (y - my) for x, y in zip(X, Y)) / sum((x - mx) ** 2 for x in X)
    return SlopeFit(tuple(zip(xs, ys)), float(slope), float(my - slope * mx))


# ---------------------------------------------------------------------------
# Counting sequences with bounded digit products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    product_cap: int
    max_length: int
    increasing: bool
    count: int
    bound: Enclosure  # certified enclosure of the analytic bound

    def within_bound(self) -> bool:
        """Strictly safe comparison: count below the bound's lower end."""
        return self.count <= self.bound.lo


def count_bounded_products(
    p: int, m: int, increasing: bool = False, budget: int = 10**8
) -> CountReport:
    """Exhaustive sequence counts against their analytic bounds.

    ``increasing=False`` counts all sequences of length 1..m with digit
    product at most p (bound p(2+log p)^(m-1)); ``increasing=True`` counts
    strictly increasing sequences of length exactly m (same bound over m!).
    """
    if type(p) is not int or type(m) is not int:
        raise DomainError(f"p and m must be ints, got {p!r}, {m!r}")
    if p < 1 or m < 1:
        raise DomainError("need p >= 1 and m >= 1")
    if p * m > budget:
        raise ResourceLimitError(f"p*m = {p * m} exceeds budget {budget}")

    if increasing:
        # a k-digit prefix, k < m - 1, descends into child d while its cheapest completion
        # d (d+1) ... (d+m-k-1) stays within p; an (m-1)-digit node counts p // prod - last
        def children(node):
            prefix, prod, _, _ = node
            k, d = len(prefix), prefix[-1] if prefix else 0
            while k < m - 1 and prod * math.prod(range(d + 1, d + 1 + m - k)) <= p:
                d += 1
            return range(prefix[-1] + 1 if prefix else 1, d + 1)

        count = sum(
            p // prod - (prefix[-1] if prefix else 0)
            for prefix, prod, _, _ in walk_prefixes(children)
            if len(prefix) == m - 1
        )
    else:
        # f(L, c) = sum_{d <= c} (1 + f(L-1, c // d)), f(0, c) = 0, over the
        # states c = p // j, one length at a time and one run of equal
        # quotients c // d at a time
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
        count = f[p]

    bound = p * (Enclosure.exact(2) + log_enclosure(p, SERIES_TERMS)).power(m - 1)
    if increasing:
        bound = bound * Fraction(1, math.factorial(m))
    return CountReport(p, m, increasing, count, bound.round_outward())


def factorial_bounds_check(n: int) -> bool:
    """Certify n^n / e^(n-1) <= n! <= n^(n+1) / e^(n-1) in exact arithmetic."""
    if n < 1:
        raise DomainError("n must be >= 1")
    fact = math.factorial(n)
    lower, upper = n**n, n ** (n + 1)
    for attempt in range(6):
        e_pow = exp_enclosure(1, SERIES_TERMS << attempt).power(n - 1)
        lower_ok = lower <= fact * e_pow.lo
        lower_bad = lower > fact * e_pow.hi
        upper_ok = fact * e_pow.hi <= upper
        upper_bad = fact * e_pow.lo > upper
        if lower_bad or upper_bad:
            return False
        if lower_ok and upper_ok:
            return True
    raise ResourceLimitError(f"factorial bound comparison undecided at n={n}")
