"""Higher-level numerics on top of the exact primitives.

Covers the Riemann sums of the error-sum function, in closed form,
variation growth over digit partitions, intermediate-value root
localization by interval branch-and-bound, certified covering-sum
diagnostics, and box-counting dimension estimation of the function's graph.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .certify import exp_enclosure, iroot, log_enclosure, pow_enclosure, refine
from .core import MAX_DEPTH, DepthOverflowError, DomainError, Rat, ResourceLimitError
from .core import as_rational, check_count, child_numerators
from .errorsum import _cylinder_extrema, esum
from .intervals import FundInterval, _check_mass_budget, _fundamental_interval
from .intervals import capped_masses, side
from .sequences import Enclosure, _brief, walk_prefixes


class DegenerateFitError(DomainError):
    """A regression input carries no usable signal."""


COVER_SCALE = 10**18  # fixed-point scale of the cover-sum root brackets
IVT_MAX_NODES = 10**6  # nodes one ivt_root call may visit; typical calls visit a handful


# ---------------------------------------------------------------------------
# Riemann integral of the error-sum function
# ---------------------------------------------------------------------------

INTEGRAL_TARGET = Fraction(-1, 8)


@dataclass(frozen=True)
class IntegralReport:
    grid: int
    estimate: Rat
    target: Rat
    deviation: Rat
    quantization: Rat


def integrate_esum(grid: int) -> IntegralReport:
    """Left-endpoint Riemann sum R(N) = (1/N) sum_{k<N} E(k/N), N = grid, exactly.

    E(0) = E(1/2) = 0.  For 0 < x < 1/2, 1 - x has the digits of x behind a
    first digit 1, so the order-1 recursion at digit 1 gives E(x) + E(1 - x)
    = -x.  The points k/N and 1 - k/N pair off to -k/N for 1 <= k <= h =
    (N - 1) // 2, and R(N) = -h(h + 1)/(2N^2): -1/8 + 1/(4N) for even N and
    -1/8 + 1/(8N^2) for odd N.  No point is evaluated or rounded, so the
    quantization is 0 and any grid costs a few big-int operations.
    """
    half = (check_count(grid, 1, "grid") - 1) // 2
    estimate = Fraction(-half * (half + 1), 2 * grid * grid)
    return IntegralReport(
        grid=grid,
        estimate=estimate,
        target=INTEGRAL_TARGET,
        deviation=estimate - INTEGRAL_TARGET,
        quantization=Fraction(0),
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
    asserted as a two-route consistency check; the mass budget comes first.
    """
    check_count(n, 1, "partition order")
    if digit_cap is None:
        return VariationReport(n, None, Fraction(n), Fraction(0))
    _check_mass_budget(n, check_count(digit_cap, 1, "digit cap"), "variation_over_partition")
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


def _qualifying_children(prefix, prod, err_num, yn, yd):
    """Digits k extending ``prefix`` whose cylinder still brackets y = yn/yd.

    ``err_num`` is the prefix's E* numerator over its digit product P =
    ``prod``; delta > 0 is how far y lies from that E* value on the side
    the children reach, ``side(n)``.  The child ranges are explicit in k: on
    side -1 they span [E - n/(Pk), E - n/(Pk) + (n+1)/(Pk(k+1))], on side +1
    their mirror image.  Bracketing y therefore needs k <= n/(P delta) with the
    quadratic (P delta)k^2 + (P delta - n)k + 1 >= 0, which holds outside
    its root interval.  In units of y's denominator q = ``yd``, pd = P delta q
    is an integer, k <= nq/pd and pd k^2 + (pd - nq)k + q >= 0; rearranged,
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
    pd = side(n) * (prod * yn - err_num * yd)
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
    """A fundamental interval narrower than width_tol that meets (a, b), its E* range holding y.

    Branch and bound keeps the intervals that meet (a, b) and whose exact
    error-sum range contains y, always refining the leftmost candidate
    first, and returns the first one narrower than width_tol.  Meeting is
    all it promises: the interval may reach past a or b, so it need not
    localize a solution of E(x) = y inside (a, b).
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
        # in units of s/prod about phi(prefix), s = side(n), child k spans [1/(k+1), 1/k]
        # and meets (a, b), there (lo/D, hi/D), iff k lo < D < (k+1) hi; leftmost first
        s, v = side(n), value_num * D
        lo, hi = (an * prod - v, bn * prod - v) if s > 0 else (v - bn * prod, v - an * prod)
        ks = _qualifying_children(prefix, prod, err_num, yn, yd)[::-s]
        return [k for k in ks if k * lo < D < (k + 1) * hi]

    nodes = walk_prefixes(children)
    next(nodes)  # the empty prefix, whose cylinder is all of [0, 1]
    for visited, node in enumerate(nodes):
        if visited == IVT_MAX_NODES:
            raise ResourceLimitError(f"ivt_root visited {IVT_MAX_NODES} nodes without a bracket")
        prefix, prod, value_num, err_num = node
        if prod * (prefix[-1] + 1) * tn > td:  # length 1/(prod (last+1)) < width_tol
            ext = _cylinder_extrema(prefix, prod, value_num, err_num)
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


def _root_steps(n: int, p: int, q: int, digit_cap: int) -> int:
    """Bit steps, as _check_mass_budget counts them, of a cover-sum digit's two roots.

    The per-d factor's root takes index 2q of a radicand of R bits, after
    dividing it by (d(d+1))^(2p) of up to D bits; the root of d^-s takes
    index q of about half as many.  iroot takes the factors 2 of the index
    by isqrt on the full radicand, then Newton's method for the odd part k
    of q, which may take about k steps on b = R / 2^(v+1) bits, 2^v the
    power of 2 in q.  Big-int products here grow about as bits^1.5.  The
    weights are fit to timings of both roots, on 2 cores at about 30 ps a
    bit step: from 1.0x to 7x the time when a digit takes over 0.1 ms
    (1001/1000 takes 15 ms, 1000/999 about 200 ms), 0.6x at 11/10 (23 us).
    Small exponents take a few us a digit, which the 6000 per step covers.
    """
    R = 2 * q * COVER_SCALE.bit_length() + p * (n * n + 1).bit_length()
    D = 2 * p * (digit_cap * (digit_cap + 1)).bit_length()
    v = (q & -q).bit_length()  # one more than the power of 2 in q
    k, b = q >> (v - 1), R >> v
    return 10 * R * math.isqrt(R) + 2 * D * math.isqrt(D) + k * b * math.isqrt(b)


def hausdorff_cover_sum(n: int, s, digit_cap: int) -> CoverSum:
    """Cover sum for the order-n box covering of the graph, exponent s >= 1.

    An order-n prefix ending in d has length 1/(P d(d+1)), P the product
    of its first n-1 digits, so the capped sum is sum_{d<=cap} e_{n-1}(d)
    * (sqrt(n^2+1) / (d(d+1)))^s, with e_j(d) the elementary symmetric sums
    of 1^-s, ..., (d-1)^-s, stepped as e_j(d+1) = e_j(d) + e_{j-1}(d) d^-s.
    Fractional powers of rationals are irrational, so each d^-s and each
    per-d factor is bracketed by a floor root r <= scale * x < r + 1 at
    scale COVER_SCALE, and e_j is carried as a floored lower and a ceiled
    upper integer; every term is positive, so the two stay a bracket.  The
    omitted prefixes contribute at most (sqrt(n^2+1) * max omitted
    length)^(s-1) times their total length, which telescopes exactly.  The
    mass budget is checked first.
    """
    check_count(n, 1, "order")
    check_count(digit_cap, n, "digit cap")  # room for an order-n prefix
    s = as_rational(s)
    if s < 1:
        raise DomainError("exponent must be >= 1")
    p, q, scale = s.numerator, s.denominator, COVER_SCALE
    _check_mass_budget(n, digit_cap, "hausdorff_cover_sum", _root_steps(n, p, q, digit_cap))
    diam_sq = n * n + 1  # diameter^2 = (n^2+1) * length^2

    # floor roots as in iroot: t^(2q) <= floor(x^(2q)) < (t+1)^(2q) for the
    # scaled term x = scale * ((n^2+1)^p / (d(d+1))^(2p))^(1/(2q)), so t <= x < t + 1
    numerator, scale_q = diam_sq**p * scale ** (2 * q), scale**q
    lo = [scale] + [0] * (n - 1)  # scale * e_j(d), j < n, floored
    hi = lo.copy()  # and ceiled
    lo_total = hi_total = 0  # x -= -y // scale adds y / scale ceiled
    for d in range(1, digit_cap + 1):
        t = iroot(numerator // (d * (d + 1)) ** (2 * p), 2 * q)
        lo_total += lo[n - 1] * t // scale
        hi_total -= -hi[n - 1] * (t + 1) // scale
        r = iroot(scale_q // d**p, q)  # r <= scale * d^-s < r + 1
        for j in range(n - 1, 0, -1):
            lo[j] += lo[j - 1] * r // scale
            hi[j] -= -hi[j - 1] * (r + 1) // scale
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
    chain_holds: bool  # a_1 < ... < a_(n+1) certified; False: a pair certified out of order

    def __repr__(self) -> str:
        # from M = 17 on, some terms of epsilon or the a_k pass str()'s digit limit;
        # the fields keep them exactly, the repr shows them by bit length
        a = ", ".join(map(repr, self.a))
        return (
            f"CoverReport(M={_brief(self.M)}, epsilon={_brief(self.epsilon)}, n={self.n!r}, "
            f"a=({a}), total_bound={self.total_bound!r}, chain_holds={self.chain_holds!r})"
        )


def lambda_cover_counts(M) -> CoverReport:
    """Per-group square counts a_k and their total for the covering proof.

    Requires M > n(M) (true once M >= 8.6 or so); smaller M breaks the
    monotonicity argument and is rejected.  All comparisons against e^M,
    log k and factorials are certified, tightened through certify.refine.
    """
    M = as_rational(M)
    if M <= 0:
        raise DomainError("M must be positive")

    def order(terms):  # e^M and the smallest n with n! >= e^M
        eM = exp_enclosure(M, terms)
        return eM, next(n for n in itertools.count(1) if math.factorial(n) >= eM.hi)

    n = refine(order, lambda r: math.factorial(r[1] - 1) <= r[0].lo, f"e^{M} against n!")[1]
    if M <= n:
        raise DomainError(
            f"M = {M} is too small: the covering argument needs M > n(M) = {n}"
        )

    def groups(terms):
        eM, a = exp_enclosure(M, terms), [Enclosure.exact(1)]
        for k in range(2, n + 2):
            base = Enclosure.exact(2 + M) + log_enclosure(k - 1, terms)
            a.append(Fraction(k - 1, math.factorial(k - 1)) * eM * base.power(k - 2))
        return eM, a

    eM, a = refine(  # decided once each adjacent pair a_k, a_(k+1) is separated, either way
        groups, lambda r: not any(map(Enclosure.overlaps, r[1], r[1][1:])), f"a_k at M={M}"
    )
    return CoverReport(
        M=M,
        epsilon=2 * eM.reciprocal().lo,
        n=n,
        a=tuple(a),
        total_bound=math.ceil(sum(enc.hi for enc in a)),
        chain_holds=all(x.hi < y.lo for x, y in zip(a, a[1:])),
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
        m = next(m for m in itertools.count(1) if math.factorial(m + 1) > P)  # m! <= P < (m+1)!
        if m * inv <= P:
            return P, m
        P = m * inv


#: Largest calibrated digit-product cap a box count walks: 2^-18 (P = 2,359,296)
#: is the finest dyadic scale under it, 2^-19 (P = 5,242,880) is refused.
BOX_MAX_PRODUCT = 2**22


def _cell_runs(ax: int, bx: int, ay: int, by: int, c: int, d: int, hi: int):
    """Cells ((ax k + bx) // (c k), (ay k + by) // (c k)) for k = d .. hi, one per run.

    For c > 0 an index floor((a k + b)/(c k)) tends monotonically to a/c: it
    falls with k when b > 0 and rises when b < 0.  Being i at k, it stays i
    up to b // (i c - a) when b > 0, and up to (-b - 1) // (a - (i+1) c) when
    b < 0; it never changes when that divisor is not positive or b = 0.  A
    run of equal cells ends where the first of its two indices changes, so
    consecutive cells yielded differ.
    """
    while d <= hi:
        cd = c * d
        ix, iy = (ax * d + bx) // cd, (ay * d + by) // cd
        yield ix, iy
        end = hi
        if bx > 0:
            if (t := ix * c - ax) > 0 and (e := bx // t) < end:
                end = e
        elif bx < 0 and (t := ax - (ix + 1) * c) > 0 and (e := (-bx - 1) // t) < end:
            end = e
        if by > 0:
            if (t := iy * c - ay) > 0 and (e := by // t) < end:
                end = e
        elif by < 0 and (t := ay - (iy + 1) * c) > 0 and (e := (-by - 1) // t) < end:
            end = e
        d = end + 1


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
    """The box counts' child rule: digit d has samples below it while prod d (d+1) <= P."""
    return lambda node: range(
        node[0][-1] + 1 if node[0] else 1, (math.isqrt(4 * (P // node[1]) + 1) - 1) // 2 + 1
    )


def _chain_counts(chain: list[Fraction], bounds: list[tuple[int, int]]) -> list[int]:
    """Box counts of scales eps_0 > ... > eps_f, each an integer multiple of the next.

    ``bounds`` holds each scale's calibrate_product_bound (P, m).

    One walk at the finest scale finds its cells, each with the index of
    the coarsest scale whose cap admits a sample in it: the samples at cap
    P are the increasing digit sequences of product <= P, and a run of
    children d..end of a node of product prod has least product prod d.
    The caps grow along the chain (calibrate_product_bound's cap is the
    least P >= ceil(1/eps) with m(P) ceil(1/eps) <= P, a set that shrinks
    as eps falls).  A coarser scale, r = eps_j / eps_(j+1) times the next,
    keys each cell by (ix // r, iy // r), since floor(x Q / r) =
    floor(floor(x Q) / r) for an integer r > 0, keeps the least index and
    drops the cells that no sample of its own reaches.
    """
    caps, (P, m) = [cap for cap, _ in bounds], bounds[-1]
    en, ed = _grid_equivalent(chain[-1], P)
    # the children's constant terms by node depth k < m; a call per node cost 2% here
    consts = [child_numerators(k, 0, 0, 0, 0)[1:] for k in range(m)]
    absent = len(chain)
    cells = {}
    get = cells.get
    for prefix, prod, value_num, err_num in walk_prefixes(_sample_parents(P)):
        # child d <= P // prod samples (value_num d + x0, -(err_num d + y0)) / (prod d);
        # its cell is that over en/ed
        x0, y0 = consts[len(prefix)]
        d, hi = prefix[-1] + 1 if prefix else 1, P // prod
        ax, bx, ay, by, c = value_num * ed, x0 * ed, -err_num * ed, -y0 * ed, prod * en
        i = bisect_left(caps, prod * d)  # the coarsest scale of the first child
        t = caps[i] // prod  # the last child that scale admits, and the cell holding it
        edge = ((ax * t + bx) // (c * t), (ay * t + by) // (c * t)) if t < hi else None
        for cell in _cell_runs(ax, bx, ay, by, c, d, hi):
            if get(cell, absent) > i:
                cells[cell] = i
            # both indices are monotone in d (see _cell_runs), so a node never
            # returns to a cell: the runs after the one holding t start past t
            while cell == edge:
                i += 1
                t = caps[i] // prod
                edge = ((ax * t + bx) // (c * t), (ay * t + by) // (c * t)) if t < hi else None
    counts = [len(cells)]
    for j in range(len(chain) - 2, -1, -1):
        r = (chain[j] / chain[j + 1]).numerator
        coarser = {}
        get = coarser.get
        while cells:  # popped, so that each finer cell is freed as the coarser one is made
            (ix, iy), i = cells.popitem()
            if i <= j and get(cell := (ix // r, iy // r), absent) > i:
                coarser[cell] = i
        cells = coarser
        counts.append(len(cells))
    return counts[::-1]


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
    P // prod <= m <= its last digit, and no child.  A node's children
    d <= P // prod cost one step per run of equal cells (see _cell_runs).
    This is box_count_sweep on the one scale: a chain of length one.  A
    scale whose P exceeds BOX_MAX_PRODUCT raises ResourceLimitError before
    the walk.
    """
    return box_count_sweep([epsilon])[0][1]


def box_count_sweep(epsilons) -> list[tuple[Rat, int]]:
    """Box counts over a strictly decreasing scale sweep, one walk per chain.

    The scales split into maximal chains in which each is an integer
    multiple r of the next; every dyadic sweep is one chain.  A chain is
    walked once, at its finest scale, and each coarser count comes from
    the next finer scale's cells (see _chain_counts).  This is exact: the
    grids nest, floor(x Q / r) = floor(floor(x Q) / r) for an integer
    r > 0 and either sign of x, and so do the samples, since a coarser
    scale's cap is smaller and its samples are those of product within it.
    Over 2^-6..2^-14 the one walk at 2^-14 takes 97,245 runs to find its
    60,056 cells, and the eight coarser counts take one dictionary step per
    finer cell, 115,144 in all, where a walk per scale took 188,455 runs.
    """
    eps = [as_rational(e) for e in epsilons]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise DomainError("scales must be strictly decreasing")
    if not eps:
        return []
    bounds = [calibrate_product_bound(e) for e in eps]
    if (P := bounds[-1][0]) > BOX_MAX_PRODUCT:  # the finest scale has the largest cap
        raise ResourceLimitError(
            f"scale {eps[-1]} calibrates product cap {P}, above BOX_MAX_PRODUCT = {BOX_MAX_PRODUCT}"
        )
    counts, start = [], 0
    for j in range(1, len(eps) + 1):
        if j == len(eps) or (eps[j - 1] / eps[j]).denominator != 1:
            counts += _chain_counts(eps[start:j], bounds[start:j])
            start = j
    return list(zip(eps, counts))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log 1/eps, log N_eps)."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def dimension_slope(points) -> SlopeFit:
    """Fit log(count) on log(1/eps) exactly, rounded once; the slope estimates the dimension."""
    pts = [(as_rational(e), check_count(c, 1, "count")) for e, c in points]
    if any(e <= 0 for e, _ in pts):
        raise DomainError("scales must be positive: log(1/eps) needs eps > 0")
    if len(pts) < 3:
        raise DegenerateFitError("need at least 3 scales for a slope")
    if any(e2 >= e1 for (e1, _), (e2, _) in zip(pts, pts[1:])):
        raise DegenerateFitError("scales must be strictly decreasing")
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
        """Certified count <= bound: ``bound`` was refined until count is outside (lo, hi]."""
        return self.count <= self.bound.lo


#: Largest p * m count_bounded_products accepts, checked before any work.
COUNT_MAX_PM = 10**8
#: Largest bit size of the bound p (2 + log p)^(m-1) that count_bounded_products
#: accepts.  Scaled by 10^12 when rounded, it stays under str()'s default 4300
#: digits (14,284 bits), so the CLI can print it.
COUNT_MAX_BOUND_BITS = 14_000


def _tuples_above_one(p: int, m: int):
    """f_k(p) for k = 1 .. min(m, log2 p): ordered k-tuples of digits >= 2, product <= p.

    f_k(c) = sum_{d >= 2} f_(k-1)(c // d), stepped over the states c = p // j
    one run of equal quotients c // d at a time.  f_1(c) = c - 1, and
    f_(k-1)(q) = 0 below q = 2^(k-1), so level k runs d up to c // 2^(k-1)
    and only over the states c >= 2^k.
    """
    states, c = [], p  # p // j for every j, decreasing
    while c:
        states.append(c)
        c = p // (p // c + 1)
    f = {c: c - 1 for c in states}
    yield f[p]
    for k in range(2, min(m, p.bit_length() - 1) + 1):
        low = 1 << (k - 1)
        g = {}
        for c in states:
            if c < 2 * low:
                break
            total, d, top = 0, 2, c // low
            while d <= top:
                q = c // d
                e = c // q
                total += (e - d + 1) * f[q]
                d = e + 1
            g[c] = total
        f = g
        yield f[p]


def _increasing_tuples(c: int, k: int, lo: int = 0) -> int:
    """g(k, c, lo): strictly increasing k-tuples of digits above lo with product <= c.

    g(1, c, lo) = max(0, c - lo).  A pair d < e has e from d + 1 to c // d,
    so g(2, c, lo) = sum (c // d - d) over lo < d with d (d+1) <= c.  There
    c / d - c / (d+1) >= 1, so each run of equal quotients c // d is one d
    long, and the quotients are summed in one pass.  Above, g(k, c, lo) =
    sum_d g(k-1, c // d, d) while d (d+1) ... (d+k-1) <= c; the recursion is
    k deep.
    """
    if k == 1:
        return max(0, c - lo)
    if k == 2:
        top = (math.isqrt(4 * c + 1) - 1) // 2
        if top <= lo:
            return 0
        quotients = sum(map(c.__floordiv__, range(lo + 1, top + 1)))
        return quotients - (top * (top + 1) - lo * (lo + 1)) // 2  # minus the sum of d
    total, d = 0, lo + 1
    while math.prod(range(d, d + k)) <= c:
        total += _increasing_tuples(c // d, k - 1, d)
        d += 1
    return total


def count_bounded_products(p: int, m: int, increasing: bool = False) -> CountReport:
    """Exhaustive sequence counts against their analytic bounds.

    ``increasing=False`` counts all sequences of length 1..m with digit
    product at most p (bound p(2+log p)^(m-1)); ``increasing=True`` counts
    strictly increasing sequences of length exactly m (same bound over m!).

    A sequence is its k digits above 1 placed among ones, so with f_k(p)
    the ordered k-tuples of digits >= 2 of product <= p (see
    _tuples_above_one), and sum_{L <= m} C(L, k) = C(m + 1, k + 1), the
    first count is m + sum_{k >= 1} f_k(p) C(m + 1, k + 1).  The second is
    _increasing_tuples(p, m), 0 when m! > p: m increasing digits have product
    at least m!, so its recursion goes no deeper than the m with
    m * m! <= p * m <= COUNT_MAX_PM, m <= 10.  The fixed caps COUNT_MAX_PM
    and COUNT_MAX_BOUND_BITS are checked before any work.
    """
    check_count(p, 1, "product cap p")
    check_count(m, 1, "length m")
    if p * m > COUNT_MAX_PM:
        raise ResourceLimitError(f"p*m = {p * m} exceeds COUNT_MAX_PM = {COUNT_MAX_PM}")
    # p < 2^bit_length(p) and 2 + log p < 2 + bit_length(p) < 2^bit_length(that), so
    # the bound is below 2^bits
    bits = p.bit_length() + (m - 1) * (p.bit_length() + 2).bit_length()
    if bits > COUNT_MAX_BOUND_BITS:
        raise ResourceLimitError(
            f"the bound at p={p}, m={m} may take {bits} bits, "
            f"above COUNT_MAX_BOUND_BITS = {COUNT_MAX_BOUND_BITS}"
        )

    fact = math.factorial(m) if increasing else 1
    if increasing:
        count = _increasing_tuples(p, m)
    else:
        count = m + sum(
            f * math.comb(m + 1, k + 1) for k, f in enumerate(_tuples_above_one(p, m), 1)
        )

    factor = Fraction(p, fact)
    # 2 + log p widened to multiples of 10^-30 before the power, which would
    # otherwise carry the log series' exact terms
    bound = refine(
        lambda t: (
            factor * (2 + log_enclosure(p, t)).round_outward(10**30).power(m - 1)
        ).round_outward(),
        lambda b: not b.lo < count <= b.hi,  # count certified at or below, or above, the bound
        f"count {count} against its bound",
    )
    return CountReport(p, m, increasing, count, bound)


def factorial_bounds_check(n: int) -> bool:
    """Certify n^n / e^(n-1) <= n! <= n^(n+1) / e^(n-1) in exact arithmetic.

    With e in [a/b, c/d], n! e^(n-1) lies in [n! a^(n-1)/b^(n-1), n! c^(n-1)/d^(n-1)],
    so each side is decided by cross-multiplying ints.
    """
    fact = math.factorial(check_count(n, 1, "n"))
    lower, upper = n**n, n ** (n + 1)

    def verdict(terms):  # both sides certified true, or one certified false; else None
        e = exp_enclosure(1, terms)
        a, b = e.lo.numerator ** (n - 1), e.lo.denominator ** (n - 1)
        c, d = e.hi.numerator ** (n - 1), e.hi.denominator ** (n - 1)
        if lower * d > fact * c or fact * a > upper * b:
            return False
        return True if lower * b <= fact * a and fact * c <= upper * d else None

    return refine(verdict, lambda v: v is not None, f"the factorial bounds at n={n}")
