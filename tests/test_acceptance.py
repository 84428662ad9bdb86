"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are pinned here, not configurable.
"""

import math
import random
import time
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations

from piercesum import (
    PierceSeq,
    box_count_empirical,
    box_count_sweep,
    convergent,
    count_bounded_products,
    cylinder_extrema,
    dimension_slope,
    estar,
    estar_digits,
    esum,
    expand,
    factorial_bounds_check,
    fundamental_interval,
    hat_prime,
    hausdorff_cover_sum,
    integrate_esum,
    interval_length,
    ivt_root,
    jumps_at,
    lambda_cover_counts,
    phi,
    phi_partial,
    preimage_pair,
    rho_seq,
    shift_power,
    variation_over_partition,
)
from piercesum.certify import log_enclosure

from oracles import ivt_triples, random_unit_rationals, recursion_rhs_oracle


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_integral_reproduction():
    tolerance = F(5, 1000)
    start = time.monotonic()
    rep = integrate_esum(2**20)
    elapsed = time.monotonic() - start
    ok = abs(rep.deviation) < tolerance and elapsed < 300
    report(
        1,
        ok,
        f"integral at grid 2^20 = {float(rep.estimate):.8f}, "
        f"|deviation| = {float(abs(rep.deviation)):.2e} < 5e-3, {elapsed:.1f}s",
    )


def test_criterion_02_exact_identity_suite():
    points = random_unit_rationals(10**4)
    for x in points:
        digits = expand(x)
        # round trip through the evaluation map
        assert phi(PierceSeq(digits)).lo == x
        # two routes to E(x): closed form over digits vs the defining sum
        direct = sum((x - convergent(x, k) for k in range(1, len(digits) + 1)), F(0))
        error_sum = esum(x)
        assert error_sum == direct
        prod = 1
        for n in range(1, len(digits) + 1):
            prod *= digits[n - 1]
            # remainder identity at every depth
            assert x - convergent(x, n) == F((-1) ** n, prod) * shift_power(x, n)
            # recursion identity at every depth
            assert recursion_rhs_oracle(x, n) == error_sum
    checked = 0
    for order in (1, 2, 3):
        for prefix in combinations(range(1, 31), order):
            iv = fundamental_interval(prefix)
            assert iv.right - iv.left == interval_length(prefix)
            checked += 1
    report(
        2,
        True,
        f"exact identities on {len(points)} rationals (den <= 1e6) and "
        f"{checked} interval length formulas, all with equality",
    )


def test_criterion_03_paper_point_values():
    checks = [
        estar((1, 2)).lo == F(-1, 2),
        estar((2, 3)).lo == F(-1, 6),
        phi((2, 3)).lo == F(1, 3),
        esum(phi((2, 3)).lo) == 0,  # non-commutation witness
    ]
    iv = fundamental_interval((2,))
    checks += [
        (iv.left, iv.right) == (F(1, 3), F(1, 2)),
        not iv.left_closed and iv.right_closed,
        iv.length == F(1, 6),
    ]
    report(3, all(checks), "point values -1/2, -1/6, 1/3, 0 and (1/3, 1/2] all exact")


def test_criterion_04_bound_suite():
    # enumerate > 1e5 finite sequences by digit product and check the range
    product_cap = 25_000
    count = 0

    def rec(last, prod, num, j):
        nonlocal count
        count += 1
        value = F(num, prod)
        assert F(-1, 2) <= value <= 0
        d = last + 1
        while prod * d <= product_cap:
            j1 = j + 1
            rec(d, prod * d, num * d + (j1 - 1 if j1 % 2 else -(j1 - 1)), j1)
            d += 1

    d = 1
    while d <= product_cap:
        rec(d, d, 0, 1)
        d += 1
    assert count >= 10**5

    points = random_unit_rationals(10**4, seed=4)
    for x in points:
        assert F(-1, 2) < esum(x) <= 0

    rng = random.Random(44)
    tail_checks = 0
    for _ in range(2000):
        digits = tuple(sorted(rng.sample(range(1, 80), rng.randint(1, 6))))
        seq = PierceSeq(digits)
        value = phi(seq).lo
        for n in range(1, len(digits)):
            bound = F(1, math.prod(digits[: n + 1]))
            assert abs(value - phi_partial(seq, n)) <= bound
            tail_checks += 1

    report(
        4,
        True,
        f"-1/2 <= E* <= 0 on {count} sequences, E bounds on 1e4 rationals, "
        f"{tail_checks} evaluation tail bounds (Lipschitz part reported separately)",
    )


def test_criterion_04_lipschitz_as_stated():
    # The plain form |phi(a) - phi(b)| <= rho_seq(a, b) is false; the sharp
    # form carries the factor s+1, where s is the shared-prefix length:
    #   1. past the shared prefix both values leave their common partial sum
    #      by at most 1/(prod * next digit), so gap <= rho(next digits)/prod;
    #   2. prod >= s!, so gap <= (s+1) * rho(next)/(s+1)! <= (s+1) * rho_seq;
    #   3. the prefix (1, ..., s) has prod = s!, and a far next digit leaves
    #      rho_seq with one dominant term, so gap/rho_seq approaches s+1.
    def shared_prefix(a, b):
        return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def ratio(a, b):
        return abs(phi(a).lo - phi(b).lo) / rho_seq(a, b).lo

    violations = []
    plain_violations = 0
    max_ratio = F(0)
    rng = random.Random(20260809)
    for _ in range(10**4):
        a = tuple(sorted(rng.sample(range(1, 90), rng.randint(0, 6))))
        b = tuple(sorted(rng.sample(range(1, 90), rng.randint(0, 6))))
        if a == b:
            continue
        r = ratio(a, b)
        max_ratio = max(max_ratio, r)
        plain_violations += r > 1
        if r > shared_prefix(a, b) + 1:
            violations.append((a, b))

    # exact witness that the plain form is false; s = 1, so the sharp form holds
    a, b = (1, 3), (1, 99)
    gap, metric = abs(phi(a).lo - phi(b).lo), rho_seq(a, b).lo
    assert (gap, metric) == (F(32, 99), F(17, 99))
    assert metric < gap <= 2 * metric

    # the factor s+1 cannot be lowered: prefix (1, ..., s), then s+1 vs 10^6
    sharp = []
    for s in range(5):
        prefix = tuple(range(1, s + 1))
        r = ratio(prefix + (s + 1,), prefix + (10**6,))
        assert s + F(1, 2) < r <= s + 1
        sharp.append(r)

    report(
        4,
        not violations,
        "sharp bound |phi(a) - phi(b)| <= (s+1) * rho_seq(a, b), s = shared prefix, "
        f"on 1e4 random pairs: {len(violations)} violations, largest gap/rho_seq "
        f"{float(max_ratio):.6g}; plain form fails on {plain_violations} pairs and "
        "on (1,3)/(1,99) (32/99 > 17/99); ratios for s = 0..4: "
        + ", ".join(f"{float(r):.6g}" for r in sharp),
    )


def test_criterion_05_jump_formulas():
    points = [x for x in random_unit_rationals(1300, seed=55) if 0 < x < 1]
    assert len(points) >= 10**3
    for x in points[:1000]:
        rep = jumps_at(x)
        realizable, twin = preimage_pair(x)
        assert rep.interior_value == estar(realizable).lo
        assert rep.limit_value == estar(twin).lo
        assert rep.left_limit > rep.right_limit
    report(5, True, "jump limits equal preimage error sums on 1000 rationals, left > right")


def test_criterion_06_cylinder_extrema_brute_force():
    digit_cap, max_len = 40, 5
    prefixes = [
        p for order in (1, 2, 3) for p in combinations(range(1, 9), order)
    ]
    assert len(prefixes) == 8 + 28 + 56
    extensions = 0
    for prefix in prefixes:
        ext = cylinder_extrema(prefix)
        lo_n, lo_d = ext.minimum.numerator, ext.minimum.denominator
        hi_n, hi_d = ext.maximum.numerator, ext.maximum.denominator
        # extrema attained exactly at the prefix and its appended variant
        assert estar_digits(prefix) in (ext.minimum, ext.maximum)
        appended = hat_prime(PierceSeq(prefix)).prefix
        assert estar_digits(appended) in (ext.minimum, ext.maximum)

        num0, den0, j0 = 0, 1, 0
        for j, d in enumerate(prefix, start=1):
            num0 = num0 * d + (j - 1 if j % 2 else -(j - 1))
            den0 *= d
            j0 = j

        stack = [(prefix[-1], den0, num0, j0)]
        while stack:
            last, prod, num, j = stack.pop()
            if j > j0:
                extensions += 1
                # integer comparisons: lo <= num/prod <= hi
                assert lo_n * prod <= num * lo_d
                assert num * hi_d <= hi_n * prod
            if j >= max_len:
                continue
            j1 = j + 1
            bump = j1 - 1 if j1 % 2 else -(j1 - 1)
            for d in range(last + 1, digit_cap + 1):
                stack.append((d, prod * d, num * d + bump, j1))
    report(
        6,
        True,
        f"{extensions} extensions of {len(prefixes)} prefixes stay inside "
        "their cylinder extrema, extrema attained exactly",
    )


def test_criterion_07_variation_identity():
    values = [variation_over_partition(n).total for n in range(1, 7)]
    ok = values == [F(n) for n in range(1, 7)]
    report(7, ok, f"uncapped variation totals {[str(v) for v in values]} equal 1..6 exactly")


def _increasing_product_table(max_p, max_m):
    """Products of all strictly increasing sequences, grouped by length."""
    by_len = [[] for _ in range(max_m + 1)]

    def rec(last, prod, length):
        if length:
            by_len[length].append(prod)
        if length == max_m:
            return
        d = last + 1
        while prod * d <= max_p:
            rec(d, prod * d, length + 1)
            d += 1

    rec(0, 1, 0)
    return [sorted(v) for v in by_len]


def _any_sequence_cumulative(max_p, max_m):
    """cum[m][p] = number of sequences of length <= m with product <= p."""
    ways = [[0] * (max_p + 1) for _ in range(max_m + 1)]
    ways[1] = [0] + [1] * max_p
    for length in range(2, max_m + 1):
        prev, here = ways[length - 1], ways[length]
        for d in range(1, max_p + 1):
            for q in range(d, max_p + 1, d):
                here[q] += prev[q // d]
    cum = [[0] * (max_p + 1) for _ in range(max_m + 1)]
    for m in range(1, max_m + 1):
        running = cum[m]
        for p in range(1, max_p + 1):
            running[p] = running[p - 1] + ways[m][p]
        if m > 1:
            for p in range(max_p + 1):
                running[p] += cum[m - 1][p]
    return cum


def test_criterion_08_counting_and_factorial_bounds():
    max_p, max_m = 10**4, 6
    inc = _increasing_product_table(max_p, max_m)
    cum = _any_sequence_cumulative(max_p, max_m)

    # spot-check the tables against the public counting API
    for p, m in [(6, 2), (100, 3), (720, 6), (9973, 4)]:
        assert count_bounded_products(p, m).count == cum[m][p]
        assert count_bounded_products(p, m, increasing=True).count == bisect_right(
            inc[m], p
        )

    # at m = 1 both bounds are exactly tight: |S(p,1)| = |I(p,1)| = p
    for p in range(1, max_p + 1):
        assert cum[1][p] == p
    assert all(bisect_right(inc[1], p) == p for p in range(1, max_p + 1))

    # m >= 2: certified lower bounds of p(2+log p)^(m-1), coarsened to small
    # denominators so the per-p comparisons stay cheap
    base_lo = [None, None]
    for p in range(2, max_p + 1):
        lo = 2 + log_enclosure(p, 12).lo
        base_lo.append(F(math.floor(lo * 10**6), 10**6))
    pairs_checked = 0
    for m in range(2, max_m + 1):
        fact = math.factorial(m)
        for p in range(1, max_p + 1):
            bound_lo = p * (F(2) if p == 1 else base_lo[p]) ** (m - 1)
            assert cum[m][p] <= bound_lo, (p, m)
            assert bisect_right(inc[m], p) * fact <= bound_lo, (p, m)
            pairs_checked += 1

    factorial_ok = all(factorial_bounds_check(n) for n in range(1, 51))
    report(
        8,
        factorial_ok,
        f"counts <= certified bounds at all {pairs_checked + max_p} (p, m) pairs "
        f"with p <= 1e4, m <= 6; factorial bounds certified for n = 1..50",
    )


def test_criterion_09_box_dimension_trend():
    scales = [F(1, 2**k) for k in range(6, 17)]
    counts = box_count_sweep(scales)
    fit = dimension_slope(counts)
    slope_ok = 0.8 <= fit.slope <= 1.3

    matched, lambda_counts = [], []
    for M in (9, 10, 11):
        rep = lambda_cover_counts(M)
        empirical = box_count_empirical(rep.epsilon)
        lambda_counts.append(empirical)
        matched.append(empirical <= rep.total_bound)
    # counts at the raw certified eps; the grid-equivalent scale must not move them
    pinned = lambda_counts == [13745, 39525, 112798]

    covers = [hausdorff_cover_sum(n, F(3, 2), 20) for n in range(1, 9)]
    decreasing = all(b.upper < a.upper for a, b in zip(covers, covers[1:]))

    ok = slope_ok and all(matched) and pinned and decreasing
    report(
        9,
        ok,
        f"slope {fit.slope:.3f} in [0.8, 1.3]; empirical counts {lambda_counts} under the "
        f"theoretical bound and as pinned at M=9,10,11; cover sums at s=3/2 strictly "
        f"decrease n=1..8",
    )


def test_criterion_10_ivt_brackets():
    tol = F(1, 10**9)
    for a, b, y in ivt_triples(101, 100):
        bracket = ivt_root(a, b, y, tol)
        assert bracket.interval.length < tol
        assert bracket.value_min <= y <= bracket.value_max
        assert bracket.interval.right > a and bracket.interval.left < b
    report(10, True, "100 random IVT brackets of width < 1e-9 containing their targets")
