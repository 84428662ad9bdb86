import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercesum import (
    MAX_DEPTH,
    DegenerateFitError,
    DepthOverflowError,
    DomainError,
    Enclosure,
    FundInterval,
    ResourceLimitError,
    RootBracket,
    box_count_empirical,
    box_count_sweep,
    calibrate_product_bound,
    count_bounded_products,
    dimension_slope,
    estar_digits,
    esum,
    evaluate_digits,
    factorial_bounds_check,
    hat,
    hat_prime,
    hausdorff_cover_sum,
    integrate_esum,
    ivt_root,
    lambda_cover_counts,
    variation_over_partition,
)
from piercesum import analysis
from piercesum.analysis import INTEGRAL_MAX_GRID, INTEGRAL_SCALE, _grid_total
from piercesum.certify import exp_enclosure, iroot, root_enclosure


def _esum_floor_scaled(p: int, q: int, scale: int) -> int:
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


def _grid_total_per_point(grid: int) -> int:
    # oracle: expand every grid point k/grid from scratch
    total = 0
    for k in range(grid):
        g = math.gcd(k, grid)
        total += _esum_floor_scaled(k // g, grid // g, INTEGRAL_SCALE)
    return total


class TestIntegral:
    def test_degenerate_grids(self):
        assert integrate_esum(1).estimate == 0
        assert integrate_esum(2).estimate == 0  # esum(0) = esum(1/2) = 0

    def test_matches_exact_riemann_sum_on_small_grid(self):
        grid = 64
        exact = sum((esum(F(k, grid)) for k in range(grid)), F(0)) / grid
        rep = integrate_esum(grid)
        assert abs(rep.estimate - exact) <= rep.quantization

    @pytest.mark.parametrize(
        "grids",
        [
            range(1, 601),
            [4096, 5040, 65536, 65537],
            [63999, 64000, 64001, 65535],
            range(9999, 10005),
            [27720, 55440],
        ],
        ids=["small", "large", "table_edge", "leaf_cutoff", "digit_boundaries"],
    )
    def test_grid_total_matches_per_point_oracle(self, grids):
        # every small grid, powers of two, highly composite grids and primes;
        # grids 64m - 1, 64m, 64m + 1 around the table's last root m (65536
        # and 65537 complete m = 1024); 9999..10004, each residue mod 3 twice;
        # and highly composite grids with many k on a cylinder edge k =
        # grid // d, where a shift r = grid mod k is 0
        for grid in grids:
            assert _grid_total(grid) == _grid_total_per_point(grid), grid

    @given(st.integers(min_value=1, max_value=2 * 10**4))
    @settings(max_examples=30, deadline=None)
    def test_grid_total_matches_per_point_oracle_on_drawn_grids(self, grid):
        assert _grid_total(grid) == _grid_total_per_point(grid)

    def test_grid_total_pinned_on_large_grids(self):
        # too large for the per-point oracle: the prime 2^17 - 1, 3 * 2^16 and
        # the prime 262139 near 2^18, pinned from the per-root walk
        assert _grid_total(131071) == -163838749990463184075806242418231340266028167
        assert _grid_total(196608) == -245757500000000000000000000000000000000097302
        assert _grid_total(262139) == -327673749995231537466763816143343798519237191

    def test_grid_total_pinned_on_the_benchmark_grid(self):
        # estimate * grid * INTEGRAL_SCALE of the benchmark's default-seed grid
        # 1052063, from perfbench's PINNED_INTEGRALS
        assert _grid_total(1052063) == -1315078749998811858225220352773550633375142679

    def test_workers_argument_is_ignored(self):
        rep = integrate_esum(97)
        assert rep.estimate == F(_grid_total_per_point(97), 97 * INTEGRAL_SCALE)
        with pytest.raises(TypeError):
            integrate_esum(97, workers=7)

    def test_grid_cap_raises_before_any_work(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("grid sum started above the cap")

        monkeypatch.setattr(analysis, "_grid_total", refuse)
        with pytest.raises(ResourceLimitError):
            integrate_esum(INTEGRAL_MAX_GRID + 1)

    def test_convergence_track(self):
        rep = integrate_esum(2**14)
        assert abs(rep.deviation) < F(1, 10**3)

    def test_deviation_non_increasing_over_dyadic_grids(self):
        # allow a 10% noise band on top of strict monotonicity
        deviations = [abs(integrate_esum(2**k).deviation) for k in range(10, 16)]
        for a, b in zip(deviations, deviations[1:]):
            assert b <= a * F(11, 10)

    def test_scaled_kernel_agrees_with_exact_esum(self):
        rng = random.Random(11)
        scale = INTEGRAL_SCALE
        for _ in range(200):
            q = rng.randint(1, 10**6)
            p = rng.randint(0, q)
            g = math.gcd(p, q)
            value = esum(F(p, q))
            kernel = F(_esum_floor_scaled(p // g, q // g, scale), scale)
            assert 0 <= value - kernel < F(1, scale)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            integrate_esum(0)

    def test_non_integer_grid_rejected_before_any_work(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("grid sum started on a non-int grid")

        monkeypatch.setattr(analysis, "_grid_total", refuse)
        for grid in (True, 97.0, F(97)):
            with pytest.raises(DomainError):
                integrate_esum(grid)


class TestVariation:
    def test_analytic_total_is_the_order(self):
        for n in range(1, 7):
            rep = variation_over_partition(n)
            assert rep.capped_sum == n and rep.total == n

    def test_capped_example(self):
        rep = variation_over_partition(1, 3)
        assert rep.capped_sum == F(3, 4)
        assert rep.total == 1

    def test_capped_plus_residual_recovers_order(self):
        # (6, 1000) covers C(999, 5), about 8.25e12 prefixes, in one digit pass
        for n, cap in [(1, 5), (2, 7), (3, 6), (4, 9), (6, 1000)]:
            rep = variation_over_partition(n, cap)
            assert rep.capped_sum + n * rep.residual_mass == n

    def test_digit_cap_below_one_rejected(self):
        for cap in (0, -3):
            with pytest.raises(DomainError):
                variation_over_partition(2, cap)

    def test_non_integer_arguments_rejected(self):
        for n, cap in [(True, 3), (2.0, 3), (F(2), 3), (2, True), (2, 3.0), (2, F(3))]:
            with pytest.raises(DomainError):
                variation_over_partition(n, cap)

    def test_variation_exceeds_any_candidate_bound(self):
        # unbounded variation: the order-n sum is n, so any bound V fails at
        # n = ceil(V) + 1
        candidate = 4
        rep = variation_over_partition(candidate + 1)
        assert rep.total > candidate


def _interval_oracle(prefix):
    # definitional fundamental interval: phi of the prefix and of its hat,
    # the phi(prefix) end closed unless the last two digits are consecutive
    n = len(prefix)
    value, hat_value = evaluate_digits(prefix), evaluate_digits(hat(prefix).prefix)
    closed = n < 2 or prefix[-2] + 1 < prefix[-1]
    if n % 2 == 1:
        return FundInterval(prefix, n, hat_value, value, False, closed)
    return FundInterval(prefix, n, value, hat_value, closed, False)


def _extrema_oracle(prefix):
    # E* over a cylinder ranges between its values at the prefix and at hat_prime
    ends = estar_digits(prefix), estar_digits(hat_prime(prefix).prefix)
    return min(ends), max(ends)


def _qualifying_children_oracle(prefix, y):
    # the candidate window of analysis._qualifying_children, each candidate
    # checked against its own E* range
    n, prod, value = len(prefix), math.prod(prefix), estar_digits(prefix)
    delta = (value - y) if n % 2 == 1 else (y - value)
    if delta <= 0:
        return []
    pd = prod * delta
    k_hi = int(n / pd)
    first = prefix[-1] + 1
    if k_hi < first:
        return []
    alpha, beta = pd, pd - n
    disc = beta * beta - 4 * alpha
    if disc < 0:
        candidates = range(first, k_hi + 1)
    else:
        sqrt_lo = F(iroot(disc.numerator * disc.denominator, 2), disc.denominator)
        high_start = max(first, int((-beta + sqrt_lo) / (2 * alpha)))
        candidates = sorted(set(range(first, min(2, k_hi) + 1)) | set(range(high_start, k_hi + 1)))
    out = []
    for k in candidates:
        lo, hi = _extrema_oracle(prefix + (k,))
        if lo <= y <= hi:
            out.append(prefix + (k,))
    return out


def ivt_root_oracle(a, b, y, width_tol, depth_cap=MAX_DEPTH):
    # oracle: recursive leftmost-first refinement, children sorted by the
    # left end of their interval
    def intersects(iv):
        return iv.right > a and iv.left < b

    def refine(prefix, depth):
        iv = _interval_oracle(prefix)
        if iv.length < width_tol:
            return RootBracket(iv, *_extrema_oracle(prefix), y)
        if depth >= depth_cap:
            return None
        ordered = sorted(
            ((_interval_oracle(c), c) for c in _qualifying_children_oracle(prefix, y)),
            key=lambda pair: pair[0].left,
        )
        for child_iv, child in ordered:
            if not intersects(child_iv):
                continue
            found = refine(child, depth + 1)
            if found is not None:
                return found
        return None

    k_min = max(1, math.floor((1 - b) / b) + 1)
    k_max = math.ceil(F(1) / a) - 1
    for k in range(k_max, k_min - 1, -1):
        if y < F(-1, k * (k + 1)):
            continue
        prefix = (k,)
        if not intersects(_interval_oracle(prefix)):
            continue
        found = refine(prefix, 1)
        if found is not None:
            return found
    raise DepthOverflowError(f"no bracket narrower than {width_tol} within depth {depth_cap}")


def ivt_triples(seed, count):
    # (a, b, y) with E(a) < y < E(b), drawn as in acceptance criterion 10
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


class TestIvtRoot:
    def test_paper_scale_example(self):
        bracket = ivt_root(F(9, 25), F(39, 100), F(-1, 10), F(1, 10**9))
        iv = bracket.interval
        assert iv.length < F(1, 10**9)
        assert bracket.value_min <= F(-1, 10) <= bracket.value_max
        # stays inside the order-1 interval (1/3, 1/2]
        assert F(1, 3) < iv.left and iv.right <= F(1, 2)
        assert iv.sigma[0] == 2

    def test_strict_precondition(self):
        with pytest.raises(DomainError):
            ivt_root(F(0), F(1, 2), F(0), F(1, 100))  # esum(0) = 0 is not < 0
        with pytest.raises(DomainError):
            ivt_root(F(3, 8), F(1, 8), F(-1, 10), F(1, 100))  # a >= b
        with pytest.raises(DomainError):
            ivt_root(F(3, 8), F(1, 2), F(-1, 10), F(0))  # tol must be positive

    def test_near_minimum_localizes_right_of_one_half(self):
        # values just above the global minimum -1/2 only occur just right of
        # 1/2, where expansions start with (1, 2, ...); start from a point
        # deep in that regime so the precondition E(a) < y holds
        y = F(-1, 2) + F(1, 1000)
        a = F(1, 2) + F(1, 4000)  # expands as (1, 2, 2000), E(a) = -1/2 + 1/2000
        assert esum(a) == F(-1, 2) + F(1, 2000)
        bracket = ivt_root(a, F(3, 5), y, F(1, 10**6))
        iv = bracket.interval
        assert F(1, 2) <= iv.left and iv.right < F(51, 100)
        assert iv.sigma[:2] == (1, 2)

    def test_nested_refinement(self):
        brackets = [
            ivt_root(F(9, 25), F(39, 100), F(-1, 10), F(1, 10**exponent))
            for exponent in (3, 6, 9, 12)
        ]
        for bracket in brackets:
            assert bracket.value_min <= F(-1, 10) <= bracket.value_max
        for outer, inner in zip(brackets, brackets[1:]):
            assert inner.interval.length < outer.interval.length
            # leftmost-first refinement keeps descending the same branch
            assert outer.interval.left <= inner.interval.left
            assert inner.interval.right <= outer.interval.right

    @pytest.mark.parametrize("exponent", [3, 9])
    def test_brackets_match_recursive_oracle(self, exponent):
        tol = F(1, 10**exponent)
        triples = ivt_triples(101, 100) + ivt_triples("ivt-1", 300 if exponent == 3 else 1000)
        triples += [
            (F(9, 25), F(39, 100), F(-1, 10)),
            (F(1, 2) + F(1, 4000), F(3, 5), F(-1, 2) + F(1, 1000)),
        ]
        for a, b, y in triples:
            assert ivt_root(a, b, y, tol) == ivt_root_oracle(a, b, y, tol), (a, b, y)

    def test_depth_exhaustion_backtracks_then_raises(self, monkeypatch):
        args = (F(9, 25), F(39, 100), F(-1, 10), F(1, 10**9))
        for depth_cap in (6, 7):  # the bracket has 8 digits
            monkeypatch.setattr(analysis, "MAX_DEPTH", depth_cap)
            with pytest.raises(DepthOverflowError):
                ivt_root(*args)
        monkeypatch.setattr(analysis, "MAX_DEPTH", 8)
        bracket = ivt_root(*args)
        assert bracket.interval.sigma == (2, 3, 4, 7, 19, 24, 29, 34)
        assert bracket == ivt_root_oracle(*args, depth_cap=8)

    def test_tiny_tolerance_refines_past_order_64(self):
        # the one depth cap bounds the refinement: 10^-200 needs an order-90 bracket
        args = (F(9, 25), F(39, 100), F(-1, 10), F(1, 10**200))
        bracket = ivt_root(*args)
        assert bracket.interval.order == 90 and bracket.interval.length < args[-1]
        assert bracket == ivt_root_oracle(*args)

    def test_node_budget_raises(self, monkeypatch):
        # the bracket of this triple has 8 digits, so it pops more than one node
        monkeypatch.setattr(analysis, "IVT_MAX_NODES", 1)
        with pytest.raises(ResourceLimitError):
            ivt_root(F(9, 25), F(39, 100), F(-1, 10), F(1, 10**9))

    def test_far_left_window_is_visited_lazily(self):
        # a just right of 1/10^9: the order-1 window holds about 10^9 digits, and
        # its leftmost cylinder (999999999,) is already narrower than the tolerance
        a = F(1, 10**9) + F(1, 10**19)
        start = time.process_time()
        bracket = ivt_root(a, F(1, 2), esum(a) / 2, F(1, 10**9))
        assert time.process_time() - start < 0.5
        assert bracket.interval.sigma == (999999999,)
        assert bracket.interval.right > a

    def test_random_triples_small(self):
        rng = random.Random(5)
        done = 0
        while done < 15:
            a = F(rng.randint(1, 999), 1000)
            b = a + F(rng.randint(1, 200), 1000)
            if b >= 1:
                continue
            ea, eb = esum(a), esum(b)
            if not ea < eb:
                continue
            y = ea + F(rng.randint(1, 63), 64) * (eb - ea)
            if not ea < y < eb:
                continue
            bracket = ivt_root(a, b, y, F(1, 10**6))
            assert bracket.value_min <= y <= bracket.value_max
            assert bracket.interval.length < F(1, 10**6)
            assert bracket.interval.right > a and bracket.interval.left < b
            done += 1


class TestHausdorffCoverSum:
    def test_integer_exponent_matches_direct_sum(self):
        # s = 2 makes every term rational: sum (sqrt(2) * length)^2 exactly
        cover = hausdorff_cover_sum(1, 2, 100)
        direct = sum(F(2, (k * (k + 1)) ** 2) for k in range(1, 101))
        assert cover.capped_lower <= direct <= cover.capped_upper
        assert cover.upper - direct <= cover.tail_bound + F(1, 10**12)

    def test_decreases_with_order(self):
        a = hausdorff_cover_sum(1, 2, 100)
        b = hausdorff_cover_sum(2, 2, 40)
        assert b.upper < a.lower

    def test_exponent_one_reproduces_mass_identity(self):
        # at s = 1 the sum telescopes to sqrt(n^2+1) * (full mass) = sqrt(5)
        cover = hausdorff_cover_sum(2, 1, 30)
        diam = root_enclosure(5, 2)
        assert cover.capped_lower + diam.lo * cover.residual_mass <= diam.hi
        assert cover.upper >= diam.lo

    def test_fractional_exponent_trend(self):
        values = [hausdorff_cover_sum(n, F(3, 2), 20) for n in range(1, 6)]
        for a, b in zip(values, values[1:]):
            assert b.upper < a.upper
        # certified true-sum separation while the brackets stay disjoint
        for a, b in zip(values[:3], values[1:4]):
            assert b.upper < a.lower

    def test_validation(self):
        with pytest.raises(DomainError):
            hausdorff_cover_sum(1, F(1, 2), 10)
        with pytest.raises(DomainError):
            hausdorff_cover_sum(3, 2, 2)


class TestLambdaCoverCounts:
    def test_order_search_against_factorials(self):
        # integer-search oracle: n with (n-1)! <= e^M <= n!
        for M in (9, 10, 11, 13):
            rep = lambda_cover_counts(M)
            e_m = exp_enclosure(M)
            assert math.factorial(rep.n - 1) <= e_m.lo
            assert e_m.hi <= math.factorial(rep.n)

    def test_m_ten(self):
        rep = lambda_cover_counts(10)
        assert rep.n == 8  # 7! = 5040 <= e^10 ~ 22026 <= 8! = 40320
        assert rep.a[0].lo == rep.a[0].hi == 1

    def test_second_group_count_is_exp_m(self):
        rep = lambda_cover_counts(10)
        e_m = exp_enclosure(10)
        assert rep.a[1].overlaps(e_m)

    def test_chain_is_increasing(self):
        rep = lambda_cover_counts(11)
        assert rep.chain_holds
        assert len(rep.a) == rep.n + 1
        for lo_enc, hi_enc in zip(rep.a, rep.a[1:]):
            assert hi_enc.lo > lo_enc.hi

    def test_total_bound_sums_groups(self):
        rep = lambda_cover_counts(9)
        assert rep.total_bound >= sum(enc.lo for enc in rep.a)

    def test_small_m_rejected(self):
        with pytest.raises(DomainError):
            lambda_cover_counts(5)  # n(5) = 6 > 5 breaks the construction
        with pytest.raises(DomainError):
            lambda_cover_counts(0)


class TestBoxCounting:
    def test_calibration_rule(self):
        P, depth = calibrate_product_bound(F(1, 64))
        assert math.factorial(depth) <= P < math.factorial(depth + 1)
        assert depth * 64 <= P

    def test_coarse_scale_count(self):
        # by hand: products <= 4 give points (x, -E(x)) = (1,0),(1/2,0),(1/3,0),
        # (1/4,0),(1/2,1/2),(2/3,1/3),(3/4,1/4) in cells (2,0),(1,0),(0,0),(1,1)
        assert box_count_empirical(F(1, 2)) == 4

    def test_refinement_monotonicity(self):
        counts = [box_count_empirical(F(1, 2**k)) for k in range(1, 6)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_sweep_requires_decreasing(self):
        with pytest.raises(DomainError):
            box_count_sweep([F(1, 4), F(1, 4)])


class TestDimensionSlope:
    def test_exact_line(self):
        points = [(F(1, 2**k), 2**k) for k in range(3, 9)]
        fit = dimension_slope(points)
        assert abs(fit.slope - 1) < 1e-9

    def test_constant_counts_degenerate(self):
        with pytest.raises(DegenerateFitError):
            dimension_slope([(F(1, 4), 7), (F(1, 8), 7), (F(1, 16), 7)])

    def test_non_integer_counts_rejected(self):
        # int(c) would fit 3, 7 and 15 without a word
        for counts in ([3.7, 7.9, 15.2], [True, 2, 4], [F(3), 7, 15]):
            with pytest.raises(DomainError):
                dimension_slope(zip([F(1, 2), F(1, 4), F(1, 8)], counts))

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            dimension_slope([(F(1, 4), 2), (F(1, 8), 4)])

    def test_small_sweep_lands_near_one(self):
        fit = dimension_slope(box_count_sweep([F(1, 2**k) for k in range(4, 9)]))
        assert 0.7 < fit.slope < 1.4

    def test_scales_equal_as_floats_degenerate(self):
        # distinct scales whose float logs coincide leave no x spread to fit
        eps = [F(1, 2) + F(k, 10**30) for k in (3, 2, 1)]
        with pytest.raises(DegenerateFitError):
            dimension_slope(zip(eps, [2, 4, 8]))

    def test_golden_sweep_matches_exact_oracle(self):
        counts = [160, 336, 721, 1518, 3179, 6645]  # box counts at 2^-6 .. 2^-11
        points = [(F(1, 2**k), c) for k, c in zip(range(6, 12), counts)]
        fit = dimension_slope(points)
        assert (fit.slope, fit.intercept) == slope_oracle(points)
        assert (fit.slope, fit.intercept) == (1.0765956345038048, 0.6009690568105611)

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=3, max_size=9, unique=True),
        st.lists(st.integers(min_value=1, max_value=10**12), min_size=9, max_size=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_oracle(self, pows, counts):
        counts = counts[: len(pows)]
        if len(set(counts)) == 1:
            counts[0] += 1
        points = [(F(1, 2**k), c) for k, c in zip(sorted(pows), counts)]
        fit = dimension_slope(points)
        assert (fit.slope, fit.intercept) == slope_oracle(points)

    def test_scales_below_the_float_range(self):
        # 2^-1100 and 2^-1200 are 0.0 as floats; their logs come from the integers
        pows = (1000, 1100, 1200)
        fit = dimension_slope([(F(1, 2**k), c) for k, c in zip(pows, (5, 9, 20))])
        assert math.isfinite(fit.slope) and math.isfinite(fit.intercept)
        assert [x for x, _ in fit.points] == pytest.approx([k * math.log(2) for k in pows])

    def test_import_loads_no_numpy(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        code = "import piercesum, piercesum.cli, sys; assert 'numpy' not in sys.modules"
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr


def slope_oracle(points):
    """Least-squares slope and intercept of the float logs by the closed form, in Fractions."""
    xs = [F(-math.log(e)) for e, _ in points]
    ys = [F(math.log(c)) for _, c in points]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return float(slope), float((sy - slope * sx) / n)


def brute_sequences(p, m):
    """All sequences of length <= m with product <= p, by direct recursion."""
    out = []

    def rec(seq, prod):
        if seq:
            out.append(tuple(seq))
        if len(seq) == m:
            return
        for d in range(1, p + 1):
            if prod * d > p:
                break
            rec(seq + [d], prod * d)

    rec([], 1)
    return out


class TestCountBoundedProducts:
    def test_increasing_example(self):
        rep = count_bounded_products(6, 2, increasing=True)
        assert rep.count == 6
        # bound 6(2+log 6)/2 = 11.375278...
        assert F(1137, 100) < rep.bound.lo <= rep.bound.hi < F(1138, 100)
        assert rep.within_bound()

    def test_singletons(self):
        assert count_bounded_products(10, 1, increasing=True).count == 10

    def test_all_ones(self):
        assert count_bounded_products(1, 4).count == 4
        assert count_bounded_products(1, 3, increasing=True).count == 0
        # log 1 encloses exactly 0, so the bound at p = 1 is the exact 2^(m-1)
        for m in range(1, 6):
            assert count_bounded_products(1, m).bound == Enclosure.exact(2 ** (m - 1))

    @pytest.mark.parametrize("p,m", [(6, 2), (10, 3), (24, 4), (50, 2)])
    def test_against_brute_force(self, p, m):
        seqs = brute_sequences(p, m)
        assert count_bounded_products(p, m).count == len(seqs)
        increasing = [
            s for s in seqs if len(s) == m and all(a < b for a, b in zip(s, s[1:]))
        ]
        assert count_bounded_products(p, m, increasing=True).count == len(increasing)

    def test_long_sequences_need_no_recursion(self):
        # p = 2 allows one 2 in any position, or none: m + m(m+1)/2
        assert count_bounded_products(2, 300).count == 45450
        assert count_bounded_products(2, 2000).count == 2003000

    def test_pinned_counts(self):
        assert count_bounded_products(10**4, 6).count == 26635724
        assert count_bounded_products(10**4, 6, increasing=True).count == 1469

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            count_bounded_products(10**6, 1000, budget=10**6)

    def test_non_integer_arguments_rejected(self):
        for p, m in [(10.5, 2), (True, 2), (F(10), 2), (10, 2.0), (10, True), (10, F(2))]:
            for increasing in (False, True):
                with pytest.raises(DomainError):
                    count_bounded_products(p, m, increasing=increasing)


class TestFactorialBounds:
    def test_small_cases(self):
        assert factorial_bounds_check(1)
        assert factorial_bounds_check(5)
        assert factorial_bounds_check(20)

    def test_oracle_n_five(self):
        # 5^5/e^4 = 57.2... <= 120 <= 5^6/e^4 = 286.2...
        e4 = exp_enclosure(4)
        assert F(5**5) / e4.lo <= 120 <= F(5**6) / e4.hi

    def test_matches_the_per_n_series_oracle(self):
        terms = analysis.SERIES_TERMS
        for n in range(1, 81):
            slow = exp_enclosure(n - 1, terms)
            fast = exp_enclosure(1, terms).power(n - 1)
            assert max(slow.lo, fast.lo) <= min(slow.hi, fast.hi)
            assert factorial_bounds_check(n) == factorial_bounds_oracle(n)


def factorial_bounds_oracle(n):
    """The factorial bound check with e^(n-1) from its own halved-and-squared series."""
    fact, lower, upper = math.factorial(n), n**n, n ** (n + 1)
    for attempt in range(6):
        e_pow = exp_enclosure(n - 1, analysis.SERIES_TERMS << attempt)
        if lower > fact * e_pow.hi or fact * e_pow.lo > upper:
            return False
        if lower <= fact * e_pow.lo and fact * e_pow.hi <= upper:
            return True
    raise ResourceLimitError(f"undecided at n={n}")


def test_empirical_counts_stay_under_theoretical_bound():
    rep = lambda_cover_counts(9)
    count = box_count_empirical(rep.epsilon)
    assert count <= rep.total_bound
