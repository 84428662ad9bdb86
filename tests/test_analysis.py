import hashlib
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
    ResourceLimitError,
    RootBracket,
    box_count_empirical,
    box_count_sweep,
    calibrate_product_bound,
    count_bounded_products,
    dimension_slope,
    estar_digits,
    esum,
    factorial_bounds_check,
    hausdorff_cover_sum,
    integrate_esum,
    ivt_root,
    lambda_cover_counts,
    variation_over_partition,
)
from piercesum import analysis, certify
from piercesum.certify import exp_enclosure, iroot, root_enclosure

from oracles import cylinder_extrema_oracle, esum_floor_scaled, fundamental_interval_oracle
from oracles import GRID_SCALE, grid_total_per_point, ivt_triples


#: every small grid; powers of two, highly composite grids and primes;
#: 64m - 1, 64m, 64m + 1 and 40m - 1, 40m, 40m + 1 at m = 1000, and 65535,
#: 40959 just below m = 1024; 9999..10004, each residue mod 3 twice; highly
#: composite grids with many k on a cylinder edge k = grid // d; 674, 20144
ORACLE_GRIDS = {
    "small": range(1, 601),
    "large": [4096, 5040, 65536, 65537],
    "edges_64m": [63999, 64000, 64001, 65535],
    "edges_40m": [39999, 40000, 40001, 40959],
    "near_10000": range(9999, 10005),
    "digit_boundaries": [27720, 55440],
    "extra": [674, 20144],
}


def assert_floors_bracket(grid, floors):
    # the grid's N point floors lie in (scaled - N, scaled], scaled = N * GRID_SCALE * R(N)
    scaled = grid * GRID_SCALE * integrate_esum(grid).estimate
    assert floors <= scaled < floors + grid, grid


class TestIntegral:
    def test_degenerate_grids(self):
        assert integrate_esum(1).estimate == 0
        assert integrate_esum(2).estimate == 0  # esum(0) = esum(1/2) = 0

    def test_equals_the_exact_riemann_sum_on_small_grids(self):
        for grid in range(1, 121):
            exact = sum((esum(F(k, grid)) for k in range(grid)), F(0))
            rep = integrate_esum(grid)
            assert grid * rep.estimate == exact, grid
            assert rep.quantization == 0

    @pytest.mark.parametrize("grids", ORACLE_GRIDS.values(), ids=list(ORACLE_GRIDS))
    def test_per_point_floors_bracket_the_closed_form(self, grids):
        for grid in grids:
            assert_floors_bracket(grid, grid_total_per_point(grid))

    @pytest.mark.parametrize("grids", ORACLE_GRIDS.values(), ids=list(ORACLE_GRIDS))
    def test_grid_points_pair_off_under_the_reflection(self, grids):
        # the step the closed form takes on each grid: k/N and (N - k)/N sum to
        # -k/N for 1 <= k <= h, and 0 and (for even N) 1/2 stand alone at 0.
        # Every k below 400, then the cylinder edges k = N // d, N // d + 1
        # (d = 3..400) and 200 drawn k, evaluated exactly
        rng = random.Random(31)
        for grid in grids:
            half = (grid - 1) // 2
            assert esum(F(0, grid)) == 0
            if grid % 2 == 0:
                assert esum(F(grid // 2, grid)) == 0
            ks = set(range(1, min(half, 399) + 1))
            ks.update(k for d in range(3, 401) for k in (grid // d, grid // d + 1))
            ks.update(rng.randint(1, half) for _ in range(200 if half else 0))
            for k in sorted(k for k in ks if 1 <= k <= half):
                assert esum(F(k, grid)) + esum(F(grid - k, grid)) == F(-k, grid), (grid, k)

    @given(st.integers(min_value=1, max_value=2 * 10**4))
    @settings(max_examples=30, deadline=None)
    def test_per_point_floors_bracket_the_closed_form_on_drawn_grids(self, grid):
        assert_floors_bracket(grid, grid_total_per_point(grid))

    # per-point floor sums at GRID_SCALE, stored because the oracle is too
    # slow at these sizes: the prime 2^17 - 1, 3 * 2^16, the prime 262139
    # near 2^18, and the benchmark's two default-seed grids, whose estimates
    # perfbench pins as these sums over grid * GRID_SCALE
    @pytest.mark.parametrize(
        "grid,floors",
        [
            (131071, -163838749990463184075806242418231340266028167),
            (196608, -245757500000000000000000000000000000000097302),
            (262139, -327673749995231537466763816143343798519237191),
            (1052063, -1315078749998811858225220352773550633375142679),
            (2099939, -2624923749999404744614010216487240819853437360),
        ],
        ids=["prime_2_17_minus_1", "3_times_2_16", "prime_262139", "benchmark", "benchmark_second"],
    )
    def test_stored_floor_sums_bracket_the_closed_form(self, grid, floors):
        assert_floors_bracket(grid, floors)

    def test_deviation_is_the_parity_offset_at_any_size(self):
        # R(N) + 1/8 is 1/(4N) for even N and 1/(8N^2) for odd N; the last
        # two grids have a thousand digits
        for grid in [*range(1, 200), 2**20, 2**20 + 1, 10**999, 10**999 + 7]:
            rep = integrate_esum(grid)
            offset = F(1, 4 * grid) if grid % 2 == 0 else F(1, 8 * grid**2)
            assert rep.grid == grid and rep.deviation == offset and rep.quantization == 0
            assert rep.target == F(-1, 8) and rep.estimate == rep.target + rep.deviation

    def test_workers_argument_is_ignored(self):
        rep = integrate_esum(97)
        assert 97 * rep.estimate == sum((esum(F(k, 97)) for k in range(97)), F(0))
        with pytest.raises(TypeError):
            integrate_esum(97, workers=7)

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
        for _ in range(200):
            q = rng.randint(1, 10**6)
            p = rng.randint(0, q)
            g = math.gcd(p, q)
            value = esum(F(p, q))
            kernel = F(esum_floor_scaled(p // g, q // g, GRID_SCALE), GRID_SCALE)
            assert 0 <= value - kernel < F(1, GRID_SCALE)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            integrate_esum(0)

    @pytest.mark.parametrize("grid", [True, 97.0, F(97), "97", None], ids=repr)
    def test_non_integer_grids_rejected(self, grid):
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

    @pytest.mark.parametrize("n,cap", [(1, 27434), (3, 21205), (1300, 1300), (3, 10**5)])
    def test_mass_budget_refuses_before_any_work(self, n, cap, monkeypatch):
        def refuse(*args):
            raise AssertionError("capped_masses started above the mass budget")

        monkeypatch.setattr(analysis, "capped_masses", refuse)
        with pytest.raises(ResourceLimitError, match="mass budget"):
            variation_over_partition(n, cap)

    def test_variation_exceeds_any_candidate_bound(self):
        # unbounded variation: the order-n sum is n, so any bound V fails at
        # n = ceil(V) + 1
        candidate = 4
        rep = variation_over_partition(candidate + 1)
        assert rep.total > candidate


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
        ext = cylinder_extrema_oracle(prefix + (k,))
        if ext.minimum <= y <= ext.maximum:
            out.append(prefix + (k,))
    return out


def ivt_root_oracle(a, b, y, width_tol, depth_cap=MAX_DEPTH):
    # oracle: recursive leftmost-first refinement, children sorted by the
    # left end of their interval
    def intersects(iv):
        return iv.right > a and iv.left < b

    def refine(prefix, depth):
        iv = fundamental_interval_oracle(prefix)
        if iv.length < width_tol:
            ext = cylinder_extrema_oracle(prefix)
            return RootBracket(iv, ext.minimum, ext.maximum, y)
        if depth >= depth_cap:
            return None
        ordered = sorted(
            ((fundamental_interval_oracle(c), c) for c in _qualifying_children_oracle(prefix, y)),
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
        if not intersects(fundamental_interval_oracle(prefix)):
            continue
        found = refine(prefix, 1)
        if found is not None:
            return found
    raise DepthOverflowError(f"no bracket narrower than {width_tol} within depth {depth_cap}")


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

    @pytest.mark.parametrize("n,cap", [(1, 27434), (3, 21205), (1300, 1300)])
    def test_mass_budget_refuses_before_any_work(self, n, cap, monkeypatch):
        def refuse(*args):
            raise AssertionError("cover sum started above the mass budget")

        monkeypatch.setattr(analysis, "capped_masses", refuse)
        monkeypatch.setattr(analysis, "iroot", refuse)
        with pytest.raises(ResourceLimitError, match="mass budget"):
            hausdorff_cover_sum(n, F(3, 2), cap)

    # a digit's roots take about 15 ms at s = 1001/1000 and 200 ms at 1000/999, against
    # 2 us at 3/2: (1, 1001/1000, 100) ran for 1.3 s before the budget counted them
    @pytest.mark.parametrize(
        "n,s,cap", [(1, F(1001, 1000), 27433), (1, F(1001, 1000), 100), (8, F(1000, 999), 8)]
    )
    def test_root_cost_refuses_before_any_root(self, n, s, cap, monkeypatch):
        def refuse(*args):
            raise AssertionError("cover sum took a root above the mass budget")

        monkeypatch.setattr(analysis, "iroot", refuse)
        monkeypatch.setattr(analysis, "capped_masses", refuse)
        with pytest.raises(ResourceLimitError, match="mass budget"):
            hausdorff_cover_sum(n, s, cap)

    def test_root_cost_keeps_the_accepted_sizes(self):
        # the budget alone, so that no root is taken: the benchmark's sizes, the
        # largest cap tested here, and the largest cap at 1001/1000 (0.8 s)
        cases = [(n, F(3, 2), 20) for n in range(1, 9)]
        cases += [(3, F(3, 2), 3245), (5, F(7, 3), 14), (1, F(1001, 1000), 66)]
        for n, s, cap in cases:
            steps = analysis._root_steps(n, s.numerator, s.denominator, cap)
            analysis._check_mass_budget(n, cap, "edge", steps)

    def test_large_cap_runs_in_the_digit_recursion(self):
        # C(3245, 3), about 5.7e9 prefixes, in one digit pass of 2n integers
        big = hausdorff_cover_sum(3, F(3, 2), 3245)
        assert big.capped_lower <= big.capped_upper
        assert big.capped_lower >= hausdorff_cover_sum(3, F(3, 2), 3000).capped_lower

    def test_validation(self):
        with pytest.raises(DomainError):
            hausdorff_cover_sum(1, F(1, 2), 10)
        with pytest.raises(DomainError):
            hausdorff_cover_sum(3, 2, 2)

    def test_non_integer_arguments_rejected(self):
        # 2.0 raised a TypeError and n=True was taken as order 1
        for n, cap in [(True, 20), (2.0, 20), (F(2), 20), (2, True), (2, 20.0), (2, F(20))]:
            with pytest.raises(DomainError):
                hausdorff_cover_sum(n, F(3, 2), cap)


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

    @pytest.mark.parametrize(
        "M,n,total_bound,epsilon_bits,digest",
        [
            (9, 8, 193184495, 6002, "2439d149631aaba96481e908271ddda166825ddadd70918c0fcc3a926acc16c1"),
            (10, 8, 838437226, 5250, "d78249ab2c30857ed561d41858cfb5301319372aab94caa6b04596e6cf899828"),
            (11, 9, 7761709389, 6342, "34742c17cc2824d668b87f71bff7481a8c96984ce30cb99606455e91063edb37"),
            (16, 11, 54379638126740, 3309, "d7789191845f193e1e600de85e7c2c185b1c091bf7d8d42de766868a9415b11a"),
        ],
    )
    def test_reports_pinned(self, M, n, total_bound, epsilon_bits, digest):
        # the whole repr (M, epsilon and every a_k endpoint) at 48 series terms
        rep = lambda_cover_counts(M)
        assert (rep.n, rep.total_bound, rep.chain_holds) == (n, total_bound, True)
        assert rep.epsilon.denominator.bit_length() == epsilon_bits
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "M,n,total_bound,epsilon_bits",
        [(17, 11, 231207262898484, (14351, 14374)), (20, 13, 87927900281372837, (10472, 10500))],
    )
    def test_repr_past_the_int_str_limit(self, M, n, total_bound, epsilon_bits):
        # str() of some a_k terms (and at M = 17 of epsilon's) exceeds the 4300-digit
        # limit; the repr shows those by bit length while the fields keep them exactly
        rep = lambda_cover_counts(M)
        assert (rep.n, rep.total_bound, rep.chain_holds) == (n, total_bound, True)
        eps = rep.epsilon
        assert (eps.numerator.bit_length(), eps.denominator.bit_length()) == epsilon_bits
        text = repr(rep)
        assert str(rep) == text
        shown = "Fraction(<14351-bit int>, <14374-bit int>)" if M == 17 else repr(eps)
        assert text.startswith(f"CoverReport(M=Fraction({M}, 1), epsilon={shown}, n={n}, a=(")
        assert text.endswith(f"), total_bound={total_bound}, chain_holds=True)")
        assert text.count("Enclosure(") == n + 1 and "-bit int>" in text.split(", a=(")[1]

    def test_repr_without_the_int_str_limit(self, monkeypatch):
        # Python 3.10.0-3.10.6 have no get_int_max_str_digits and no limit
        rep = lambda_cover_counts(9)
        text = repr(rep)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert repr(rep) == text

    def test_chain_certified_out_of_order_is_false(self, monkeypatch):
        # log k pinned to -(M + 3/2) makes each base 1/2, so a_2 > a_3 > ... certifiably
        monkeypatch.setattr(analysis, "log_enclosure", lambda x, terms: Enclosure.exact(F(-21, 2)))
        assert lambda_cover_counts(9).chain_holds is False

    def test_undecided_chain_raises(self, monkeypatch):
        # log k widened by 10^6 at every attempt: a_3 and a_4 overlap at all
        # six; a first attempt of 2 terms keeps the six cheap
        real_log = analysis.log_enclosure
        monkeypatch.setattr(certify, "SERIES_TERMS", 2)

        def widened(x, terms):
            return Enclosure(F(0), real_log(x, terms).hi + 10**6)

        monkeypatch.setattr(analysis, "log_enclosure", widened)
        with pytest.raises(ResourceLimitError, match="a_k at M=9"):
            lambda_cover_counts(9)

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

    def test_finest_benchmark_scales_pinned(self):
        # the benchmark's PINNED_BOX_COUNTS at its finest scales, taken before the
        # one-step run rule; the oracle and the golden CLI pin stop at 2^-10 and 2^-11
        counts = box_count_sweep([F(1, 2**12), F(1, 2**13), F(1, 2**14)])
        assert [c for _, c in counts] == [13813, 28876, 60056]

    def test_product_cap_refuses_before_any_walk(self, monkeypatch):
        def refuse(children):
            raise AssertionError("walk started above BOX_MAX_PRODUCT")

        monkeypatch.setattr(analysis, "walk_prefixes", refuse)
        # 2^-18 calibrates P = 2,359,296, under the cap; 2^-19 calibrates 5,242,880
        assert calibrate_product_bound(F(1, 2**18))[0] <= analysis.BOX_MAX_PRODUCT
        assert calibrate_product_bound(F(1, 2**19))[0] > analysis.BOX_MAX_PRODUCT
        for scales in ([F(1, 2**19)], [F(1, 2**40)], [F(1, 2**k) for k in range(1, 41)]):
            with pytest.raises(ResourceLimitError, match="BOX_MAX_PRODUCT"):
                box_count_sweep(scales)
        with pytest.raises(ResourceLimitError, match="BOX_MAX_PRODUCT"):
            box_count_empirical(F(1, 2**40))


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

    @pytest.mark.parametrize("last", [F(0), F(-1, 8)])
    def test_non_positive_scales_rejected(self, last):
        # strictly decreasing, so only the log of the last scale could fail
        with pytest.raises(DomainError, match="scales must be positive"):
            dimension_slope([(F(1, 2), 3), (F(1, 4), 5), (last, 9)])

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

    def test_within_bound_tightens_a_straddling_bound(self, monkeypatch):
        # the first attempt's log 10^4 is widened down to 0, so its bound
        # [10^4 * 2^5, ...] straddles the count; the second attempt decides
        first = certify.SERIES_TERMS
        real_log = analysis.log_enclosure

        def widened(x, terms):
            enc = real_log(x, terms)
            return Enclosure(F(0), enc.hi) if terms == first else enc

        def bound_at(terms):
            return (F(10**4) * (2 + widened(10**4, terms)).power(5)).round_outward()

        monkeypatch.setattr(analysis, "log_enclosure", widened)
        rep = count_bounded_products(10**4, 6)
        assert bound_at(first).lo < rep.count <= bound_at(first).hi
        assert rep.within_bound()
        assert rep.bound == bound_at(2 * first)

    def test_non_integer_arguments_rejected(self):
        for p, m in [(10.5, 2), (True, 2), (F(10), 2), (10, 2.0), (10, True), (10, F(2))]:
            for increasing in (False, True):
                with pytest.raises(DomainError):
                    count_bounded_products(p, m, increasing=increasing)


def test_decisions_tighten_from_a_low_first_term_count(monkeypatch):
    # with the first attempt cut to 2 series terms, the counts and the lambda
    # chain decide on far wider enclosures and the factorial bounds from
    # n = 18 on need a second attempt; every answer is the one 48 terms give
    monkeypatch.setattr(certify, "SERIES_TERMS", 2)
    assert count_bounded_products(10**4, 6).within_bound() is True
    rep = lambda_cover_counts(9)
    assert (rep.n, rep.chain_holds) == (8, True)
    assert all(factorial_bounds_check(n) is True for n in range(1, 51))


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
        terms = certify.SERIES_TERMS
        for n in range(1, 81):
            slow = exp_enclosure(n - 1, terms)
            fast = exp_enclosure(1, terms).power(n - 1)
            assert max(slow.lo, fast.lo) <= min(slow.hi, fast.hi)
            assert factorial_bounds_check(n) == factorial_bounds_oracle(n)


def factorial_bounds_oracle(n):
    """The factorial bound check with e^(n-1) from its own halved-and-squared series."""
    fact, lower, upper = math.factorial(n), n**n, n ** (n + 1)
    for attempt in range(6):
        e_pow = exp_enclosure(n - 1, certify.SERIES_TERMS << attempt)
        if lower > fact * e_pow.hi or fact * e_pow.lo > upper:
            return False
        if lower <= fact * e_pow.lo and fact * e_pow.hi <= upper:
            return True
    raise ResourceLimitError(f"undecided at n={n}")


def test_empirical_counts_stay_under_theoretical_bound():
    rep = lambda_cover_counts(9)
    count = box_count_empirical(rep.epsilon)
    assert count <= rep.total_bound
