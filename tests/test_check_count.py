"""One rule for integer arguments: every count, order, depth, index, cap, grid, scale and budget.

Each row names an entry point and the least value its integer argument
takes.  A bool, a float, a Fraction and anything below the least raise
DomainError there; the least itself is accepted.
"""

from argparse import Namespace
from fractions import Fraction as F

import pytest

from piercesum import (
    DigitStream,
    DomainError,
    Enclosure,
    PierceSeq,
    convergent,
    count_bounded_products,
    estar,
    factorial_bounds_check,
    hausdorff_cover_sum,
    integrate_esum,
    locate,
    partition,
    phi,
    rho_seq,
    shift_power,
    truncate,
    variation_over_partition,
)
from piercesum.certify import exp_enclosure, iroot, log_enclosure, pow_enclosure, root_enclosure
from piercesum.cli import _cmd_graph
from piercesum.core import check_count

STREAM = DigitStream(1)

# (entry point taking the checked argument, least value accepted)
SITES = [
    pytest.param(lambda n: shift_power(F(3, 8), n), 0, id="shift_power"),
    pytest.param(lambda n: convergent(F(3, 8), n), 1, id="convergent"),
    pytest.param(lambda a: DigitStream(a), 1, id="DigitStream.a"),
    pytest.param(lambda b: DigitStream(1, b), 0, id="DigitStream.b"),
    pytest.param(lambda n: STREAM.digit(n), 1, id="DigitStream.digit"),
    pytest.param(lambda count: STREAM.digits(count), 0, id="DigitStream.digits"),
    pytest.param(lambda depth: PierceSeq((1, 3)).digits(depth), 0, id="PierceSeq.digits"),
    pytest.param(lambda n: PierceSeq((1, 3)).digit_at(n), 1, id="PierceSeq.digit_at"),
    pytest.param(lambda depth: phi(STREAM, depth), 1, id="phi"),
    pytest.param(lambda depth: estar(STREAM, depth), 1, id="estar"),
    pytest.param(lambda n: truncate((1, 3, 7), n), 1, id="truncate"),
    pytest.param(lambda depth: rho_seq((1, 3), STREAM, depth), 1, id="rho_seq"),
    pytest.param(lambda n: partition(n, 3), 1, id="partition.n"),
    pytest.param(lambda cap: partition(1, cap), 1, id="partition.digit_cap"),
    pytest.param(lambda n: locate(F(3, 8), n), 1, id="locate"),
    pytest.param(lambda n: iroot(n, 2), 0, id="iroot.n"),
    pytest.param(lambda k: iroot(10, k), 1, id="iroot.k"),
    pytest.param(lambda k: root_enclosure(F(2), k), 1, id="root_enclosure"),
    pytest.param(lambda scale: root_enclosure(F(2), 2, scale), 1, id="root_enclosure.scale"),
    pytest.param(lambda scale: pow_enclosure(F(2), F(3, 2), scale), 1, id="pow_enclosure.scale"),
    pytest.param(lambda terms: exp_enclosure(1, terms), 2, id="exp_enclosure"),
    pytest.param(lambda terms: log_enclosure(3, terms), 2, id="log_enclosure"),
    pytest.param(lambda grid: integrate_esum(grid), 1, id="integrate_esum"),
    pytest.param(lambda n: variation_over_partition(n, 3), 1, id="variation.n"),
    pytest.param(lambda n: variation_over_partition(n), 1, id="variation.n_uncapped"),
    pytest.param(lambda cap: variation_over_partition(2, cap), 1, id="variation.digit_cap"),
    pytest.param(lambda n: hausdorff_cover_sum(n, F(3, 2), 20), 1, id="cover_sum.n"),
    pytest.param(lambda cap: hausdorff_cover_sum(2, F(3, 2), cap), 2, id="cover_sum.digit_cap"),
    pytest.param(lambda p: count_bounded_products(p, 2), 1, id="count_products.p"),
    pytest.param(lambda m: count_bounded_products(10, m), 1, id="count_products.m"),
    pytest.param(lambda m: count_bounded_products(10, m, True), 1, id="count_products.m_inc"),
    # p at the p*m budget's edge: the argument checks come before the fixed caps
    pytest.param(lambda m: count_bounded_products(10**8, m), 1, id="count_products.budget"),
    pytest.param(lambda n: factorial_bounds_check(n), 1, id="factorial_bounds_check"),
    pytest.param(lambda s: Enclosure(F(1, 3), F(1, 2)).round_outward(s), 1, id="round_outward"),
    pytest.param(lambda n: _cmd_graph(Namespace(order=n, digit_cap=3)), 1, id="cli.graph.order"),
    pytest.param(lambda cap: _cmd_graph(Namespace(order=1, digit_cap=cap)), 1, id="cli.graph.cap"),
]


def rejected(least):
    return [True, False, 2.0, F(2), float(least), F(least), least + 0.5, least - 1]


@pytest.mark.parametrize("call, least", SITES)
def test_integer_arguments_follow_one_rule(call, least):
    call(least)
    for value in rejected(least):
        with pytest.raises(DomainError):
            call(value)


def test_enclosure_power_takes_ints_only():
    # 0.5 used to return float endpoints, whose str() raised AttributeError, and True power 1
    base = Enclosure(F(1, 4), F(1, 2))
    assert base.power(0) == Enclosure.exact(1)
    assert base.power(-1) == Enclosure(F(2), F(4))  # negative ints keep the reciprocal route
    for k in (True, False, 2.0, F(2), 0.5, -0.5, F(-2)):
        with pytest.raises(DomainError):
            base.power(k)


def test_the_rule_and_its_message():
    assert check_count(3, 3, "order") == 3
    for value in (2, True, 3.0):
        with pytest.raises(DomainError, match=rf"^order must be an int >= 3, got {value!r}$"):
            check_count(value, 3, "order")
