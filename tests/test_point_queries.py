"""Point queries: a bit-for-bit pin and differential tests of the integer paths.

``jumps_at``, ``cylinder_extrema`` and ``fundamental_interval`` run on the
integer numerators of ``core.digit_numerators``.  Their oracles take the
``Fraction`` route instead: ``evaluate_digits`` / ``estar_digits`` of each
digit tuple involved, combined with ``interval_length`` in ``Fraction``s.
All three oracles are in ``oracles.py``.
"""

import ast
import hashlib
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from piercesum import (
    Enclosure,
    cylinder_extrema,
    esum,
    evaluate_digits,
    expand,
    fundamental_interval,
    ivt_root,
    jumps_at,
    phi,
)
from piercesum import core
from piercesum.core import digit_numerators, parent_numerators

from oracles import cylinder_extrema_oracle, expand_oracle, fundamental_interval_oracle
from oracles import ivt_triples, jumps_at_oracle, numerators_oracle, random_unit_rationals

#: sha256 of ``_point_text()``, as computed on the Fraction routes of the point-query oracles.
POINT_DIGEST = "cecc74a74de18221eab8772b33d1c0609c0e282baae2ba3cb26db4f71b887764"


def _point_text():
    lines = []
    for x in random_unit_rationals(2000):
        digits = expand(x)
        fields = [x, digits, phi(digits), esum(x)]
        if 0 < x < 1:
            fields.append(jumps_at(x))
        if digits:
            fields += [fundamental_interval(digits), cylinder_extrema(digits)]
        lines.append(" ".join(map(repr, fields)))
    tol = F(1, 10**9)
    for a, b, y in ivt_triples(101, 200):
        lines.append(repr(ivt_root(a, b, y, tol)))
    return "\n".join(lines)


def test_point_queries_match_their_pinned_digest():
    assert hashlib.sha256(_point_text().encode()).hexdigest() == POINT_DIGEST


realizable_prefixes = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=9, unique=True
).map(lambda ds: tuple(sorted(ds)))
# last two digits consecutive: no point has these digits
non_realizable_prefixes = realizable_prefixes.map(lambda p: p + (p[-1] + 1,))
prefixes = st.one_of(realizable_prefixes, non_realizable_prefixes)


def _long_prefixes():
    # past the 9 digits Hypothesis draws: orders 40, 41, 300 and 301, each
    # realizable and not (last two digits consecutive)
    out = []
    for n in (40, 41, 300, 301):
        spaced = tuple(range(2, 3 * n, 3))
        out += [spaced, spaced[:-1] + (spaced[-2] + 1,)]
        out += [(*range(1, n), n + 1), tuple(range(1, n + 1))]
    return out


def _same(fast, slow):
    # equal field by field, and the same types (repr tells Fraction from int)
    assert fast == slow and repr(fast) == repr(slow)


def _names(tree):
    # every name a syntax tree reads, as a bare name, an attribute or an import
    for node in ast.walk(tree):
        yield from (getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


ORACLES = ast.parse((Path(__file__).parent / "oracles.py").read_text())


def test_oracles_do_not_read_the_library_parity_rule():
    # oracles.py writes n % 2 itself, so intervals.side is checked against a second route
    assert not {"side", "node_span"} & set(_names(ORACLES))


def test_definitional_error_sum_does_not_call_the_closed_form():
    # estar_by_definition sums x - s_n itself, so estar is checked against a second route
    (definition,) = [
        node for node in ORACLES.body
        if isinstance(node, ast.FunctionDef) and node.name == "estar_by_definition"
    ]
    assert not {"estar", "estar_digits"} & set(_names(definition))


class TestAgainstFractionRoutes:
    @given(prefixes)
    @settings(max_examples=300)
    def test_fundamental_interval(self, prefix):
        _same(fundamental_interval(prefix), fundamental_interval_oracle(prefix))

    @given(prefixes)
    @settings(max_examples=300)
    def test_cylinder_extrema(self, prefix):
        _same(cylinder_extrema(prefix), cylinder_extrema_oracle(prefix))

    @given(prefixes)
    @settings(max_examples=300)
    def test_jumps_at(self, prefix):
        # a non-realizable prefix names the same point as its realizable twin
        x = evaluate_digits(prefix)
        assume(0 < x < 1)
        _same(jumps_at(x), jumps_at_oracle(x))

    def test_short_prefixes_of_both_parities(self):
        short = [(1,), (2,), (7,), (1, 2), (1, 3), (2, 3), (2, 5), (1, 2, 3), (2, 4, 9)]
        for prefix in short + _long_prefixes():
            _same(fundamental_interval(prefix), fundamental_interval_oracle(prefix))
            _same(cylinder_extrema(prefix), cylinder_extrema_oracle(prefix))
            x = evaluate_digits(prefix)
            if 0 < x < 1:
                _same(jumps_at(x), jumps_at_oracle(x))


def _query(x, prefix):
    # the benchmark's forward query on x, with the prefix's own value, interval
    # and extrema (for a point, its digits)
    jump = jumps_at(x) if 0 < x < 1 else None
    iv, ext = fundamental_interval(prefix), cylinder_extrema(prefix)
    return expand(x), phi(prefix), esum(x), jump, iv, ext


def _query_oracle(x, prefix):
    prod, value_num, _ = numerators_oracle(prefix)
    x_prod, _, x_err_num = numerators_oracle(expand_oracle(x))
    return (
        expand_oracle(x),
        Enclosure.exact(F(value_num, prod)),
        F(x_err_num, x_prod),
        jumps_at_oracle(x) if 0 < x < 1 else None,
        fundamental_interval_oracle(prefix),
        cylinder_extrema_oracle(prefix),
    )


def test_interleaved_queries_read_no_evicted_or_stale_value():
    # more than three memo-fulls of points, a 40- to 301-digit prefix after each,
    # asked in order and then in reverse; each expected value is computed on
    # cleared memos, so no entry the queries leave behind can reach it
    points = [x for x in random_unit_rationals(3 * core._MEMO_SIZE + 8, seed=34) if x]
    long = _long_prefixes()
    queries = []
    for i, x in enumerate(points):
        prefix = long[i % len(long)]
        prod, value_num, _ = numerators_oracle(prefix)
        queries += [(x, expand_oracle(x)), (F(value_num, prod), prefix)]
    expected = []
    for x, prefix in queries:
        for memo in (core._expand, core._fold, core.node_fraction):
            memo.cache_clear()
        expected.append(_query_oracle(x, prefix))
    order = list(range(len(queries)))
    for i in order + order[::-1]:
        _same(_query(*queries[i]), expected[i])


@given(prefixes)
@settings(max_examples=300)
def test_jumps_at_head_by_division_is_the_fold_of_all_but_the_last_digit(prefix):
    # jumps_at divides x's last digit out of its node instead of folding the rest
    x = evaluate_digits(prefix)
    assume(0 < x < 1)
    for digits in (expand(x), prefix):  # x's own digits, and the drawn ones
        head = parent_numerators(len(digits) - 1, *digit_numerators(digits), digits[-1])
        assert head == numerators_oracle(digits[:-1])
