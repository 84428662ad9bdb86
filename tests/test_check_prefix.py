"""One rule for digit prefixes, and one error class per CLI exit code.

Each row names an entry point that takes a digit prefix (or, for rho, its
digits) and whether it needs the prefix to be non-empty.  A non-int or
bool digit, a digit below 1 and a prefix that does not increase raise
DomainError there, and a prefix longer than MAX_DEPTH DepthOverflowError.
"""

from fractions import Fraction as F

import pytest

from piercesum import (
    INF,
    MAX_DEPTH,
    DegenerateFitError,
    DepthOverflowError,
    DigitStream,
    DomainError,
    PierceSeq,
    ResourceLimitError,
    cylinder_extrema,
    fundamental_interval,
    hat,
    hat_prime,
    interval_length,
    oscillation,
    rho,
)
from piercesum import analysis
from piercesum.cli import main
from piercesum.core import check_prefix

# (entry point, name in its empty-prefix message or None if () is allowed, whole-prefix rule)
SITES = [
    pytest.param(PierceSeq, None, True, id="PierceSeq"),
    pytest.param(fundamental_interval, "fundamental_interval", True, id="fundamental_interval"),
    pytest.param(interval_length, "interval_length", True, id="interval_length"),
    pytest.param(oscillation, "oscillation", True, id="oscillation"),
    pytest.param(cylinder_extrema, "cylinder_extrema", True, id="cylinder_extrema"),
    pytest.param(hat, "hat", True, id="hat"),
    pytest.param(hat_prime, "hat_prime", True, id="hat_prime"),
    # rho takes one digit per side, so only the digit half of the rule applies
    pytest.param(lambda p: [rho(d, INF) + rho(1, d) for d in p], None, False, id="rho"),
]

BAD_DIGITS = [(0,), (1, 2.0), (True,), (1, F(3)), (-1,)]


@pytest.mark.parametrize("call, name, whole", SITES)
def test_prefixes_follow_one_rule(call, name, whole):
    call((1, 3))
    for prefix in BAD_DIGITS:
        with pytest.raises(DomainError):
            call(prefix)
    if not whole:
        return
    with pytest.raises(DomainError, match="not strictly increasing"):
        call((2, 2))
    with pytest.raises(DepthOverflowError):
        call(tuple(range(1, MAX_DEPTH + 2)))
    if name is None:
        call(())
    else:
        with pytest.raises(DomainError, match=rf"^{name} needs a non-empty prefix$"):
            call(())


def test_the_rule_and_its_messages():
    assert check_prefix([1, 3, 7]) == (1, 3, 7)
    assert check_prefix(()) == ()
    with pytest.raises(DomainError, match=r"^walk needs a non-empty prefix$"):
        check_prefix((), "walk")
    with pytest.raises(DomainError, match=r"^prefix digit True is not an int$"):
        check_prefix((True,))
    with pytest.raises(DepthOverflowError, match=rf"^depth {MAX_DEPTH + 1} exceeds cap"):
        check_prefix(range(1, MAX_DEPTH + 2), "walk")


def test_hat_of_a_stream_takes_finite_digits_error():
    for op in (hat, hat_prime):
        with pytest.raises(DomainError, match="stream-backed"):
            op(DigitStream(1))


def test_each_exit_code_has_one_error_class():
    assert issubclass(DepthOverflowError, ResourceLimitError)
    assert issubclass(DegenerateFitError, DomainError)
    assert issubclass(DomainError, ValueError)


@pytest.mark.parametrize(
    "error, code, label",
    [
        (DomainError, 1, "domain error:"),
        (DegenerateFitError, 1, "domain error:"),
        (ResourceLimitError, 3, "resource limit:"),
        (DepthOverflowError, 3, "resource limit:"),
    ],
)
def test_cli_maps_each_error_tree_to_its_exit_code(capsys, monkeypatch, error, code, label):
    def fail(scales):
        raise error("raised on purpose")

    monkeypatch.setattr(analysis, "box_count_sweep", fail)
    assert main(["dimension", "--no-timestamp"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{label} raised on purpose\n"


def test_degenerate_fit_exits_as_a_domain_error(capsys):
    # two scales leave no slope to check; this printed "degenerate fit:" before
    assert main(["dimension", "--pow-min", "6", "--pow-max", "7", "--no-timestamp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: need at least 3 scales for a slope\n"
