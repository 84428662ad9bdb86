"""The one depth cap: every entry point that validates a prefix enforces MAX_DEPTH."""

import pytest

from piercesum import (
    MAX_DEPTH,
    DepthOverflowError,
    PierceSeq,
    constant_stream,
    cylinder_extrema,
    estar,
    fundamental_interval,
    hat,
    hat_prime,
    interval_length,
    is_realizable,
    oscillation,
    phi,
    rho_seq,
    truncate,
)

#: Realizable prefixes of exactly MAX_DEPTH digits and of one digit more.
AT_CAP = (*range(1, MAX_DEPTH), MAX_DEPTH + 1)
PAST_CAP = (*range(1, MAX_DEPTH + 1), MAX_DEPTH + 2)

def truncate_to_one(prefix):
    return truncate(prefix, 1)


PREFIX_ENTRY_POINTS = [
    PierceSeq,
    phi,
    estar,
    is_realizable,
    hat,
    hat_prime,
    truncate_to_one,
    fundamental_interval,
    interval_length,
    oscillation,
    cylinder_extrema,
]


@pytest.mark.parametrize("entry", PREFIX_ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_one_digit_past_the_cap_raises(entry):
    with pytest.raises(DepthOverflowError):
        entry(PAST_CAP)


def test_the_cap_itself_is_accepted():
    assert PierceSeq(AT_CAP).length == MAX_DEPTH
    assert is_realizable(AT_CAP)
    assert hat(AT_CAP).prefix[-1] == MAX_DEPTH + 2
    assert truncate(AT_CAP, MAX_DEPTH).prefix == AT_CAP
    assert interval_length(AT_CAP) > 0
    assert phi(AT_CAP).is_exact
    ext = cylinder_extrema(AT_CAP)  # even order: the maximum sits at the hat-prime
    assert ext.minimum < ext.maximum
    assert ext.argmin.prefix == AT_CAP
    with pytest.raises(DepthOverflowError):
        ext.argmax


def test_stream_depths_past_the_cap_raise():
    stream = PierceSeq.from_stream(constant_stream("one-minus-inv-e"))
    for query in (
        lambda: stream.digits(MAX_DEPTH + 1),
        lambda: truncate(stream, MAX_DEPTH + 1),
        lambda: rho_seq(stream, (1,), MAX_DEPTH + 1),
    ):
        with pytest.raises(DepthOverflowError):
            query()
