"""A bit-for-bit pin of the stream-backed evaluations.

The digest covers the exact endpoints and digit tuples that ``phi``,
``estar``, ``esum_stream``, ``rho_seq``, ``truncate`` and
``PierceSeq.digits`` return for three stream-backed sequences at depths
1..40, and the enclosures of ``oracles.estar_by_definition``, the
definitional E* that ``estar`` is checked against.  It hashes numbers, not
the ``repr`` of a sequence, so it does not depend on how a stream prints.
"""

import hashlib

from piercesum import (
    DigitStream,
    PierceSeq,
    constant_stream,
    esum_stream,
    estar,
    phi,
    rho_seq,
    truncate,
)

from oracles import estar_by_definition

#: sha256 of ``_stream_text()``.
STREAM_DIGEST = "9ce82b2f132cae7252a3d96fa7db6e6556a2bbf0e5c14fa889db480febf42e36"


def _sequences():
    return [
        PierceSeq.from_stream(constant_stream("one-minus-inv-e")),  # 1, 2, 3, ...
        PierceSeq((1,), DigitStream(2, 1)),  # 1, then 2j + 1
        PierceSeq((2, 5), DigitStream(3, 4)),  # 2, 5, then 3j + 4
    ]


def _ends(enclosure):
    return (enclosure.lo.numerator, enclosure.lo.denominator,
            enclosure.hi.numerator, enclosure.hi.denominator)


def _stream_text():
    finite = PierceSeq((1, 3, 6))
    lines = []
    for seq in _sequences():
        for depth in range(1, 41):
            fields = [
                depth,
                _ends(phi(seq, depth)),
                _ends(estar(seq, depth)),
                _ends(estar_by_definition(seq, depth)),
                _ends(esum_stream(seq, depth)),
                _ends(rho_seq(seq, finite, depth)),
                truncate(seq, depth).prefix,
                seq.digits(depth),
            ]
            lines.append(" ".join(map(str, fields)))
    return "\n".join(lines)


def test_stream_evaluations_match_their_pinned_digest():
    assert hashlib.sha256(_stream_text().encode()).hexdigest() == STREAM_DIGEST
