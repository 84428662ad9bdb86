"""Byte-for-byte pins of one small JSON output per CLI command.

Each case runs ``piercesum <argv> --format json --no-timestamp`` and pins
the exit code, the output length and its sha256.  A change that alters any
command's output, even by a byte, fails here; such a change must say so in
CHANGES.md and update the pin.
"""

import hashlib

import pytest

from piercesum.cli import main

GOLDEN = {
    "expand": (
        ["expand", "1234/56789"],
        918,
        "4b9507b81355312290df1041c4bdad97f2cba0921a8ace9c8622c8448f6041e3",
    ),
    "esum": (
        ["esum", "const:one-minus-inv-e", "--depth", "12"],
        176,
        "b9ef27529d56e23c5263036dce4d5d6d23bd1691bd6638c62126b086d046d180",
    ),
    "jumps": (
        ["jumps", "5/17"],
        200,
        "35afb66f8a556e65e84a90f01eac2d2315fdd627170dd07313464d2e1c958613",
    ),
    "graph": (
        ["graph", "--order", "3", "--digit-cap", "12"],
        38035,
        "963ac0363cf2ee09a68f5ae8fe4291213df3f4ab12994ef7c124381e6923ac30",
    ),
    "integral": (
        ["integral", "--grid", "1000"],
        205,
        "fca23cc06a2cf3c6e9e01cd9f5868cfd220c74c029feb7092b99943f775869bc",
    ),
    "variation": (
        ["variation", "--order", "3", "--digit-cap", "20"],
        185,
        "b9ec74d04320a356ad3beba4ca82f4e50bb58b97f97e885dd382c39c647dd575",
    ),
    "dimension": (
        ["dimension", "--pow-min", "6", "--pow-max", "11"],
        536,
        "446693b1ec1294dfe87cd223c01654a613767c275eefc866035baa41b2cf1c60",
    ),
    "ivt": (
        ["ivt", "--a", "9/25", "--b", "39/100", "--y=-1/10", "--tol", "1/1000000"],
        249,
        "8d7e04f800497ab933f940b2b0b2226b1e80f993e178fdf8b90632618c822b9a",
    ),
    "counts": (
        ["counts", "--product", "10000", "--max-len", "6", "--increasing"],
        228,
        "4e074b9896a424cd933c06ec7f7cdb46917db8cc1b58c56f8a90bdc29231ca06",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, capsys):
    argv, size, digest = GOLDEN[command]
    code = main(argv + ["--format", "json", "--no-timestamp"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)
