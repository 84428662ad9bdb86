"""CLI rows and renderers against the per-row kernels and the materialised path.

``graph`` builds its rows from the prefix walk's numerators and the JSON and
CSV writers stream them.  The oracles here are the per-row kernels and the
renderers that formatted a fully built payload in one piece.
"""

import csv
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from piercesum import estar_digits, phi
from piercesum.cli import SCHEMA_VERSION, _WRITERS, _fmt, _graph_rows, build_parser, main
from piercesum.intervals import interval_length
from piercesum.sequences import PierceSeq

ROOT = Path(__file__).resolve().parent.parent


def graph_rows_oracle(order_max, digit_cap):
    """One row per prefix, each value from its own kernel call."""
    return [
        {
            "sigma": "(" + ",".join(map(str, prefix)) + ")",
            "order": order,
            "phi": phi(PierceSeq(prefix)).lo,
            "estar": estar_digits(prefix),
            "length": interval_length(prefix),
        }
        for order in range(1, order_max + 1)
        for prefix in combinations(range(1, digit_cap + 1), order)
    ]


def render_json_oracle(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv_oracle(payload):
    buf = io.StringIO()
    rows = payload.get("rows")
    scalars = {k: v for k, v in payload.items() if k != "rows"}
    writer = csv.writer(buf, lineterminator="\n")
    if scalars:
        keys = sorted(scalars)
        writer.writerow(keys)
        writer.writerow([scalars[k] for k in keys])
    if rows is not None:
        keys = list(rows[0]) if rows else []
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] for k in keys])
    return buf.getvalue()


def render_table_oracle(payload):
    lines = []
    for key, value in payload.items():
        if key == "rows":
            continue
        lines.append(f"{key}: {value}")
    rows = payload.get("rows")
    if rows:
        keys = list(rows[0])
        table = [keys] + [[str(row[k]) for k in keys] for row in rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(keys))]
        lines.append("")
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


ORACLES = {"json": render_json_oracle, "csv": render_csv_oracle, "table": render_table_oracle}


def cli_output(capsys, *argv):
    code = main(list(argv) + ["--no-timestamp"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("cap", range(1, 13))
def test_graph_rows_match_the_per_row_kernels(order, cap):
    assert list(_graph_rows(order, cap)) == _fmt(graph_rows_oracle(order, cap))


@pytest.mark.parametrize("fmt", sorted(ORACLES))
@pytest.mark.parametrize("order,cap", [(1, 1), (2, 10), (3, 12), (4, 9)])
def test_graph_output_matches_the_materialised_path(fmt, order, cap, capsys):
    code, out = cli_output(
        capsys, "graph", "--order", str(order), "--digit-cap", str(cap), "--format", fmt
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "graph",
        "order_max": order,
        "digit_cap": cap,
        "rows": graph_rows_oracle(order, cap),
    }
    assert code == 0 and out == ORACLES[fmt](_fmt(payload))


@pytest.mark.parametrize("fmt", sorted(ORACLES))
@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "1234/56789"],
        ["dimension", "--pow-min", "4", "--pow-max", "7"],
        ["jumps", "5/17"],
        ["esum", "const:one-minus-inv-e", "--depth", "12"],
    ],
)
def test_other_commands_match_the_materialised_path(fmt, argv, capsys):
    args = build_parser().parse_args(argv + ["--format", fmt])
    payload, _ = args.run(args)
    if "rows" in payload:
        payload["rows"] = list(payload["rows"])
    expected = ORACLES[fmt]({"schema": SCHEMA_VERSION, "command": argv[0], **_fmt(payload)})
    assert cli_output(capsys, *argv, "--format", fmt)[1] == expected


@pytest.mark.parametrize("fmt", sorted(ORACLES))
@pytest.mark.parametrize("rows", [[], None])
def test_empty_and_absent_rows_match_the_materialised_path(fmt, rows):
    # CLI graph always has the row (1), so the writers are called directly
    scalars = {"schema": SCHEMA_VERSION, "command": "graph", "order_max": 3, "digit_cap": 2}
    payload = scalars if rows is None else {**scalars, "rows": rows}
    buf = io.StringIO()
    _WRITERS[fmt](scalars, None if rows is None else iter(rows), buf)
    assert buf.getvalue() == ORACLES[fmt](payload)


def test_json_rows_with_escapes_match_the_materialised_path():
    # strings that contain the writer's separators, quotes and non-ASCII text
    rows = [
        {"b": '},\n      {"x": 1', "a": None, "c": True},
        {"b": "é\t\\", "a": -2.5, "c": False},
    ] * 300
    scalars = {"schema": SCHEMA_VERSION, "list": [1, [2, "3"]], "empty": [], "map": {"z": 1}}
    buf = io.StringIO()
    _WRITERS["json"](scalars, iter(rows), buf)
    assert buf.getvalue() == render_json_oracle({**scalars, "rows": rows})


@pytest.mark.parametrize("flag", ["--order", "--digit-cap"])
def test_invalid_graph_arguments_create_no_file(flag, tmp_path, capsys):
    target = tmp_path / "graph.json"
    argv = {"--order": "2", "--digit-cap": "5", flag: "0"}
    code = main(["graph", *[x for kv in argv.items() for x in kv], "--out", str(target)])
    assert code == 1 and "domain error" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("fmt", sorted(ORACLES))
def test_out_file_matches_stdout(fmt, tmp_path, capsys):
    argv = ["graph", "--order", "3", "--digit-cap", "9", "--format", fmt]
    _, out = cli_output(capsys, *argv)
    target = tmp_path / f"graph.{fmt}"
    code, printed = cli_output(capsys, *argv, "--out", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode()


# the peak RSS of the probe's own address space, VmHWM in kB: ru_maxrss
# would also count the test runner's peak, which a child inherits on Linux
PEAK_PROBE = """
import sys
import piercesum
if sys.argv[1:]:
    from piercesum.cli import main
    assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def _peak_kib(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return int(run.stdout)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_graph_peak_memory_stays_near_import(fmt, tmp_path):
    # streamed, the 36,050 rows cost about 1 MiB over import; holding them,
    # even already rendered, costs 16 MiB, and Fraction rows far more
    baseline = _peak_kib()
    peak = _peak_kib(
        "graph", "--order", "3", "--digit-cap", "60", "--format", fmt,
        "--no-timestamp", "--out", str(tmp_path / f"graph.{fmt}"),
    )
    assert peak < baseline + 8 * 1024
