import json

import pytest

from piercesum import analysis, cli
from piercesum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json", "--no-timestamp")
    return code, (json.loads(out) if out else None), err


class TestExpand:
    def test_three_eighths(self, capsys):
        code, payload, _ = run_json(capsys, "expand", "3/8")
        assert code == 0
        assert payload["digits"] == [2, 4]
        assert payload["schema"] == 1
        assert [r["residual"] for r in payload["rows"]] == ["-1/8", "0/1"]

    def test_zero_and_one(self, capsys):
        code, payload, _ = run_json(capsys, "expand", "0/1")
        assert code == 0 and payload["digits"] == []
        code, payload, _ = run_json(capsys, "expand", "1/1")
        assert code == 0 and payload["digits"] == [1]

    def test_decimal_rejected(self, capsys):
        code, out, err = run(capsys, "expand", "0.375")
        assert code == 1 and "domain error" in err

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "expand", "9/8")
        assert code == 1 and "domain error" in err


class TestEsum:
    def test_rational(self, capsys):
        code, payload, _ = run_json(capsys, "esum", "3/8")
        assert code == 0 and payload["value"] == "-1/8"

    def test_named_constant_enclosure(self, capsys):
        code, payload, _ = run_json(capsys, "esum", "const:one-minus-inv-e", "--depth", "20")
        assert code == 0
        lo, hi = payload["value"].strip("[]").split(", ")
        num, den = lo.split("/")
        assert int(num) / int(den) == pytest.approx(2 / 2.718281828459045 - 1, abs=1e-9)
        assert hi != lo

    def test_unknown_constant(self, capsys):
        code, _, err = run(capsys, "esum", "const:pi")
        assert code == 1 and "unknown constant" in err


class TestJumps:
    def test_half(self, capsys):
        code, payload, _ = run_json(capsys, "jumps", "1/2")
        assert code == 0
        assert payload["side"] == "right"
        assert payload["left_limit"] == "0/1"
        assert payload["right_limit"] == "-1/2"
        assert payload["jump_magnitude"] == "1/2"

    def test_one_third(self, capsys):
        code, payload, _ = run_json(capsys, "jumps", "1/3")
        assert payload["right_limit"] == "-1/6"

    def test_endpoint_rejected(self, capsys):
        code, _, err = run(capsys, "jumps", "0/1")
        assert code == 1


class TestGraph:
    def test_row_enumeration(self, capsys):
        code, payload, _ = run_json(capsys, "graph", "--order", "2", "--digit-cap", "3")
        assert code == 0
        assert [r["sigma"] for r in payload["rows"]] == [
            "(1)", "(2)", "(3)", "(1,2)", "(1,3)", "(2,3)",
        ]

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "graph", "--order", "1", "--digit-cap", "3",
            "--format", "csv", "--no-timestamp",
        )
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[2] == "sigma,order,phi,estar,length"
        assert lines[3] == "(1),1,1/1,0/1,1/2"
        assert len(lines) == 6

    def test_bad_cap(self, capsys):
        code, _, err = run(capsys, "graph", "--order", "1", "--digit-cap", "0")
        assert code == 1

    @pytest.mark.parametrize("order,cap", [("30", "200"), ("20", "20"), ("1000000000", "1000000000")])
    def test_over_budget_exits_3_before_any_row(self, order, cap, capsys, monkeypatch):
        def refuse(order_max, digit_cap):
            raise AssertionError("graph started above MAX_INTERVALS")

        monkeypatch.setattr(cli, "_graph_rows", refuse)
        code, out, err = run(capsys, "graph", "--order", order, "--digit-cap", cap)
        assert code == 3 and out == "" and "resource limit" in err and "MAX_INTERVALS" in err

    def test_orders_past_the_cap_add_no_rows(self, capsys):
        # no interval has more digits than the cap: order 10^9 at cap 3 is order 3
        _, small, _ = run_json(capsys, "graph", "--order", "3", "--digit-cap", "3")
        code, huge, _ = run_json(capsys, "graph", "--order", "1000000000", "--digit-cap", "3")
        assert code == 0 and huge["rows"] == small["rows"] and huge["order_max"] == 10**9


class TestIntegral:
    def test_small_grid(self, capsys):
        code, payload, _ = run_json(capsys, "integral", "--grid", "2")
        assert code == 0 and payload["estimate"] == "0/1"

    def test_tolerance_band(self, capsys):
        code, payload, _ = run_json(
            capsys, "integral", "--grid", "4096", "--tolerance", "1/100"
        )
        assert code == 0 and payload["within_tolerance"] is True
        code, payload, _ = run_json(
            capsys, "integral", "--grid", "4", "--tolerance", "1/1000000"
        )
        assert code == 2 and payload["within_tolerance"] is False

    def test_grid_cap_exit_code(self, capsys, monkeypatch):
        def refuse(grid):
            raise AssertionError("grid sum started above the cap")

        monkeypatch.setattr(analysis, "_grid_total", refuse)
        grid = str(analysis.INTEGRAL_MAX_GRID + 1)
        code, _, err = run(capsys, "integral", "--grid", grid)
        assert code == 3 and "resource limit" in err

    def test_bad_tolerance_fails_before_the_grid_sum(self, capsys, monkeypatch):
        def refuse(grid):
            raise AssertionError("grid sum started before the tolerance was parsed")

        monkeypatch.setattr(analysis, "integrate_esum", refuse)
        code, out, err = run(capsys, "integral", "--grid", "1048576", "--tolerance", "0.1")
        assert code == 1 and out == "" and "cannot parse rational literal" in err

    def test_negative_tolerance_fails_before_the_grid_sum(self, capsys, monkeypatch):
        def refuse(grid):
            raise AssertionError("grid sum started under a tolerance that cannot hold")

        monkeypatch.setattr(analysis, "_grid_total", refuse)
        code, out, err = run(capsys, "integral", "--grid", "10", "--tolerance=-1/200")
        assert code == 1 and out == "" and "domain error:" in err and "tolerance" in err


class TestVariation:
    def test_analytic(self, capsys):
        code, payload, _ = run_json(capsys, "variation", "--order", "4")
        assert code == 0 and payload["total"] == "4/1"

    def test_capped(self, capsys):
        code, payload, _ = run_json(
            capsys, "variation", "--order", "1", "--digit-cap", "3"
        )
        assert payload["capped_sum"] == "3/4" and payload["total"] == "1/1"

    def test_bad_cap(self, capsys):
        code, out, err = run(capsys, "variation", "--order", "2", "--digit-cap", "0")
        assert code == 1 and out == "" and "digit cap" in err

    def test_mass_budget_exit_code(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("capped_masses started above the mass budget")

        monkeypatch.setattr(analysis, "capped_masses", refuse)
        code, out, err = run(capsys, "variation", "--order", "3", "--digit-cap", "100000")
        assert code == 3 and out == "" and "mass budget" in err


class TestDimension:
    def test_small_sweep_in_band(self, capsys):
        code, payload, _ = run_json(
            capsys, "dimension", "--pow-min", "4", "--pow-max", "7"
        )
        assert code == 0 and payload["in_band"] is True
        assert len(payload["rows"]) == 4

    def test_band_failure_exit_code(self, capsys):
        code, payload, _ = run_json(
            capsys, "dimension", "--pow-min", "4", "--pow-max", "7", "--band", "2:3"
        )
        assert code == 2 and payload["in_band"] is False

    def test_bad_band_fails_before_the_sweep(self, capsys, monkeypatch):
        def refuse(scales):
            raise AssertionError("sweep started before the band was parsed")

        monkeypatch.setattr(analysis, "box_count_sweep", refuse)
        code, out, err = run(capsys, "dimension", "--band", "bad")
        assert code == 1 and out == "" and "cannot parse band" in err

    def test_empty_or_non_finite_band_fails_before_the_sweep(self, capsys, monkeypatch):
        def refuse(scales):
            raise AssertionError("sweep started under a band no slope can meet")

        monkeypatch.setattr(analysis, "box_count_sweep", refuse)
        for band in ("1.3:0.8", "nan:nan", "0.8:nan", "-inf:1.3", "0.8:inf"):
            code, out, err = run(capsys, "dimension", f"--band={band}")
            assert code == 1 and out == "" and "domain error:" in err and "band" in err, band

    def test_pow_min_below_one_rejected(self, capsys):
        for pow_min in ("0", "-1"):
            code, _, err = run(capsys, "dimension", "--pow-min", pow_min, "--pow-max", "7")
            assert code == 1 and "domain error:" in err and "Traceback" not in err

    def test_product_cap_exit_code(self, capsys, monkeypatch):
        def refuse(children):
            raise AssertionError("walk started above BOX_MAX_PRODUCT")

        monkeypatch.setattr(analysis, "walk_prefixes", refuse)
        code, out, err = run(capsys, "dimension", "--pow-max", "40")
        assert code == 3 and out == "" and "resource limit" in err and "BOX_MAX_PRODUCT" in err

    def test_sample_depth_below_one_rejected(self, capsys):
        # the flag is gone: the product cap alone bounds the sample depth
        for depth in ("0", "-5"):
            code, _, err = run(
                capsys, "dimension", "--pow-min", "4", "--pow-max", "7", "--sample-depth", depth
            )
            assert code == 1 and "unrecognized arguments: --sample-depth" in err


class TestIvt:
    def test_bracket(self, capsys):
        code, payload, _ = run_json(
            capsys, "ivt", "--a", "9/25", "--b", "39/100", "--y=-1/10",
            "--tol", "1/1000000",
        )
        assert code == 0
        assert payload["prefix"].startswith("(2,")
        num, den = payload["width"].split("/")
        assert int(den) > 10**6 * int(num)

    def test_precondition_violation(self, capsys):
        code, _, err = run(capsys, "ivt", "--a", "0/1", "--b", "1/2", "--y", "0/1")
        assert code == 1 and "domain error" in err

    def test_node_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "IVT_MAX_NODES", 1)
        code, _, err = run(capsys, "ivt", "--a", "9/25", "--b", "39/100", "--y=-1/10")
        assert code == 3 and "resource limit" in err


class TestCounts:
    def test_increasing(self, capsys):
        code, payload, _ = run_json(
            capsys, "counts", "--product", "6", "--max-len", "2", "--increasing"
        )
        assert code == 0 and payload["count"] == 6 and payload["within_bound"] is True

    def test_long_sequences(self, capsys):
        code, payload, _ = run_json(capsys, "counts", "--product", "2", "--max-len", "2000")
        assert code == 0 and payload["count"] == 2003000 and payload["within_bound"] is True

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "counts", "--product", "100000", "--max-len", "100",
            "--budget", "1000",
        )
        assert code == 3 and "resource limit" in err


class TestPlumbing:
    def test_usage_error_exit_code(self, capsys):
        assert run(capsys, "expand")[0] == 1
        assert run(capsys, "nonsense")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "1/3"],
            ["esum", "1/3"],
            ["jumps", "1/3"],
            ["graph", "--order", "1", "--digit-cap", "2"],
            ["integral", "--grid", "8"],
            ["variation", "--order", "2"],
            ["dimension", "--pow-min", "4", "--pow-max", "6"],
            ["ivt", "--a", "9/25", "--b", "39/100", "--y=-1/10"],
            ["counts", "--product", "6", "--max-len", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_accepts_workers(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--workers", "1")
        assert code == 1 and "--workers" in err

    def test_deterministic_output(self, capsys):
        a = run(capsys, "graph", "--order", "2", "--digit-cap", "4",
                "--format", "json", "--no-timestamp")[1]
        b = run(capsys, "graph", "--order", "2", "--digit-cap", "4",
                "--format", "json", "--no-timestamp")[1]
        assert a == b

    def test_timestamp_present_by_default(self, capsys):
        _, payload, _ = run(capsys, "jumps", "1/2", "--format", "json")
        assert "timestamp" in json.loads(payload)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "expand", "3/8", "--format", "csv",
            "--out", str(target), "--no-timestamp",
        )
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert "2,1/2,-1/8" in text
