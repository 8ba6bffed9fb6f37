"""Experiment scripts under scripts/: each main at a small height, and argument checks.

The oracle cross-check is ``stratabound sweep`` (tests/test_cli.py); the
scripts' own outputs are checked here against the library calls they print.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from stratabound.boundary import Report, boundary_set
from stratabound.modification import modification_census
from stratabound.newton import enumerate_polygons

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script(name):
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))


@pytest.mark.parametrize(
    "name, flag",
    [
        ("boundary_census", "--height"),
        ("pair_census", "--height"),
        ("pair_census", "--witnesses"),
        ("verify_suite", "--direct-sum-height"),
        ("verify_suite", "--two-segment-height"),
    ],
)
@pytest.mark.parametrize(
    "value",
    ["\u0662", "\uff15", "1_0", "+2", pytest.param("9" * 5000, id="5000-digits")],  # Arabic-Indic two, fullwidth five
)
def test_numeric_options_take_ascii_digits_only(capsys, name, flag, value):
    with pytest.raises(SystemExit) as exc:
        script(name)["main"]([flag, value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in err


class TestBoundaryCensus:
    def test_rows_and_histogram_at_height_5(self, capsys):
        assert script("boundary_census")["main"](["--height", "5"]) == 0
        out, err = capsys.readouterr()
        rows, histogram = out.split("\n\n")
        polygons = list(enumerate_polygons(5))
        assert rows.splitlines() == [
            f"{str(p):30s} |B| = {len(boundary_set(p).elements)}" for p in polygons
        ]
        lines = histogram.splitlines()
        assert lines[0] == "size histogram (|B| -> #polygons):"
        assert sum(int(line.split("->")[1]) for line in lines[1:]) == len(polygons)
        assert err == ""

    def test_negative_height_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            script("boundary_census")["main"](["--height", "-1"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--height must be at least 0, got -1" in err

    def test_oracle_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            script("boundary_census")["main"](["--height", "4", "--oracle"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --oracle" in err


class TestVerifySuite:
    def test_quiet_prints_only_the_summary(self, capsys):
        namespace = script("verify_suite")
        checked = sum(1 for _ in namespace["reports"](6, 7))
        assert checked > 0
        argv = ["--direct-sum-height", "6", "--two-segment-height", "7", "--quiet"]
        assert namespace["main"](argv) == 0
        assert capsys.readouterr().out == f"\n{checked} verifications, 0 failures\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--direct-sum-height", "-3", "--two-segment-height", "-1"], "--direct-sum-height must be at least 0, got -3"),
            (["--two-segment-height", "-1"], "--two-segment-height must be at least 0, got -1"),
        ],
    )
    def test_negative_height_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            script("verify_suite")["main"](argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_non_numeric_height_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            script("verify_suite")["main"](["--direct-sum-height", "x"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --direct-sum-height: invalid int value: 'x'" in err

    def test_failed_verification_exits_2(self, capsys, monkeypatch):
        main = script("verify_suite")["main"]
        polygon = next(iter(enumerate_polygons(3, min_z=2, max_z=2)))
        failed = Report(polygon, "duality", (), (), (), "failed", {"check": "injective"})
        # main reads reports() from its own module globals
        monkeypatch.setitem(main.__globals__, "reports", lambda *heights: iter([failed]))
        assert main(["--quiet"]) == 2
        out, err = capsys.readouterr()
        assert out == f"FAIL duality {polygon}: {{'check': 'injective'}}\n\n1 verifications, 1 failures\n"
        assert err == ""


class TestPairCensus:
    def test_table_totals_count_every_trace(self, capsys):
        assert script("pair_census")["main"](["--height", "6"]) == 0
        out = capsys.readouterr().out
        table = out.split("\n\n")[0].splitlines()
        traces = len(modification_census(6))
        assert sum(int(row.split()[-1]) for row in table[1:]) == traces
        assert f"traces: {traces}\n" in out

    @pytest.mark.parametrize("height", ["0", "1"])
    def test_heights_without_pairs_print_an_empty_table(self, capsys, height):
        assert script("pair_census")["main"](["--height", height]) == 0
        assert capsys.readouterr().out == (
            "verdict      adjacent  renameable     distant     total\n"
            "\n"
            "traces: 0\n"
            "generic verdicts from non-adjacent pairs: 0\n"
            "generic verdicts beyond renaming-adjacency: 0\n"
        )

    def test_negative_height_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            script("pair_census")["main"](["--height", "-2"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--height must be at least 0, got -2" in err

    def test_negative_witness_count_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            script("pair_census")["main"](["--height", "6", "--witnesses", "-1"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--witnesses must be at least 0, got -1" in err

    def test_zero_witnesses_prints_none(self, capsys):
        assert script("pair_census")["main"](["--height", "6", "--witnesses", "0"]) == 0
        assert "  pair " not in capsys.readouterr().out
