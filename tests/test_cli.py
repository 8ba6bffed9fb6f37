"""Command-line interface: output formats, exit codes, JSON round-trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import golden
from stratabound import cli
from stratabound.boundary import BoundarySet, boundary_set
from stratabound.errors import InternalCheckError
from stratabound.newton import parse_polygon
from stratabound.sequences import abs_from_json, minimal_abs

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_matches_golden(capsys, name, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN_DIR / name).read_text()


class TestGoldenOutput:
    def test_abs_17(self, capsys):
        assert_matches_golden(capsys, "abs_17.txt", "abs", "2,7+3,5")

    def test_abs_20(self, capsys):
        assert_matches_golden(capsys, "abs_20.txt", "abs", "2,7+1,2+3,5")

    def test_abs_12(self, capsys):
        assert_matches_golden(capsys, "abs_12.txt", "abs", "2,5+3,2")

    def test_modify_trace_17(self, capsys):
        assert_matches_golden(
            capsys, "modify_17_trace.txt", "modify", "2,7+3,5", "--pair", "0:1:4,1:2:2", "--trace"
        )

    def test_modify_trace_20(self, capsys):
        assert_matches_golden(
            capsys,
            "modify_20_trace.txt",
            "modify",
            "2,7+1,2+3,5",
            "--pair",
            "0:1:4,1:3:2",
            "--trace",
        )

    def test_modify_summary_12(self, capsys):
        assert_matches_golden(
            capsys, "modify_12.txt", "modify", "2,5+3,2", "--pair", "0:1:4,1:2:2"
        )

    def test_boundary_12(self, capsys):
        assert_matches_golden(capsys, "boundary_12.txt", "boundary", "2,5+3,2")

    def test_phi_17(self, capsys):
        assert_matches_golden(capsys, "phi_17.txt", "phi", "2,7+3,5")

    def test_abs_single_symbol(self, capsys):
        code, out, _ = run(capsys, "abs", "1,0")
        assert code == 0
        assert out == "1^1_1\n1 -> 1\n"


class TestJsonOutput:
    def test_abs_round_trip(self, capsys):
        code, out, _ = run(capsys, "abs", "2,5+3,2", "--json")
        assert code == 0
        S = abs_from_json(json.loads(out))
        assert S == minimal_abs(parse_polygon("2,5+3,2"))

    def test_modify_payload(self, capsys):
        code, out, _ = run(capsys, "modify", "2,5+3,2", "--pair", "0:1:4,1:2:2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Generic"
        assert payload["a"] == 1 and payload["b"] == 1
        assert payload["lengths"] == {"source": 11, "result": 10}

    def test_boundary_payload(self, capsys):
        code, out, _ = run(capsys, "boundary", "2,5+3,2", "--json")
        assert code == 0
        payload = json.loads(out)
        types = {tuple(e["type"]) for e in payload["elements"]}
        assert types == boundary_set(parse_polygon("2,5+3,2")).types()

    def test_phi_payload(self, capsys):
        code, out, _ = run(capsys, "phi", "2,7+3,5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["word"] == ["C"]
        assert [tuple(s) for s in payload["result"]["segments"]] == [(2, 5), (3, 2)]

    def test_verify_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "dual", "2,5+3,2", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_sweep_payload(self, capsys):
        code, out, _ = run(capsys, "sweep", "--height", "3", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 14
        assert all(row["status"] == "ok" for row in rows)


class TestVerifySubcommand:
    @pytest.mark.parametrize(
        "what,polygon",
        [("direct-sum", "2,5+3,2"), ("curtail", "2,7+3,5"), ("dual", "2,5+3,2")],
    )
    def test_all_verifiers_pass(self, capsys, what, polygon):
        code, out, _ = run(capsys, "verify", what, polygon)
        assert code == 0
        assert ": ok" in out

    def test_failing_report_exits_2(self, capsys, monkeypatch):
        real = cli._VERIFIERS["dual"]

        def broken(polygon):
            report = real(polygon)
            return type(report)(
                polygon=report.polygon,
                kind=report.kind,
                lhs=report.lhs,
                rhs=report.rhs,
                bijection=report.bijection,
                status="fail",
                witness={"check": "forced"},
            )

        monkeypatch.setitem(cli._VERIFIERS, "dual", broken)
        code, out, _ = run(capsys, "verify", "dual", "2,5+3,2")
        assert code == 2
        assert "witness" in out

    def test_unknown_verifier_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense", "2,5+3,2")
        assert code == 1
        assert "usage error" in err


class TestSweepSubcommand:
    def test_clean_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--height", "3")
        assert code == 0
        assert "checked 14 polygons, 0 mismatches" in out

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        def empty_oracle(polygon, budget=None):
            return BoundarySet(polygon, (), "stub")

        monkeypatch.setattr(cli, "boundary_set_oracle", empty_oracle)
        code, out, _ = run(capsys, "sweep", "--height", "3")
        assert code == 2
        assert "mismatch" in out

    def test_budget_flag_exits_3(self, capsys):
        code, _, err = run(capsys, "sweep", "--height", "3", "--budget", "1")
        assert code == 3
        assert "budget exceeded" in err

    def test_budget_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATABOUND_BUDGET", "1")
        code, _, err = run(capsys, "sweep", "--height", "3")
        assert code == 3
        assert "budget exceeded" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_flag_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "sweep", "--height", "3", "--budget", budget)
        assert code == 1 and out == ""
        assert err.startswith("usage error") and "at least 1" in err

    def test_budget_env_zero_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATABOUND_BUDGET", "0")
        code, out, err = run(capsys, "sweep", "--height", "3")
        assert code == 1 and out == ""
        assert err.startswith("usage error") and "at least 1" in err

    def test_budget_env_not_an_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("STRATABOUND_BUDGET", "1e6")
        code, out, err = run(capsys, "sweep", "--height", "3")
        assert code == 1 and out == ""
        assert err == "usage error: STRATABOUND_BUDGET must be an integer, got '1e6'\n"

    def test_rows_checked_before_the_budget_runs_out_are_printed(self, capsys):
        code, out, err = run(capsys, "sweep", "--height", "6", "--budget", "20")
        assert code == 3 and err.startswith("budget exceeded")
        rows = out.splitlines()
        assert len(rows) == 9 and all(row.endswith("  ok") for row in rows)
        assert rows[0] == "0,1  |B|=0  ok"


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage error" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        code, out, _ = run(capsys, "sweep", "--help")
        assert code == 0
        assert "C(h, c) + l(w) + 1 nodes per polygon" in " ".join(out.split())

    @pytest.mark.parametrize(
        "argv",
        [
            ("abs", "3,6"),  # common factor
            ("abs", "3,2+2,7"),  # slopes out of order
            ("abs", "junk"),
            ("modify", "2,5+3,2", "--pair", "junk"),
            ("modify", "2,5+3,2", "--pair", "0:2:4,1:2:3"),  # reversed positions
            ("phi", "1,1"),  # isoclinic: no reduction applies
        ],
    )
    def test_domain_errors_exit_1(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err

    def test_ascii_flag_is_gone(self, capsys):
        code, out, err = run(capsys, "abs", "2,5+3,2", "--ascii")
        assert code == 1 and out == ""
        assert err.startswith("usage error") and "Traceback" not in err

    def test_modify_requires_pair(self, capsys):
        code, _, err = run(capsys, "modify", "2,5+3,2")
        assert code == 1
        assert "usage error" in err

    def test_internal_errors_propagate(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise InternalCheckError("invariant broke")

        monkeypatch.setattr(cli, "full_modification", explode)
        with pytest.raises(InternalCheckError):
            cli.main(["modify", "2,5+3,2", "--pair", "0:1:4,1:2:2"])
