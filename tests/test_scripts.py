"""Experiment scripts under scripts/: argument checks."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]


class TestBoundaryCensus:
    def test_budget_below_one_is_a_usage_error(self, capsys):
        main = script_main("boundary_census")
        with pytest.raises(SystemExit) as exc:
            main(["--height", "4", "--oracle", "--budget", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "the search budget must be at least 1 node, got 0" in err

    def test_budget_exceeded_exits_3(self, capsys):
        main = script_main("boundary_census")
        assert main(["--height", "5", "--oracle", "--budget", "1"]) == 3
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err.startswith("budget exceeded: the search visited more than 1 nodes for JWContext(h=")
