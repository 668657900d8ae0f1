"""Smoke tests: the experiment scripts still run against the library."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_complex_onset_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["complex_onset.py", "--gammas", "4", "--n-max", "16"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "complex_onset.py"), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma,onset_n"
    assert len(lines) == 2 and lines[1].startswith("4,")
