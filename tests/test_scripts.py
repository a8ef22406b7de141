"""Smoke runs of the experiment scripts at tiny sizes."""

import runpy
import sys
from pathlib import Path

import pytest

from stocond.forward import DEFAULT_EPSILON_LADDER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,argv,outputs,rows", [
    # one row per epsilon of the default ladder
    ("remainder_ladders.py", ["--paths", "40", "--steps", "20"],
     ["remainder_first_bilinear.csv", "remainder_second_cubic.csv"],
     len(DEFAULT_EPSILON_LADDER)),
    # one row per grid time
    ("adjoint_accuracy.py", ["--paths", "200", "--steps", "10"],
     ["adjoint_y_moments.csv", "adjoint_P_path.csv"], 11),
])
def test_script_runs_and_writes_its_csvs(script, argv, outputs, rows, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script] + argv)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert "wrote" in capsys.readouterr().out
    for name in outputs:
        lines = (tmp_path / name).read_text().strip().splitlines()
        assert len(lines) == 1 + rows
