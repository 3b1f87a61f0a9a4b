"""Smoke tests of the scripts under scripts/, each run through its main()."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dist", ["uniform:vbar=100", "normal:mu=50,sigma=16.67,vbar=100"])
def test_reserve_sweep(tmp_path, capsys, dist):
    out = tmp_path / "sweep.csv"
    argv = ["--sizes", "3,6", "--dist", dist, "--points", "5", "--out", str(out)]
    assert _load("reserve_sweep").main(argv) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sizes", "r", "revenue"]
    assert len(rows) == 1 + 5
    assert f"wrote 5 rows to {out}" in capsys.readouterr().out


def test_replicate_tables(capsys):
    assert _load("replicate_tables").main(["--runs", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("21 cells in ")
