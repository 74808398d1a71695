"""Smoke tests of the runnable scripts at reduced size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evtlite as ev
from evtlite.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(ev.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.mark.parametrize("name, args, expected", [
    ("synthetic_demo.py", ("--out", "demo", "--n-days", 7300), "estimated point"),
    ("recovery_experiment.py", ("--replicates", 2), "conditional tail fit"),
])
def test_script_runs(tmp_path, name, args, expected):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_ensemble_pipeline_runs(tmp_path):
    # u0 and sigma keep every question's built-in target far above the fitted tails
    assert main(["synth", "--out", str(tmp_path / "data"), "--n-runs", "2", "--n-days", "7300",
                 "--n-sites", "25", "--u0", "0.3", "--sigma", "1e-6", "--seed", "4"]) == 0
    proc = run_script("ensemble_pipeline.py", "--data", "data", "--out", "results",
                      "--n-sim", 20, "--n-srun", 5, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("95% interval\n")[-1].splitlines()
    assert [row.split()[:2] for row in table] == [["q1", "1.7"], ["q2", "5.7"], ["q3", "5.0"]]
    for question in ("q1", "q2", "q3"):
        assert (tmp_path / "results" / question / "diagnostics" / "qq.csv").is_file()
