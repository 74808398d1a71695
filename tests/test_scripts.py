"""Smoke tests of the runnable scripts at reduced size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evtlite as ev

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
