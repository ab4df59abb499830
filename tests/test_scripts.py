"""The experiment scripts run end to end at tiny sizes: they import the
engine, genealogy and superprocess APIs that refactors touch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchlab

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    "survival_curve.py --seed 1 --reps 200 --horizons 1 2",
    "coalescent_stability.py --seed 1 --reps 20 --horizons 5 10",
    "superprocess_convergence.py --seed 1 --levels 4 8 --reps 5",
])
def test_script_runs(argv, tmp_path):
    script, *args = argv.split()
    out = tmp_path / "out.csv"
    src = str(Path(branchlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() and out.read_text().strip()
