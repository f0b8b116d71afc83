"""Every demo runs to completion; 05, a short training run (about 12 s), is marked slow."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_tape_and_jets.py", "02_sobol_sampling.py", "03_exact_conservation.py",
               "04_discrete_projection_failure.py", "06_memory_scaling.py"]


def _run_demo(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # demo 04 writes integral_compare.csv and demo 05 its .refcache into the working directory
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    _run_demo(demo, tmp_path)


@pytest.mark.slow
def test_training_demo_runs(tmp_path):
    out = _run_demo("05_training_advection.py", tmp_path)
    assert "final: loss" in out and "frozen projection" in out
