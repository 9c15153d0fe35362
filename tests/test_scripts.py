"""The scripts under scripts/ run to completion on small inputs.

Both call the fit and AP code: fit_convergence.py fits outputs and scores
them, run_demo.py drives every CLI stage from gen through fit and eval.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def test_fit_convergence_recovers_every_label():
    out = _run_script("scripts/fit_convergence.py", "--seeds", "0", "--steps", "50")
    header, _, row = out.strip().splitlines()
    assert header.split()[-1] == "mean_ap"
    assert row.split()[0] == "0"
    assert row.split()[-1] == "1.000"


def test_run_demo_one_frame(tmp_path):
    out = _run_script("scripts/run_demo.py", "--frames", "1", "--out", str(tmp_path))
    assert "== metrics (fitted outputs) ==" in out
    assert (tmp_path / "metrics.txt").is_file()
