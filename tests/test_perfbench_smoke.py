"""One-second runs of the frame benchmark: every check it makes must pass.

The benchmark (perfbench/run.py) checks bundles, points, voxels, the
RV->BEV projection, cell outputs, NMS and evaluation counts outside its
timed spans (on desk-fit also the fit's monotone loss and its AP), and,
traced, that every wrapped layer function is reached. These runs catch a
change that breaks one of those checks.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_desk_stream_run_passes_its_checks(trace):
    _run_passes_its_checks("desk-stream", trace)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_desk_fit_run_passes_its_checks(trace):
    _run_passes_its_checks("desk-fit", trace)


def test_benchmark_imports_leave_the_reference_code_out():
    # The benchmark compiles its imports at every start (PYTHONDONTWRITEBYTECODE
    # is set), so its set-up time pays for every module they load. The
    # package modules perfbench/workloads.py imports must not pull in the
    # literal oracles or the selfcheck suite.
    modules = ("bundle_io", "losses", "metrics", "network", "pipeline", "projection", "raster", "presets",
               "scene", "views")
    code = "import sys\n" + "".join(f"import mvfusion.{m}\n" for m in modules) + (
        "print(sorted(m for m in ('mvfusion.oracles', 'mvfusion.selfcheck') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
