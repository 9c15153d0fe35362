"""The scripts under scripts/ run to completion on small inputs.

fit_convergence.py fits outputs and scores them, run_demo.py drives every
CLI stage from gen through fit and eval, and stage_memory.py prints the
frame's arena plan, then the forward pass's tracemalloc peaks per stage and
per conv layer, or with --frames the CPU time and page faults of frames.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from mvfusion.network import network_plan
from mvfusion.pipeline import frame_plan, layer_plan, make_weights
from mvfusion.presets import bev_stack_channels, get_preset

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


def _plan_checks(records, preset):
    """The plan's records: every tensor of pipeline.frame_plan, then the arena's size."""
    plan = frame_plan(preset, layer_plan(preset, make_weights(preset, 0)))
    tensors = [r for r in records if r["kind"] == "tensor"]
    assert [(r["name"], r["bytes"], r["offset"], r["first"], r["last"]) for r in tensors] == [
        (t.name, t.nbytes, t.offset, plan.steps[t.first], plan.steps[t.last]) for t in plan.tensors]
    arena = next(r for r in records if r["kind"] == "arena")
    assert arena == {"kind": "arena", "mib": round(plan.size / 2**20, 1), "tensors": len(plan.tensors)}


def test_stage_memory_reports_every_stage_and_conv_layer():
    out = _run_script("scripts/stage_memory.py", "--preset", "desk", "--seed", "1")
    records = [json.loads(line) for line in out.strip().splitlines()]
    preset = get_preset("desk")
    _plan_checks(records, preset)
    stages = [r for r in records if r["kind"] == "stage"]
    layers = [r for r in records if r["kind"] == "layer"]
    frame = records[-1]
    assert [r["name"] for r in stages] == ["rasterize", "bev_branch", "camera_net", "rv_branch", "rv_to_bev",
                                         "fuse_head"]
    assert sorted(r["name"] for r in layers) == sorted(
        layer.name for layer in network_plan(preset.fusion, bev_stack_channels(preset)))
    peaks = {r["name"]: r["peak_mib"] for r in stages}
    for r in layers:
        assert 0.0 < r["peak_mib"] <= peaks[r["stage"]]
    assert frame["kind"] == "frame" and frame["peak_mib"] == max(peaks.values()) > 0.0


def test_stage_memory_times_frames():
    out = _run_script("scripts/stage_memory.py", "--preset", "desk", "--frames", "2")
    records = [json.loads(line) for line in out.strip().splitlines()]
    _plan_checks(records, get_preset("desk"))
    rounds = [r for r in records if r["kind"] == "round"]
    assert [r["frame"] for r in rounds] == [1, 2] and records[-2:] == rounds
    for r in rounds:
        assert r["user_ms"] > 0.0 and r["sys_ms"] >= 0.0 and r["minor_faults"] >= 0 and r["maxrss_mb"] > 0.0
    assert not [r for r in records if r["kind"] in ("layer", "stage", "frame")]
