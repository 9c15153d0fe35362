"""The scripts under scripts/ run to completion on small inputs.

fit_convergence.py fits outputs and scores them, run_demo.py drives every
CLI stage from gen through fit and eval, stage_memory.py prints the
frame's arena plan, then the forward pass's tracemalloc peaks per stage and
per conv layer, or with --frames the CPU time and page faults of frames,
conv_kernels.py times every conv layer under each kernel it can take, and
frame_digests.py prints the SHA-256 of the cell outputs of fixed frames,
which on the BLAS they were recorded with must equal the recorded ones.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvfusion.network import network_plan, winograd_shape
from mvfusion.pipeline import fusion_net, make_weights
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
    """The plan's records: every tensor of the arena plan of pipeline.fusion_net,
    every step with the bytes of the frame's tensors live in it and its
    work, then the arena's size and the largest of those moments, which it
    cannot be smaller than."""
    plan = fusion_net(preset, make_weights(preset, 0)).arena.plan
    tensors = [r for r in records if r["kind"] == "tensor"]
    assert [(r["name"], r["bytes"], r["offset"], r["first"], r["last"]) for r in tensors] == [
        (t.name, t.nbytes, t.offset, plan.steps[t.first], plan.steps[t.last]) for t in plan.tensors]
    steps = [r for r in records if r["kind"] == "step"]
    assert [r["name"] for r in steps] == list(plan.steps)
    live = [sum(t.end - t.offset for t in plan.tensors if t.live_at(i) and not t.name.endswith(".work"))
            for i in range(len(plan.steps))]
    assert [r["live_mib"] for r in steps] == [round(n / 2**20, 1) for n in live]
    work = {plan.steps[t.first]: t.nbytes for t in plan.tensors if t.name.endswith(".work")}
    assert [r["work_mib"] for r in steps] == [round(work.get(step, 0) / 2**20, 1) for step in plan.steps]
    arena = next(r for r in records if r["kind"] == "arena")
    assert arena == {"kind": "arena", "mib": round(plan.size / 2**20, 1), "tensors": len(plan.tensors),
                     "moment_mib": round(max(live) / 2**20, 1), "moment_step": plan.steps[live.index(max(live))]}
    assert max(live) <= plan.size


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


def test_conv_kernels_times_every_layer_under_its_eligible_kernels():
    out = _run_script("scripts/conv_kernels.py", "--preset", "desk", "--seed", "1", "--repeats", "1")
    header, rule, *rows = out.strip().splitlines()
    assert header == "| layer | input | occupied | rule | im2col ms | winograd ms | occupied ms |"
    assert rule == "|---" * 7 + "|"
    preset = get_preset("desk")
    net = fusion_net(preset, make_weights(preset, 0))
    plan = net.layers  # the layers as run: the joined layers' dense parts
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    # a row for each joined layer's projected part, timed under the occupied-pixel kernel only
    parts = [c for c in cells if c[0].endswith(".projected")]
    assert sorted(c[0] for c in parts) == ["fuse.conv1.projected", "unet.enc1.projected"]
    for name, shape, hits, kernel, *times in parts:
        assert int(shape.split("x")[2]) == net.projected[name[:-len(".projected")]].kernel.shape[2]
        assert 0.0 < float(hits) < 1.0 and kernel == "occupied" and times[:2] == ["-", "-"] and float(times[2]) >= 0
    cells = [c for c in cells if c not in parts]
    assert sorted(c[0] for c in cells) == sorted(layer.name for layer in network_plan(preset.fusion,
                                                                                      bev_stack_channels(preset)))
    for name, shape, occupied, kernel, *times in cells:
        layer = plan[name]
        assert int(shape.split("x")[2]) == layer.in_channels and 0.0 < float(occupied) <= 1.0
        timed = [k for k, t in zip(("im2col", "winograd", "occupied"), times) if t != "-"]
        assert kernel in timed and all(float(t) >= 0.0 for t in times if t != "-")
        assert ("winograd" in timed) == (layer.kernel == (3, 3) and layer.stride == (1, 1))
        # the rule picks Winograd for exactly the layers of a Winograd shape
        assert (kernel == "winograd") == winograd_shape(layer.in_channels, layer.kernel, layer.stride)


def test_frame_digests_agree_from_run_to_run():
    first = _run_script("scripts/frame_digests.py", "--desk-frames", "2", "--atg4d-frames", "0")
    lines = first.strip().splitlines()
    assert [line.split()[:3] for line in lines] == [["desk", "1000", "0.200"], ["desk", "1000", "0.700"]]
    assert all(len(line.split()) == 5 and len(line.split()[3]) == len(line.split()[4]) == 64 for line in lines)
    assert _run_script("scripts/frame_digests.py", "--desk-frames", "2", "--atg4d-frames", "0") == first


DIGESTS = ROOT / "tests" / "frame_digests_desk.txt"

# Runs frame_digests.py in-process after printing the fingerprint of the
# BLAS it runs on: numpy's version, its OpenBLAS build (which names the
# core kernels) and thread count, read after the script has set its BLAS
# thread defaults, since any of them may change the bits of a product.
_FINGERPRINT_THEN_DIGESTS = """
import ctypes, glob, os, runpy, sys
script = runpy.run_path("scripts/frame_digests.py")
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
config, threads = "unknown", "unknown"
if libs:
    blas = ctypes.CDLL(libs[0])
    blas.scipy_openblas_get_config64_.restype, blas.scipy_openblas_get_config64_.argtypes = ctypes.c_char_p, []
    blas.scipy_openblas_get_num_threads64_.restype, blas.scipy_openblas_get_num_threads64_.argtypes = ctypes.c_int, []
    config, threads = blas.scipy_openblas_get_config64_().decode(), blas.scipy_openblas_get_num_threads64_()
print(f"numpy {numpy.__version__}")
print(f"blas {config}")
print(f"blas_threads {threads}", flush=True)
script["main"](sys.argv[1:])
"""


def test_frame_digests_equal_the_record():
    # The 40 desk lines frame_digests.py prints, as recorded with the
    # fingerprint of the BLAS they were computed on: a bit change shows in
    # the record's diff. On another fingerprint the bits may differ, so the
    # comparison is skipped there.
    out = _run_script("-c", _FINGERPRINT_THEN_DIGESTS, "--atg4d-frames", "0").strip().splitlines()
    recorded = DIGESTS.read_text().strip().splitlines()
    if out[:3] != recorded[:3]:
        pytest.skip(f"digests recorded on {recorded[:3]}, this host is {out[:3]}")
    assert out[3:] == recorded[3:] and len(recorded) == 43
