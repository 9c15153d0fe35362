import os
import re
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvfusion.bundle_io import BundleFormatError, read_frame_bundle
from mvfusion.cli import main
from mvfusion.network import save_weights
from mvfusion.pipeline import make_weights
from mvfusion.presets import get_preset


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_bundles(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("gen", "--preset", "desk", "--seed", "5", "--frames", "2", "--out", str(out)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert str(out / "scene_config.txt") in printed
    assert (out / "bundle_000.bin").exists()
    assert (out / "bundle_001.bin").exists()
    assert len(printed) == 3


def test_gen_idempotent_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("gen", "--preset", "desk", "--seed", "9", "--frames", "1", "--out", str(a))
    run_cli("gen", "--preset", "desk", "--seed", "9", "--frames", "1", "--out", str(b))
    assert (a / "bundle_000.bin").read_bytes() == (b / "bundle_000.bin").read_bytes()
    assert (a / "scene_config.txt").read_text() == (b / "scene_config.txt").read_text()


def test_raster_and_project_dumps(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    capsys.readouterr()
    assert run_cli("raster", "--preset", "desk", "--out", str(out)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("bev_000.pgm") for p in printed)
    assert any("rv_image" in p for p in printed)
    assert run_cli("project", "--preset", "desk", "--out", str(out)) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any("camera_to_rv_validity" in p for p in printed)
    assert any("rv_to_bev" in p for p in printed)


def test_forward_then_eval_schema(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out)) == 0
    assert (out / "weights.bin").exists()
    assert (out / "outputs_000.bin").exists()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 0
    text = (out / "metrics.txt").read_text()
    for section in ("[vehicle.full]", "[pedestrian.full]", "[bicyclist.full]",
                    "[vehicle.fov]", "[vehicle.fov_0m-25m]"):
        assert section in text


def test_forward_no_camera(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli("forward", "--preset", "desk", "--seed", "5", "--no-camera", "--out", str(out)) == 0
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 0
    assert (out / "metrics.txt").exists()


def test_forward_idempotent_bit_identical(tmp_path):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    first = (out / "outputs_000.bin").read_bytes()
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert (out / "outputs_000.bin").read_bytes() == first


def test_gen_nuscenes_scale(tmp_path):
    out = tmp_path / "nusc"
    assert run_cli("gen", "--preset", "nuscenes", "--seed", "7", "--frames", "1",
                   "--out", str(out)) == 0
    from mvfusion.bundle_io import read_frame_bundle
    from mvfusion.presets import get_preset

    bundle = read_frame_bundle(out / "bundle_000.bin", expected_preset="nuscenes",
                               camera=get_preset("nuscenes").camera)
    assert len(bundle.sweeps) == 10
    assert bundle.camera_image.data.shape == (900, 1600, 3)


def test_eval_without_outputs_fails(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    assert "run `forward` or `fit` first" in capsys.readouterr().err


def test_eval_rejects_non_finite_outputs(tmp_path, capsys):
    from mvfusion.pipeline import load_cell_outputs, save_cell_outputs

    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    outputs = load_cell_outputs(out / "outputs_000.bin")
    outputs.prob["vehicle"][:] = float("nan")
    save_cell_outputs(out / "outputs_000.bin", outputs)
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vehicle" in err
    assert not (out / "metrics.txt").exists()


def test_eval_rejects_probabilities_outside_the_unit_interval(tmp_path, capsys):
    from mvfusion.pipeline import load_cell_outputs, save_cell_outputs

    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    outputs = load_cell_outputs(out / "outputs_000.bin")
    outputs.prob["vehicle"][0, 0] = 1.5
    outputs.prob["pedestrian"][0, 0] = -0.25
    save_cell_outputs(out / "outputs_000.bin", outputs)
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "probabilities must be strictly inside (0, 1)" in err
    assert not (out / "metrics.txt").exists()


@pytest.mark.parametrize("change", ["renamed class", "horizon 5"])
def test_eval_rejects_outputs_that_do_not_match_the_preset(tmp_path, capsys, change):
    from mvfusion.network import CellOutputs
    from mvfusion.pipeline import load_cell_outputs, save_cell_outputs

    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    o = load_cell_outputs(out / "outputs_000.bin")
    if change == "renamed class":
        rename = {"vehicle": "car"}
        o = CellOutputs(o.grid, o.horizon, tuple(rename.get(c, c) for c in o.classes),
                        *({rename.get(c, c): v for c, v in d.items()} for d in (o.prob, o.size, o.centers, o.headings)))
    else:
        assert o.horizon > 5
        o = CellOutputs(o.grid, 5, o.classes, o.prob, o.size, {c: v[:, :, :6] for c, v in o.centers.items()},
                        {c: v[:, :, :6] for c, v in o.headings.items()})
    save_cell_outputs(out / "outputs_000.bin", o)
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'outputs_000.bin'}: outputs of classes ")
    assert ("car,pedestrian" in err) if change == "renamed class" else ("horizon 5;" in err)
    assert not (out / "metrics.txt").exists()


def test_eval_rejects_outputs_off_the_preset_grid(tmp_path, capsys):
    from mvfusion.pipeline import load_cell_outputs, save_cell_outputs

    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    o = load_cell_outputs(out / "outputs_000.bin")
    assert o.grid.x_min == -16.0
    o.grid = replace(o.grid, x_min=24.0)  # boxes decoded 40 m off
    save_cell_outputs(out / "outputs_000.bin", o)
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'outputs_000.bin'}: outputs on OutputGrid(") and "x_min=24.0" in err
    assert not (out / "metrics.txt").exists()


@pytest.mark.parametrize("producer", [("forward",), ("fit", "--steps", "5")])
def test_eval_accepts_forward_and_fit_outputs_on_their_grids(tmp_path, capsys, producer):
    from mvfusion.pipeline import load_cell_outputs
    from mvfusion.views import OutputGrid

    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli(*producer, "--preset", "desk", "--seed", "5", "--out", str(out)) == 0
    stride = 4 if producer[0] == "forward" else 1
    grid = get_preset("desk").grid
    assert load_cell_outputs(out / "outputs_000.bin").grid == OutputGrid.from_grid(grid, stride)
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 0
    assert (out / "metrics.txt").exists()


@pytest.mark.parametrize("section", ["map", "labels"])
def test_eval_rejects_bundle_count_overrun(tmp_path, capsys, section):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    path = out / "bundle_000.bin"
    body, n = re.subn(rb"\n%s \d+\n" % section.encode(), b"\n%s 999999\n" % section.encode(),
                      path.read_bytes()[:-len("crc32 00000000\n")], count=1)
    assert n == 1
    path.write_bytes(body + b"crc32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF))
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {section} count 999999")


@pytest.mark.parametrize("fault", ["block without a name", "no meta rows", "negative dimensions"])
def test_eval_rejects_malformed_outputs_files(tmp_path, capsys, fault):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    run_cli("forward", "--preset", "desk", "--seed", "5", "--out", str(out))
    path = out / "outputs_000.bin"
    manifest, payload = path.read_bytes().split(b"\nend\n", 1)
    if fault == "block without a name":
        manifest = re.sub(rb"\nblock cells [\d ]+", b"\nblock", manifest)
    elif fault == "no meta rows":
        manifest = re.sub(rb"\nmeta rows \d+", b"", manifest)
    else:
        manifest, payload = re.sub(rb"\nblock cells [\d ]+", b"\nblock cells 2 -1 -1", manifest), bytes(8)
    path.write_bytes(manifest + b"\nend\n" + payload)
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (out / "metrics.txt").exists()


def test_eval_rejects_a_bundle_with_a_bad_ppm_header(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    path = out / "bundle_000.bin"
    body = path.read_bytes()[:-len("crc32 00000000\n")]
    image_at = body.rindex(b"P6\n")
    old_ppm = body[image_at:]
    ppm = re.sub(rb"^P6\n\d+ \d+\n", b"P6\n3\n", old_ppm)
    body = body[:image_at].replace(b"\nimage %d\n" % len(old_ppm), b"\nimage %d\n" % len(ppm)) + ppm
    path.write_bytes(body + b"crc32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF))
    capsys.readouterr()
    assert run_cli("eval", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "PPM" in err


@pytest.mark.parametrize("field,value,message", [(5, -1.0, "azimuths"), (5, 7.0, "azimuths"),
                                                (6, 40.0, "laser ids")])  # desk has 16 beams
def test_raster_rejects_a_point_that_no_rv_cell_holds(tmp_path, capsys, field, value, message):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "1000", "--out", str(out))
    path = out / "bundle_000.bin"
    body = bytearray(path.read_bytes()[:-len("crc32 00000000\n")])
    payload = body.index(b"\nend\n") + len(b"\nend\n")
    counts = [int(line.split()[-1]) for line in body[:payload].decode().splitlines() if line.startswith("sweep ")]
    at = payload + 7 * 4 * sum(counts[:-1]) + 4 * field  # a field of the last sweep's first record
    body[at:at + 4] = np.array(value, dtype="<f4").tobytes()
    path.write_bytes(bytes(body) + b"crc32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(BundleFormatError, match=message):
        read_frame_bundle(path)
    capsys.readouterr()
    assert run_cli("raster", "--preset", "desk", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: sweep at t=") and message in err


def test_forward_rejects_non_finite_weights(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    weights = make_weights(get_preset("desk"), seed=5)
    kernel = weights.blocks["cam.conv1.kernel"].copy()
    kernel[0, 0, 0, 0] = float("nan")
    weights = replace(weights, blocks={**weights.blocks, "cam.conv1.kernel": kernel})
    path = tmp_path / "nan.bin"
    save_weights(path, weights)
    capsys.readouterr()
    assert run_cli("forward", "--preset", "desk", "--weights", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "cam.conv1.kernel" in err
    assert not (out / "outputs_000.bin").exists()


@pytest.mark.parametrize("block, fault", [
    ("fuse.head.bias", "missing block fuse.head.bias"),
    ("unet.enc1.kernel", "block unet.enc1.kernel has shape (3, 3, 49, 31), the plan needs (3, 3, 49, 32)"),
])
def test_forward_rejects_weights_off_the_plan(tmp_path, capsys, block, fault):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    weights = make_weights(get_preset("desk"), seed=5)
    blocks = dict(weights.blocks)
    if block.endswith(".bias"):
        del blocks[block]
    else:
        blocks[block] = blocks[block][:, :, :, 1:]
    weights = replace(weights, blocks=blocks)
    path = tmp_path / "off_plan.bin"
    save_weights(path, weights)
    capsys.readouterr()
    assert run_cli("forward", "--preset", "desk", "--weights", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {fault}")
    assert not (out / "outputs_000.bin").exists()


def test_forward_checks_weights_against_the_no_camera_plan(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    path = tmp_path / "no_camera.bin"
    save_weights(path, make_weights(get_preset("desk"), seed=5, use_camera=False))
    assert run_cli("forward", "--preset", "desk", "--no-camera", "--weights", str(path), "--out", str(out)) == 0
    assert (out / "outputs_000.bin").exists()
    capsys.readouterr()
    assert run_cli("forward", "--preset", "desk", "--weights", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: missing block cam.conv1.kernel")


def test_bench_writes_latency_table(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli("bench", "--preset", "desk", "--out", str(out), "--repeats", "2") == 0
    keys = [line.split(" = ")[0] for line in (out / "latency.txt").read_text().splitlines()]
    assert keys == ["repeats"] + [f"{stage}_latency_ms" for stage in (
        "rasterize", "bev_branch", "camera_net", "rv_branch", "rv_to_bev", "fuse_head", "decode", "total")]
    capsys.readouterr()
    assert run_cli("bench", "--preset", "desk", "--out", str(out), "--repeats", "0") == 1
    assert capsys.readouterr().err == "error: repeats must be positive\n"


def test_selfcheck_passes(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("selfcheck", "--out", str(out)) == 0
    report = (out / "selfcheck_report.txt").read_text()
    assert report.rstrip().endswith("selfcheck: PASS")
    assert "FAIL" not in report


def test_unknown_preset_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--preset", "kitti")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (("gen", "--frames", "0"), "--frames"),
    (("gen", "--frames", "-2"), "--frames"),
    (("fit", "--steps", "-3"), "--steps"),
    (("eval", "--recall-target", "1.5"), "--recall-target"),
    (("eval", "--recall-target", "-0.5"), "--recall-target"),
    (("eval", "--recall-target", "0"), "--recall-target"),
    (("eval", "--score-floor", "nan"), "--score-floor"),
    (("eval", "--score-floor", "1.01"), "--score-floor"),
    (("eval", "--nms-iou", "-1"), "--nms-iou"),
    (("eval", "--nms-iou", "inf"), "--nms-iou"),
])
def test_bad_numbers_are_rejected_before_any_work(tmp_path, capsys, argv, flag):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"mvfusion {argv[0]}: error: argument {flag}: {argv[2]} is not ")
    assert "Traceback" not in err and not out.exists()


def test_fewer_than_one_frame_is_a_value_error():
    from mvfusion.pipeline import frame_times, scene_config_for

    preset = get_preset("desk")
    assert len(frame_times(preset, 1)) == 1
    for frames in (0, -1):
        with pytest.raises(ValueError, match="frames must be at least 1"):
            scene_config_for(preset, 0, frames)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvfusion.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "selfcheck" in proc.stdout


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_set", [{}, {"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "4"}])
def test_cli_runs_blas_on_one_thread_unless_the_user_set_a_count(user_set):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(user_set)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    # the variables as they are when numpy is first imported, which is when BLAS reads them
    code = f"""
import builtins, os
seen, real_import = [], builtins.__import__
def recording_import(name, *args, **kwargs):
    if name == "numpy" and not seen:
        seen.extend(os.environ.get(v, "unset") for v in {BLAS_THREAD_VARS!r})
    return real_import(name, *args, **kwargs)
builtins.__import__ = recording_import
import mvfusion.cli
print(*seen)
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [user_set.get(v, "1") for v in BLAS_THREAD_VARS]
