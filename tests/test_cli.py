import subprocess
import sys

import pytest

from mvfusion.cli import main


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


def test_bench_writes_latency_table(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("gen", "--preset", "desk", "--seed", "5", "--out", str(out))
    assert run_cli("bench", "--preset", "desk", "--out", str(out), "--repeats", "2") == 0
    text = (out / "latency.txt").read_text()
    assert "total_latency_ms" in text
    assert "rasterize_latency_ms" in text


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvfusion.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "selfcheck" in proc.stdout
