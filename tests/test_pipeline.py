import io

import numpy as np
import pytest

from mvfusion.blockfile import BlockFileError
from mvfusion.bundle_io import write_frame_bundle
from mvfusion.metrics import decode_detections
from mvfusion.pipeline import (
    benchmark_frame,
    evaluate_bundles,
    fit_frame,
    forward_frame,
    frame_times,
    generate_bundles,
    load_cell_outputs,
    make_weights,
    rasterize_frame,
    save_cell_outputs,
)
from mvfusion.presets import bev_stack_channels, get_preset, preset_names


def test_preset_registry():
    assert preset_names() == ["atg4d", "desk", "nuscenes"]
    atg = get_preset("atg4d")
    assert (atg.grid.rows, atg.grid.cols) == (938, 625)
    assert bev_stack_channels(atg) == 160
    assert (atg.rv.rows, atg.rv.cols) == (64, 2048)
    nus = get_preset("nuscenes")
    assert (nus.grid.rows, nus.grid.cols, bev_stack_channels(nus)) == (800, 800, 400)
    assert (nus.rv.rows, nus.rv.cols) == (32, 2048)
    assert nus.camera.crop_top == 0
    with pytest.raises(ValueError):
        get_preset("kitti")


def test_frame_times_cover_history():
    preset = get_preset("desk")
    times = frame_times(preset, 3)
    assert times[0] == pytest.approx((preset.sweep_count - 1) * preset.sweep_period)
    assert times[2] - times[1] == pytest.approx(preset.frame_spacing)


def test_generation_deterministic_bytes(tmp_path):
    preset = get_preset("desk")
    blobs = []
    for run in range(2):
        _, bundles = generate_bundles(preset, seed=11, frames=2)
        payload = io.BytesIO()
        for i, b in enumerate(bundles):
            p = tmp_path / f"{run}_{i}.bin"
            write_frame_bundle(p, b)
            payload.write(p.read_bytes())
        blobs.append(payload.getvalue())
    assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def desk_frame():
    preset = get_preset("desk")
    _, bundles = generate_bundles(preset, seed=2, frames=1)
    return preset, bundles[0]


def test_rasterize_frame_shapes(desk_frame):
    preset, bundle = desk_frame
    rasters = rasterize_frame(bundle, preset)
    assert rasters["lidar_stack"].data.shape == (96, 64, 12)
    assert rasters["map_raster"].data.shape == (96, 64, 7)
    assert rasters["rv_image"].data.shape == (16, 512, 4)


def test_forward_frame_output_lattice(desk_frame):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    outputs = forward_frame(bundle, preset, weights)
    outputs.validate()
    assert outputs.prob["vehicle"].shape == (24, 16)
    assert outputs.centers["vehicle"].shape == (24, 16, 31, 2)


def test_forward_camera_ablation_same_lattice(desk_frame):
    preset, bundle = desk_frame
    w_l = make_weights(preset, seed=0, use_camera=False)
    out_l = forward_frame(bundle, preset, w_l, use_camera=False)
    w_lc = make_weights(preset, seed=0, use_camera=True)
    out_lc = forward_frame(bundle, preset, w_lc, use_camera=True)
    for cls in out_l.classes:
        assert out_l.prob[cls].shape == out_lc.prob[cls].shape


def test_cell_outputs_artifact_roundtrip(tmp_path, desk_frame):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=3)
    outputs = forward_frame(bundle, preset, weights)
    path = tmp_path / "outputs.bin"
    save_cell_outputs(path, outputs)
    loaded = load_cell_outputs(path)
    assert loaded.grid == outputs.grid
    assert loaded.horizon == outputs.horizon
    for cls in outputs.classes:
        assert np.allclose(loaded.prob[cls], outputs.prob[cls], atol=1e-6)
        assert np.allclose(loaded.centers[cls], outputs.centers[cls], atol=1e-5)


@pytest.mark.parametrize("field", ["prob", "size", "centers", "headings"])
def test_load_cell_outputs_rejects_non_finite(tmp_path, desk_frame, field):
    preset, bundle = desk_frame
    outputs = forward_frame(bundle, preset, make_weights(preset, seed=0))
    getattr(outputs, field)["pedestrian"][2, 3] = np.nan
    path = tmp_path / "outputs.bin"
    save_cell_outputs(path, outputs)
    with pytest.raises(BlockFileError, match="pedestrian"):
        load_cell_outputs(path)


def test_fit_eval_roundtrip_single_frame(desk_frame):
    preset, bundle = desk_frame
    result, targets = fit_frame(bundle, preset, steps=300, output_stride=1, seed=0)
    dets = decode_detections(result.outputs, score_floor=0.5)
    report = evaluate_bundles([(dets, list(bundle.labels.labels))], preset)
    for cls in ("vehicle", "pedestrian", "bicyclist"):
        section = report.sections[f"{cls}.full"]
        if section["gt_count"] > 0:
            assert section["ap"] == 1.0


def test_benchmark_camera_ablation_reduces_total(desk_frame):
    preset, bundle = desk_frame
    w_lc = make_weights(preset, seed=0, use_camera=True)
    w_l = make_weights(preset, seed=0, use_camera=False)
    full = benchmark_frame(bundle, preset, w_lc, use_camera=True, repeats=3)
    reduced = benchmark_frame(bundle, preset, w_l, use_camera=False, repeats=3)
    names = [n for n, _ in full.stages]
    assert "camera_net" in names and "camera_net" not in [n for n, _ in reduced.stages]
    assert reduced.total_ms < full.total_ms
    assert full.total_ms == pytest.approx(sum(ms for _, ms in full.stages), rel=0.05)
