import io
from types import SimpleNamespace

import numpy as np
import pytest

from mvfusion import network, pipeline
from mvfusion.blockfile import BlockFileError
from mvfusion.bundle_io import write_frame_bundle
from mvfusion.metrics import DetBox, decode_detections
from mvfusion.network import (
    bev_branch_forward,
    camera_net_forward,
    fuse_and_head_forward,
    fuse_input_of,
    rv_branch_forward,
)
from mvfusion.pipeline import (
    benchmark_frame,
    evaluate_bundles,
    fit_frame,
    forward_frame,
    frame_times,
    generate_bundles,
    layer_plan,
    load_cell_outputs,
    make_weights,
    rasterize_frame,
    save_cell_outputs,
    scene_config_for,
)
from mvfusion.presets import bev_stack_channels, get_preset, preset_names
from mvfusion.projection import project_features
from mvfusion.scene import build_scene, scene_labels
from mvfusion.views import FeatureMap


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
    out_l = forward_frame(bundle, preset, make_weights(preset, seed=0, use_camera=False))
    out_lc = forward_frame(bundle, preset, make_weights(preset, seed=0, use_camera=True))
    for cls in out_l.classes:
        assert out_l.prob[cls].shape == out_lc.prob[cls].shape


def float64_forward(bundle, preset, weights):
    """The frame DAG's branch calls with every raster in float64."""
    plan = layer_plan(preset, weights)
    config = plan.config
    rasters = rasterize_frame(bundle, preset)
    lidar, map_raster = (FeatureMap(fm.view, fm.data.astype(np.float64), fm.geometry)
                         for fm in (rasters["lidar_stack"], rasters["map_raster"]))
    points = bundle.sweeps[-1].points
    cam = camera_net_forward(bundle.camera_image, weights, plan)
    rv = rv_branch_forward(rasters["rv_image"], cam, points, weights, plan)
    fuse_input = fuse_input_of(bev_branch_forward(lidar, map_raster, weights, plan), config)
    project_features(rv, points, preset.grid, out=fuse_input.data[:, :, config.bev_width:])
    return fuse_and_head_forward(fuse_input, weights, plan)


# Largest deviation from the float64 path measured on 40 desk frames (seeds
# 1-10, 4 frames each): 1.0e-8 in probability, 5.1e-8 in size, centers and
# headings. The bounds are 100x and 20x that.
PROB_BOUND = 1e-6
REGRESSION_BOUND = 1e-6


def test_forward_frame_dtype_policy(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    dtypes = {}
    conv2d_forward = network.conv2d_forward

    def recording(fm, layer, weights, **kwargs):
        out = conv2d_forward(fm, layer, weights, **kwargs)
        dtypes[layer.name] = out.data.dtype
        return out

    monkeypatch.setattr(network, "conv2d_forward", recording)
    outputs = forward_frame(bundle, preset, weights)
    assert len(dtypes) == len(network.network_plan(preset.fusion, bev_stack_channels(preset)))
    assert set(dtypes.values()) == {np.dtype(np.float32)}
    dtypes.clear()
    reference = float64_forward(bundle, preset, weights)
    assert set(dtypes.values()) == {np.dtype(np.float64)}

    outputs.validate()
    for cls in outputs.classes:
        assert outputs.prob[cls].dtype == reference.prob[cls].dtype == np.float64
        assert np.abs(outputs.prob[cls] - reference.prob[cls]).max() <= PROB_BOUND
        for field in ("size", "centers", "headings"):
            got, want = getattr(outputs, field)[cls], getattr(reference, field)[cls]
            assert got.dtype == np.float64
            assert np.abs(got - want).max() <= REGRESSION_BOUND
    dets = [(d.cls, d.cell) for d in decode_detections(outputs)]
    assert dets and dets == [(d.cls, d.cell) for d in decode_detections(reference)]


def test_frame_tensors_are_dead_when_the_fuse_convolutions_run(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    plan = pipeline.frame_plan(preset, layer_plan(preset, weights))
    fuse1, fuse2 = plan.steps.index("fuse.conv1"), plan.steps.index("fuse.conv2")
    # the BEV stack, the BEV features (the sum is held in bev.lidar2's
    # output) and rv_feats (unet.fuse's output) end before fuse.conv1, and
    # the fuse input, which the RV->BEV projection writes, with fuse.conv1
    for name in ("lidar_stack", "bev.lidar2", "unet.fuse"):
        assert plan.tensor(name).last < fuse1
    fuse_input = plan.tensor("fuse.conv1.in")
    assert plan.steps[fuse_input.first] == "fuse.conv1.in"
    assert fuse_input.first < plan.steps.index("rv_to_bev") < fuse_input.last == fuse1 < fuse2

    # the forward pass writes the projection into that view and fuse.conv1 reads it
    arena = pipeline.frame_arena(plan)
    project_fn, conv_fn = pipeline.project_features, network.conv2d_forward
    projected, fuse_in = [], []

    def project(source, points, grid, out):
        feats, validity = project_fn(source, points, grid, out=out)
        assert feats.data.dtype == validity.data.dtype == source.data.dtype == np.float32
        projected.append(np.shares_memory(out, arena.view("fuse.conv1.in")))
        return feats, validity

    def conv(fm, layer, weights, **kwargs):
        if layer.name == "fuse.conv1":
            fuse_in.append(fm.data is arena.view("fuse.conv1.in"))
        return conv_fn(fm, layer, weights, **kwargs)

    monkeypatch.setattr(pipeline, "project_features", project)
    monkeypatch.setattr(network, "conv2d_forward", conv)
    forward_frame(bundle, preset, weights)
    assert projected == fuse_in == [True]


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


def test_evaluate_labels_as_detections_scores_exact_ap_over_60_desk_frames():
    # 60 frames pool 180 vehicles, a label count whose recall steps of 1/180
    # summed to just under 1.0
    preset = get_preset("desk")
    frames = []
    for k in range(30):
        scene = build_scene(scene_config_for(preset, 1000 + k, 2))
        for t in frame_times(preset, 2):
            labels = scene_labels(scene, t, preset.horizon).labels
            dets = [DetBox(lab.cls, 0.9, lab.box, lab.centers[1:], lab.headings[1:]) for lab in labels]
            frames.append((dets, list(labels)))
    report = evaluate_bundles(frames, preset)
    assert report.sections["vehicle.full"]["gt_count"] == 180
    for cls in ("vehicle", "pedestrian", "bicyclist"):
        assert report.sections[f"{cls}.full"]["ap"] == 1.0


def test_benchmark_camera_ablation_reduces_total(desk_frame):
    preset, bundle = desk_frame
    w_lc = make_weights(preset, seed=0, use_camera=True)
    w_l = make_weights(preset, seed=0, use_camera=False)
    # The camera stages add a few ms to a ~30 ms frame, about the spread of a
    # single timing run; interleaved rounds compared by their medians keep
    # drift and outliers from deciding the comparison.
    fulls, reduceds = [], []
    for _ in range(5):
        fulls.append(benchmark_frame(bundle, preset, w_lc, repeats=3))
        reduceds.append(benchmark_frame(bundle, preset, w_l, repeats=3))
    assert list(fulls[0]) == ["rasterize", "bev_branch", "camera_net", "rv_branch", "rv_to_bev", "fuse_head",
                              "decode", "total"]
    assert "camera_net" not in reduceds[0]
    assert np.median([r["total"] for r in reduceds]) < np.median([r["total"] for r in fulls])


def test_benchmark_frame_medians_of_whole_frames(monkeypatch):
    # A scripted clock: stage s of repeat k lasts durations[s][k] seconds.
    # Each stage reports its median, and "total" the median of the per-repeat
    # sums, not the sum of the stage medians (0.5 s here); two outliers
    # among seven repeats move neither, however large they grow.
    def medians(outlier_s):
        durations = {"a": [0.25, outlier_s, 0.5, 0.125, 0.125, 0.375, 0.25],
                     "b": [0.0625, 0.125, 0.0625, 0.25, outlier_s, 0.125, 0.5],
                     "decode": [0.125, 0.25, 0.125, 0.125, 0.25, 0.125, 0.125]}
        ticks = iter(np.cumsum([d for k in range(7) for d in (0.0, *(durations[s][k] for s in durations))]))
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(process_time=lambda: next(ticks)))
        monkeypatch.setattr(pipeline, "pipeline_stages",
                            lambda preset, weights: [("a", lambda ctx: {}), ("b", lambda ctx: {"outputs": None})])
        monkeypatch.setattr(pipeline, "decode_detections", lambda outputs: [])
        return benchmark_frame(None, None, None, repeats=7)

    assert medians(2.0) == medians(1e3) == medians(1e6) == {"a": 250.0, "b": 125.0, "decode": 125.0, "total": 687.5}
    with pytest.raises(ValueError, match="repeats must be positive"):
        benchmark_frame(None, None, None, repeats=0)
