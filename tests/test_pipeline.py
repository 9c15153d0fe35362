import hashlib
import io
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mvfusion import network, pipeline
from mvfusion.blockfile import BlockFileError
from mvfusion.bundle_io import write_frame_bundle
from mvfusion.metrics import DetBox, decode_detections
from mvfusion.network import (
    FusionNet,
    NetworkWeights,
    bev_branch_forward,
    camera_net_forward,
    fuse_and_head_forward,
    rv_branch_forward,
)
from mvfusion.pipeline import (
    FRAME_SPACING,
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
    scene_config_for,
)
from mvfusion.presets import bev_stack_channels, get_preset, preset_names
from mvfusion.projection import project_features
from mvfusion.scene import build_scene, scene_labels
from mvfusion.views import FeatureMap, OutputGrid


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
    assert times[2] - times[1] == pytest.approx(FRAME_SPACING)


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


def unplanned_net(preset, weights):
    """preset's net for the weights without an arena: each tensor a new array."""
    config = replace(preset.fusion, use_camera="cam.conv1.kernel" in weights.blocks)
    return FusionNet(config, bev_stack_channels(preset), weights)


def float64_forward(bundle, preset, weights, joined=False):
    """The frame DAG's branch calls with every raster in float64; with
    joined, fuse.conv1 runs unsplit, as one conv over its stored
    129-channel kernel and the BEV features joined with the projection."""
    net = unplanned_net(preset, weights)
    rasters = rasterize_frame(bundle, preset)
    lidar, map_raster = (FeatureMap(fm.view, fm.data.astype(np.float64), fm.geometry)
                         for fm in (rasters["lidar_stack"], rasters["map_raster"]))
    points = bundle.sweeps[-1].points
    cam = camera_net_forward(bundle.camera_image, net) if net.config.use_camera else None
    rv = rv_branch_forward(rasters["rv_image"], cam, points, net)
    projected = np.empty((preset.grid.rows, preset.grid.cols, rv.channels + 1))
    project_features(rv, points, preset.grid, out=projected)
    bev = bev_branch_forward(lidar, map_raster, net)
    if not joined:
        return fuse_and_head_forward(bev, FeatureMap("bev", projected, preset.grid), net)
    layer = next(layer for layer in network.network_plan(net.config, net.bev_in_channels) if layer.name == "fuse.conv1")
    x = FeatureMap("bev", network.conv2d_raw(np.concatenate([bev.data, projected], axis=2),
                                             weights.kernel("fuse.conv1"), weights.bias("fuse.conv1"), layer.stride,
                                             layer.activation), preset.grid)
    for i in range(1, len(net.config.head_widths)):
        x = net.conv(x, f"fuse.conv{i + 1}")
    grid = OutputGrid.from_grid(preset.grid, net.config.output_stride)
    return network.CellOutputs.unpack(net.conv(x, "fuse.head").data, grid, preset.horizon, net.config.classes,
                                      logits=True)


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

    def recording(fm, layer, net, **kwargs):
        out = conv2d_forward(fm, layer, net, **kwargs)
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


@pytest.mark.parametrize("use_camera", [True, False])
def test_forward_frame_equals_the_unsplit_fuse_conv1(desk_frame, use_camera):
    # fuse.conv1 split by linearity: in float64 the frame equals the one
    # whose fuse.conv1 reads the joined 129 channels, to rounding; in
    # float32 it stays inside the dtype policy's bounds of it
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0, use_camera=use_camera)
    outputs = forward_frame(bundle, preset, weights)
    split = float64_forward(bundle, preset, weights)
    joined = float64_forward(bundle, preset, weights, joined=True)
    for cls in outputs.classes:
        for field, bound in (("prob", PROB_BOUND), ("size", REGRESSION_BOUND), ("centers", REGRESSION_BOUND),
                             ("headings", REGRESSION_BOUND)):
            want = getattr(joined, field)[cls]
            assert np.abs(getattr(split, field)[cls] - want).max() < 1e-12
            assert np.abs(getattr(outputs, field)[cls] - want).max() <= bound
    dets = [(d.cls, d.cell) for d in decode_detections(outputs)]
    assert dets and dets == [(d.cls, d.cell) for d in decode_detections(joined)]


def _kernels_run(bundle, preset, weights, monkeypatch):
    """forward_frame's cell outputs, and the kernel each conv layer ran."""
    kernels = {}
    conv2d_forward = network.conv2d_forward

    def recording(fm, layer, net, **kwargs):
        kernels[layer.name] = network.conv_kernel_of(fm.data, layer)
        return conv2d_forward(fm, layer, net, **kwargs)

    monkeypatch.setattr(network, "conv2d_forward", recording)
    outputs = forward_frame(bundle, preset, weights)
    monkeypatch.setattr(network, "conv2d_forward", conv2d_forward)
    return outputs, kernels


def _winograd_shaped(preset):
    """The layers whose dense inputs the Winograd rule takes: exactly those the net holds planes for."""
    net = unplanned_net(preset, make_weights(preset, seed=0))
    shaped = {name for name, layer in net.layers.items()
              if network.winograd_shape(layer.in_channels, layer.kernel, layer.stride)}
    assert set(net.planes) == shaped
    return shaped


def test_kernel_choice_of_every_desk_and_atg4d_layer(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    _, kernels = _kernels_run(bundle, preset, make_weights(preset, seed=0), monkeypatch)
    sparse = {"bev.lidar1", "bev.map1", "bev.map2"}  # 19%, 11% and 19% of their pixels occupied
    wide = {"unet.res2.conv1", "unet.res2.conv2", "unet.fuse", "fuse.conv4", "fuse.conv5", "fuse.conv6",
            "fuse.head"}  # dense 3x3 stride-1 layers of at least 64 input channels
    assert kernels == {layer.name: "occupied" if layer.name in sparse else "winograd" if layer.name in wide
                       else "im2col" for layer in network.network_plan(preset.fusion, bev_stack_channels(preset))}
    assert _winograd_shaped(preset) == wide
    # atg4d: the rule on its layers. bev.lidar1's 160-channel stack has
    # about 15% of its pixels occupied, so the occupied-pixel kernel takes it
    # first (README.md, "Convolution kernels").
    assert _winograd_shaped(get_preset("atg4d")) == {
        "bev.lidar1", "unet.enc1", "unet.res1.conv1", "unet.res1.conv2", "unet.res2.conv1", "unet.res2.conv2",
        "unet.fuse", "fuse.conv2", "fuse.conv4", "fuse.conv5", "fuse.conv6", "fuse.head"}


def test_desk_frame_with_winograd_forced_stays_inside_the_bounds(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    reference = forward_frame(bundle, preset, weights)
    monkeypatch.setattr(network, "_WINOGRAD_MIN_CHANNELS", 1)
    outputs, kernels = _kernels_run(bundle, preset, weights, monkeypatch)
    assert [name for name, kernel in kernels.items() if kernel == "winograd"] == [
        "bev.lidar2", "cam.conv1", "cam.conv3", "cam.conv5", "rv.conv1", "rv.conv2", "unet.enc1",
        "unet.res1.conv1", "unet.res1.conv2", "unet.res2.conv1", "unet.res2.conv2", "unet.fuse", "fuse.conv2",
        "fuse.conv4", "fuse.conv5", "fuse.conv6", "fuse.head"]
    for cls in outputs.classes:
        assert np.abs(outputs.prob[cls] - reference.prob[cls]).max() <= PROB_BOUND
        for field in ("size", "centers", "headings"):
            assert np.abs(getattr(outputs, field)[cls] - getattr(reference, field)[cls]).max() <= REGRESSION_BOUND
    dets = [(d.cls, d.cell) for d in decode_detections(outputs)]
    assert dets and dets == [(d.cls, d.cell) for d in decode_detections(reference)]


def test_frame_tensors_are_dead_when_the_fuse_convolutions_run(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    arena = pipeline.fusion_net(preset, weights).arena
    plan = arena.plan
    fuse1, fuse2 = plan.steps.index("fuse.conv1"), plan.steps.index("fuse.conv2")
    # the BEV stack and rv_feats (unet.fuse's output) end before fuse.conv1;
    # the BEV features (the sum is held in bev.lidar2's output) and the
    # projection, which the RV->BEV projection writes into its own view,
    # end with it. No joined fuse input exists.
    for name in ("lidar_stack", "unet.fuse"):
        assert plan.tensor(name).last < fuse1
    assert plan.tensor("bev.lidar2").last == fuse1
    projection = plan.tensor("rv_to_bev")
    assert plan.steps[projection.first] == "rv_to_bev" and projection.last == fuse1 < fuse2
    assert not [t.name for t in plan.tensors if t.name.endswith(".in") and t.name.startswith("fuse.")]

    # the forward pass writes the projection into that view; fuse.conv1's
    # dense part reads bev.lidar2's view and its projected part the projection
    project_fn, conv_fn, occupied_fn = pipeline.project_features, network.conv2d_forward, network._conv2d_occupied
    projected, dense_in, hit_in = [], [], []

    def project(source, points, grid, out):
        feats, validity = project_fn(source, points, grid, out=out)
        assert feats.data.dtype == validity.data.dtype == source.data.dtype == np.float32
        projected.append(out is arena.view("rv_to_bev"))
        return feats, validity

    def conv(fm, layer, net, **kwargs):
        if layer.name == "fuse.conv1":
            dense_in.append(fm.data is arena.view("bev.lidar2"))
        return conv_fn(fm, layer, net, **kwargs)

    def occupied(pixels, *args):
        if args[7:] == ((2, 2),):  # the one strided call: fuse.conv1's projected part
            view = arena.view("rv_to_bev")
            hit_in.append(pixels.ctypes.data == view.ctypes.data and pixels.size == view.size)
        return occupied_fn(pixels, *args)

    monkeypatch.setattr(pipeline, "project_features", project)
    monkeypatch.setattr(network, "conv2d_forward", conv)
    monkeypatch.setattr(network, "_conv2d_occupied", occupied)
    forward_frame(bundle, preset, weights)
    assert projected == dense_in == hit_in == [True]


@pytest.mark.parametrize("use_camera", [True, False])
def test_every_conv_reads_and_writes_its_planned_tensors(desk_frame, monkeypatch, use_camera):
    # frame_steps and the branch functions both describe the forward pass:
    # every conv must read the tensor its step reads and write the one it
    # writes (for rv.conv2 with the camera, the leading channels of
    # unet.enc1.in), in the plan's step order
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0, use_camera=use_camera)
    net = pipeline.fusion_net(preset, weights)
    conv_steps = [s for s in pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
                  if s.name in net.layers]
    steps = {s.name: s for s in conv_steps}
    arena = net.arena
    conv_fn = network.conv2d_forward
    calls = []

    def conv(fm, layer, net, out=None, **kwargs):
        step = steps[layer.name]
        written = arena.view(step.writes[0][0])
        calls.append((layer.name, fm.data is arena.view(step.reads[0]),
                      out is not None and out.ctypes.data == written.ctypes.data and np.shares_memory(out, written)))
        return conv_fn(fm, layer, net, out=out, **kwargs)

    monkeypatch.setattr(network, "conv2d_forward", conv)
    forward_frame(bundle, preset, weights)
    assert any(s.name == "rv.conv2" and s.writes[0][0] == "unet.enc1.in" for s in conv_steps) == use_camera
    assert calls == [(s.name, True, True) for s in conv_steps]


def sha(outputs) -> str:
    return hashlib.sha256(outputs.pack().tobytes()).hexdigest()


def test_frames_with_one_weights_object_build_the_net_once(desk_frame, monkeypatch):
    # Work counted, not timed. With the Winograd rule opened to every dense
    # 3x3 stride-1 layer, building the net makes each such layer's planes
    # once, even where the occupied-pixel kernel then runs it, and the
    # frames after that make none.
    preset, bundle = desk_frame
    monkeypatch.setattr(network, "_WINOGRAD_MIN_CHANNELS", 1)
    monkeypatch.setattr(pipeline, "_net", None)
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append((fn.__name__, args))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(pipeline, "plan_arena", counted(pipeline.plan_arena))
    monkeypatch.setattr(NetworkWeights, "validate_plan", counted(NetworkWeights.validate_plan))
    monkeypatch.setattr(network, "winograd_kernel", counted(network.winograd_kernel))
    weights = make_weights(preset, seed=0)
    net = pipeline.fusion_net(preset, weights)
    transformed = [args[0] for name, args in calls if name == "winograd_kernel"]
    digests = {sha(forward_frame(bundle, preset, weights)) for _ in range(3)}
    names = [name for name, _ in calls]
    assert len(digests) == 1
    assert pipeline.fusion_net(preset, weights) is net
    assert names.count("plan_arena") == names.count("validate_plan") == 1
    assert names.count("winograd_kernel") == len(transformed)  # none in the three forward passes
    dense = [layer.name for layer in network.network_plan(preset.fusion, bev_stack_channels(preset))
             if layer.kernel == (3, 3) and layer.stride == (1, 1)]
    assert len(transformed) == len(dense) == len(net.planes) == 20
    assert {id(kernel) for kernel in transformed} == {id(weights.kernel(name)) for name in dense}


def test_alternating_weights_share_one_arena_and_give_fresh_digests(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    first, second = make_weights(preset, seed=0), make_weights(preset, seed=1)
    fresh = []
    for weights in (first, second):
        monkeypatch.setattr(pipeline, "_net", None)  # no net and no arena, as in a new process
        fresh.append(sha(forward_frame(bundle, preset, weights)))
    assert fresh[0] != fresh[1]
    arenas = []
    for weights, want in zip((first, second, first, second), fresh * 2):
        assert sha(forward_frame(bundle, preset, weights)) == want
        arenas.append(pipeline.fusion_net(preset, weights).arena)
    assert all(arena is arenas[0] for arena in arenas)


def test_a_block_off_the_plan_fails_when_the_net_is_built(desk_frame, monkeypatch):
    preset, bundle = desk_frame
    weights = make_weights(preset, seed=0)
    kernel = weights.blocks["fuse.head.kernel"]
    bad = replace(weights, blocks={**weights.blocks, "fuse.head.kernel": kernel[:, :, 1:]})
    convs = []
    monkeypatch.setattr(network, "conv2d_forward", lambda fm, layer, *args, **kwargs: convs.append(layer.name))
    with pytest.raises(ValueError, match=r"block fuse\.head\.kernel has shape \(3, 3, 63, 381\), the plan needs"):
        forward_frame(bundle, preset, bad)
    assert convs == []


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
    result, targets = fit_frame(bundle, preset, steps=300, seed=0)
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
