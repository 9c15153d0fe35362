"""The frame arena: the plan's placement, and frames run in it.

The planned frames must give the cell outputs of the same layers run
without an arena, bit for bit, whatever the arena held before; the
outputs handed back must never share memory with what the arena writes
next; and two tensors live at one step never share a byte.
"""
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mvfusion import network, pipeline
from mvfusion.arena import ALIGN, Arena, Step, greedy_by_size, plan_arena
from mvfusion.network import (
    FusionNet,
    bev_branch_forward,
    camera_net_forward,
    fuse_and_head_forward,
    rv_branch_forward,
)
from mvfusion.pipeline import forward_frame, generate_bundles, make_weights, rasterize_frame
from mvfusion.presets import bev_stack_channels, get_preset
from mvfusion.projection import project_features
from mvfusion.views import FeatureMap


def sha(outputs) -> str:
    return hashlib.sha256(outputs.pack().tobytes()).hexdigest()


def held_by(arena, array) -> bool:
    """Whether array may share memory with the bytes the arena owns now."""
    return any(np.may_share_memory(array, owned) for owned in arena.owned())


def all_arrays(outputs):
    for field in (outputs.prob, outputs.size, outputs.centers, outputs.headings):
        yield from field.values()


@pytest.fixture(scope="module")
def desk_frames():
    preset = get_preset("desk")
    _, bundles = generate_bundles(preset, seed=1000, frames=2)
    return preset, bundles


def unplanned_net(preset, weights):
    """preset's net for the weights without an arena: each tensor a new array."""
    config = replace(preset.fusion, use_camera="cam.conv1.kernel" in weights.blocks)
    return FusionNet(config, bev_stack_channels(preset), weights)


def unplanned_forward(bundle, preset, weights):
    """The stages' branch calls on new arrays, with float32 copies of the
    camera image and of the float64 RV image."""
    net = unplanned_net(preset, weights)
    config = net.config
    rasters = rasterize_frame(bundle, preset)
    points = bundle.sweeps[-1].points
    cam = None
    if config.use_camera:
        image = bundle.camera_image
        cam = camera_net_forward(FeatureMap(image.view, image.data.astype(np.float32), image.geometry), net)
    rv_image = rasters["rv_image"]
    rv_image = FeatureMap(rv_image.view, rv_image.data.astype(np.float32), rv_image.geometry)
    rv = rv_branch_forward(rv_image, cam, points, net)
    projected = np.empty((preset.grid.rows, preset.grid.cols, config.unet_width + 1), dtype=np.float32)
    project_features(rv, points, preset.grid, out=projected)
    return fuse_and_head_forward(bev_branch_forward(rasters["lidar_stack"], rasters["map_raster"], net),
                                 FeatureMap("bev", projected, preset.grid), net)


@pytest.mark.parametrize("use_camera", [True, False])
def test_planned_frame_equals_the_unplanned_layers(desk_frames, use_camera):
    preset, bundles = desk_frames
    weights = make_weights(preset, seed=0, use_camera=use_camera)
    for bundle in bundles:
        assert sha(forward_frame(bundle, preset, weights)) == sha(unplanned_forward(bundle, preset, weights))


def _poison(array: np.ndarray) -> None:
    array[...] = 255 if array.dtype == np.uint8 else np.nan


def test_a_poisoned_arena_gives_the_same_outputs(desk_frames, monkeypatch):
    # Every producer must write its whole view before reading it: NaN (255
    # in the uint8 rasters) in the arena when a frame begins, and in each
    # producer's out when it is called, would reach the outputs.
    preset, bundles = desk_frames
    weights = make_weights(preset, seed=0)
    want = [sha(forward_frame(bundle, preset, weights)) for bundle in bundles]
    begin = Arena.begin_frame

    def poisoned_frame(arena):
        begin(arena)
        for owned in arena.owned():
            owned.view(np.float32)[...] = np.nan

    def poisoned_out(fn):
        def call(*args, out=None, **kwargs):
            if out is not None:
                _poison(out)
            return fn(*args, out=out, **kwargs)
        return call

    monkeypatch.setattr(Arena, "begin_frame", poisoned_frame)
    for module, name in ((network, "conv2d_forward"), (network, "project_features"), (pipeline, "project_features"),
                         (pipeline, "stack_history_bev"), (pipeline, "rasterize_map"), (pipeline, "build_rv_image")):
        monkeypatch.setattr(module, name, poisoned_out(getattr(module, name)))
    assert [sha(forward_frame(bundle, preset, weights)) for bundle in bundles] == want


def test_outputs_never_share_memory_with_the_arena(desk_frames):
    preset, bundles = desk_frames
    weights = make_weights(preset, seed=0)
    first = forward_frame(bundles[0], preset, weights)
    first_sha = sha(first)
    second = forward_frame(bundles[1], preset, weights)
    arena = pipeline.fusion_net(preset, weights).arena
    no_camera_weights = make_weights(preset, seed=0, use_camera=False)
    no_camera = forward_frame(bundles[1], preset, no_camera_weights)
    assert sha(first) == first_sha
    no_camera_arena = pipeline.fusion_net(preset, no_camera_weights).arena
    for outputs in (first, second, no_camera):
        for array in all_arrays(outputs):
            assert not held_by(arena, array) and not held_by(no_camera_arena, array)
    for a in all_arrays(first):
        assert not any(np.may_share_memory(a, b) for b in all_arrays(second))


def test_the_lent_segment_is_taken_back_once_the_outputs_are_dropped(desk_frames):
    preset, bundles = desk_frames
    weights = make_weights(preset, seed=0)
    forward_frame(bundles[0], preset, weights)  # the net and its arena exist from here on
    arena = pipeline.fusion_net(preset, weights).arena
    kept = forward_frame(bundles[0], preset, weights)
    arena.begin_frame()
    segment = weakref.ref(arena.owned()[1])
    assert not held_by(arena, kept.prob["vehicle"])  # still held by kept: a new segment
    del kept
    forward_frame(bundles[1], preset, weights)  # lends the new segment, and its outputs are dropped
    arena.begin_frame()
    assert arena.owned()[1] is segment()  # so the next frame takes it back


@pytest.mark.parametrize("name", ["desk", "nuscenes", "atg4d"])
@pytest.mark.parametrize("use_camera", [True, False])
def test_tensors_live_at_one_step_never_share_a_byte(name, use_camera):
    preset = get_preset(name)
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    plan = plan_arena(pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    tensors = plan.tensors
    for t in tensors:
        assert t.offset % ALIGN == 0 and 0 <= t.offset and t.offset + t.nbytes <= plan.size
        assert t.offset + t.nbytes <= plan.lent_at or t.offset >= plan.lent_at  # none straddles lent_at
    for i, a in enumerate(tensors):
        for b in tensors[i + 1:]:
            if a.first <= b.last and b.first <= a.last:
                assert a.offset + a.nbytes <= b.offset or b.offset + b.nbytes <= a.offset, (a.name, b.name)
    export = plan.tensor("outputs")
    assert export.offset == plan.lent_at
    assert not [t.name for t in tensors if t.offset >= plan.lent_at and t is not export
                and t.first <= export.first <= t.last]


def test_greedy_by_size_reuses_the_bytes_of_dead_blocks():
    # a lives in steps 0-1, b in 1-2, c in 2-3: c can take a's bytes
    offsets, total = greedy_by_size([4 * ALIGN, 2 * ALIGN, 3 * ALIGN], [(0, 1), (1, 2), (2, 3)])
    assert offsets == [0, 4 * ALIGN, 0] and total == 6 * ALIGN


def test_plan_rejects_a_read_before_any_write():
    with pytest.raises(ValueError, match="reads x before any step writes it"):
        plan_arena([Step("a", reads=("x",))])


def test_scratch_takes_only_the_room_the_tensors_leave():
    steps = [Step("a", (("x", (1000,), "float32"),)),  # 4000 bytes, 4032 aligned
             Step("b", (("y", (100,), "float32"),), ("x",), work=10_000),  # 400 bytes, 448 aligned
             Step("c", reads=("y",), work=10_000)]
    plan = plan_arena(steps)
    assert plan.size == plan_arena([Step(s.name, s.writes, s.reads) for s in steps]).size == 4032 + 448
    assert [t.name for t in plan.tensors] == ["x", "y", "c.work"]  # x and y fill step b
    assert (plan.tensor("c.work").offset, plan.tensor("c.work").nbytes) == (0, 4032)  # x's bytes, dead in c


def test_winograd_work_never_sets_the_atg4d_arena_size(monkeypatch):
    preset = get_preset("atg4d")
    net = unplanned_net(preset, make_weights(preset, 0))
    steps = pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
    with_winograd = plan_arena(steps, export="outputs")
    shapes = {name: shape for step in steps for name, shape, _ in step.writes}
    layers = net.layers
    winograd = {step.name: shapes[step.reads[0]] for step in steps if step.name in layers
                and network.winograd_shape(layers[step.name].in_channels, layers[step.name].kernel,
                                           layers[step.name].stride)}
    assert len(winograd) == 12  # 11 dense layers and bev.lidar1, whose sparse stack the occupied kernel takes
    for name, (h, w, _) in winograd.items():  # each gets room for the planes of its tile blocks
        layer = layers[name]
        blocks = network._winograd_blocks(h, w, layer.in_channels, layer.out_channels, 4, network.CONV_WORK_BYTES)
        need = network._winograd_elements(blocks, layer.in_channels, layer.out_channels) * 4
        assert with_winograd.tensor(f"{name}.work").nbytes >= need
    monkeypatch.setattr(network, "winograd_shape", lambda *args: False)  # no Winograd work
    without = plan_arena(pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    assert with_winograd.size == without.size


@pytest.mark.parametrize("name,size", [("desk", 4_980_736), ("atg4d", 377_545_024)])
@pytest.mark.parametrize("use_camera", [True, False])
def test_every_conv_asks_the_same_work_and_none_gets_more(name, size, use_camera):
    preset = get_preset(name)
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    steps = pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
    assert {step.name: step.work for step in steps if step.work} == dict.fromkeys(net.layers, network.CONV_WORK_BYTES)
    plan = plan_arena(steps, export="outputs")
    assert plan.size == size  # the frame's tensors set it, as when each conv asked for what its kernels could use
    works = [t.nbytes for t in plan.tensors if t.name.endswith(".work")]
    assert works and max(works) <= network.CONV_WORK_BYTES


@pytest.mark.parametrize("use_camera", [True, False])
def test_the_atg4d_plan_holds_no_joined_fuse_input(use_camera):
    # fuse.conv1 reads the BEV features and the projection apart (split by
    # linearity), so the frame's largest moment is the BEV branch's, not a
    # copy of the BEV features into a 129-channel input
    preset = get_preset("atg4d")
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    plan = plan_arena(pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    assert "fuse.conv1.in" not in {t.name for t in plan.tensors}
    assert plan.tensor("rv_to_bev").shape == (preset.grid.rows, preset.grid.cols, net.config.unet_width + 1)
    assert plan.size <= 360.1 * 2**20
