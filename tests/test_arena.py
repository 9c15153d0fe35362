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
    LayerPlan,
    bev_branch_forward,
    camera_net_forward,
    fuse_and_head_forward,
    fuse_input_of,
    rv_branch_forward,
)
from mvfusion.pipeline import forward_frame, frame_plan, generate_bundles, layer_plan, make_weights, rasterize_frame
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


def unplanned_forward(bundle, preset, weights):
    """The stages' branch calls on new arrays, with the float32 copies the stages make."""
    plan = layer_plan(preset, weights)
    config = plan.config
    rasters = rasterize_frame(bundle, preset)
    points = bundle.sweeps[-1].points
    cam = None
    if config.use_camera:
        image = bundle.camera_image
        cam = camera_net_forward(FeatureMap(image.view, image.data.astype(np.float32), image.geometry), weights, plan)
    rv_image = rasters["rv_image"]
    rv_image = FeatureMap(rv_image.view, rv_image.data.astype(np.float32), rv_image.geometry)
    rv = rv_branch_forward(rv_image, cam, points, weights, plan)
    fuse_input = fuse_input_of(bev_branch_forward(rasters["lidar_stack"], rasters["map_raster"], weights, plan),
                               config)
    project_features(rv, points, preset.grid, out=fuse_input.data[:, :, config.bev_width:])
    return fuse_and_head_forward(fuse_input, weights, plan)


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
    arena = pipeline.frame_arena(frame_plan(preset, layer_plan(preset, weights)))
    no_camera = forward_frame(bundles[1], preset, make_weights(preset, seed=0, use_camera=False))
    assert sha(first) == first_sha
    no_camera_arena = pipeline.frame_arena(frame_plan(preset, layer_plan(preset, make_weights(preset, 0, False))))
    for outputs in (first, second, no_camera):
        for array in all_arrays(outputs):
            assert not held_by(arena, array) and not held_by(no_camera_arena, array)
    for a in all_arrays(first):
        assert not any(np.may_share_memory(a, b) for b in all_arrays(second))


def test_the_lent_segment_is_taken_back_once_the_outputs_are_dropped(desk_frames):
    preset, bundles = desk_frames
    weights = make_weights(preset, seed=0)
    forward_frame(bundles[0], preset, weights)  # the arena for this plan exists from here on
    arena = pipeline.frame_arena(frame_plan(preset, layer_plan(preset, weights)))
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
    plan = frame_plan(preset, LayerPlan(replace(preset.fusion, use_camera=use_camera), bev_stack_channels(preset)))
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
