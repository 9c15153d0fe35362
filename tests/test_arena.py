"""The frame arena: the plan's placement, and frames run in it.

The planned frames must give the cell outputs of the same layers run
without an arena, bit for bit, whatever the arena held before; the
outputs handed back must never share memory with what the arena writes
next; and two tensors live at one step never share a byte.
"""
import hashlib
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvfusion import network, pipeline
from mvfusion.arena import ALIGN, Arena, Step, greedy_by_size, plan_arena
from mvfusion.network import FusionNet
from mvfusion.pipeline import forward_frame, generate_bundles, make_weights
from mvfusion.presets import bev_stack_channels, get_preset


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
    """The frame's steps run on a net without an arena: every tensor in a
    new array, the rasters, camera image and RV image as the steps write
    them (uint8, float32 and float32)."""
    net = unplanned_net(preset, weights)
    steps = pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
    return net.run(steps, {"bundle": bundle, "points": bundle.sweeps[-1].points})["cells"]


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
    assert len(winograd) == 11  # 10 dense layers and bev.lidar1, whose sparse stack the occupied kernel takes
    for name, (h, w, _) in winograd.items():  # each gets room for the planes of its tile blocks
        layer = layers[name]
        blocks = network._winograd_blocks(h, w, layer.in_channels, layer.out_channels, 4, network.CONV_WORK_BYTES)
        need = network._winograd_elements(blocks, layer.in_channels, layer.out_channels) * 4
        assert with_winograd.tensor(f"{name}.work").nbytes >= need
    monkeypatch.setattr(network, "winograd_shape", lambda *args: False)  # no Winograd work
    without = plan_arena(pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    assert with_winograd.size == without.size


@pytest.mark.parametrize("name,size", [("desk", 4_390_912), ("atg4d", 264_881_024)])
@pytest.mark.parametrize("use_camera", [True, False])
def test_every_conv_asks_the_same_work_and_none_gets_more(name, size, use_camera):
    # each layer's step, and the step of each joined layer's projected
    # part, asks the same work; on atg4d each gets all of it
    preset = get_preset(name)
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    steps = pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
    assert {step.name: step.work for step in steps if step.work} == dict.fromkeys(
        [*net.layers, *(f"{name}.projected" for name in net.projected)], network.CONV_WORK_BYTES)
    plan = plan_arena(steps, export="outputs")
    assert plan.size == size  # the frame's tensors set it, as when each conv asked for what its kernels could use
    assert plan.size == plan_arena([step._replace(work=0) for step in steps], export="outputs").size
    works = {t.name: t.nbytes for t in plan.tensors if t.name.endswith(".work")}
    assert works and max(works.values()) <= network.CONV_WORK_BYTES
    if name == "atg4d":
        assert works == {f"{step.name}.work": network.CONV_WORK_BYTES for step in steps if step.work}


PLANS = Path(__file__).with_name("arena_plans.txt")


@pytest.mark.parametrize("name", ["desk", "atg4d", "nuscenes"])
@pytest.mark.parametrize("use_camera", [True, False])
def test_every_plan_equals_the_recorded_one(name, use_camera):
    # every tensor's name, shape, dtype and offset, the arena's size and
    # where its lent segment starts, as recorded: a change to a plan shows
    # in the record's diff
    preset = get_preset(name)
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    plan = plan_arena(pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    key = f"{name} {'camera' if use_camera else 'lidar'}"
    listing = [f"{key} size {plan.size} lent_at {plan.lent_at}"] + [
        f"{key} {t.name} {'x'.join(map(str, t.shape))} {t.dtype} {t.offset}" for t in plan.tensors]
    assert listing == [line for line in PLANS.read_text().splitlines() if line.startswith(key + " ")]


@pytest.mark.parametrize("use_camera", [True, False])
def test_the_atg4d_plan_holds_no_joined_fuse_input(use_camera):
    # the joined layers read their features and the projection apart (split
    # by linearity), on every preset: no plan holds a joined input but the
    # U-Net's skip concat, unet.fuse.in, every conv step writes a tensor of
    # its layer's width, never the leading channels of a wider one, and each
    # projection has a tensor of its own; the plans are no larger than with
    # unet.enc1 unsplit
    for name, size in (("desk", 4_390_912), ("atg4d", 264_881_024), ("nuscenes", 343_448_576)):
        preset = get_preset(name)
        net = unplanned_net(preset, make_weights(preset, 0, use_camera))
        steps = pipeline.frame_steps(preset.grid, preset.rv, preset.camera, net)
        plan = plan_arena(steps, export="outputs")
        images = {"rv.conv1.in", "cam.conv1.in"} if use_camera else {"rv.conv1.in"}
        assert {t.name for t in plan.tensors if t.name.endswith(".in")} == images | {"unet.fuse.in"}
        for step in steps:
            if step.name in net.layers:
                assert [shape[2] for _, shape, _ in step.writes] == [net.layers[step.name].out_channels]
        projections = {"rv_to_bev": "fuse.conv1", "camera_to_rv": "unet.enc1"}
        assert {step.reads for step in steps if step.name.endswith(".projected")} == {
            (layer, projection) for projection, layer in projections.items() if layer in net.projected}
        for projection, layer in projections.items():
            if layer in net.projected:
                assert plan.tensor(projection).shape[2] == net.projected[layer].kernel.shape[2]
        assert ("camera_to_rv" in {t.name for t in plan.tensors}) == use_camera
        assert plan.size <= size


@pytest.mark.parametrize("name,mib", [("desk", 4.8), ("atg4d", 256), ("nuscenes", 330)])
@pytest.mark.parametrize("use_camera", [True, False])
def test_the_bev_features_die_with_the_bev_branch(name, mib, use_camera):
    # bev.map2 adds into bev.lidar2's output and fuse.conv1's dense part
    # reads it last, at the end of the BEV branch: no map features of their
    # own, no sum step, and the BEV features are dead in the camera net and
    # the RV branch
    preset = get_preset(name)
    net = unplanned_net(preset, make_weights(preset, 0, use_camera))
    stages = pipeline.frame_stages(preset.grid, preset.rv, preset.camera, net)
    plan = plan_arena([step for _, steps in stages for step in steps], export="outputs")
    assert "bev.map2" not in {t.name for t in plan.tensors} and "bev.sum" not in plan.steps
    assert [step.name for step in dict(stages)["bev_branch"]][-1] == plan.steps[plan.tensor("bev.lidar2").last]
    later = {step.name for stage, steps in stages if stage in ("camera_net", "rv_branch") for step in steps}
    assert later and not [step for i, step in enumerate(plan.steps) if step in later
                          and plan.tensor("bev.lidar2").live_at(i)]
    assert plan.size <= mib * 2**20
