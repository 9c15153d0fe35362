"""End-to-end frame processing built from the module surfaces.

Generation simulates the sweep history, camera frame, and labels for each
reference time; rasterization and the forward pass turn a bundle into
per-cell outputs; evaluation decodes and scores them against the bundled
labels. The forward pass is one list of named stages (pipeline_stages),
run by forward_frame and, followed by decode, by benchmark_frame, which
times whole frames with a clock read at each stage boundary. Its
grid-shaped tensors live in one arena per process, planned once per
preset and layer plan (frame_steps, frame_plan) and reused frame after
frame (frame_arena).
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .arena import Arena, ArenaPlan, Step, plan_arena
from .blockfile import BlockFileError, read_blocks, write_blocks
from .bundle_io import FrameBundle
from .losses import encode_targets, fit_outputs
from .metrics import MetricsReport, decode_detections, evaluate_frames
from .network import (
    CellOutputs,
    LayerPlan,
    NetworkWeights,
    bev_branch_forward,
    camera_net_forward,
    conv_output_shape,
    conv_work_bytes,
    fuse_and_head_forward,
    fuse_input_of,
    init_network_weights,
    rv_branch_forward,
)
from .presets import Preset, bev_stack_channels
from .projection import project_features
from .raster import build_rv_image, rasterize_map, stack_history_bev
from .scene import Scene, SceneConfig, build_scene, render_camera, scene_labels, simulate_sweep
from .views import CameraModel, FeatureMap, GridSpec, OutputGrid, RvSpec

LABEL_RATE = 10.0


def frame_times(preset: Preset, frames: int) -> list[float]:
    t0 = (preset.sweep_count - 1) * preset.sweep_period
    return [t0 + i * preset.frame_spacing for i in range(frames)]


def scene_config_for(preset: Preset, seed: int, frames: int) -> SceneConfig:
    duration = frame_times(preset, frames)[-1] + preset.horizon / LABEL_RATE + 0.1
    return replace(preset.scene, seed=seed, duration=duration)


def generate_bundle(preset: Preset, scene: Scene, t_ref: float) -> FrameBundle:
    """Simulate the sweep history ending at t_ref plus camera and labels."""
    sweeps = []
    for i in range(preset.sweep_count):
        t = t_ref - (preset.sweep_count - 1 - i) * preset.sweep_period
        sweeps.append(simulate_sweep(scene, preset.sensor, t))
    return FrameBundle(
        preset=preset.name,
        timestamp=t_ref,
        horizon=preset.horizon,
        sweeps=tuple(sweeps),
        map_geometry=scene.map_geometry,
        camera_image=render_camera(scene, preset.camera, t_ref),
        labels=scene_labels(scene, t_ref, preset.horizon),
    )


def generate_bundles(preset: Preset, seed: int, frames: int) -> tuple[Scene, list[FrameBundle]]:
    config = scene_config_for(preset, seed, frames)
    scene = build_scene(config)
    return scene, [generate_bundle(preset, scene, t) for t in frame_times(preset, frames)]


# ---------------------------------------------------------------------------
# per-frame processing
# ---------------------------------------------------------------------------

def rasterize_frame(bundle: FrameBundle, preset: Preset, arena: Arena | None = None) -> dict:
    """The BEV stack, the map raster and the RV image; with an arena, each is
    written into its planned view ("lidar_stack", "map_raster", "rv_image")."""
    def view(name):
        return None if arena is None else arena.view(name)

    lidar = stack_history_bev(bundle.sweeps, preset.grid, expected_count=preset.sweep_count, out=view("lidar_stack"))
    map_raster = rasterize_map(bundle.map_geometry, preset.grid, out=view("map_raster"))
    rv_image = build_rv_image(bundle.sweeps[-1], preset.rv, out=view("rv_image"))
    return {"lidar_stack": lidar, "map_raster": map_raster, "rv_image": rv_image}


def make_weights(preset: Preset, seed: int, use_camera: bool = True) -> NetworkWeights:
    config = replace(preset.fusion, use_camera=use_camera)
    return init_network_weights(config, bev_stack_channels(preset), seed)


def layer_plan(preset: Preset, weights: NetworkWeights) -> LayerPlan:
    """The preset's layers, with the camera branch when the weights hold cam.conv1.kernel."""
    config = replace(preset.fusion, use_camera="cam.conv1.kernel" in weights.blocks)
    return LayerPlan(config, bev_stack_channels(preset))


# ---------------------------------------------------------------------------
# the frame's arena
# ---------------------------------------------------------------------------

def frame_steps(grid: GridSpec, rv: RvSpec, camera: CameraModel, plan: LayerPlan) -> list[Step]:
    """The forward pass's steps in stage and layer order on a preset's BEV
    grid, RV image and camera, with the arena tensors each writes and reads:
    the one definition of their live ranges.

    Every conv writes the tensor named after its layer, except rv.conv2
    when the camera branch runs: it writes the leading channels of
    "unet.enc1.in". Each conv asks for the work bytes its kernels can use
    (conv_work_bytes). The residual sums write their block input in place,
    and bev.lidar2's output ends up holding the BEV features. The last step
    writes "outputs", the cell outputs in float64, which the plan lends to
    the caller (ArenaPlan.export).
    """
    config = plan.config
    f32 = "float32"
    steps: list[Step] = []

    def conv(name: str, src: str, in_shape: tuple[int, int, int], dst=None) -> tuple[int, int, int]:
        layer = plan[name]
        h, w, _ = in_shape
        oh, ow = (h, 2 * w) if layer.transposed else conv_output_shape(h, w, layer.stride)
        shape = (oh, ow, layer.out_channels)
        steps.append(Step(name, (dst or (name, shape, f32),), (src,), conv_work_bytes(layer, h, w)))
        return shape

    rows, cols = grid.rows, grid.cols
    bev_in = (rows, cols, plan.bev_in_channels)
    steps += [Step("lidar_stack", (("lidar_stack", bev_in, "uint8"),)),
              Step("map_raster", (("map_raster", (rows, cols, 7), "uint8"),)),
              Step("rv_image", (("rv_image", (rv.rows, rv.cols, 4), "float64"),))]

    lid = conv("bev.lidar2", "bev.lidar1", conv("bev.lidar1", "lidar_stack", bev_in))
    conv("bev.map2", "bev.map1", conv("bev.map1", "map_raster", (rows, cols, 7)))
    fuse_in = ("fuse.conv1.in", (rows, cols, config.bev_width + config.unet_width + 1), f32)
    steps += [Step("bev.sum", (("bev.lidar2", lid, f32),), ("bev.lidar2", "bev.map2")),
              Step("fuse.conv1.in", (fuse_in,), ("bev.lidar2",))]

    if config.use_camera:
        shape = (camera.cropped_height, camera.width, 3)
        steps.append(Step("cam.conv1.in", (("cam.conv1.in", shape, f32),)))
        src = "cam.conv1.in"
        for i in range(len(config.cam_widths)):
            shape = conv(f"cam.conv{i + 1}", src, shape)
            src = f"cam.conv{i + 1}"

    rv_in = (rv.rows, rv.cols, 4)
    steps.append(Step("rv.conv1.in", (("rv.conv1.in", rv_in, f32),), ("rv_image",)))
    shape = conv("rv.conv1", "rv.conv1.in", rv_in)
    if config.use_camera:
        enc1_in = ("unet.enc1.in", (*shape[:2], config.concat_width), f32)
        shape = conv("rv.conv2", "rv.conv1", shape, dst=enc1_in)
        steps.append(Step("camera_to_rv", (enc1_in,), (f"cam.conv{len(config.cam_widths)}",)))
        src = "unet.enc1.in"
    else:
        conv("rv.conv2", "rv.conv1", shape)
        src = "rv.conv2"
    level1 = conv("unet.enc1", src, shape)
    conv("unet.res1.conv2", "unet.res1.conv1", conv("unet.res1.conv1", "unet.enc1", level1))
    steps.append(Step("unet.res1", (("unet.enc1", level1, f32),), ("unet.enc1", "unet.res1.conv2")))
    level2 = conv("unet.down", "unet.enc1", level1)
    conv("unet.res2.conv2", "unet.res2.conv1", conv("unet.res2.conv1", "unet.down", level2))
    steps.append(Step("unet.res2", (("unet.down", level2, f32),), ("unet.down", "unet.res2.conv2")))
    up = conv("unet.up", "unet.down", level2)
    merged = (*level1[:2], up[2] + level1[2])
    steps.append(Step("unet.fuse.in", (("unet.fuse.in", merged, f32),), ("unet.up", "unet.enc1")))
    conv("unet.fuse", "unet.fuse.in", merged)

    steps.append(Step("rv_to_bev", (fuse_in,), ("unet.fuse",)))
    shape, src = fuse_in[1], "fuse.conv1.in"
    for i in range(len(config.head_widths)):
        shape = conv(f"fuse.conv{i + 1}", src, shape)
        src = f"fuse.conv{i + 1}"
    head = conv("fuse.head", src, shape)
    steps.append(Step("outputs", (("outputs", (math.prod(head),), "float64"),), ("fuse.head",)))
    return steps


def frame_plan(preset: Preset, plan: LayerPlan) -> ArenaPlan:
    """The arena plan of a frame of preset through plan's layers, computed
    once per geometry and layer plan."""
    return _frame_plan(preset.grid, preset.rv, preset.camera, plan)


@lru_cache(maxsize=16)
def _frame_plan(grid: GridSpec, rv: RvSpec, camera: CameraModel, plan: LayerPlan) -> ArenaPlan:
    return plan_arena(frame_steps(grid, rv, camera, plan), export="outputs")


_arena: Arena | None = None


def frame_arena(plan: ArenaPlan) -> Arena:
    """The process's one arena, kept from frame to frame while the plan is
    the same and replaced when it changes. Frames run one at a time: two
    threads running frames at once would share it."""
    global _arena
    if _arena is None or _arena.plan != plan:
        _arena = None  # free the old buffer before the new one is allocated
        _arena = Arena(plan)
    return _arena


def _float32(fm: FeatureMap, out: np.ndarray) -> FeatureMap:
    out[...] = fm.data
    return FeatureMap(fm.view, out, fm.geometry)


def pipeline_stages(preset: Preset, weights: NetworkWeights):
    """The forward pass as named stages over a shared context, bundle to outputs.

    Stage order: rasterize, bev_branch, camera_net (when the weights hold
    the camera branch, cam.conv1.kernel), rv_branch, rv_to_bev, fuse_head.
    Each stage reads the context dict and returns the entries it adds; the
    last one adds "outputs". Every grid-shaped tensor the stages write lives
    in the process's arena (frame_arena), at the place frame_plan gives it,
    so where and for how long each one lives is decided once per preset and
    layer plan, not by the allocator. The network sees float32 copies of the
    float64 camera and RV images and the uint8 0/1 BEV stack and map raster
    as they are. The outputs are written into the plan's export, whose
    segment of the arena passes to the caller with them (Arena.lend), so
    they never share memory with what the arena writes later.

    bev_branch ends by copying the BEV features into fuse.conv1's input
    (fuse_input_of); rv_to_bev projects the RV features straight into the
    rest of that input, which fuse_head reads.
    """
    plan = layer_plan(preset, weights)
    config = plan.config
    arena = frame_arena(frame_plan(preset, plan))

    def rasterize(ctx):
        arena.begin_frame()
        return rasterize_frame(ctx["bundle"], preset, arena)

    def bev_branch(ctx):
        bev_feats = bev_branch_forward(ctx["lidar_stack"], ctx["map_raster"], weights, plan, arena)
        return {"fuse_input": fuse_input_of(bev_feats, config, arena)}

    def camera_net(ctx):
        image = _float32(ctx["bundle"].camera_image, arena.view("cam.conv1.in"))
        return {"cam_feats": camera_net_forward(image, weights, plan, arena)}

    def rv_branch(ctx):
        rv_image = _float32(ctx["rv_image"], arena.view("rv.conv1.in"))
        return {"rv_feats": rv_branch_forward(rv_image, ctx.get("cam_feats"), ctx["bundle"].sweeps[-1].points,
                                              weights, plan, arena)}

    def rv_to_bev(ctx):
        project_features(ctx["rv_feats"], ctx["bundle"].sweeps[-1].points, preset.grid,
                         out=ctx["fuse_input"].data[:, :, config.bev_width:])
        return {}

    def fuse_head(ctx):
        return {"outputs": fuse_and_head_forward(ctx["fuse_input"], weights, plan, arena)}

    stages = [("rasterize", rasterize), ("bev_branch", bev_branch)]
    if config.use_camera:
        stages.append(("camera_net", camera_net))
    stages.extend([
        ("rv_branch", rv_branch),
        ("rv_to_bev", rv_to_bev),
        ("fuse_head", fuse_head),
    ])
    return stages


def forward_frame(bundle: FrameBundle, preset: Preset, weights: NetworkWeights) -> CellOutputs:
    ctx = {"bundle": bundle}
    for _, stage in pipeline_stages(preset, weights):
        ctx.update(stage(ctx))
    return ctx["outputs"]


def benchmark_frame(bundle: FrameBundle, preset: Preset, weights: NetworkWeights,
                    repeats: int = 20) -> dict[str, float]:
    """Median CPU ms of each stage and of the whole frame over repeated frames.

    Each repeat runs the whole frame on a fresh context: the pipeline_stages,
    then decode. CPU time of this process (time.process_time) is read once
    at each stage boundary, so other processes loading the machine do not
    inflate it. The dict holds each stage's median in stage order, then
    "total", the median time of a whole frame.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")

    def decode(ctx):
        return {"detections": decode_detections(ctx["outputs"])}

    stages = pipeline_stages(preset, weights) + [("decode", decode)]
    samples: dict[str, list[float]] = {name: [] for name, _ in stages}
    totals = []
    for _ in range(repeats):
        ctx = {"bundle": bundle}
        start = last = time.process_time()
        for name, stage in stages:
            ctx.update(stage(ctx))
            now = time.process_time()
            samples[name].append((now - last) * 1000.0)
            last = now
        totals.append((last - start) * 1000.0)
    medians = {name: float(np.median(ms)) for name, ms in samples.items()}
    return {**medians, "total": float(np.median(totals))}


def fit_frame(bundle: FrameBundle, preset: Preset, steps: int = 500,
              learning_rate: float = 0.2, output_stride: int = 1, seed: int = 0):
    targets = encode_targets(bundle.labels, preset.grid, output_stride, preset.horizon)
    return fit_outputs(targets, steps=steps, learning_rate=learning_rate, seed=seed), targets


def evaluate_bundles(det_label_frames, preset: Preset, recall_target: float = 0.8,
                     use_fov_slices: bool = True) -> MetricsReport:
    return evaluate_frames(
        det_label_frames,
        recall_target=recall_target,
        horizon=preset.horizon,
        camera=preset.camera if use_fov_slices else None,
        range_bands=preset.range_bands,
    )


# ---------------------------------------------------------------------------
# cell-output artifacts
# ---------------------------------------------------------------------------

OUTPUTS_MAGIC = "mvfusion-cells"


def save_cell_outputs(path: str | Path, outputs: CellOutputs) -> None:
    g = outputs.grid
    meta = {
        "rows": str(g.rows), "cols": str(g.cols),
        "x_min": repr(g.x_min), "y_min": repr(g.y_min),
        "step_x": repr(g.step_x), "step_y": repr(g.step_y),
        "horizon": str(outputs.horizon),
        "classes": ",".join(outputs.classes),
    }
    write_blocks(path, OUTPUTS_MAGIC, meta, {"cells": outputs.pack()})


def load_cell_outputs(path: str | Path) -> CellOutputs:
    """Cell outputs saved by save_cell_outputs; any other content raises BlockFileError."""
    meta, blocks = read_blocks(path, OUTPUTS_MAGIC)
    try:
        grid = OutputGrid(
            rows=int(meta["rows"]), cols=int(meta["cols"]),
            x_min=float(meta["x_min"]), y_min=float(meta["y_min"]),
            step_x=float(meta["step_x"]), step_y=float(meta["step_y"]),
        )
        horizon = int(meta["horizon"])
        classes = tuple(meta["classes"].split(","))
        cells = blocks["cells"]
    except KeyError as exc:
        raise BlockFileError(f"{path}: no {exc.args[0]!r} entry") from exc
    except ValueError as exc:
        raise BlockFileError(f"{path}: bad meta value: {exc}") from exc
    lattice = [grid.x_min, grid.y_min, grid.step_x, grid.step_y]
    if horizon < 0 or not np.isfinite(lattice).all() or min(grid.step_x, grid.step_y) <= 0:
        raise BlockFileError(f"{path}: bad output grid {grid} or horizon {horizon}")
    if "" in classes or len(set(classes)) != len(classes):
        raise BlockFileError(f"{path}: bad class list {meta['classes']!r}")
    try:
        outputs = CellOutputs.unpack(cells, grid, horizon, classes)
        outputs.validate()
    except ValueError as exc:
        raise BlockFileError(f"{path}: {exc}") from exc
    return outputs
