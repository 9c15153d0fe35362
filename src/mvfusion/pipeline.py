"""End-to-end frame processing built from the module surfaces.

Generation simulates the sweep history, camera frame, and labels for each
reference time; rasterization and the forward pass turn a bundle into
per-cell outputs; evaluation decodes and scores them against the bundled
labels. The forward pass is one list of steps (frame_steps), cut into named
stages (frame_stages): it plans the arena of the process's one FusionNet
(fusion_net), which holds every grid-shaped tensor of a frame and is reused
frame after frame, and its stages run in order (pipeline_stages), by
forward_frame and, followed by decode, by benchmark_frame, which reads a
clock at each stage boundary.
"""
from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .arena import Arena, Step, plan_arena
from .blockfile import BlockFileError, read_blocks, write_blocks
from .bundle_io import FrameBundle
from .losses import encode_targets, fit_outputs
from .metrics import MetricsReport, decode_detections, evaluate_frames
from .network import (
    CellOutputs,
    FusionNet,
    NetworkWeights,
    bev_branch_forward,
    bev_branch_steps,
    camera_features_geometry,
    camera_net_forward,
    camera_net_steps,
    fuse_and_head_forward,
    fuse_head_steps,
    init_network_weights,
    rv_branch_forward,
    rv_branch_steps,
)
from .presets import Preset, bev_stack_channels
from .projection import project_features
from .raster import build_rv_image, rasterize_map, stack_history_bev
from .scene import LABEL_RATE_HZ, Scene, SceneConfig, build_scene, render_camera, scene_labels, simulate_sweep
from .views import BEV, CAMERA, RV, CameraGeometry, CameraModel, FeatureMap, GridSpec, OutputGrid, RvSpec

FRAME_SPACING = 0.5  # seconds between generated frame bundles


def frame_times(preset: Preset, frames: int) -> list[float]:
    if frames < 1:
        raise ValueError(f"frames must be at least 1, got {frames}")
    t0 = (preset.sweep_count - 1) * preset.sweep_period
    return [t0 + i * FRAME_SPACING for i in range(frames)]


def scene_config_for(preset: Preset, seed: int, frames: int) -> SceneConfig:
    duration = frame_times(preset, frames)[-1] + preset.horizon / LABEL_RATE_HZ + 0.1
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

def rasterize_frame(bundle: FrameBundle, preset: Preset) -> dict:
    """The BEV stack, the map raster and the float64 RV image of a bundle,
    each a new array (the frame's own steps write them into its arena)."""
    return {"lidar_stack": stack_history_bev(bundle.sweeps, preset.grid, expected_count=preset.sweep_count),
            "map_raster": rasterize_map(bundle.map_geometry, preset.grid),
            "rv_image": build_rv_image(bundle.sweeps[-1], preset.rv)}


def make_weights(preset: Preset, seed: int, use_camera: bool = True) -> NetworkWeights:
    config = replace(preset.fusion, use_camera=use_camera)
    return init_network_weights(config, bev_stack_channels(preset), seed)


# ---------------------------------------------------------------------------
# the frame's net and arena
# ---------------------------------------------------------------------------

def frame_stages(grid: GridSpec, rv: RvSpec, camera: CameraModel, net: FusionNet) -> list[tuple[str, list[Step]]]:
    """The forward pass on a preset's BEV grid, RV image and camera: its
    stages in order, each a name and its steps, which name the tensors they
    write and read and carry what they run (arena.Step). The network's
    stages are its *_steps; rasterization, the float32 copy of the camera
    image and the RV->BEV projection ("rv_to_bev") are the pipeline's. The
    last step writes "outputs", which the plan lends to the caller. The
    steps read the frame's bundle and points from views["bundle"] and
    views["points"]."""
    rows, cols = grid.rows, grid.cols
    rasterize = [
        Step("lidar_stack", (("lidar_stack", (rows, cols, net.bev_in_channels), "uint8"),),
             run=lambda v: stack_history_bev(v["bundle"].sweeps, grid, out=v["lidar_stack"])),
        Step("map_raster", (("map_raster", (rows, cols, 7), "uint8"),),
             run=lambda v: rasterize_map(v["bundle"].map_geometry, grid, out=v["map_raster"])),
        Step("rv.conv1.in", (("rv.conv1.in", (rv.rows, rv.cols, 4), "float32"),),
             run=lambda v: build_rv_image(v["bundle"].sweeps[-1], rv, out=v["rv.conv1.in"]))]
    stages = [("rasterize", rasterize), ("bev_branch", bev_branch_steps(net, rows, cols))]
    features = None
    if net.config.use_camera:
        image = (camera.cropped_height, camera.width, 3)
        copy = Step("cam.conv1.in", (("cam.conv1.in", image, "float32"),),
                    run=lambda v: np.copyto(v["cam.conv1.in"], v["bundle"].camera_image.data))
        stages.append(("camera_net", [copy, *camera_net_steps(net, *image[:2])]))
        features = camera_features_geometry(CameraGeometry(camera))
    projected = (rows, cols, net.config.unet_width + 1)
    project = Step("rv_to_bev", (("rv_to_bev", projected, "float32"),), ("unet.fuse",),
                   run=lambda v: project_features(FeatureMap(RV, v["unet.fuse"], rv), v["points"], grid,
                                                  out=v["rv_to_bev"]))
    return stages + [("rv_branch", rv_branch_steps(net, rv, features)), ("rv_to_bev", [project]),
                     ("fuse_head", fuse_head_steps(net, grid))]


def frame_steps(grid: GridSpec, rv: RvSpec, camera: CameraModel, net: FusionNet) -> list[Step]:
    """The steps of frame_stages, in order: what the arena is planned from."""
    return [step for _, steps in frame_stages(grid, rv, camera, net) for step in steps]


_net: tuple[Preset, FusionNet] | None = None


def fusion_net(preset: Preset, weights: NetworkWeights) -> FusionNet:
    """The process's one net: preset's layers with these weights, with the
    camera branch when they hold cam.conv1.kernel, and the arena of a frame
    of preset planned from frame_steps.

    It is built on the first forward pass and kept while the preset and the
    weights object stay the same; the weights are immutable, so nothing it
    holds goes stale. A net built for another preset or other weights takes
    over the old net's arena when their plans are equal. Frames run one at a
    time: two threads running frames at once would share the arena.
    """
    global _net
    if _net is not None and _net[0] == preset and _net[1].weights is weights:
        return _net[1]
    config = replace(preset.fusion, use_camera="cam.conv1.kernel" in weights.blocks)
    net = FusionNet(config, bev_stack_channels(preset), weights)
    plan = plan_arena(frame_steps(preset.grid, preset.rv, preset.camera, net), export="outputs")
    arena = None if _net is None or _net[1].arena.plan != plan else _net[1].arena
    _net = None  # free the old arena before a new one is allocated
    net.arena = Arena(plan) if arena is None else arena
    _net = (preset, net)
    return net


def pipeline_stages(preset: Preset, weights: NetworkWeights):
    """frame_stages as (name, stage) pairs, bundle to outputs: a stage reads
    the context dict and returns the entries it adds, the last "outputs".
    The network's stages run through its branch functions, all in the
    arena of the process's net (fusion_net), and the outputs are its
    export, lent to the caller (Arena.lend)."""
    net = fusion_net(preset, weights)
    grid, rv = preset.grid, preset.rv
    steps = dict(frame_stages(grid, rv, preset.camera, net))

    def rasterize(ctx):
        net.arena.begin_frame()
        return net.run(steps["rasterize"], {"bundle": ctx["bundle"], "points": ctx["bundle"].sweeps[-1].points})

    def camera_net(ctx):
        image = net.run(steps["camera_net"][:1], {"bundle": ctx["bundle"]})["cam.conv1.in"]
        return {"cam_feats": camera_net_forward(FeatureMap(CAMERA, image, CameraGeometry(preset.camera)), net)}

    def rv_to_bev(ctx):
        views = net.run(steps["rv_to_bev"], {"unet.fuse": ctx["rv_feats"].data, "points": ctx["points"]})
        return {"projected": FeatureMap(BEV, views["rv_to_bev"], grid)}

    run = {"rasterize": rasterize, "camera_net": camera_net, "rv_to_bev": rv_to_bev,
           "bev_branch": lambda ctx: {"bev_part": bev_branch_forward(FeatureMap(BEV, ctx["lidar_stack"], grid),
                                                                     FeatureMap(BEV, ctx["map_raster"], grid), net)},
           "rv_branch": lambda ctx: {"rv_feats": rv_branch_forward(FeatureMap(RV, ctx["rv.conv1.in"], rv),
                                                                   ctx.get("cam_feats"), ctx["points"], net)},
           "fuse_head": lambda ctx: {"outputs": fuse_and_head_forward(ctx["bev_part"], ctx["projected"], net)}}
    return [(name, run[name]) for name in steps]


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


def fit_frame(bundle: FrameBundle, preset: Preset, steps: int = 500, seed: int = 0):
    targets = encode_targets(bundle.labels, preset.grid, 1, preset.horizon)  # output stride 1: every grid cell
    return fit_outputs(targets, steps=steps, learning_rate=0.2, seed=seed), targets


def evaluate_bundles(det_label_frames, preset: Preset, recall_target: float = 0.8) -> MetricsReport:
    """The metrics of decoded frames, on the whole grid and in the camera's FOV slices."""
    return evaluate_frames(
        det_label_frames,
        recall_target=recall_target,
        horizon=preset.horizon,
        camera=preset.camera,
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
