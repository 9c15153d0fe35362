"""End-to-end frame processing built from the module surfaces.

Generation simulates the sweep history, camera frame, and labels for each
reference time; rasterization and the forward pass turn a bundle into
per-cell outputs; evaluation decodes and scores them against the bundled
labels. The forward pass is one list of named stages (pipeline_stages),
run by forward_frame and, followed by decode, by benchmark_frame, which
times whole frames with a clock read at each stage boundary.
"""
from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .blockfile import BlockFileError, read_blocks, write_blocks
from .bundle_io import FrameBundle
from .losses import encode_targets, fit_outputs
from .metrics import MetricsReport, decode_detections, evaluate_frames
from .network import (
    CellOutputs,
    NetworkWeights,
    bev_branch_forward,
    camera_net_forward,
    fuse_and_head_forward,
    init_network_weights,
    rv_branch_forward,
)
from .presets import Preset, bev_stack_channels
from .projection import project_features
from .raster import build_rv_image, rasterize_map, stack_history_bev
from .scene import Scene, SceneConfig, build_scene, render_camera, scene_labels, simulate_sweep
from .views import FeatureMap, OutputGrid

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

def rasterize_frame(bundle: FrameBundle, preset: Preset) -> dict:
    lidar = stack_history_bev(bundle.sweeps, preset.grid, expected_count=preset.sweep_count)
    map_raster = rasterize_map(bundle.map_geometry, preset.grid)
    rv_image = build_rv_image(bundle.sweeps[-1], preset.rv)
    return {"lidar_stack": lidar, "map_raster": map_raster, "rv_image": rv_image}


def make_weights(preset: Preset, seed: int, use_camera: bool = True) -> NetworkWeights:
    config = replace(preset.fusion, use_camera=use_camera)
    return init_network_weights(config, bev_stack_channels(preset), seed)


def _float32(fm: FeatureMap) -> FeatureMap:
    return FeatureMap(fm.view, fm.data.astype(np.float32), fm.geometry)


def pipeline_stages(preset: Preset, weights: NetworkWeights):
    """The forward pass as named stages over a shared context, bundle to outputs.

    Stage order: rasterize, bev_branch, camera_net (when the weights hold
    the camera branch, cam.conv1.kernel), rv_branch, rv_to_bev, fuse_head.
    Each stage reads the context dict, pops the entries it is the last
    reader of, so every large tensor is freed once it has been read for the
    last time, and returns the entries it adds; the last one adds
    "outputs". The network sees float32 copies of the float64 camera and RV
    images; the BEV stack and map raster are float32 already.
    """
    config = replace(preset.fusion, use_camera="cam.conv1.kernel" in weights.blocks)

    def rasterize(ctx):
        return rasterize_frame(ctx["bundle"], preset)

    def bev_branch(ctx):
        return {"bev_feats": bev_branch_forward(ctx.pop("lidar_stack"), ctx.pop("map_raster"), weights, config)}

    def camera_net(ctx):
        return {"cam_feats": camera_net_forward(_float32(ctx["bundle"].camera_image), weights, config)}

    def rv_branch(ctx):
        return {"rv_feats": rv_branch_forward(
            _float32(ctx.pop("rv_image")), ctx.pop("cam_feats", None), ctx["bundle"].sweeps[-1].points,
            weights, config,
        )}

    def rv_to_bev(ctx):
        feats, validity = project_features(ctx.pop("rv_feats"), ctx["bundle"].sweeps[-1].points, preset.grid)
        return {"rv_bev": feats, "rv_validity": validity}

    def fuse_head(ctx):
        return {"outputs": fuse_and_head_forward(
            ctx.pop("bev_feats"), ctx.pop("rv_bev"), ctx.pop("rv_validity"), weights, config
        )}

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
