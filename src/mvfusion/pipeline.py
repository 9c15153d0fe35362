"""End-to-end frame processing built from the module surfaces.

Generation simulates the sweep history, camera frame, and labels for each
reference time; rasterization and the forward pass turn a bundle into
per-cell outputs; evaluation decodes and scores them against the bundled
labels. The stage list here also feeds the latency benchmark.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .blockfile import BlockFileError, read_blocks, write_blocks
from .bundle_io import FrameBundle
from .losses import encode_targets, fit_outputs
from .metrics import (
    DetBox,
    MetricsReport,
    decode_detections,
    evaluate_frames,
    time_pipeline,
)
from .network import (
    CellOutputs,
    FusionConfig,
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
from .views import OutputGrid

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


def forward_frame(bundle: FrameBundle, preset: Preset, weights: NetworkWeights,
                  use_camera: bool = True) -> CellOutputs:
    config = replace(preset.fusion, use_camera=use_camera)
    rasters = rasterize_frame(bundle, preset)
    points = bundle.sweeps[-1].points
    cam_feats = None
    if use_camera:
        cam_feats = camera_net_forward(bundle.camera_image, weights, config)
    rv_feats = rv_branch_forward(rasters["rv_image"], cam_feats, points, weights, config)
    rv_bev, rv_validity = project_features(rv_feats, points, preset.grid)
    bev_feats = bev_branch_forward(rasters["lidar_stack"], rasters["map_raster"], weights, config)
    return fuse_and_head_forward(bev_feats, rv_bev, rv_validity, weights, config)


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


def pipeline_stages(preset: Preset, weights: NetworkWeights, use_camera: bool = True):
    """Named stages over a shared context, for latency measurement."""
    config = replace(preset.fusion, use_camera=use_camera)

    def rasterize(ctx):
        return rasterize_frame(ctx["bundle"], preset)

    def camera_net(ctx):
        return {"cam_feats": camera_net_forward(ctx["bundle"].camera_image, weights, config)}

    def rv_branch(ctx):
        return {"rv_feats": rv_branch_forward(
            ctx["rv_image"], ctx.get("cam_feats"), ctx["bundle"].sweeps[-1].points, weights, config
        )}

    def rv_to_bev(ctx):
        feats, validity = project_features(
            ctx["rv_feats"], ctx["bundle"].sweeps[-1].points, preset.grid
        )
        return {"rv_bev": feats, "rv_validity": validity}

    def bev_branch(ctx):
        return {"bev_feats": bev_branch_forward(ctx["lidar_stack"], ctx["map_raster"], weights, config)}

    def fuse_head(ctx):
        return {"outputs": fuse_and_head_forward(
            ctx["bev_feats"], ctx["rv_bev"], ctx["rv_validity"], weights, config
        )}

    def decode(ctx):
        return {"detections": decode_detections(ctx["outputs"])}

    stages = [("rasterize", rasterize)]
    if use_camera:
        stages.append(("camera_net", camera_net))
    stages.extend([
        ("rv_branch", rv_branch),
        ("rv_to_bev", rv_to_bev),
        ("bev_branch", bev_branch),
        ("fuse_head", fuse_head),
        ("decode", decode),
    ])
    return stages


def benchmark_frame(bundle: FrameBundle, preset: Preset, weights: NetworkWeights,
                    use_camera: bool = True, repeats: int = 20):
    stages = pipeline_stages(preset, weights, use_camera)
    return time_pipeline(stages, {"bundle": bundle}, repeats=repeats)


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
    meta, blocks = read_blocks(path, OUTPUTS_MAGIC)
    grid = OutputGrid(
        rows=int(meta["rows"]), cols=int(meta["cols"]),
        x_min=float(meta["x_min"]), y_min=float(meta["y_min"]),
        step_x=float(meta["step_x"]), step_y=float(meta["step_y"]),
    )
    classes = tuple(meta["classes"].split(","))
    try:
        outputs = CellOutputs.unpack(blocks["cells"], grid, int(meta["horizon"]), classes)
        outputs.validate()
    except ValueError as exc:
        raise BlockFileError(f"{path}: {exc}") from exc
    return outputs
