"""Each benchmark check passes on real output and fails on one corrupted copy.

Run from the root of the checkout: python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from mvfusion import bundle_io, metrics, pipeline, projection, raster  # noqa: E402
from mvfusion.losses import CLASSES  # noqa: E402
from mvfusion.metrics import MetricsReport  # noqa: E402
from mvfusion.presets import get_preset  # noqa: E402
from mvfusion.scene import build_scene  # noqa: E402
from mvfusion.views import RV, FeatureMap, OutputGrid  # noqa: E402


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    preset = get_preset("desk")
    scene = build_scene(pipeline.scene_config_for(preset, 7, 1))
    generated = pipeline.generate_bundle(preset, scene, pipeline.frame_times(preset, 1)[0])
    path = tmp_path_factory.mktemp("bundle") / "bundle.bin"
    bundle_io.write_frame_bundle(path, generated)
    read = bundle_io.read_frame_bundle(path, preset.name, preset.camera)
    outputs = pipeline.forward_frame(read, preset, pipeline.make_weights(preset, 0))
    dets = metrics.decode_detections(outputs)
    return preset, generated, read, outputs, dets


def fails(check, *args):
    with pytest.raises(CheckError):
        check(*args)


def test_bundle_roundtrip(frame):
    preset, generated, read, _, _ = frame
    checks.check_bundle_roundtrip(generated, read)
    bad = copy.deepcopy(read)
    bad.sweeps[0].points.x[5] += 1e-3
    fails(checks.check_bundle_roundtrip, generated, bad)
    bad = copy.deepcopy(read)
    bad.camera_image.data[3, 4, 1] += 1.0 / 255.0
    fails(checks.check_bundle_roundtrip, generated, bad)
    bad = copy.deepcopy(read)
    bad.labels.labels[0].centers[10, 1] += 0.5
    fails(checks.check_bundle_roundtrip, generated, bad)


def test_sweep_points(frame):
    preset, generated, _, _, _ = frame
    sweep = generated.sweeps[-1]
    checks.check_sweep_points(sweep, preset.sensor)
    bad = copy.deepcopy(sweep)
    bad.points.z[11] += 0.05
    fails(checks.check_sweep_points, bad, preset.sensor)
    far = replace(preset.sensor, max_range=float(sweep.points.range.max()) - 1.0)
    fails(checks.check_sweep_points, sweep, far)


def test_voxels(frame):
    preset, _, read, _, _ = frame
    stack = raster.stack_history_bev(read.sweeps, preset.grid)
    checks.check_voxels(stack, read.sweeps, preset.grid)
    bad = copy.deepcopy(stack)
    empty = np.argwhere(bad.data[:, :, : preset.grid.z_cells] == 0)[0]
    bad.data[tuple(empty)] = 1.0
    fails(checks.check_voxels, bad, read.sweeps, preset.grid)


def test_rv_to_bev(frame):
    preset, _, read, _, _ = frame
    rng = np.random.default_rng(0)
    source = FeatureMap(RV, rng.normal(size=(preset.rv.rows, preset.rv.cols, 5)), preset.rv)
    points = read.sweeps[-1].points
    features, validity = projection.project_features(source, points, preset.grid)
    checks.check_rv_to_bev(source, points, preset.grid, features, validity)
    cell = tuple(np.argwhere(validity.data[:, :, 0] > 0)[0])
    bad = copy.deepcopy(features)
    bad.data[cell + (2,)] += 1e-9
    fails(checks.check_rv_to_bev, source, points, preset.grid, bad, validity)
    bad = copy.deepcopy(validity)
    bad.data[cell + (0,)] = -1.0
    fails(checks.check_rv_to_bev, source, points, preset.grid, features, bad)


def test_cell_outputs(frame):
    preset, _, _, outputs, _ = frame
    grid = OutputGrid.from_grid(preset.grid, preset.fusion.output_stride)
    checks.check_cell_outputs(outputs, grid, preset.horizon, CLASSES)
    bad = copy.deepcopy(outputs)
    bad.prob["vehicle"][0, 0] = 1.0
    fails(checks.check_cell_outputs, bad, grid, preset.horizon, CLASSES)
    bad = copy.deepcopy(outputs)
    bad.centers["bicyclist"][1, 2, 3, 0] = np.nan
    fails(checks.check_cell_outputs, bad, grid, preset.horizon, CLASSES)
    fails(checks.check_cell_outputs, outputs, OutputGrid.from_grid(preset.grid, 2), preset.horizon, CLASSES)


def test_nms(frame):
    _, _, _, _, dets = frame
    floor, iou = metrics.DEFAULT_SCORE_FLOOR, metrics.DEFAULT_NMS_IOU
    checks.check_nms(dets, floor, iou)
    fails(checks.check_nms, dets + [dets[0]], floor, iou)
    fails(checks.check_nms, dets[:-1] + [replace(dets[-1], score=floor - 0.01)], floor, iou)


def test_eval_counts(frame):
    preset, _, read, _, dets = frame
    frames = [(dets, read.labels.labels)]
    report = pipeline.evaluate_bundles(frames, preset)
    checks.check_eval_counts(report, frames, preset.camera, preset.range_bands, CLASSES)
    bad = MetricsReport(copy.deepcopy(report.sections))
    bad.sections["vehicle.fov"]["gt_count"] += 1
    fails(checks.check_eval_counts, bad, frames, preset.camera, preset.range_bands, CLASSES)
    bad = MetricsReport(copy.deepcopy(report.sections))
    bad.sections["pedestrian.full"]["det_count"] -= 1
    fails(checks.check_eval_counts, bad, frames, preset.camera, preset.range_bands, CLASSES)


def test_fit(frame):
    preset, _, read, _, _ = frame
    checks.check_fit(np.array([5.0, 4.0, 4.0, 1.0]))
    fails(checks.check_fit, np.array([5.0, 4.0, 4.5, 1.0]))
    fails(checks.check_fit, np.array([5.0, np.nan]))

    grid = OutputGrid.from_grid(preset.grid, 1)
    labels = list(read.labels.labels)
    perfect = MetricsReport({f"{c}.full": {"ap": 1.0} for c in CLASSES})
    short = MetricsReport({f"{c}.full": {"ap": 0.9 if c == "pedestrian" else 1.0} for c in CLASSES})
    assert checks.check_fit_ap(perfect, [([], labels)], grid, CLASSES, None)["labels_without_cells"] == 0
    fails(checks.check_fit_ap, short, [([], labels)], grid, CLASSES, None)
    # a box between cell centers gets no foreground cell: counted and reported, then judged without it
    corner = (grid.x_min + 10 * grid.step_x, grid.y_min + 10 * grid.step_y)
    tiny = replace(labels[0], box=replace(labels[0].box, cx=corner[0], cy=corner[1], length=0.1, width=0.1))
    frames = [([], [tiny] + labels[1:])]
    found = checks.check_fit_ap(short, frames, grid, CLASSES, lambda f: perfect)
    assert found["labels_without_cells"] == 1 and found["ap_all_labels"]["pedestrian"] == 0.9
    fails(checks.check_fit_ap, short, frames, grid, CLASSES, lambda f: short)


def test_identical():
    checks.check_identical("ab", "ab", "frame")
    fails(checks.check_identical, "ab", "ac", "frame")
