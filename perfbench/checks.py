"""Correctness checks on every operation's output, run outside the timed spans.

Each check states a property of the output or recomputes it independently
here; none compares against a stored copy of earlier output. A failed
check raises CheckError with a message naming what differed.
"""
from __future__ import annotations

import math

import numpy as np

from mvfusion.geometry import rotated_iou


class CheckError(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _quantized_f32(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).astype(np.float32).astype(np.float64)


def _quantized_8bit(image: np.ndarray) -> np.ndarray:
    return np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8).astype(np.float64) / 255.0


def check_bundle_roundtrip(generated, read) -> None:
    """A bundle read back equals the generated frame after quantization.

    Point fields are stored as float32 and the camera image as 8-bit;
    everything else (poses, labels, map) must come back exactly.
    """
    _require((read.preset, read.timestamp, read.horizon)
             == (generated.preset, generated.timestamp, generated.horizon), "bundle header differs")
    _require(len(read.sweeps) == len(generated.sweeps), "bundle sweep count differs")
    for i, (g, r) in enumerate(zip(generated.sweeps, read.sweeps)):
        _require(r.timestamp == g.timestamp and r.ego_pose == g.ego_pose, f"sweep {i}: pose or time differs")
        for field in ("x", "y", "z", "range", "intensity", "azimuth"):
            _require(np.array_equal(getattr(r.points, field), _quantized_f32(getattr(g.points, field))),
                     f"sweep {i}: point field {field} differs from its float32 value")
        _require(np.array_equal(r.points.laser, g.points.laser), f"sweep {i}: laser ids differ")
    _require(np.array_equal(read.camera_image.data, _quantized_8bit(generated.camera_image.data)),
             "camera image differs from its 8-bit value")
    gl, rl = generated.labels.labels, read.labels.labels
    _require(len(gl) == len(rl), "label count differs")
    for g, r in zip(gl, rl):
        _require((r.actor_id, r.cls, r.box.length, r.box.width) == (g.actor_id, g.cls, g.box.length, g.box.width)
                 and np.array_equal(r.centers, g.centers) and np.array_equal(r.headings, g.headings),
                 f"label of actor {g.actor_id} differs")
    for name, entries in generated.map_geometry.layers.items():
        back = read.map_geometry.layers[name]
        _require(len(back) == len(entries) and all(
            kb == kg and np.array_equal(np.asarray(pb, dtype=float), np.asarray(pg, dtype=float))
            for (kg, pg), (kb, pb) in zip(entries, back)), f"map layer {name} differs")


def check_sweep_points(sweep, sensor) -> None:
    """Every point lies on its own beam's elevation and azimuth, within range."""
    pts = sweep.points
    if len(pts) == 0:
        return
    _require(pts.laser.min() >= 0 and pts.laser.max() < sensor.beams, "laser id outside the sensor's beams")
    dz = pts.z - sensor.mount_height
    horizontal = np.hypot(pts.x, pts.y)
    elevation = np.arctan2(dz, horizontal)
    err = np.abs(elevation - np.asarray(sensor.elevations)[pts.laser]).max()
    _require(err <= 1e-9, f"point off its beam elevation by {err:.3g} rad")
    az_err = np.abs(np.angle(np.exp(1j * (np.arctan2(pts.y, pts.x) - pts.azimuth)))).max()
    _require(az_err <= 1e-9, f"point off its azimuth by {az_err:.3g} rad")
    steps = (pts.azimuth - sensor.azimuth_offset) / sensor.azimuth_step
    _require(np.abs(steps - np.round(steps)).max() <= 1e-6, "azimuth not on the sensor's azimuth grid")
    distance = np.hypot(horizontal, dz)
    _require(np.abs(distance - pts.range).max() <= 1e-9 * max(1.0, float(distance.max())),
             "range field differs from the point's distance")
    _require(distance.max() <= sensor.max_range + 1e-9, "point beyond max_range")


def occupied_voxels(sweeps, grid) -> list[int]:
    """Occupied voxels per sweep, each sweep moved into the newest sweep's frame."""
    ref = sweeps[-1].ego_pose
    counts = []
    for sweep in sweeps:
        pose = sweep.ego_pose
        # sweep frame -> world -> reference frame
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        wx = c * sweep.points.x - s * sweep.points.y + pose.tx - ref.tx
        wy = s * sweep.points.x + c * sweep.points.y + pose.ty - ref.ty
        cr, sr = math.cos(ref.yaw), math.sin(ref.yaw)
        x, y = cr * wx + sr * wy, -sr * wx + cr * wy
        rows = np.floor((x - grid.x_min) / grid.cell_length).astype(np.int64)
        cols = np.floor((y - grid.y_min) / grid.cell_width).astype(np.int64)
        zs = np.floor((sweep.points.z - grid.z_min) / grid.cell_height).astype(np.int64)
        keep = ((rows >= 0) & (rows < grid.rows) & (cols >= 0) & (cols < grid.cols)
                & (zs >= 0) & (zs < grid.z_cells))
        flat = (rows[keep] * grid.cols + cols[keep]) * grid.z_cells + zs[keep]
        counts.append(int(np.unique(flat).size))
    return counts


def check_voxels(stack, sweeps, grid) -> None:
    """Occupied voxels per history block equal the count recomputed here."""
    k = grid.z_cells
    got = [int(np.count_nonzero(stack.data[:, :, t * k:(t + 1) * k])) for t in range(len(sweeps))]
    want = occupied_voxels(sweeps, grid)
    _require(got == want, f"occupied voxels per sweep {got}, recomputed {want}")


def check_rv_to_bev(source, points, grid, features, validity) -> None:
    """RV->BEV projection equals a literal per-point average within 1e-12."""
    sums: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    rv_cols = source.data.shape[1]
    src = source.data.astype(np.float64)
    for x, y, laser, azimuth in zip(points.x.tolist(), points.y.tolist(),
                                    points.laser.tolist(), points.azimuth.tolist()):
        row = math.floor((x - grid.x_min) / grid.cell_length)
        col = math.floor((y - grid.y_min) / grid.cell_width)
        if not (0 <= row < grid.rows and 0 <= col < grid.cols):
            continue
        rv_col = min(int(azimuth / (2.0 * math.pi) * rv_cols), rv_cols - 1)
        key = (row, col)
        sums[key] = sums.get(key, 0.0) + src[laser, rv_col]
        counts[key] = counts.get(key, 0) + 1
    want = np.zeros((grid.rows, grid.cols, src.shape[2]))
    want_valid = -np.ones((grid.rows, grid.cols, 1))
    for key, total in sums.items():
        want[key] = total / counts[key]
        want_valid[key] = 1.0
    _require(np.array_equal(validity.data, want_valid), "RV->BEV validity differs from the points' cells")
    err = float(np.abs(features.data - want).max()) if want.size else 0.0
    _require(err <= 1e-12, f"RV->BEV features differ from the per-point average by {err:.3g}")


def check_cell_outputs(outputs, grid, horizon: int, classes) -> None:
    """Finite outputs, prob strictly inside (0, 1), shapes on the output grid."""
    _require((outputs.grid.rows, outputs.grid.cols) == (grid.rows, grid.cols),
             f"output grid {outputs.grid.rows}x{outputs.grid.cols}, expected {grid.rows}x{grid.cols}")
    _require(tuple(outputs.classes) == tuple(classes) and outputs.horizon == horizon, "output layout differs")
    shape = (grid.rows, grid.cols)
    for cls in classes:
        p = outputs.prob[cls]
        _require(p.shape == shape, f"{cls}: prob shape {p.shape}")
        _require(bool(np.all((p > 0.0) & (p < 1.0))), f"{cls}: prob not strictly inside (0, 1)")
        for field, tail in (("size", (2,)), ("centers", (horizon + 1, 2)), ("headings", (horizon + 1, 2))):
            arr = getattr(outputs, field)[cls]
            _require(arr.shape == (*shape, *tail), f"{cls}: {field} shape {arr.shape}")
            _require(bool(np.isfinite(arr).all()), f"{cls}: non-finite {field}")


def check_nms(dets, score_floor: float, nms_iou: float) -> None:
    """Per class, kept boxes are above the floor and overlap below the NMS IoU."""
    for cls in sorted({d.cls for d in dets}):
        kept = [d for d in dets if d.cls == cls]
        _require(all(d.score >= score_floor for d in kept), f"{cls}: kept box below the score floor")
        centers = np.array([(d.box.cx, d.box.cy) for d in kept])
        radius = 0.5 * np.array([math.hypot(d.box.length, d.box.width) for d in kept])
        dist = np.hypot(*(centers[:, None, :] - centers[None, :, :]).transpose(2, 0, 1))
        # boxes farther apart than their circumradius sum cannot overlap
        ii, jj = np.nonzero(np.triu(dist <= radius[:, None] + radius[None, :], k=1))
        for i, j in zip(ii.tolist(), jj.tolist()):
            iou = rotated_iou(kept[i].box, kept[j].box)
            _require(iou < nms_iou, f"{cls}: kept boxes {kept[i].cell} and {kept[j].cell} overlap at IoU {iou:.3f}")


def in_fov(cx: float, cy: float, camera) -> bool:
    """Center of a box projects to a valid camera column (vertical crop ignored)."""
    m = camera.mount
    c, s = math.cos(m.yaw), math.sin(m.yaw)
    dx, dy = cx - m.tx, cy - m.ty
    x, y = c * dx + s * dy, -s * dx + c * dy
    if x <= 1e-9:
        return False
    return 0 <= math.floor(camera.cx + camera.fx * (-y) / x) < camera.width


def check_eval_counts(report, frames, camera, range_bands, classes) -> None:
    """gt_count per class and slice equals the label count recomputed here."""
    want: dict[str, int] = {}
    for _, labels in frames:
        for lab in labels:
            keys = ["full"]
            if in_fov(lab.box.cx, lab.box.cy, camera):
                keys.append("fov")
                dist = math.hypot(lab.box.cx, lab.box.cy)
                keys += [f"fov_{lo:g}m-{hi:g}m" for lo, hi in range_bands if lo <= dist < hi]
            for key in keys:
                want[f"{lab.cls}.{key}"] = want.get(f"{lab.cls}.{key}", 0) + 1
    slices = ["full", "fov"] + [f"fov_{lo:g}m-{hi:g}m" for lo, hi in range_bands]
    for cls in classes:
        for name in slices:
            key = f"{cls}.{name}"
            _require(key in report.sections, f"report has no section {key}")
            got = report.sections[key]["gt_count"]
            _require(got == want.get(key, 0), f"{key}: gt_count {got}, recomputed {want.get(key, 0)}")
        n_dets = sum(1 for dets, _ in frames for d in dets if d.cls == cls)
        _require(report.sections[f"{cls}.full"]["det_count"] == n_dets, f"{cls}: det_count differs")


def check_fit(losses) -> None:
    """The fit loss never increases."""
    losses = np.asarray(losses)
    _require(bool(np.all(np.isfinite(losses))), "non-finite fit loss")
    _require(bool(np.all(np.diff(losses) <= 0.0)), "fit loss increased")


def cellless_labels(labels, grid) -> list:
    """Labels whose h=0 box contains no cell center of the output grid.

    Such a label gets no foreground cell when targets are encoded, so no
    fit of the outputs can recover it.
    """
    xs = grid.x_min + (np.arange(grid.rows) + 0.5) * grid.step_x
    ys = grid.y_min + (np.arange(grid.cols) + 0.5) * grid.step_y
    out = []
    for lab in labels:
        b = lab.box
        c, s = math.cos(b.heading), math.sin(b.heading)
        dx, dy = xs[:, None] - b.cx, ys[None, :] - b.cy
        inside = (np.abs(c * dx + s * dy) <= 0.5 * b.length) & (np.abs(-s * dx + c * dy) <= 0.5 * b.width)
        if not inside.any():
            out.append(lab)
    return out


def check_fit_ap(report, frames, grid, classes, evaluate) -> dict:
    """Fitted outputs recover every recoverable labelled box: AP 1.0 per class.

    A label with no cell center inside its box gets no foreground cell from
    encode_targets, so no fit can recover it. That fault of the program
    shows on some scene seeds only. AP 1.0 is required of a second scoring
    without such labels; their count and the AP over all labels are
    returned for the caller to report.
    """
    cellless = [cellless_labels(labels, grid) for _, labels in frames]
    found = {"labels_without_cells": sum(len(c) for c in cellless),
             "ap_all_labels": {cls: report.sections[f"{cls}.full"]["ap"] for cls in classes}}
    if found["labels_without_cells"]:
        frames = [(dets, [lab for lab in labels if all(lab is not s for s in skip)])
                  for (dets, labels), skip in zip(frames, cellless)]
        report = evaluate(frames)
    for cls in classes:
        ap = report.sections[f"{cls}.full"]["ap"]
        _require(ap == 1.0, f"{cls}: AP {ap} on fitted outputs, expected 1.0")
    return found


def check_identical(digest_a: str, digest_b: str, what: str) -> None:
    _require(digest_a == digest_b, f"{what}: outputs differ between two runs of the same frame")
