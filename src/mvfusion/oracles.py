"""Literal reference implementations shared by selfcheck and the tests.

These deliberately avoid the library's vectorized paths: cell indices come
from the scalar per-point projectors defined here, which read a PointArray
one point at a time by column index (point_at), pooling is a literal double loop over
target cells and points, convolution is a sextuple loop, gradients are
central finite differences, the output fit updates every entry of every
array at every try, IoU is a Monte-Carlo area estimate and polygon
simplicity tests every pair of edges in exact rationals. Nothing
on the frame path imports this module.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .geometry import RotatedBox2D, box_corners, points_in_box, rotated_iou
from .losses import (
    DECAY,
    CellGradients,
    CellTargets,
    FitResult,
    focal_loss,
    loss_gradients,
    smooth_l1,
    total_loss,
)
from .metrics import MIN_DECODED_SIDE, DetBox
from .network import CellOutputs
from .scene import CLASSES, PointArray
from .views import CameraGeometry, CameraModel, FeatureMap, GridSpec, OutputGrid, RvSpec, camera_pixels_of


class Point3(NamedTuple):
    """A 3D point in a right-handed frame: x forward, y left, z up (meters)."""

    x: float
    y: float
    z: float


class LidarPoint(NamedTuple):
    """One LiDAR return: ego-frame position plus raw sensor fields."""

    x: float
    y: float
    z: float
    range: float
    intensity: float
    azimuth: float
    laser: int


class CellIndex(NamedTuple):
    row: int
    col: int


def point_at(points: PointArray, i: int) -> LidarPoint:
    """Point i of a PointArray, read from its columns."""
    return LidarPoint(
        float(points.x[i]), float(points.y[i]), float(points.z[i]), float(points.range[i]),
        float(points.intensity[i]), float(points.azimuth[i]), int(points.laser[i]),
    )


# ---------------------------------------------------------------------------
# scalar per-point projectors: the references for views' array projectors
# ---------------------------------------------------------------------------

def bev_cell_of(point, grid: GridSpec) -> Optional[CellIndex]:
    """Planar BEV cell of a point, or None outside the x/y extent."""
    row = math.floor((point.x - grid.x_min) / grid.cell_length)
    col = math.floor((point.y - grid.y_min) / grid.cell_width)
    if 0 <= row < grid.rows and 0 <= col < grid.cols:
        return CellIndex(int(row), int(col))
    return None


def rv_cell_of(point, rv: RvSpec) -> CellIndex:
    """RV cell of a LiDAR return: laser ID is the row, azimuth bins the column.

    Total for valid laser IDs; azimuth must be in [0, 2*pi).
    """
    m = int(point.laser)
    if not 0 <= m < rv.rows:
        raise ValueError(f"laser ID {m} outside {rv.rows} rows")
    col = int(point.azimuth / (2.0 * math.pi) * rv.cols)
    return CellIndex(m, min(col, rv.cols - 1))


def camera_pixel_of(point, cam: CameraModel) -> Optional[CellIndex]:
    """Cropped-image pixel of an ego-frame point, or None when not visible.

    Not visible means: behind the camera, outside the image bounds, or in
    the cropped top band.
    """
    rows, cols, valid = camera_pixels_of(np.array([[point.x, point.y, point.z]]), cam)
    if not valid[0]:
        return None
    return CellIndex(int(rows[0]), int(cols[0]))


def eq1_literal(target_shape, channels, tgt_cells, src_feats):
    """Literal average-pooled projection: for every target cell, sum the
    source features of the points landing there (skipping points with no
    source projection) and divide once by the count."""
    rows, cols = target_shape
    n = len(tgt_cells)
    feats = np.zeros((rows, cols, channels))
    validity = np.full((rows, cols), -1.0)
    for row in range(rows):
        for col in range(cols):
            acc = [0.0] * channels
            cnt = 0
            for i in range(n):
                cell = tgt_cells[i]
                f = src_feats[i]
                if f is None or cell is None or cell[0] != row or cell[1] != col:
                    continue
                for c in range(channels):
                    acc[c] += f[c]
                cnt += 1
            if cnt:
                for c in range(channels):
                    feats[row, col, c] = acc[c] / cnt
                validity[row, col] = 1.0
    return feats, validity


def scalar_cells(geometry, points: PointArray):
    """Per-point cell indices via the scalar projectors (None when outside)."""
    cells = []
    for i in range(len(points)):
        p = point_at(points, i)
        if isinstance(geometry, GridSpec):
            cells.append(bev_cell_of(Point3(p.x, p.y, p.z), geometry))
        elif isinstance(geometry, RvSpec):
            cells.append(rv_cell_of(p, geometry))
        elif isinstance(geometry, CameraGeometry):
            pix = camera_pixel_of(Point3(p.x, p.y, p.z), geometry.camera)
            if pix is None:
                cells.append(None)
            else:
                s = geometry.pixel_stride
                cells.append((pix.row // s, pix.col // s))
        else:
            raise TypeError(type(geometry))
    return cells


def scalar_source_features(source: FeatureMap, cells):
    out = []
    for cell in cells:
        if cell is None:
            out.append(None)
        else:
            out.append([float(v) for v in source.data[cell[0], cell[1]]])
    return out


def project_reference(source: FeatureMap, points: PointArray, target_geometry, target_shape):
    """End-to-end reference projection used against project_features.

    Contributions are ordered by (target cell, source cell), the library's
    canonical accumulation order, so the comparison is bit-exact.
    """
    tgt_cells = scalar_cells(target_geometry, points)
    src_cells = scalar_cells(source.geometry, points)
    src_feats = scalar_source_features(source, src_cells)

    big = (1 << 60, 1 << 60)
    def key(i):
        t, s = tgt_cells[i], src_cells[i]
        return (big if t is None else tuple(t), big if s is None else tuple(s))

    order = sorted(range(len(points)), key=key)
    tgt_sorted = [tgt_cells[i] for i in order]
    feats_sorted = [src_feats[i] for i in order]
    return eq1_literal(target_shape, source.channels, tgt_sorted, feats_sorted)


def random_points(rng: np.random.Generator, n: int, rv_rows: int, spread: float = 12.0) -> PointArray:
    """Points scattered around the sensor; some leave any finite extent."""
    xyz = rng.uniform([-spread, -spread, 0.0], [spread, spread, 3.0], size=(n, 3))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=n)
    azimuth = np.minimum(azimuth, np.nextafter(2.0 * math.pi, 0.0))
    laser = rng.integers(0, rv_rows, size=n).astype(np.int64)
    r = np.linalg.norm(xyz, axis=1)
    e = rng.uniform(0.0, 1.0, size=n)
    return PointArray(xyz[:, 0], xyz[:, 1], xyz[:, 2], r, e, azimuth, laser)


def naive_conv2d(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                 stride: tuple[int, int], relu: bool) -> np.ndarray:
    """Sextuple-loop cross-correlation with TF-style SAME zero padding."""
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    sh, sw = stride
    oh = -(-h // sh)
    ow = -(-w // sw)
    pad_h = max((oh - 1) * sh + kh - h, 0)
    pad_w = max((ow - 1) * sw + kw - w, 0)
    top, left = pad_h // 2, pad_w // 2
    out = np.zeros((oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(cout):
                acc = float(bias[oc])
                for ky in range(kh):
                    iy = oy * sh + ky - top
                    if iy < 0 or iy >= h:
                        continue
                    for kx in range(kw):
                        ix = ox * sw + kx - left
                        if ix < 0 or ix >= w:
                            continue
                        for ic in range(cin):
                            acc += data[iy, ix, ic] * kernel[ky, kx, ic, oc]
                out[oy, ox, oc] = max(acc, 0.0) if relu else acc
    return out


def random_loss_frame(rng: np.random.Generator, rows: int, cols: int, horizon: int,
                      fg_fraction: float = 0.25):
    """A random (outputs, targets) pair with probabilities kept well inside (0, 1)."""
    grid = OutputGrid(rows, cols, -rows / 2.0, -cols / 2.0, 1.0, 1.0)
    h1 = horizon + 1
    fg, t_size, t_centers, t_headings = {}, {}, {}, {}
    prob, o_size, o_centers, o_headings = {}, {}, {}, {}
    for cls in CLASSES:
        fg[cls] = rng.uniform(size=(rows, cols)) < fg_fraction
        t_size[cls] = np.where(fg[cls][:, :, None], rng.uniform(0.5, 5.0, size=(rows, cols, 2)), 0.0)
        t_centers[cls] = np.where(fg[cls][:, :, None, None],
                                  rng.normal(0.0, 1.2, size=(rows, cols, h1, 2)), 0.0)
        ang = rng.uniform(-math.pi, math.pi, size=(rows, cols, h1))
        t_headings[cls] = np.where(fg[cls][:, :, None, None],
                                   np.stack([np.sin(ang), np.cos(ang)], axis=3), 0.0)
        prob[cls] = rng.uniform(0.02, 0.98, size=(rows, cols))
        o_size[cls] = rng.uniform(0.2, 6.0, size=(rows, cols, 2))
        o_centers[cls] = rng.normal(0.0, 1.5, size=(rows, cols, h1, 2))
        o_headings[cls] = rng.normal(0.0, 1.0, size=(rows, cols, h1, 2))
    targets = CellTargets(grid, horizon, CLASSES, fg, t_size, t_centers, t_headings)
    outputs = CellOutputs(grid, horizon, CLASSES, prob, o_size, o_centers, o_headings)
    return outputs, targets


def fg_loss_at_h(outputs: CellOutputs, targets: CellTargets, cls: str,
                 row: int, col: int, h: int) -> float:
    """Single-cell fg loss at one horizon (no decay factor applied)."""
    loss = 0.0
    if h == 0:
        loss += float(focal_loss(outputs.prob[cls][row, col]))
        ds = outputs.size[cls][row, col] - targets.size[cls][row, col]
        loss += float(smooth_l1(ds[0]) + smooth_l1(ds[1]))
    dc = outputs.centers[cls][row, col, h] - targets.centers[cls][row, col, h]
    dh = outputs.headings[cls][row, col, h] - targets.headings[cls][row, col, h]
    return loss + float(smooth_l1(dc).sum() + smooth_l1(dh).sum())


def dense_gradients(outputs: CellOutputs, targets: CellTargets, lam: float = DECAY) -> CellGradients:
    """loss_gradients with the fg-only regression rows scattered into
    full-grid zeros, so every field has its CellOutputs layout."""
    grads = loss_gradients(outputs, targets, lam)
    for name in ("size", "centers", "headings"):
        rows, like = getattr(grads, name), getattr(outputs, name)
        for c in targets.classes:
            full = np.zeros_like(like[c])
            full[targets.fg[c]] = rows[c]
            rows[c] = full
    return grads


def fit_outputs_dense(targets: CellTargets, steps: int = 500, learning_rate: float = 0.1,
                      lam: float = DECAY, seed: int = 0, init: CellOutputs | None = None) -> FitResult:
    """losses.fit_outputs as a full-array loop: every try builds new size,
    center and heading arrays as x - step * grad over the whole grid."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    rng = np.random.default_rng(seed)
    shape = (targets.grid.rows, targets.grid.cols)
    h1 = targets.horizon + 1
    if init is None:
        z = {c: rng.normal(0.0, 0.1, size=shape) for c in targets.classes}
        size = {c: np.abs(rng.normal(1.0, 0.3, size=(*shape, 2))) for c in targets.classes}
        centers = {c: rng.normal(0.0, 0.5, size=(*shape, h1, 2)) for c in targets.classes}
        headings = {c: rng.normal(0.0, 0.5, size=(*shape, h1, 2)) for c in targets.classes}
    else:
        z = {c: np.log(init.prob[c] / (1.0 - init.prob[c])) for c in targets.classes}
        size = {c: init.size[c].copy() for c in targets.classes}
        centers = {c: init.centers[c].copy() for c in targets.classes}
        headings = {c: init.headings[c].copy() for c in targets.classes}
    outputs = CellOutputs(targets.grid, targets.horizon, targets.classes,
                          {c: sigmoid(z[c]) for c in targets.classes}, size, centers, headings)
    losses = [total_loss(outputs, targets, lam).total]
    step = learning_rate
    for _ in range(steps):
        grads = dense_gradients(outputs, targets, lam)
        step = min(learning_rate, step * 2.0)
        for _try in range(30):
            z_new = {c: z[c] - step * grads.prob[c] * outputs.prob[c] * (1.0 - outputs.prob[c])
                     for c in targets.classes}
            size_new = {c: size[c] - step * grads.size[c] for c in targets.classes}
            centers_new = {c: centers[c] - step * grads.centers[c] for c in targets.classes}
            headings_new = {c: headings[c] - step * grads.headings[c] for c in targets.classes}
            candidate = CellOutputs(targets.grid, targets.horizon, targets.classes,
                                    {c: sigmoid(z_new[c]) for c in targets.classes},
                                    size_new, centers_new, headings_new)
            new_loss = total_loss(candidate, targets, lam).total
            if new_loss <= losses[-1]:
                z, size, centers, headings = z_new, size_new, centers_new, headings_new
                outputs = candidate
                losses.append(new_loss)
                break
            step *= 0.5
        else:
            losses.append(losses[-1])
    return FitResult(outputs, np.asarray(losses))


def finite_difference_errors(outputs, targets, lam: float = DECAY, step: float = 1e-4):
    """Central-difference check of every output channel of every cell,
    background regression entries (analytic gradient 0) included.

    Returns (max relative error over significant entries, max absolute error
    where both analytic and numeric gradients are tiny).
    """
    grads = dense_gradients(outputs, targets, lam)
    max_rel, max_abs = 0.0, 0.0
    fields = []
    for cls in targets.classes:
        fields.append((outputs.prob[cls], grads.prob[cls]))
        fields.append((outputs.size[cls], grads.size[cls]))
        fields.append((outputs.centers[cls], grads.centers[cls]))
        fields.append((outputs.headings[cls], grads.headings[cls]))
    for arr, grad in fields:
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = total_loss(outputs, targets, lam).total
            flat[i] = orig - step
            down = total_loss(outputs, targets, lam).total
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            a = float(gflat[i])
            scale = max(abs(a), abs(fd))
            if scale < 1e-6:
                max_abs = max(max_abs, abs(a - fd))
            else:
                max_rel = max(max_rel, abs(a - fd) / scale)
    return max_rel, max_abs


def monte_carlo_iou(box_a, box_b, samples: int, seed: int) -> float:
    """Point-sampling IoU estimate over the union's bounding box."""
    corners = np.vstack([box_corners(box_a), box_corners(box_b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, 2))
    in_a = points_in_box(pts, box_a)
    in_b = points_in_box(pts, box_b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def decode_detections_literal(outputs, score_floor: float, nms_iou: float):
    """Greedy per-class rotated NMS over every cell above the floor.

    Each candidate is tested against every kept box of its class, with no
    cap on kept boxes and no neighbour prefilter.
    """
    xs, ys = outputs.grid.cell_centers()
    detections = []
    for cls in outputs.classes:
        p = outputs.prob[cls]
        rows, cols = np.nonzero(p >= score_floor)
        candidates = []
        for r, c in zip(rows.tolist(), cols.tolist()):
            offsets = outputs.centers[cls][r, c]  # (H+1, 2)
            sc = outputs.headings[cls][r, c]  # (H+1, 2)
            cell_xy = np.array([xs[r], ys[c]])
            abs_centers = cell_xy + offsets
            heading = math.atan2(sc[0, 0], sc[0, 1])
            length = max(float(outputs.size[cls][r, c, 0]), MIN_DECODED_SIDE)
            width = max(float(outputs.size[cls][r, c, 1]), MIN_DECODED_SIDE)
            box = RotatedBox2D(abs_centers[0, 0], abs_centers[0, 1], length, width, heading)
            candidates.append(DetBox(
                cls, float(p[r, c]), box,
                waypoints=abs_centers[1:].copy(),
                headings=np.arctan2(sc[1:, 0], sc[1:, 1]),
                cell=(r, c),
            ))
        candidates.sort(key=lambda d: (-d.score, d.cell))
        kept = []
        for det in candidates:
            if all(rotated_iou(det.box, k.box) < nms_iou for k in kept):
                kept.append(det)
        detections.extend(kept)
    return detections


def polygon_is_simple_pairwise(pts) -> bool:
    """Literal pairwise test: no two non-adjacent edges cross properly.

    Orientations are exact rationals, so touching and collinear edges are
    decided exactly (neither counts as a crossing).
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in np.asarray(pts, dtype=np.float64).reshape(-1, 2)]
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def crosses(a, b, c, d):
        return orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0

    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent through the wrap
            if crosses(*segs[i], *segs[j]):
                return False
    return True
