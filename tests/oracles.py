"""Independent reference implementations used to freeze expected values.

These deliberately avoid the library's vectorized paths: cell indices come
from the scalar per-point projectors and pooling is a literal double loop
over target cells and points.
"""
from __future__ import annotations

import math

import numpy as np

from mvfusion.geometry import Point3
from mvfusion.scene import PointArray
from mvfusion.views import (
    CameraGeometry,
    FeatureMap,
    GridSpec,
    RvSpec,
    bev_cell_of,
    camera_pixel_of,
    rv_cell_of,
)


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
        p = points[i]
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
    from mvfusion.losses import CellTargets
    from mvfusion.network import CellOutputs
    from mvfusion.scene import CLASSES
    from mvfusion.views import OutputGrid

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


def finite_difference_errors(outputs, targets, lam: float = 0.97, step: float = 1e-4):
    """Central-difference check of every output channel of every cell.

    Returns (max relative error over significant entries, max absolute error
    where both analytic and numeric gradients are tiny).
    """
    from mvfusion.losses import loss_gradients, total_loss

    grads = loss_gradients(outputs, targets, lam)
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
    from mvfusion.geometry import box_corners, points_in_box

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
    from mvfusion.geometry import RotatedBox2D, rotated_iou
    from mvfusion.metrics import MIN_DECODED_SIDE, DetBox

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
