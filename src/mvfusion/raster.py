"""Grid encodings of sweeps and maps: BEV occupancy, RV image, map raster.

The BEV path voxelizes binary occupancy and stacks a history of sweeps,
each ego-motion compensated into the current frame, along the channel
axis. The RV path embeds only the current sweep: rows are laser IDs,
columns discretized azimuth, channels (range, height, intensity,
validity) with invalid pixels encoded as (-1, -1, -1, 0). Map layers
rasterize each into their own binary channel.

The two binary rasters, the BEV occupancy stack and the map raster, hold
uint8 0/1: a quarter of float32's bytes (the atg4d stack is 89.5 MiB, not
358 MiB). The network computes a non-float input in float32, casting only
the rows a convolution reads, which is exact for 0/1. The RV image holds
real values and stays float64.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .arena import output_array
from .geometry import se2_compose, se2_inverse, transform_xy
from .scene import PointArray, Sweep
from .views import BEV, RV, FeatureMap, GridSpec, RvSpec, rv_cells_of

MAP_LINE_WIDTH = 0.2  # default buffer for polyline layers, meters


def _occupancy_into(points: PointArray, grid: GridSpec, out: np.ndarray) -> None:
    # half-open cells [min, min + step); out is a (rows, cols, z_cells) slice
    if len(points) == 0:
        return
    rows = np.floor((points.x - grid.x_min) / grid.cell_length).astype(np.int64)
    cols = np.floor((points.y - grid.y_min) / grid.cell_width).astype(np.int64)
    zs = np.floor((points.z - grid.z_min) / grid.cell_height).astype(np.int64)
    keep = (
        (rows >= 0) & (rows < grid.rows)
        & (cols >= 0) & (cols < grid.cols)
        & (zs >= 0) & (zs < grid.z_cells)
    )
    out[rows[keep], cols[keep], zs[keep]] = 1


def compensate_sweep(sweep: Sweep, reference: Sweep) -> Sweep:
    """Re-express a sweep's points in the reference sweep's ego frame."""
    rel = se2_compose(se2_inverse(reference.ego_pose), sweep.ego_pose)
    xy = transform_xy(np.stack([sweep.points.x, sweep.points.y], axis=1), rel)
    pts = PointArray(
        xy[:, 0], xy[:, 1], sweep.points.z, sweep.points.range,
        sweep.points.intensity, sweep.points.azimuth, sweep.points.laser,
    )
    return Sweep(sweep.timestamp, pts, reference.ego_pose)


def stack_history_bev(sweeps: Sequence[Sweep], grid: GridSpec, expected_count: int | None = None,
                      out: np.ndarray | None = None) -> FeatureMap:
    """Stacked uint8 0/1 occupancy of T sweeps (oldest first) in the newest ego frame.

    Past sweeps are ego-motion compensated into the frame of the last sweep
    before voxelization; channel block t covers [t*z_cells, (t+1)*z_cells).
    out, when given, is the (rows, cols, T * z_cells) uint8 array written.
    """
    if not sweeps:
        raise ValueError("need at least one sweep")
    if expected_count is not None and len(sweeps) != expected_count:
        raise ValueError(f"expected {expected_count} sweeps, got {len(sweeps)}")
    current = sweeps[-1]
    k = grid.z_cells
    data = output_array(out, (grid.rows, grid.cols, len(sweeps) * k), np.uint8)
    data[...] = 0
    for t, sweep in enumerate(sweeps):
        moved = compensate_sweep(sweep, current)
        _occupancy_into(moved.points, grid, data[:, :, t * k:(t + 1) * k])
    return FeatureMap(BEV, data, grid)


# ---------------------------------------------------------------------------
# map rasterization
# ---------------------------------------------------------------------------

def _cell_centers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    xs = grid.x_min + (np.arange(grid.rows) + 0.5) * grid.cell_length
    ys = grid.y_min + (np.arange(grid.cols) + 0.5) * grid.cell_width
    return xs, ys


def _fill_polygon(channel: np.ndarray, poly: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
    x0, y0 = poly.min(axis=0)
    x1, y1 = poly.max(axis=0)
    ri = np.nonzero((xs >= x0) & (xs <= x1))[0]
    ci = np.nonzero((ys >= y0) & (ys <= y1))[0]
    if ri.size == 0 or ci.size == 0:
        return
    px = xs[ri][:, None]
    py = ys[ci][None, :]
    inside = np.zeros((ri.size, ci.size), dtype=bool)
    n = len(poly)
    for i in range(n):
        xa, ya = poly[i]
        xb, yb = poly[(i + 1) % n]
        if ya == yb:
            continue
        crosses = (ya > py) != (yb > py)
        with np.errstate(invalid="ignore"):
            x_at = (xb - xa) * (py - ya) / (yb - ya) + xa
        inside ^= crosses & (px < x_at)
    channel[np.ix_(ri, ci)] |= inside


def _fill_polyline(channel: np.ndarray, line: np.ndarray, half_width: float,
                   xs: np.ndarray, ys: np.ndarray) -> None:
    for a, b in zip(line, line[1:]):
        x0, y0 = np.minimum(a, b) - half_width
        x1, y1 = np.maximum(a, b) + half_width
        ri = np.nonzero((xs >= x0) & (xs <= x1))[0]
        ci = np.nonzero((ys >= y0) & (ys <= y1))[0]
        if ri.size == 0 or ci.size == 0:
            continue
        px = xs[ri][:, None]
        py = ys[ci][None, :]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-18:
            d2 = (px - a[0]) ** 2 + (py - a[1]) ** 2
        else:
            t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
            d2 = (px - (a[0] + t * ab[0])) ** 2 + (py - (a[1] + t * ab[1])) ** 2
        channel[np.ix_(ri, ci)] |= d2 <= half_width * half_width


def rasterize_map(map_geometry, grid: GridSpec, line_width: float = MAP_LINE_WIDTH,
                  out: np.ndarray | None = None) -> FeatureMap:
    """Seven uint8 0/1 channels, one per map layer in fixed order.

    A cell is set when its center lies inside any polygon of the layer, or
    within the buffer of any polyline; layers do not exclude each other.
    out, when given, is the (rows, cols, 7) uint8 array written.
    """
    from .scene import LAYER_NAMES, POLYGON

    xs, ys = _cell_centers(grid)
    data = output_array(out, (grid.rows, grid.cols, len(LAYER_NAMES)), np.uint8)
    for c, name in enumerate(LAYER_NAMES):
        mask = np.zeros((grid.rows, grid.cols), dtype=bool)
        for kind, pts in map_geometry.layers[name]:
            pts = np.asarray(pts, dtype=float)
            if kind == POLYGON:
                _fill_polygon(mask, pts, xs, ys)
            else:
                _fill_polyline(mask, pts, 0.5 * line_width, xs, ys)
        data[:, :, c] = mask
    return FeatureMap(BEV, data, grid)


# ---------------------------------------------------------------------------
# range view
# ---------------------------------------------------------------------------

def build_rv_image(sweep: Sweep, rv: RvSpec, out: np.ndarray | None = None) -> FeatureMap:
    """4-channel float64 RV raster of the current sweep: (range, height, intensity, validity).

    Pixels without a return are (-1, -1, -1, 0). When several points land in
    one cell the nearest range wins, ties broken by point index. out, when
    given, is the (rows, cols, 4) float64 array written.
    """
    data = output_array(out, (rv.rows, rv.cols, 4), np.float64)
    data[...] = -1.0
    data[:, :, 3] = 0.0
    pts = sweep.points
    n = len(pts)
    if n == 0:
        return FeatureMap(RV, data, rv)
    rows, cols = rv_cells_of(pts.laser, pts.azimuth, rv)
    lin = rows * rv.cols + cols
    order = np.lexsort((np.arange(n), pts.range))  # by range, then point index
    lin_sorted = lin[order]
    _, first = np.unique(lin_sorted, return_index=True)
    win = order[first]
    r_, c_ = rows[win], cols[win]
    data[r_, c_, 0] = pts.range[win]
    data[r_, c_, 1] = pts.z[win]
    data[r_, c_, 2] = pts.intensity[win]
    data[r_, c_, 3] = 1.0
    return FeatureMap(RV, data, rv)


# ---------------------------------------------------------------------------
# inspection dumps
# ---------------------------------------------------------------------------

def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255); values in [-1, 1] map linearly to [0, 255]."""
    scaled = np.clip((np.asarray(values, dtype=np.float64) + 1.0) * 0.5, 0.0, 1.0)
    bytes_ = np.round(scaled * 255.0).astype(np.uint8)
    h, w = bytes_.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(bytes_.tobytes())


def dump_featuremap_pgm(fm: FeatureMap, directory: str | Path) -> list[Path]:
    """One PGM per channel, named <view>_<channel>.pgm."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for c in range(fm.channels):
        path = directory / f"{fm.view}_{c:03d}.pgm"
        write_pgm(path, fm.data[:, :, c])
        paths.append(path)
    return paths
