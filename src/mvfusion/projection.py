"""Point-based cross-view feature projection with average pooling.

Each LiDAR point is projected into both the source and the target view;
the point carries the source-view feature vector under it into the target
cell it lands in, and cells receiving several points average them. Points
whose source projection is undefined (e.g. outside the camera frustum
during camera-to-RV projection) contribute to neither the sum nor the
count. Target cells that receive no points get zero features and a -1
validity indicator; occupied cells get +1.

Accumulation happens in double precision in a canonical order with a
single division at the end: contributions are sorted by (target cell,
source cell) before summing, so results are bit-reproducible and
bit-identical under any permutation of the input points (points sharing
both cells carry identical feature vectors, making their mutual order
irrelevant). The sums are taken over consecutive blocks of whole hit
cells in that order, about arena.CHUNK_BYTES of float64 contributions at a
time, so the per-point feature rows never exist all at once; each cell's
sum is the same sequence of additions as over all points at once. Only
the averages are scattered into the target grid, which has the source's
dtype (float32 stays float32, anything else is float64), so a float32
result is exactly the float64 result cast to float32. The target grid may
be a caller's buffer (project_features' out), so the projection can be
written straight into the input of the convolution that reads it.
"""
from __future__ import annotations

import numpy as np

from .arena import CHUNK_BYTES
from .scene import PointArray
from .views import (
    BEV,
    CAMERA,
    RV,
    CameraGeometry,
    FeatureMap,
    GridSpec,
    RvSpec,
    bev_cells_of,
    camera_pixels_of,
    rv_cells_of,
)


def view_of(geometry) -> str:
    if isinstance(geometry, GridSpec):
        return BEV
    if isinstance(geometry, RvSpec):
        return RV
    if isinstance(geometry, CameraGeometry):
        return CAMERA
    raise TypeError(f"no projector for geometry {type(geometry).__name__}")


def grid_shape_of(geometry) -> tuple[int, int]:
    if isinstance(geometry, GridSpec):
        return geometry.rows, geometry.cols
    if isinstance(geometry, RvSpec):
        return geometry.rows, geometry.cols
    if isinstance(geometry, CameraGeometry):
        stride = geometry.pixel_stride
        return (
            -(-geometry.camera.cropped_height // stride),
            -(-geometry.camera.width // stride),
        )
    raise TypeError(f"no projector for geometry {type(geometry).__name__}")


def cells_for(geometry, xyz: np.ndarray, laser: np.ndarray, azimuth: np.ndarray):
    """Vectorized per-point cell indices for a view: (rows, cols, valid)."""
    if isinstance(geometry, GridSpec):
        return bev_cells_of(xyz[:, 0], xyz[:, 1], geometry)
    if isinstance(geometry, RvSpec):
        rows, cols = rv_cells_of(laser, azimuth, geometry)
        return rows, cols, np.ones(len(rows), dtype=bool)
    if isinstance(geometry, CameraGeometry):
        prow, pcol, valid = camera_pixels_of(xyz, geometry.camera)
        return prow // geometry.pixel_stride, pcol // geometry.pixel_stride, valid
    raise TypeError(f"no projector for geometry {type(geometry).__name__}")


def project_features(
    source: FeatureMap,
    points: PointArray,
    target_geometry,
    out: np.ndarray | None = None,
) -> tuple[FeatureMap, FeatureMap]:
    """Average-pooled projection of source features into the target view.

    Returns (features, validity): features has the source channel count on
    the target grid; validity is a single channel of +1 where at least one
    point landed and -1 elsewhere. Both are float32 for a float32 source and
    float64 otherwise; sums and the division are float64 either way.

    Both are views of one (rows, cols, C + 1) array, features its first C
    channels and validity its last: out when given, which must have that
    shape and dtype and may be a channel slice of a wider buffer (such as
    the input of the convolution that reads the projection), else a new
    array. Every element of out is written, through (row, col) indices, so a
    strided out is filled in place.
    """
    channels = source.channels
    xyz, laser, azimuth = points.xyz, points.laser, points.azimuth

    target_view = view_of(target_geometry)
    rows_t, cols_t = grid_shape_of(target_geometry)
    src_rows = grid_shape_of(source.geometry)
    if src_rows != (source.height, source.width):
        raise ValueError(
            f"source geometry grid {src_rows} does not match data {(source.height, source.width)}"
        )
    dtype = source.data.dtype if source.data.dtype == np.float32 else np.float64
    if out is None:
        out = np.empty((rows_t, cols_t, channels + 1), dtype=dtype)
    elif out.shape != (rows_t, cols_t, channels + 1) or out.dtype != dtype:
        raise ValueError(
            f"out must be {(rows_t, cols_t, channels + 1)} {np.dtype(dtype)}, got {out.shape} {out.dtype}"
        )

    tr, tc, t_ok = cells_for(target_geometry, xyz, laser, azimuth)
    sr, sc, s_ok = cells_for(source.geometry, xyz, laser, azimuth)
    keep = t_ok & s_ok

    features, validity = out[:, :, :channels], out[:, :, channels:]
    features[...] = 0.0
    validity[...] = -1.0
    if keep.any():
        tr, tc = tr[keep], tc[keep]
        sr, sc = sr[keep], sc[keep]
        # canonical accumulation order: by target cell, then source cell
        order = np.lexsort((sr * source.width + sc, tr * cols_t + tc))
        cells, count = np.unique((tr * cols_t + tc)[order], return_counts=True)
        sr, sc = sr[order], sc[order]
        hit_rows, hit_cols = np.divmod(cells, cols_t)
        starts = np.concatenate([[0], np.cumsum(count)])  # cell k's contributions: starts[k]..starts[k + 1] - 1
        per_block = max(1, CHUNK_BYTES // (channels * 8))
        c0 = 0
        while c0 < cells.size:  # blocks of whole cells, about per_block contributions each
            c1 = max(c0 + 1, min(int(np.searchsorted(starts, starts[c0] + per_block)), cells.size))
            p0, p1 = starts[c0], starts[c1]
            acc = np.zeros((c1 - c0, channels))
            np.add.at(acc, np.repeat(np.arange(c1 - c0), count[c0:c1]),
                      source.data[sr[p0:p1], sc[p0:p1]].astype(np.float64))
            features[hit_rows[c0:c1], hit_cols[c0:c1]] = acc / count[c0:c1, None]
            c0 = c1
        validity[hit_rows, hit_cols] = 1.0
    return (
        FeatureMap(target_view, features, target_geometry),
        FeatureMap(target_view, validity, target_geometry),
    )
