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
irrelevant). The sums live in a compact (hit cells, channels) array; only
the averages are scattered into the target grid, which has the source's
dtype (float32 stays float32, anything else is float64), so a float32
result is exactly the float64 result cast to float32.
"""
from __future__ import annotations

import numpy as np

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
        return bev_cells_of(xyz[:, :2], geometry)
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
) -> tuple[FeatureMap, FeatureMap]:
    """Average-pooled projection of source features into the target view.

    Returns (features, validity): features has the source channel count on
    the target grid; validity is a single channel of +1 where at least one
    point landed and -1 elsewhere. Both are float32 for a float32 source and
    float64 otherwise; sums and the division are float64 either way.
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

    tr, tc, t_ok = cells_for(target_geometry, xyz, laser, azimuth)
    sr, sc, s_ok = cells_for(source.geometry, xyz, laser, azimuth)
    keep = t_ok & s_ok

    dtype = source.data.dtype if source.data.dtype == np.float32 else np.float64
    features = np.zeros((rows_t * cols_t, channels), dtype=dtype)
    validity = np.full(rows_t * cols_t, -1.0, dtype=dtype)
    if keep.any():
        tr, tc = tr[keep], tc[keep]
        sr, sc = sr[keep], sc[keep]
        # canonical accumulation order: by target cell, then source cell
        order = np.lexsort((sr * source.width + sc, tr * cols_t + tc))
        cells, slot, count = np.unique((tr * cols_t + tc)[order], return_inverse=True, return_counts=True)
        acc = np.zeros((cells.size, channels))
        np.add.at(acc, slot, source.data[sr[order], sc[order]].astype(np.float64))
        features[cells] = acc / count[:, None]
        validity[cells] = 1.0
    return (
        FeatureMap(target_view, features.reshape(rows_t, cols_t, channels), target_geometry),
        FeatureMap(target_view, validity.reshape(rows_t, cols_t, 1), target_geometry),
    )
