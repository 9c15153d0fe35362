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
irrelevant). Each cell's sum is sequential, 0.0 + v0 + v1 + ... in that
order (so a cell of -0.0 contributions sums to +0.0), and is taken in
one of two ways (_cell_means), over consecutive blocks of whole hit cells,
about arena.CHUNK_BYTES of float64 contributions at a time, so the
per-point feature rows never exist all at once:

- a cell of at most _STEPWISE_MAX contributions is summed in steps that
  each add the k-th contribution of every such cell in the block, read
  straight from the source;
- a larger cell (atg4d cells take up to about 180) is summed alone by
  np.add.accumulate, which adds one row after another along its axis, so
  a cell of 100k points takes a few numpy calls, not 100k steps.

np.add.reduceat would take each cell in one call, but it sums a segment
of a narrow array pairwise, which changes the bits of long cells of 1-3
channels. Only the averages are scattered into the target grid, which has
the source's dtype (float32 stays float32, anything else is float64), so a
float32 result is exactly the float64 result cast to float32. The target
grid may be a caller's buffer (project_features' out), so the projection
can be written straight into the input of the convolution that reads it.
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

    background = np.zeros(channels + 1, dtype=dtype)  # the row of a cell no point hits
    background[-1] = -1.0
    out[...] = background
    features, validity = out[:, :, :channels], out[:, :, channels:]
    if keep.any():
        target = (tr * cols_t + tc)[keep]
        src = (sr * source.width + sc)[keep]
        # canonical accumulation order: by target cell, then source cell
        order = np.lexsort((src, target))
        target, src = target[order], src[order]
        first = np.flatnonzero(np.diff(target, prepend=-1))  # each hit cell's first contribution
        count = np.diff(first, append=target.size)
        hit_rows, hit_cols = np.divmod(target[first], cols_t)
        pixels = source.data.reshape(-1, channels)
        per_block = max(1, CHUNK_BYTES // (channels * 8))
        c0 = 0
        while c0 < first.size:  # blocks of whole cells, about per_block contributions each
            c1 = max(c0 + 1, int(np.searchsorted(first, first[c0] + per_block)))
            means, cells = _cell_means(pixels, src, first[c0:c1], count[c0:c1], per_block)
            features[hit_rows[c0:c1][cells], hit_cols[c0:c1][cells]] = means
            c0 = c1
        validity[hit_rows, hit_cols] = 1.0
    return (
        FeatureMap(target_view, features, target_geometry),
        FeatureMap(target_view, validity, target_geometry),
    )


# Cells with more contributions than this are summed one cell at a time by
# np.add.accumulate; the others one contribution per cell at a time. On the
# atg4d RV->BEV projection 16, 32 and 48 took 22.5, 18.2 and 18.6 ms.
_STEPWISE_MAX = 32


def _cell_means(pixels: np.ndarray, src: np.ndarray, first: np.ndarray, count: np.ndarray,
                per_block: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 averages of cells' contributions, the rows of pixels at
    src[first[k]:first[k] + count[k]] for cell k, each summed in order
    starting from 0.0 and divided once, and the order of the cells they are
    given in: by falling count.

    In that order the cells that have a k-th contribution come first, so
    one step adds the k-th contribution of each of them. A cell of more
    than _STEPWISE_MAX contributions is summed alone by np.add.accumulate,
    which adds along its axis one row after another, over pieces of at most
    per_block contributions that carry the running sum from one to the
    next. Either way each sum is 0.0 + v0 + v1 + ...
    """
    cells = np.argsort(-count, kind="stable")
    first, count = first[cells], count[cells]
    sums = np.zeros((count.size, pixels.shape[1]))
    big = int(np.count_nonzero(count > _STEPWISE_MAX))
    for i in range(big):
        end = first[i] + count[i]
        for p0 in range(first[i], end, per_block):
            piece = pixels.take(src[p0:min(p0 + per_block, end)], axis=0).astype(np.float64, copy=False)
            piece[0] += sums[i]
            np.add.accumulate(piece, axis=0, out=piece)
            sums[i] = piece[-1]
    falling = -count
    for k in range(int(count[big]) if big < count.size else 0):
        n = int(np.searchsorted(falling, -k))  # the cells with a k-th contribution
        np.add(sums[big:n], pixels.take(src[first[big:n] + k], axis=0), out=sums[big:n])
    sums /= count[:, None]
    return sums, cells
