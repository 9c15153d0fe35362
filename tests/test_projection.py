import math
import tracemalloc

import numpy as np
import pytest

from mvfusion import projection
from mvfusion.oracles import project_reference, random_points
from mvfusion.projection import grid_shape_of, project_features
from mvfusion.scene import PointArray
from mvfusion.views import CameraGeometry, CameraModel, FeatureMap, GridSpec, RvSpec


def small_grid():
    return GridSpec(8.0, 6.0, 2.0, 0.5, 0.5, 1.0, forward_fraction=0.5)


def rv8():
    return RvSpec(8, 24)


def _points(rows):
    # rows of (x, y, z, azimuth, laser)
    rows = np.asarray(rows, dtype=float)
    n = len(rows)
    return PointArray(
        rows[:, 0], rows[:, 1], rows[:, 2],
        np.linalg.norm(rows[:, :3], axis=1),
        np.full(n, 0.5), rows[:, 3], rows[:, 4].astype(np.int64),
    )


def _rv_source(rng, rv, channels=3):
    return FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, channels)), rv)


def test_single_point_copies_feature_vector():
    rv = rv8()
    grid = small_grid()
    rng = np.random.default_rng(0)
    source = _rv_source(rng, rv)
    pts = _points([[1.2, 0.7, 0.5, 1.0, 3]])
    feats, validity = project_features(source, pts, grid)
    r = math.floor((1.2 - grid.x_min) / 0.5)
    c = math.floor((0.7 - grid.y_min) / 0.5)
    src_cell = (3, int(1.0 / (2 * math.pi) * 24))
    assert np.array_equal(feats.data[r, c], source.data[src_cell])
    assert validity.data[r, c, 0] == 1.0
    mask = np.ones(feats.data.shape[:2], dtype=bool)
    mask[r, c] = False
    assert not feats.data[mask].any()
    assert np.all(validity.data[mask] == -1.0)


def test_two_points_same_cell_average():
    rv = rv8()
    grid = small_grid()
    source = FeatureMap("rv", np.zeros((rv.rows, rv.cols, 1)), rv)
    source.data[2, 0, 0] = 2.0
    source.data[5, 0, 0] = 4.0
    pts = _points([[1.1, 1.1, 0.0, 0.001, 2], [1.2, 1.2, 0.0, 0.001, 5]])
    feats, validity = project_features(source, pts, grid)
    r = math.floor((1.1 - grid.x_min) / 0.5)
    c = math.floor((1.1 - grid.y_min) / 0.5)
    assert feats.data[r, c, 0] == 3.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rv_to_bev_matches_literal_oracle(seed):
    rng = np.random.default_rng(seed)
    rv, grid = rv8(), small_grid()
    source = _rv_source(rng, rv)
    pts = random_points(rng, 50, rv.rows, spread=6.0)
    feats, validity = project_features(source, pts, grid)
    ref_feats, ref_valid = project_reference(source, pts, grid, (grid.rows, grid.cols))
    assert np.array_equal(feats.data, ref_feats)
    assert np.array_equal(validity.data[:, :, 0], ref_valid)


@pytest.mark.parametrize("seed", [4, 5])
def test_camera_to_rv_matches_literal_oracle(seed):
    rng = np.random.default_rng(seed)
    rv = rv8()
    cam = CameraModel.from_fov(64, 48, 90.0, mount_height=1.0)
    geom = CameraGeometry(cam, pixel_stride=8)
    shape = grid_shape_of(geom)
    source = FeatureMap("camera", rng.normal(size=(*shape, 4)), geom)
    pts = random_points(rng, 60, rv.rows, spread=8.0)
    feats, validity = project_features(source, pts, rv)
    ref_feats, ref_valid = project_reference(source, pts, rv, (rv.rows, rv.cols))
    assert np.array_equal(feats.data, ref_feats)
    assert np.array_equal(validity.data[:, :, 0], ref_valid)


def test_permutation_invariance_bit_exact():
    rng = np.random.default_rng(9)
    rv, grid = rv8(), small_grid()
    source = _rv_source(rng, rv)
    # dense enough that many target cells collect 3+ distinct source cells
    pts = random_points(rng, 600, rv.rows, spread=3.0)
    feats_a, _ = project_features(source, pts, grid)
    perm = rng.permutation(600)
    shuffled = PointArray(
        pts.x[perm], pts.y[perm], pts.z[perm], pts.range[perm],
        pts.intensity[perm], pts.azimuth[perm], pts.laser[perm],
    )
    feats_b, _ = project_features(source, shuffled, grid)
    assert np.array_equal(feats_a.data, feats_b.data)


def test_distinct_cells_pure_gather_scatter():
    rv, grid = rv8(), small_grid()
    rng = np.random.default_rng(11)
    source = _rv_source(rng, rv)
    # four points in four different bev cells and four different rv cells
    pts = _points([
        [1.25, 1.25, 0.0, 0.1, 0],
        [2.25, 2.25, 0.0, 0.9, 1],
        [-1.75, 0.25, 0.0, 1.7, 2],
        [0.25, -2.25, 0.0, 2.5, 3],
    ])
    feats, validity = project_features(source, pts, grid)
    assert validity.data[:, :, 0].sum() == 4 - (validity.data.shape[0] * validity.data.shape[1] - 4)
    for i in range(4):
        p = pts[i]
        r = math.floor((p.x - grid.x_min) / 0.5)
        c = math.floor((p.y - grid.y_min) / 0.5)
        src = (p.laser, int(p.azimuth / (2 * math.pi) * rv.cols))
        assert np.array_equal(feats.data[r, c], source.data[src])


def test_mean_convexity_per_channel():
    rng = np.random.default_rng(13)
    rv, grid = rv8(), small_grid()
    source = _rv_source(rng, rv, channels=5)
    pts = random_points(rng, 200, rv.rows, spread=4.0)
    feats, validity = project_features(source, pts, grid)
    lo = source.data.min(axis=(0, 1))
    hi = source.data.max(axis=(0, 1))
    occupied = validity.data[:, :, 0] == 1.0
    vals = feats.data[occupied]
    assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)


def test_constant_camera_chain_to_bev():
    rng = np.random.default_rng(17)
    rv, grid = rv8(), small_grid()
    cam = CameraModel.from_fov(64, 48, 120.0, mount_height=1.0)
    geom = CameraGeometry(cam, pixel_stride=8)
    source = FeatureMap("camera", np.full((*grid_shape_of(geom), 2), 7.5), geom)
    # all points forward, inside the frustum and the bev extent
    n = 80
    x = rng.uniform(1.0, 3.5, size=n)
    y = rng.uniform(-0.8, 0.8, size=n)
    z = rng.uniform(0.2, 1.4, size=n)
    pts = PointArray(
        x, y, z, np.sqrt(x * x + y * y + z * z), np.full(n, 0.5),
        np.mod(np.arctan2(y, x), 2 * math.pi), rng.integers(0, rv.rows, size=n).astype(np.int64),
    )
    rv_feats, rv_valid = project_features(source, pts, rv)
    bev_feats, bev_valid = project_features(rv_feats, pts, grid)
    occupied = bev_valid.data[:, :, 0] == 1.0
    assert occupied.any()
    assert np.all(bev_feats.data[occupied] == 7.5)


def test_points_behind_camera_are_excluded():
    rv = rv8()
    cam = CameraModel.from_fov(64, 48, 90.0, mount_height=1.0)
    geom = CameraGeometry(cam, pixel_stride=8)
    source = FeatureMap("camera", np.ones((*grid_shape_of(geom), 1)), geom)
    pts = _points([[-5.0, 0.0, 1.0, math.pi, 2]])  # behind the camera
    feats, validity = project_features(source, pts, rv)
    assert not feats.data.any()
    assert np.all(validity.data == -1.0)


def test_source_geometry_shape_mismatch_errors():
    rv, grid = rv8(), small_grid()
    source = FeatureMap("rv", np.zeros((rv.rows + 1, rv.cols, 3)), rv)
    with pytest.raises(ValueError):
        project_features(source, _points([[1, 1, 0, 0.5, 0]]), grid)


@pytest.mark.parametrize("transposed", [False, True])  # True: no reshape of out is a view
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_points", [0, 3, 600])
def test_out_channel_slice_equals_the_allocating_call(dtype, n_points, transposed):
    rng = np.random.default_rng(23)
    rv, grid = rv8(), small_grid()
    source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 3)).astype(dtype), rv)
    pts = random_points(rng, n_points, rv.rows, spread=3.0)
    feats, validity = project_features(source, pts, grid)
    channels = 2 + 3 + 1 + 5  # 2 before out, 5 after
    if transposed:
        buffer = np.full((grid.cols, grid.rows, channels), np.nan, dtype=dtype).transpose(1, 0, 2)
    else:
        buffer = np.full((grid.rows, grid.cols, channels), np.nan, dtype=dtype)
    out = buffer[:, :, 2:6]
    feats_out, validity_out = project_features(source, pts, grid, out=out)
    assert np.shares_memory(feats_out.data, buffer) and np.shares_memory(validity_out.data, buffer)
    assert feats_out.data.dtype == validity_out.data.dtype == dtype
    assert np.array_equal(feats_out.data, feats.data)
    assert np.array_equal(validity_out.data, validity.data)
    assert np.array_equal(out, np.concatenate([feats.data, validity.data], axis=2))
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 6:]).all()


@pytest.mark.parametrize("shape,dtype", [
    ((16, 12, 3), np.float32),  # no validity channel
    ((16, 12, 5), np.float32),
    ((15, 12, 4), np.float32),
    ((16, 12, 4), np.float64),  # float32 source projects to float32
])
def test_out_of_the_wrong_shape_or_dtype_raises(shape, dtype):
    rv, grid = rv8(), small_grid()
    assert grid_shape_of(grid) == (16, 12)
    source = FeatureMap("rv", np.zeros((rv.rows, rv.cols, 3), dtype=np.float32), rv)
    with pytest.raises(ValueError, match="out must be"):
        project_features(source, _points([[1, 1, 0, 0.5, 0]]), grid, out=np.zeros(shape, dtype=dtype))


@pytest.mark.parametrize("n_points", [0, 3, 600])
def test_float32_source_gives_the_float64_result_cast_to_float32(n_points):
    rng = np.random.default_rng(19)
    rv, grid = rv8(), small_grid()
    source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 3)).astype(np.float32), rv)
    pts = random_points(rng, n_points, rv.rows, spread=3.0)
    feats, validity = project_features(source, pts, grid)
    wide = FeatureMap("rv", source.data.astype(np.float64), rv)
    feats64, validity64 = project_features(wide, pts, grid)
    assert feats.data.dtype == validity.data.dtype == np.float32
    assert feats64.data.dtype == validity64.data.dtype == np.float64
    assert np.array_equal(feats.data, feats64.data.astype(np.float32))
    assert np.array_equal(validity.data, validity64.data.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("points_per_block", [1, 2, 3, 7])
def test_blocked_sums_equal_the_unblocked_call(monkeypatch, dtype, points_per_block):
    rng = np.random.default_rng(29)
    rv, grid = rv8(), small_grid()
    source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 5)).astype(dtype), rv)
    pts = random_points(rng, 900, rv.rows, spread=2.0)  # about 10 points per hit cell
    monkeypatch.setattr(projection, "_BLOCK_BYTES", 1 << 40)
    want_feats, want_validity = project_features(source, pts, grid)
    monkeypatch.setattr(projection, "_BLOCK_BYTES", points_per_block * 5 * 8)
    feats, validity = project_features(source, pts, grid)
    assert np.array_equal(feats.data, want_feats.data) and np.array_equal(validity.data, want_validity.data)


def test_projection_temporaries_stay_within_the_block_bound():
    # 100k points carrying 64 float32 channels: their gathered rows and the
    # float64 copy alone are 77 MB; the per-point indices are about 140 bytes
    # a point
    rng = np.random.default_rng(5)
    rv = RvSpec(64, 2048)
    grid = GridSpec(100.0, 100.0, 4.0, 0.25, 0.25, 1.0, forward_fraction=0.5)
    source = FeatureMap("rv", rng.random((rv.rows, rv.cols, 64), dtype=np.float32), rv)
    pts = random_points(rng, 100_000, rv.rows, spread=40.0)
    out = np.empty((grid.rows, grid.cols, 65), dtype=np.float32)
    tracemalloc.start()
    try:
        project_features(source, pts, grid, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * projection._BLOCK_BYTES + 160 * len(pts)
