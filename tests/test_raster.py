import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion.geometry import Pose2
from mvfusion.scene import (
    LAYER_NAMES,
    POLYGON,
    POLYLINE,
    MapGeometry,
    PointArray,
    SceneConfig,
    Sweep,
    build_scene,
    rv_spec_for,
    sensor_64_beam,
    simulate_sweep,
    uniform_elevations,
    LidarSensorSpec,
)
from mvfusion.raster import (
    build_rv_image,
    compensate_sweep,
    dump_featuremap_pgm,
    rasterize_map,
    stack_history_bev,
    write_pgm,
)
from mvfusion.views import GridSpec, RvSpec


def _sweep_from_arrays(xyz, ego=Pose2(), r=None, e=None, az=None, laser=None, t=0.0):
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    n = len(xyz)
    pts = PointArray(
        xyz[:, 0].copy(), xyz[:, 1].copy(), xyz[:, 2].copy(),
        np.asarray(r if r is not None else np.linalg.norm(xyz, axis=1), dtype=float),
        np.asarray(e if e is not None else np.full(n, 0.5), dtype=float),
        np.asarray(az if az is not None else np.zeros(n), dtype=float),
        np.asarray(laser if laser is not None else np.zeros(n, dtype=np.int64)),
    )
    return Sweep(t, pts, ego)


def small_grid():
    return GridSpec(20.0, 12.0, 4.0, 0.4, 0.3, 0.5)


# ---------------------------------------------------------------------------
# voxelize
# ---------------------------------------------------------------------------

def test_voxelize_empty():
    fm = stack_history_bev([_sweep_from_arrays(np.zeros((0, 3)))], small_grid())
    assert fm.data.shape == (50, 40, 8)
    assert not fm.data.any()


def test_voxelize_single_point_index_arithmetic():
    g = small_grid()
    p = (3.17, -1.62, 2.4)
    fm = stack_history_bev([_sweep_from_arrays([p])], g)
    row = math.floor((p[0] - g.x_min) / g.cell_length)
    col = math.floor((p[1] - g.y_min) / g.cell_width)
    zc = math.floor((p[2] - g.z_min) / g.cell_height)
    assert fm.data[row, col, zc] == 1.0
    assert fm.data.sum() == 1.0


def test_voxelize_two_points_same_voxel_binary():
    g = small_grid()
    fm = stack_history_bev([_sweep_from_arrays([(1.01, 1.01, 0.2), (1.05, 1.08, 0.21)])], g)
    assert fm.data.max() == 1.0
    assert fm.data.sum() == 1.0


def test_voxelize_ignores_out_of_extent():
    g = small_grid()
    pts = [(100.0, 0.0, 1.0), (0.0, 50.0, 1.0), (0.0, 0.0, -0.1), (0.0, 0.0, 4.5)]
    fm = stack_history_bev([_sweep_from_arrays(pts)], g)
    assert not fm.data.any()


@settings(max_examples=30)
@given(st.integers(0, 100_000))
def test_voxelize_binary_and_bounded(seed):
    g = small_grid()
    rng = np.random.default_rng(seed)
    xyz = rng.uniform([-8, -7, -1], [14, 7, 5], size=(300, 3))
    fm = stack_history_bev([_sweep_from_arrays(xyz)], g)
    vals = np.unique(fm.data)
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert fm.data.sum() <= 300


# ---------------------------------------------------------------------------
# stack history
# ---------------------------------------------------------------------------

def test_stack_identical_sweeps_repeat_blocks():
    g = small_grid()
    sweep = _sweep_from_arrays([(2.0, 1.0, 0.6), (-3.0, -2.0, 1.9)])
    fm = stack_history_bev([sweep, sweep, sweep], g)
    k = g.z_cells
    assert fm.channels == 3 * k
    for t in range(3):
        assert np.array_equal(fm.data[:, :, t * k:(t + 1) * k], fm.data[:, :, :k])


def test_stack_wrong_count_errors():
    g = small_grid()
    sweep = _sweep_from_arrays([(2.0, 1.0, 0.6)])
    with pytest.raises(ValueError):
        stack_history_bev([sweep, sweep], g, expected_count=3)


def test_stack_matches_slow_concatenation_bit_exact():
    # oracle: compensate each sweep, stack each on its own, concatenate
    g = small_grid()
    rng = np.random.default_rng(7)
    sweeps = []
    for i in range(4):
        xyz = rng.uniform([-8, -5, 0], [12, 5, 3], size=(150, 3))
        ego = Pose2(0.5 * i, -0.2 * i, 0.05 * i)
        sweeps.append(_sweep_from_arrays(xyz, ego=ego, t=0.1 * i))
    fast = stack_history_bev(sweeps, g)
    blocks = [stack_history_bev([compensate_sweep(s, sweeps[-1])], g).data for s in sweeps]
    slow = np.concatenate(blocks, axis=2)
    assert np.array_equal(fast.data, slow)


def test_stack_compensation_moves_points():
    g = small_grid()
    # same world point seen from two ego poses lands in one compensated voxel
    world_xy = np.array([5.0, 1.0])
    ego_old, ego_new = Pose2(1.0, 0.0, 0.0), Pose2(2.0, 0.0, 0.0)
    old = _sweep_from_arrays([(world_xy[0] - 1.0, 1.0, 0.5)], ego=ego_old)
    new = _sweep_from_arrays([(world_xy[0] - 2.0, 1.0, 0.5)], ego=ego_new)
    fm = stack_history_bev([old, new], g)
    k = g.z_cells
    assert np.array_equal(fm.data[:, :, :k], fm.data[:, :, k:])


def test_atg4d_stack_shape():
    g = GridSpec(150.0, 100.0, 3.2, 0.16, 0.16, 0.2)
    empty = _sweep_from_arrays(np.zeros((0, 3)))
    fm = stack_history_bev([empty] * 10, g, expected_count=10)
    assert fm.data.shape == (938, 625, 160)


# ---------------------------------------------------------------------------
# map raster
# ---------------------------------------------------------------------------

def _map_with(layer, entry):
    layers = {name: [] for name in LAYER_NAMES}
    layers[layer].append(entry)
    return MapGeometry(layers)


def test_rasterize_empty_map():
    fm = rasterize_map(MapGeometry.empty(), small_grid())
    assert fm.data.shape == (50, 40, 7)
    assert not fm.data.any()


def test_rasterize_square_area_count():
    g = GridSpec(40.0, 40.0, 2.0, 0.5, 0.5, 1.0, forward_fraction=0.5)
    square = np.array([[-5.0, -5.0], [5.0, -5.0], [5.0, 5.0], [-5.0, 5.0]])
    fm = rasterize_map(_map_with("crosswalks", (POLYGON, square)), g)
    c = LAYER_NAMES.index("crosswalks")
    count = int(fm.data[:, :, c].sum())
    expected = 100.0 / (0.5 * 0.5)
    boundary_band = 2 * (20 + 20) + 4  # one-cell-wide ring
    assert abs(count - expected) <= boundary_band
    assert not fm.data[:, :, [i for i in range(7) if i != c]].any()


def test_rasterize_overlapping_layers_independent():
    g = small_grid()
    sq = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    layers = {name: [] for name in LAYER_NAMES}
    layers["intersections"].append((POLYGON, sq))
    layers["driving_paths"].append((POLYGON, sq.copy()))
    fm = rasterize_map(MapGeometry(layers), g)
    ci = LAYER_NAMES.index("intersections")
    cd = LAYER_NAMES.index("driving_paths")
    assert np.array_equal(fm.data[:, :, ci], fm.data[:, :, cd])
    assert fm.data[:, :, ci].sum() > 0


def test_rasterize_polyline_buffer():
    g = GridSpec(10.0, 10.0, 1.0, 0.1, 0.1, 1.0, forward_fraction=0.5)
    line = np.array([[-4.0, 0.0], [4.0, 0.0]])
    fm = rasterize_map(_map_with("lane_boundaries", (POLYLINE, line)), g, line_width=0.4)
    c = LAYER_NAMES.index("lane_boundaries")
    ys = g.y_min + (np.arange(g.cols) + 0.5) * g.cell_width
    hit_cols = np.nonzero(fm.data[:, :, c].any(axis=0))[0]
    assert np.all(np.abs(ys[hit_cols]) <= 0.2 + 1e-9)
    assert hit_cols.size > 0


def test_rasterize_translation_equivariance():
    g = GridSpec(20.0, 20.0, 1.0, 0.5, 0.5, 1.0, forward_fraction=0.5)
    poly = np.array([[-3.3, -2.1], [2.7, -2.1], [2.7, 1.4], [-3.3, 1.4]])
    base = rasterize_map(_map_with("intersections", (POLYGON, poly)), g).data
    dx_cells, dy_cells = 4, -3
    shifted_poly = poly + np.array([dx_cells * 0.5, dy_cells * 0.5])
    shifted = rasterize_map(_map_with("intersections", (POLYGON, shifted_poly)), g).data
    c = LAYER_NAMES.index("intersections")
    # compare on the interior where both rasters are in bounds
    a = base[5:-5, 5:-5, c]
    b = shifted[5 + dx_cells:-5 + dx_cells, 5 + dy_cells:-5 + dy_cells, c]
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# range view image
# ---------------------------------------------------------------------------

def test_rv_empty_sweep_invalid_pixels():
    rv = RvSpec(8, 32)
    fm = build_rv_image(_sweep_from_arrays(np.zeros((0, 3))), rv)
    assert fm.data.shape == (8, 32, 4)
    assert np.all(fm.data[:, :, :3] == -1.0)
    assert np.all(fm.data[:, :, 3] == 0.0)


def test_rv_single_point_placement():
    rv = RvSpec(64, 2048)
    sweep = _sweep_from_arrays(
        [(0.0, 0.0, 0.4)], r=[12.5], e=[0.7], az=[math.pi], laser=[10]
    )
    fm = build_rv_image(sweep, rv)
    assert tuple(fm.data[10, 1024]) == (12.5, 0.4, 0.7, 1.0)
    assert fm.data[:, :, 3].sum() == 1.0


def test_rv_collision_keeps_nearest_range():
    rv = RvSpec(4, 16)
    az = 2 * math.pi * (5 + 0.5) / 16
    sweep = _sweep_from_arrays(
        [(0, 0, 1.0), (0, 0, 2.0)], r=[9.0, 5.0], e=[0.3, 0.6], az=[az, az], laser=[2, 2]
    )
    fm = build_rv_image(sweep, rv)
    assert fm.data[2, 5, 0] == 5.0
    assert fm.data[2, 5, 1] == 2.0
    assert fm.data[2, 5, 2] == 0.6


def test_rv_collision_tie_breaks_by_point_index():
    rv = RvSpec(4, 16)
    az = 2 * math.pi * (3 + 0.5) / 16
    sweep = _sweep_from_arrays(
        [(0, 0, 1.0), (0, 0, 2.0)], r=[7.0, 7.0], e=[0.3, 0.6], az=[az, az], laser=[1, 1]
    )
    fm = build_rv_image(sweep, rv)
    assert fm.data[1, 3, 1] == 1.0  # first point wins the tie


def test_rv_laser_out_of_range_errors():
    rv = RvSpec(4, 16)
    sweep = _sweep_from_arrays([(0, 0, 0)], laser=[4])
    with pytest.raises(ValueError):
        build_rv_image(sweep, rv)


def test_rv_validity_counts_distinct_cells():
    scene = build_scene(SceneConfig(seed=2))
    sensor = LidarSensorSpec(
        beams=8, elevations=uniform_elevations(8, 2.0, -20.0), azimuth_step=2 * math.pi / 256
    )
    sweep = simulate_sweep(scene, sensor, 0.0)
    rv = rv_spec_for(sensor)
    fm = build_rv_image(sweep, rv)
    rows = sweep.points.laser
    cols = (sweep.points.azimuth / (2 * math.pi) * rv.cols).astype(np.int64)
    distinct = len(set(zip(rows.tolist(), cols.tolist())))
    assert int(fm.data[:, :, 3].sum()) == distinct


def test_rv_full_sensor_shape():
    sensor = sensor_64_beam()
    scene = build_scene(SceneConfig(seed=1))
    sweep = simulate_sweep(scene, sensor, 0.0)
    fm = build_rv_image(sweep, rv_spec_for(sensor))
    assert fm.data.shape == (64, 2048, 4)
    valid = fm.data[:, :, 3] == 1.0
    assert valid.sum() == len(sweep.points)  # bin-centered rays never collide


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def test_pgm_roundtrip_encoding(tmp_path):
    arr = np.array([[-1.0, 0.0], [1.0, 2.0]])
    path = tmp_path / "t.pgm"
    write_pgm(path, arr)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 128, 255, 255]


def test_dump_featuremap_pgm(tmp_path):
    fm = stack_history_bev([_sweep_from_arrays([(1.0, 1.0, 0.5)])], small_grid())
    paths = dump_featuremap_pgm(fm, tmp_path)
    assert len(paths) == 8
    assert paths[0].name == "bev_000.pgm"
    assert all(p.exists() for p in paths)
