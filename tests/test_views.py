import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion.geometry import Pose2
from mvfusion.oracles import CellIndex, Point3, bev_cell_of, camera_pixel_of, rv_cell_of
from mvfusion.views import (
    CameraModel,
    FeatureMap,
    GridSpec,
    OutputGrid,
    RvSpec,
    bev_cells_of,
    camera_pixels_of,
    cell_count,
    rv_cells_of,
)


def atg4d_grid():
    return GridSpec(150.0, 100.0, 3.2, 0.16, 0.16, 0.2)


def test_cell_counts_ceiling():
    g = atg4d_grid()
    assert (g.rows, g.cols, g.z_cells) == (938, 625, 16)
    n = GridSpec(100.0, 100.0, 8.0, 0.125, 0.125, 0.2)
    assert (n.rows, n.cols, n.z_cells) == (800, 800, 40)
    # ceiling, never truncation, and robust to float ratio noise
    assert cell_count(150.0, 0.16) == 938
    assert cell_count(3.2, 0.2) == 16
    assert cell_count(1.0, 0.3) == 4


def test_grid_origin_cell_and_extent_split():
    g = atg4d_grid()
    assert g.x_min == pytest.approx(-50.0)
    assert g.y_min == pytest.approx(-50.0)
    # 50 m / 0.16 m = 312.5 cells behind and to the right of the sensor
    assert bev_cell_of(Point3(0.0, 0.0, 0.0), g) == CellIndex(312, 312)


def test_bev_cell_boundaries():
    g = GridSpec(10.0, 10.0, 2.0, 1.0, 1.0, 1.0, forward_fraction=0.5)
    # extent x in [-5, 5), y in [-5, 5)
    assert bev_cell_of(Point3(-5.0, -5.0, 0), g) == CellIndex(0, 0)
    assert bev_cell_of(Point3(4.99, 4.99, 0), g) == CellIndex(9, 9)
    assert bev_cell_of(Point3(5.01, 0.0, 0), g) is None  # 1 cm outside
    assert bev_cell_of(Point3(0.0, -5.01, 0), g) is None
    assert bev_cell_of(Point3(5.0, 0.0, 0), g) is None  # exactly on max boundary


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_bev_cells_match_direct_arithmetic(seed):
    g = GridSpec(20.0, 12.0, 4.0, 0.4, 0.3, 0.5)
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-20, 20, size=(2000, 2))
    rows, cols, valid = bev_cells_of(xy[:, 0], xy[:, 1], g)
    for i in range(0, 2000, 97):
        expect_row = math.floor((xy[i, 0] - g.x_min) / g.cell_length)
        expect_col = math.floor((xy[i, 1] - g.y_min) / g.cell_width)
        ok = 0 <= expect_row < g.rows and 0 <= expect_col < g.cols
        assert valid[i] == ok
        if ok:
            assert (rows[i], cols[i]) == (expect_row, expect_col)


class _Pt:
    def __init__(self, laser, azimuth):
        self.laser = laser
        self.azimuth = azimuth


def test_rv_cell_mapping():
    rv = RvSpec(rows=64, cols=2048)
    assert rv_cell_of(_Pt(0, 0.0), rv) == CellIndex(0, 0)
    assert rv_cell_of(_Pt(10, math.pi), rv) == CellIndex(10, 1024)
    assert rv_cell_of(_Pt(3, 2 * math.pi - 1e-9), rv) == CellIndex(3, 2047)
    with pytest.raises(ValueError):
        rv_cell_of(_Pt(64, 0.0), rv)


@pytest.mark.parametrize("laser,azimuth,message", [(64, 0.0, "laser"), (-1, 0.0, "laser"),
                                                   (3, -1e-9, "azimuth"), (3, 2 * math.pi, "azimuth")])
def test_rv_cells_reject_a_return_outside_the_rv_image(laser, azimuth, message):
    rv = RvSpec(rows=64, cols=2048)
    lasers, azimuths = np.array([0, laser]), np.array([math.pi, azimuth])
    with pytest.raises(ValueError, match=message):
        rv_cells_of(lasers, azimuths, rv)
    rows, cols = rv_cells_of(np.array([0, 63]), np.array([0.0, 2 * math.pi - 1e-9]), rv)
    assert rows.tolist() == [0, 63] and cols.tolist() == [0, 2047]


def test_rvspec_elevation_validation():
    RvSpec(rows=3, cols=8, elevations=(0.1, 0.0, -0.1))
    with pytest.raises(ValueError):
        RvSpec(rows=3, cols=8, elevations=(0.1, 0.1, -0.1))
    with pytest.raises(ValueError):
        RvSpec(rows=3, cols=8, elevations=(0.1, 0.0))


def test_camera_from_fov():
    cam = CameraModel.from_fov(1920, 1200, 90.0, crop_top=438)
    assert cam.fx == pytest.approx(960.0)
    assert cam.hfov_deg == pytest.approx(90.0, abs=1e-9)
    assert cam.cropped_height == 762
    with pytest.raises(ValueError):
        CameraModel(fx=960, fy=960, cx=960, cy=600, width=1920, height=1200, hfov_deg=70.0)


def test_camera_principal_point_and_behind():
    cam = CameraModel.from_fov(640, 480, 90.0, mount_height=0.0)
    assert camera_pixel_of(Point3(10.0, 0.0, 0.0), cam) == CellIndex(240, 320)
    assert camera_pixel_of(Point3(-10.0, 0.0, 0.0), cam) is None
    assert camera_pixel_of(Point3(0.0, 5.0, 0.0), cam) is None  # sideways, zero depth


def test_camera_lateral_offset_column():
    cam = CameraModel.from_fov(640, 480, 90.0, mount_height=0.0)
    # point 2 m to the right (y = -2) at 10 m: column = cx + fx * 2/10
    d, off = 10.0, 2.0
    got = camera_pixel_of(Point3(d, -off, 0.0), cam)
    expect = cam.cx + cam.fx * off / d
    assert abs((got.col + 0.5) - expect) <= 0.5


def test_camera_crop_band():
    cam = CameraModel.from_fov(640, 480, 90.0, crop_top=200, mount_height=0.0)
    # a high point projecting above the crop line is dropped
    high = Point3(5.0, 0.0, 2.0)  # v = 240 - 320*2/5 = 112 < 200
    assert camera_pixel_of(high, cam) is None
    level = Point3(5.0, 0.0, 0.0)
    got = camera_pixel_of(level, cam)
    assert got == CellIndex(240 - 200, 320)


def test_camera_mount_pose():
    cam = CameraModel.from_fov(640, 480, 90.0, mount=Pose2(1.0, 0.0, 0.0), mount_height=0.0)
    # camera sits 1 m ahead of ego origin; a point 11 m ahead is at depth 10
    rows, cols, valid = camera_pixels_of(np.array([[11.0, -2.0, 0.0]]), cam)
    assert valid[0]
    assert cols[0] == int(cam.cx + cam.fx * 2.0 / 10.0)


def test_featuremap_validation():
    fm = FeatureMap("bev", np.zeros((4, 5, 3)))
    assert (fm.height, fm.width, fm.channels) == (4, 5, 3)
    with pytest.raises(ValueError):
        FeatureMap("bev", np.zeros((4, 5)))
    with pytest.raises(ValueError):
        FeatureMap("nope", np.zeros((4, 5, 3)))


def test_output_grid():
    g = atg4d_grid()
    og = OutputGrid.from_grid(g, 4)
    assert (og.rows, og.cols) == (235, 157)
    assert og.step_x == pytest.approx(0.64)
    xs, ys = og.cell_centers()
    assert xs[0] == pytest.approx(g.x_min + 0.32)
    assert len(xs) == 235 and len(ys) == 157
