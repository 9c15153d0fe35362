import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion.geometry import (
    IDENTITY,
    Pose2,
    RotatedBox2D,
    box_corners,
    points_in_box,
    se2_apply,
    se2_compose,
    se2_inverse,
    transform_xy,
    wrap_angle,
)

finite_coord = st.floats(-100.0, 100.0)
any_yaw = st.floats(-10.0, 10.0)
poses = st.builds(Pose2, finite_coord, finite_coord, any_yaw)


def test_wrap_angle_range():
    for a in [-7.0, -math.pi, -1e-9, 0.0, math.pi, 9.42, 100.0]:
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_compose_identity():
    p = Pose2(1.5, -2.0, 0.7)
    assert se2_compose(IDENTITY, p) == p
    assert se2_compose(p, IDENTITY) == p


def test_compose_quarter_turn():
    # rotate 90 deg after translating (1, 0): origin ends up at (0, 1)
    composed = se2_compose(Pose2(yaw=math.pi / 2), Pose2(1.0, 0.0))
    x, y = se2_apply(composed, 0.0, 0.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_compose_with_inverse_is_identity():
    p = Pose2(3.0, -4.0, 2.1)
    r = se2_compose(p, se2_inverse(p))
    assert abs(r.tx) < 1e-12 and abs(r.ty) < 1e-12 and abs(r.yaw) < 1e-12


@settings(max_examples=200)
@given(poses, poses, poses)
def test_compose_associative(a, b, c):
    lhs = se2_compose(se2_compose(a, b), c)
    rhs = se2_compose(a, se2_compose(b, c))
    assert abs(lhs.tx - rhs.tx) < 1e-10
    assert abs(lhs.ty - rhs.ty) < 1e-10
    assert abs(wrap_angle(lhs.yaw - rhs.yaw)) < 1e-10


@settings(max_examples=100)
@given(poses, st.integers(0, 1000))
def test_transform_preserves_distances(pose, seed):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-50, 50, size=(8, 2))
    moved = transform_xy(xy, pose)
    d0 = np.linalg.norm(xy[:, None] - xy[None, :], axis=-1)
    d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
    assert np.max(np.abs(d0 - d1)) < 1e-10


def test_box_corners_axis_aligned():
    got = box_corners(RotatedBox2D(0, 0, 2.0, 1.0, 0.0))
    assert sorted(map(tuple, np.round(got, 12))) == sorted(
        [(1.0, 0.5), (-1.0, 0.5), (-1.0, -0.5), (1.0, -0.5)]
    )


def test_box_corners_quarter_turn():
    got = box_corners(RotatedBox2D(0, 0, 2.0, 1.0, math.pi / 2))
    want = sorted([(0.5, 1.0), (-0.5, 1.0), (-0.5, -1.0), (0.5, -1.0)])
    assert sorted(map(tuple, np.round(got, 12))) == want


def test_box_corners_rotated_unit_square():
    # sqrt(2)-sided square at 45 deg has corners on the axes at distance 1
    got = box_corners(RotatedBox2D(0, 0, math.sqrt(2), math.sqrt(2), math.pi / 4))
    want = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)])
    assert np.allclose(got, want, atol=1e-12)


def test_box_corners_ccw_and_centered():
    box = RotatedBox2D(4.0, -2.5, 3.0, 1.2, 0.8)
    corners = box_corners(box)
    assert np.allclose(corners.mean(axis=0), [box.cx, box.cy], atol=1e-12)
    # positive shoelace area means counter-clockwise
    x, y = corners[:, 0], corners[:, 1]
    area = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert area > 0


def _refit_box(corners: np.ndarray) -> RotatedBox2D:
    # independent reconstruction: centroid + edge lengths + first-edge direction
    center = corners.mean(axis=0)
    e0 = corners[1] - corners[0]  # width-side edge? no: corner order is fl, rl, rr, fr
    e1 = corners[2] - corners[1]
    length = float(np.linalg.norm(e0))
    width = float(np.linalg.norm(e1))
    heading = math.atan2(-e0[1], -e0[0])  # e0 points rear-ward along -heading
    return RotatedBox2D(center[0], center[1], length, width, heading)


boxes = st.builds(
    RotatedBox2D,
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.3, 12.0),
    st.floats(0.3, 6.0),
    st.floats(-3.1, 3.1),
)


@settings(max_examples=200)
@given(boxes)
def test_corner_refit_roundtrip(box):
    fit = _refit_box(box_corners(box))
    assert abs(fit.cx - box.cx) < 1e-9
    assert abs(fit.cy - box.cy) < 1e-9
    assert abs(fit.length - box.length) < 1e-9
    assert abs(fit.width - box.width) < 1e-9
    dh = wrap_angle(fit.heading - box.heading)
    assert min(abs(dh), abs(wrap_angle(dh - math.pi))) < 1e-9


def test_points_in_box_rotated():
    box = RotatedBox2D(1.0, 1.0, 2.0, 1.0, math.pi / 4)
    pts = np.array([[1.0, 1.0], [1.0 + math.sqrt(2) / 2, 1.0 + math.sqrt(2) / 2], [3.0, 1.0]])
    inside = points_in_box(pts, box)
    assert inside.tolist() == [True, True, False]


def test_box_validation():
    with pytest.raises(ValueError):
        RotatedBox2D(0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        RotatedBox2D(0, 0, 1.0, -1.0)
    with pytest.raises(ValueError):
        Pose2(float("nan"), 0.0, 0.0)
