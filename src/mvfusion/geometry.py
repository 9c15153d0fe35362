"""Planar geometric primitives shared across the pipeline.

Everything downstream (scene simulation, rasterization, target encoding,
rotated-box metrics) is built on SE(2) poses, rotated rectangles, and a
handful of vectorized transforms. Motion is planar: z is carried through
transforms but never rotated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.remainder(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    return a


@dataclass(frozen=True)
class Pose2:
    """Planar rigid pose: translation (tx, ty) in meters, yaw in (-pi, pi]."""

    tx: float = 0.0
    ty: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.tx) and math.isfinite(self.ty) and math.isfinite(self.yaw)):
            raise ValueError("pose components must be finite")
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


@dataclass(frozen=True)
class RotatedBox2D:
    """Axis-box in its own frame: center (cx, cy), length along heading, width across."""

    cx: float
    cy: float
    length: float
    width: float
    heading: float = 0.0

    def __post_init__(self):
        if not (self.length > 0.0 and self.width > 0.0):
            raise ValueError(f"box sides must be positive, got {self.length} x {self.width}")
        for v in (self.cx, self.cy, self.length, self.width, self.heading):
            if not math.isfinite(v):
                raise ValueError("box parameters must be finite")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def area(self) -> float:
        return self.length * self.width


IDENTITY = Pose2()


def se2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Compose two poses; the result applies b first, then a."""
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return Pose2(
        a.tx + c * b.tx - s * b.ty,
        a.ty + s * b.tx + c * b.ty,
        a.yaw + b.yaw,
    )


def se2_inverse(p: Pose2) -> Pose2:
    c, s = math.cos(p.yaw), math.sin(p.yaw)
    return Pose2(-(c * p.tx + s * p.ty), -(-s * p.tx + c * p.ty), -p.yaw)


def se2_apply(pose: Pose2, x: float, y: float) -> tuple[float, float]:
    """Map a point through a planar rigid transform."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return (c * x - s * y + pose.tx, s * x + c * y + pose.ty)


def transform_xy(xy: np.ndarray, pose: Pose2) -> np.ndarray:
    """Vectorized planar transform of an (N, 2) array."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    x, y = xy[:, 0], xy[:, 1]
    return np.stack([c * x - s * y + pose.tx, s * x + c * y + pose.ty], axis=1)


def transform_box(box: RotatedBox2D, pose: Pose2) -> RotatedBox2D:
    cx, cy = se2_apply(pose, box.cx, box.cy)
    return RotatedBox2D(cx, cy, box.length, box.width, box.heading + pose.yaw)


def box_corners(box: RotatedBox2D) -> np.ndarray:
    """Corner coordinates as a (4, 2) array in counter-clockwise order.

    Starts at the front-left corner (+length/2, +width/2 in the box frame);
    the corner centroid equals the box center.
    """
    hl, hw = 0.5 * box.length, 0.5 * box.width
    local = np.array([[hl, hw], [-hl, hw], [-hl, -hw], [hl, -hw]])
    c, s = math.cos(box.heading), math.sin(box.heading)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.cx, box.cy])


def points_in_box(xy: np.ndarray, box: RotatedBox2D) -> np.ndarray:
    """Boolean mask of (N, 2) points inside a rotated box (boundary inclusive)."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx = xy[:, 0] - box.cx
    dy = xy[:, 1] - box.cy
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    return (np.abs(lx) <= 0.5 * box.length) & (np.abs(ly) <= 0.5 * box.width)


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a polygon given as (N, 2) vertices (positive if CCW)."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_against_edge(poly: list, p1, p2) -> list:
    # Sutherland-Hodgman step: keep the half-plane left of directed edge p1->p2.
    ex, ey = p2[0] - p1[0], p2[1] - p1[1]

    def side(q):
        return ex * (q[1] - p1[1]) - ey * (q[0] - p1[0])

    out: list = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        sc, sn = side(cur), side(nxt)
        if sc >= 0.0:
            out.append(cur)
        if (sc > 0.0 and sn < 0.0) or (sc < 0.0 and sn > 0.0):
            t = sc / (sc - sn)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def convex_intersection_area(poly_a: np.ndarray, poly_b: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons via sequential clipping."""
    poly = [tuple(p) for p in poly_a]
    nb = len(poly_b)
    for i in range(nb):
        if len(poly) < 3:
            return 0.0
        poly = _clip_against_edge(poly, poly_b[i], poly_b[(i + 1) % nb])
    if len(poly) < 3:
        return 0.0
    return abs(polygon_area(np.asarray(poly)))


DEGENERATE_AREA = 1e-12


def rotated_iou(a: RotatedBox2D, b: RotatedBox2D) -> float:
    """Intersection-over-union of two rotated boxes, in [0, 1].

    Intersection area comes from clipping a's corner polygon against b's
    half-planes; near-zero-area boxes return 0 by convention.
    """
    area_a, area_b = a.area, b.area
    if area_a < DEGENERATE_AREA or area_b < DEGENERATE_AREA:
        return 0.0
    # boxes farther apart than their circumradius sum cannot intersect
    reach = 0.5 * (math.hypot(a.length, a.width) + math.hypot(b.length, b.width))
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > reach:
        return 0.0
    inter = convex_intersection_area(box_corners(a), box_corners(b))
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)
