"""Deterministic synthetic worlds standing in for real driving logs.

A Scene holds actors on piecewise constant-velocity-and-turn-rate motion
profiles, a seven-layer map, and an ego trajectory. From it we simulate
LiDAR sweeps by ray casting against actor boxes extruded to their height
(plus an optional ground plane), render a depth-shaded front-camera image,
and read out ground-truth labels with future waypoints.

Everything is seeded and purely functional after construction: identical
inputs produce bit-identical sweeps, images, and labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import Pose2, RotatedBox2D, rotated_iou, se2_compose, se2_inverse, transform_box
from .views import CAMERA, CameraGeometry, CameraModel, FeatureMap, RvSpec

CLASSES = ("vehicle", "pedestrian", "bicyclist")

# plausible footprint ranges per class, meters: (length lo/hi, width lo/hi)
SIZE_RANGES = {
    "vehicle": ((3.5, 6.0), (1.6, 2.2)),
    "pedestrian": ((0.4, 1.0), (0.4, 1.0)),
    "bicyclist": ((1.5, 2.2), (0.5, 0.8)),
}
HEIGHT_RANGES = {"vehicle": (1.4, 2.1), "pedestrian": (1.5, 1.9), "bicyclist": (1.4, 1.8)}
SPEED_RANGES = {"vehicle": (0.0, 6.0), "pedestrian": (0.0, 1.4), "bicyclist": (0.5, 4.0)}

REFLECTIVITY = {"vehicle": 0.5, "pedestrian": 0.35, "bicyclist": 0.45, "ground": 0.15}

BASE_COLORS = {
    "vehicle": (0.80, 0.25, 0.20),
    "pedestrian": (0.20, 0.45, 0.85),
    "bicyclist": (0.25, 0.75, 0.30),
}
SKY_COLOR = (0.53, 0.81, 0.92)

LABEL_RATE_HZ = 10.0  # waypoint sampling rate for prediction targets


@dataclass
class PointArray:
    """Column-oriented container for the returns of one sweep."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    range: np.ndarray
    intensity: np.ndarray
    azimuth: np.ndarray
    laser: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return np.stack([self.x, self.y, self.z], axis=1)

    @classmethod
    def empty(cls) -> "PointArray":
        z = np.zeros(0)
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class Sweep:
    """All returns of one full rotation, in the ego frame at capture time."""

    timestamp: float
    points: PointArray
    ego_pose: Pose2


@dataclass(frozen=True)
class MotionSegment:
    duration: float
    speed: float
    turn_rate: float


@dataclass(frozen=True)
class Actor:
    actor_id: int
    cls: str
    box: RotatedBox2D  # footprint at t = 0; motion starts from its pose
    height: float
    motion: tuple[MotionSegment, ...]

    def __post_init__(self):
        if self.cls not in CLASSES:
            raise ValueError(f"unknown class {self.cls!r}")
        (llo, lhi), (wlo, whi) = SIZE_RANGES[self.cls]
        if not (llo <= self.box.length <= lhi and wlo <= self.box.width <= whi):
            raise ValueError(
                f"{self.cls} footprint {self.box.length:.2f}x{self.box.width:.2f} outside plausible range"
            )


LAYER_NAMES = (
    "driving_paths",
    "crosswalks",
    "lane_boundaries",
    "road_boundaries",
    "intersections",
    "driveways",
    "parking_lots",
)

POLYGON = "polygon"
POLYLINE = "polyline"


# float64 rounding bound of a 2x2 orientation determinant, relative to the sum
# of its two products' magnitudes: Shewchuk's (3 + 16u)u, rounded up to 4u
_ORIENT_ERROR = 4 * 2.0 ** -53
_EDGE_PAIR_BLOCK = 1 << 16  # edge pairs tested per numpy block


def _orientation_signs(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact signs of the cross products (q - p) x (r - p), row by row.

    float64 decides a sign where the rounding bound leaves it certain (or both
    products are exactly zero); the rest are recomputed in exact rationals.
    """
    dqx, dqy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
    drx, dry = r[:, 0] - p[:, 0], r[:, 1] - p[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves the sign unsure
        left, right = dqx * dry, dqy * drx
        det = left - right
        size = np.abs(left) + np.abs(right)
        sure = (np.abs(det) > _ORIENT_ERROR * size) & (size > 1e-280)  # no underflow either
    sure |= ((dqx == 0) | (dry == 0)) & ((dqy == 0) | (drx == 0))
    signs = np.sign(det)
    for k in np.flatnonzero(~sure):
        (px, py), (qx, qy), (rx, ry) = ((Fraction(x), Fraction(y)) for x, y in (p[k], q[k], r[k]))
        exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        signs[k] = (exact > 0) - (exact < 0)
    return signs


def _polygon_is_simple(pts: np.ndarray) -> bool:
    """No two non-adjacent edges cross properly; edges that touch or overlap
    collinearly are allowed.

    Only edges whose extents overlap on both axes can cross. Along each
    axis the edges are sorted by their lower end and each is paired with the
    later ones that start at or before its upper end (sort and sweep); the
    sweep runs along the axis that yields fewer pairs, and those pairs are
    tested in blocks with exact orientation signs.
    oracles.polygon_is_simple_pairwise is the literal loop over all pairs.
    """
    a = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
    b = np.roll(a, -1, axis=0)
    n = len(a)
    sweeps = []
    for axis in (0, 1):
        lo, hi = np.minimum(a[:, axis], b[:, axis]), np.maximum(a[:, axis], b[:, axis])
        order = np.argsort(lo, kind="stable")
        counts = np.searchsorted(lo[order], hi[order], side="right") - np.arange(n) - 1
        sweeps.append((int(counts.sum()), order, counts))
    total, order, counts = min(sweeps, key=lambda sweep: sweep[0])
    ends = np.cumsum(counts)  # edge k's partners are pairs ends[k] - counts[k] .. ends[k] - 1
    for p0 in range(0, total, _EDGE_PAIR_BLOCK):
        pair = np.arange(p0, min(p0 + _EDGE_PAIR_BLOCK, total))
        k = np.searchsorted(ends, pair, side="right")
        i, j = order[k], order[k + 1 + pair - (ends[k] - counts[k])]
        gap = (i - j) % n
        apart = (gap != 1) & (gap != n - 1)  # adjacent edges share a vertex
        i, j = i[apart], j[apart]
        if np.any((_orientation_signs(a[i], b[i], a[j]) * _orientation_signs(a[i], b[i], b[j]) < 0)
                  & (_orientation_signs(a[j], b[j], a[i]) * _orientation_signs(a[j], b[j], b[i]) < 0)):
            return False
    return True


@dataclass
class MapGeometry:
    """Seven fixed-order static map layers of polygons and polylines."""

    layers: dict[str, list[tuple[str, np.ndarray]]]

    def __post_init__(self):
        if tuple(self.layers.keys()) != LAYER_NAMES:
            raise ValueError(f"map must have exactly the seven layers {LAYER_NAMES} in order")
        for name, entries in self.layers.items():
            for kind, pts in entries:
                if kind not in (POLYGON, POLYLINE):
                    raise ValueError(f"bad entry kind {kind!r} in layer {name}")
                if not np.isfinite(pts).all():
                    raise ValueError(f"non-finite vertex in layer {name}")
                if kind == POLYGON and not _polygon_is_simple(pts):
                    raise ValueError(f"self-intersecting polygon in layer {name}")

    @classmethod
    def empty(cls) -> "MapGeometry":
        return cls({name: [] for name in LAYER_NAMES})


@dataclass(frozen=True)
class LidarSensorSpec:
    """Spinning LiDAR: per-beam elevations, uniform azimuth stepping."""

    beams: int
    elevations: tuple  # radians, strictly decreasing by row (top beam first)
    azimuth_step: float
    max_range: float = 120.0
    mount_height: float = 1.8
    ground_returns: bool = True
    azimuth_offset: float | None = None  # ray azimuth of bin 0; default = half a step
    reflectivity: dict = field(default_factory=lambda: dict(REFLECTIVITY))

    def __post_init__(self):
        elev = tuple(float(e) for e in self.elevations)
        object.__setattr__(self, "elevations", elev)
        if len(elev) != self.beams:
            raise ValueError("need one elevation per beam")
        if any(b >= a for a, b in zip(elev, elev[1:])):
            raise ValueError("elevations must be strictly decreasing by row")
        n = round(2.0 * math.pi / self.azimuth_step)
        if n < 1 or abs(n * self.azimuth_step - 2.0 * math.pi) > 1e-9:
            raise ValueError("azimuth step must divide 2*pi")
        if self.azimuth_offset is None:
            object.__setattr__(self, "azimuth_offset", 0.5 * self.azimuth_step)
        elif not 0.0 <= self.azimuth_offset < self.azimuth_step:
            raise ValueError("azimuth_offset must lie within one step")

    @property
    def azimuth_bins(self) -> int:
        return round(2.0 * math.pi / self.azimuth_step)


def uniform_elevations(beams: int, top_deg: float, bottom_deg: float) -> tuple:
    return tuple(np.linspace(math.radians(top_deg), math.radians(bottom_deg), beams))


def sensor_64_beam() -> LidarSensorSpec:
    """64 beams from +2 to -25 degrees, 2048 azimuth bins, 1.8 m mount."""
    return LidarSensorSpec(64, uniform_elevations(64, 2.0, -25.0), 2.0 * math.pi / 2048.0)


def sensor_32_beam() -> LidarSensorSpec:
    """32 beams from +10 to -30 degrees, 2048 azimuth bins."""
    return LidarSensorSpec(32, uniform_elevations(32, 10.0, -30.0), 2.0 * math.pi / 2048.0)


def rv_spec_for(sensor: LidarSensorSpec) -> RvSpec:
    """RV raster matched to a sensor: every nominal ray gets its own column."""
    return RvSpec(rows=sensor.beams, cols=sensor.azimuth_bins, elevations=sensor.elevations)


@dataclass(frozen=True)
class SceneConfig:
    vehicles: int = 4
    pedestrians: int = 2
    bicyclists: int = 1
    extent: float = 30.0  # actors and map stay within |x|,|y| <= extent
    duration: float = 5.0
    seed: int = 0
    ego_speed: float = 2.0

    def counts(self) -> dict[str, int]:
        return {"vehicle": self.vehicles, "pedestrian": self.pedestrians, "bicyclist": self.bicyclists}


@dataclass(frozen=True)
class Scene:
    actors: tuple[Actor, ...]
    map_geometry: MapGeometry
    ego_motion: tuple[MotionSegment, ...]
    seed: int
    extent: float
    duration: float


class SceneTooDenseError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------

def _advance(pose: Pose2, speed: float, turn_rate: float, dt: float) -> Pose2:
    if dt == 0.0:
        return pose
    if abs(turn_rate) < 1e-12:
        return Pose2(
            pose.tx + speed * dt * math.cos(pose.yaw),
            pose.ty + speed * dt * math.sin(pose.yaw),
            pose.yaw,
        )
    radius = speed / turn_rate
    yaw1 = pose.yaw + turn_rate * dt
    return Pose2(
        pose.tx + radius * (math.sin(yaw1) - math.sin(pose.yaw)),
        pose.ty + radius * (math.cos(pose.yaw) - math.cos(yaw1)),
        yaw1,
    )


def motion_pose_at(start: Pose2, segments: Sequence[MotionSegment], t: float) -> Pose2:
    """Closed-form pose along a piecewise constant-velocity/turn-rate profile."""
    total = sum(s.duration for s in segments)
    if t < -1e-12 or t > total + 1e-9:
        raise ValueError(f"t={t} outside motion profile [0, {total}]")
    pose, remaining = start, max(t, 0.0)
    for seg in segments:
        dt = min(remaining, seg.duration)
        pose = _advance(pose, seg.speed, seg.turn_rate, dt)
        remaining -= dt
        if remaining <= 0.0:
            break
    return pose


def actor_pose_at(actor: Actor, t: float) -> Pose2:
    start = Pose2(actor.box.cx, actor.box.cy, actor.box.heading)
    return motion_pose_at(start, actor.motion, t)


def ego_pose_at(scene: Scene, t: float) -> Pose2:
    return motion_pose_at(Pose2(), scene.ego_motion, t)


def actor_box_at(actor: Actor, t: float) -> RotatedBox2D:
    pose = actor_pose_at(actor, t)
    return RotatedBox2D(pose.tx, pose.ty, actor.box.length, actor.box.width, pose.yaw)


# ---------------------------------------------------------------------------
# scene construction
# ---------------------------------------------------------------------------

def _sample_motion(rng: np.random.Generator, cls: str, duration: float) -> tuple[MotionSegment, ...]:
    lo, hi = SPEED_RANGES[cls]
    n_segments = int(rng.integers(1, 3))
    cuts = np.sort(rng.uniform(0.2, duration - 0.2, size=n_segments - 1)) if n_segments > 1 else []
    bounds = [0.0, *cuts, duration]
    segs = []
    for a, b in zip(bounds, bounds[1:]):
        speed = float(rng.uniform(lo, hi))
        turn = float(rng.uniform(-0.25, 0.25)) if speed > 0.1 else 0.0
        segs.append(MotionSegment(b - a, speed, turn))
    return tuple(segs)


def _expanded(box: RotatedBox2D, margin: float) -> RotatedBox2D:
    return RotatedBox2D(box.cx, box.cy, box.length + 2 * margin, box.width + 2 * margin, box.heading)


def _generate_map(rng: np.random.Generator, extent: float) -> MapGeometry:
    e = extent
    half_road = min(4.0, 0.3 * e)
    jitter = float(rng.uniform(-0.05, 0.05) * e)

    def rect(cx, cy, w, h):
        return np.array(
            [[cx - w / 2, cy - h / 2], [cx + w / 2, cy - h / 2], [cx + w / 2, cy + h / 2], [cx - w / 2, cy + h / 2]]
        )

    layers: dict[str, list] = {name: [] for name in LAYER_NAMES}
    # straight road along x with a crossing road along y, both centered near origin
    layers["road_boundaries"].append((POLYLINE, np.array([[-e, -half_road + jitter], [e, -half_road + jitter]])))
    layers["road_boundaries"].append((POLYLINE, np.array([[-e, half_road + jitter], [e, half_road + jitter]])))
    layers["lane_boundaries"].append((POLYLINE, np.array([[-e, jitter], [e, jitter]])))
    layers["driving_paths"].append((POLYLINE, np.array([[-e, jitter - half_road / 2], [e, jitter - half_road / 2]])))
    layers["driving_paths"].append((POLYLINE, np.array([[-e, jitter + half_road / 2], [e, jitter + half_road / 2]])))
    layers["intersections"].append((POLYGON, rect(0.0, jitter, 2 * half_road, 2 * half_road)))
    cw_x = float(rng.uniform(0.3, 0.6) * e)
    layers["crosswalks"].append((POLYGON, rect(cw_x, jitter, 2.5, 2 * half_road)))
    layers["driveways"].append((POLYGON, rect(-cw_x, jitter + half_road + 2.0, 4.0, 4.0)))
    layers["parking_lots"].append((POLYGON, rect(0.6 * e, jitter - half_road - 4.0, 0.25 * e, 6.0)))
    return MapGeometry(layers)


def _footprints_meet(a: Actor, a_poses: np.ndarray, b: Actor, b_poses: np.ndarray) -> bool:
    """Whether two actors' footprints overlap at any pair of same-time poses.

    a_poses and b_poses are (T, 3) rows of (x, y, yaw) at the same T times.
    """
    reach = 0.5 * (math.hypot(a.box.length, a.box.width) + math.hypot(b.box.length, b.box.width))
    gaps = np.hypot(a_poses[:, 0] - b_poses[:, 0], a_poses[:, 1] - b_poses[:, 1])
    for i in np.flatnonzero(gaps <= reach):  # farther apart than that cannot meet
        box_a = RotatedBox2D(a_poses[i, 0], a_poses[i, 1], a.box.length, a.box.width, a_poses[i, 2])
        box_b = RotatedBox2D(b_poses[i, 0], b_poses[i, 1], b.box.length, b.box.width, b_poses[i, 2])
        if rotated_iou(box_a, box_b) > 0.0:
            return True
    return False


def _covers_any(poses: np.ndarray, length: float, width: float, xy: np.ndarray) -> bool:
    """Whether a length x width box at any of the (T, 3) poses (x, y, yaw)
    contains the same-time point of the (T, 2) xy, boundary inclusive."""
    dx, dy = xy[:, 0] - poses[:, 0], xy[:, 1] - poses[:, 1]
    c, s = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    return bool(np.any((np.abs(c * dx + s * dy) <= 0.5 * length) & (np.abs(c * dy - s * dx) <= 0.5 * width)))


def build_scene(config: SceneConfig, seed: int | None = None) -> Scene:
    """Sample a scene: non-overlapping actors, a map, and an ego profile.

    Actors keep a 0.5 m margin at t = 0, and no two footprints overlap, nor
    does any footprint cover the ego position, at any label time
    k / LABEL_RATE_HZ in [0, duration]. Deterministic for a fixed
    (config, seed). Raises SceneTooDenseError when rejection sampling cannot
    place an actor after bounded retries.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.default_rng(seed)
    map_geometry = _generate_map(rng, config.extent)
    label_times = [k / LABEL_RATE_HZ for k in range(math.floor(config.duration * LABEL_RATE_HZ + 1e-9) + 1)]
    ego_motion = (MotionSegment(config.duration, config.ego_speed, 0.0),)
    ego_xy = np.array([(p.tx, p.ty) for p in (motion_pose_at(Pose2(), ego_motion, t) for t in label_times)])

    actors: list[Actor] = []
    paths: list[np.ndarray] = []  # each placed actor's poses at the label times
    actor_id = 0
    for cls in CLASSES:
        (llo, lhi), (wlo, whi) = SIZE_RANGES[cls]
        for _ in range(config.counts()[cls]):
            for attempt in range(200):
                length = float(rng.uniform(llo, lhi))
                width = float(rng.uniform(wlo, whi))
                reach = 0.5 * math.hypot(length, width)
                lim = config.extent - reach - 0.5
                if lim <= 3.0:
                    raise SceneTooDenseError("extent too small for actor footprint")
                cx = float(rng.uniform(-lim, lim))
                cy = float(rng.uniform(-lim, lim))
                heading = float(rng.uniform(-math.pi, math.pi))
                box = RotatedBox2D(cx, cy, length, width, heading)
                # keep the sensor outside every box and actors apart with margin
                if math.hypot(cx, cy) < reach + 3.0:
                    continue
                if any(rotated_iou(_expanded(box, 0.5), _expanded(a.box, 0.5)) > 0.0 for a in actors):
                    continue
                actor = Actor(actor_id, cls, box, float(rng.uniform(*HEIGHT_RANGES[cls])),
                              _sample_motion(rng, cls, config.duration))
                path = np.array([(p.tx, p.ty, p.yaw) for p in (actor_pose_at(actor, t) for t in label_times)])
                if _covers_any(path, length, width, ego_xy) or any(
                        _footprints_meet(actor, path, other, other_path) for other, other_path in zip(actors, paths)):
                    continue
                paths.append(path)
                actors.append(actor)
                actor_id += 1
                break
            else:
                raise SceneTooDenseError(
                    f"could not place {cls} after 200 attempts (extent {config.extent})"
                )
    return Scene(tuple(actors), map_geometry, ego_motion, seed, config.extent, config.duration)


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

def _ray_box_hits(origin: np.ndarray, dirs: np.ndarray, box: RotatedBox2D, height: float):
    """Slab intersection of N rays with a box extruded over z in [0, height].

    Returns (t_enter, cos_incidence) with +inf where a ray misses.
    """
    c, s = math.cos(box.heading), math.sin(box.heading)
    ox, oy = origin[0] - box.cx, origin[1] - box.cy
    o_local = np.array([c * ox + s * oy, -s * ox + c * oy, origin[2]])
    d_local = np.stack(
        [c * dirs[:, 0] + s * dirs[:, 1], -s * dirs[:, 0] + c * dirs[:, 1], dirs[:, 2]], axis=1
    )
    lo = np.array([-0.5 * box.length, -0.5 * box.width, 0.0])
    hi = np.array([0.5 * box.length, 0.5 * box.width, height])
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o_local) / d_local
        t2 = (hi - o_local) / d_local
    t_near_axis = np.minimum(t1, t2)
    t_far_axis = np.maximum(t1, t2)
    # parallel rays outside a slab never hit it
    parallel = np.abs(d_local) < 1e-15
    outside = (o_local < lo) | (o_local > hi)
    t_near_axis[parallel] = -np.inf
    t_far_axis[parallel] = np.inf
    t_near_axis[parallel & outside] = np.inf

    enter_axis = np.argmax(t_near_axis, axis=1)
    t_enter = np.max(t_near_axis, axis=1)
    t_exit = np.min(t_far_axis, axis=1)
    hit = (t_enter <= t_exit) & (t_enter > 1e-9) & np.isfinite(t_enter)
    cos_inc = np.abs(np.take_along_axis(d_local, enter_axis[:, None], axis=1)[:, 0])
    t_enter = np.where(hit, t_enter, np.inf)
    return t_enter, cos_inc


def _cast_rays(origin: np.ndarray, dirs: np.ndarray, boxes, heights, classes,
               reflectivity: dict, max_range: float, ground: bool):
    """Nearest-hit casting against actor prisms and the z=0 ground plane.

    Returns (t, intensity, hit_mask); dirs must be unit-length rows.
    """
    n = dirs.shape[0]
    best_t = np.full(n, np.inf)
    best_e = np.zeros(n)
    for box, height, cls in zip(boxes, heights, classes):
        t, cos_inc = _ray_box_hits(origin, dirs, box, height)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_e = np.where(closer, reflectivity[cls] * cos_inc, best_e)
    if ground:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = np.where(dz < -1e-12, -origin[2] / dz, np.inf)
        closer = t_ground < best_t
        best_t = np.where(closer, t_ground, best_t)
        best_e = np.where(closer, reflectivity["ground"] * np.abs(dz), best_e)
    hit = best_t <= max_range
    return best_t, np.clip(best_e, 0.0, 1.0), hit


def _scene_boxes_in_ego(scene: Scene, t: float) -> tuple[list, list, list]:
    inv_ego = se2_inverse(ego_pose_at(scene, t))
    boxes, heights, classes = [], [], []
    for actor in scene.actors:
        boxes.append(transform_box(actor_box_at(actor, t), inv_ego))
        heights.append(actor.height)
        classes.append(actor.cls)
    return boxes, heights, classes


def simulate_sweep(scene: Scene, spec: LidarSensorSpec, t: float) -> Sweep:
    """One full rotation captured instantaneously at time t.

    Rays are ordered row-major (beam, then azimuth bin); each ray keeps the
    nearest surface hit within max range. With the default half-step azimuth
    offset, rays sit at bin centers and round-trip exactly into a matched RV
    raster.
    """
    ego = ego_pose_at(scene, t)
    boxes, heights, classes = _scene_boxes_in_ego(scene, t)

    n_az = spec.azimuth_bins
    azimuths = spec.azimuth_offset + np.arange(n_az) * spec.azimuth_step
    elevations = np.asarray(spec.elevations)
    cos_e, sin_e = np.cos(elevations), np.sin(elevations)
    cos_a, sin_a = np.cos(azimuths), np.sin(azimuths)
    # (beams, bins, 3) flattened row-major
    dirs = np.stack(
        [
            np.outer(cos_e, cos_a),
            np.outer(cos_e, sin_a),
            np.repeat(sin_e[:, None], n_az, axis=1),
        ],
        axis=2,
    ).reshape(-1, 3)
    origin = np.array([0.0, 0.0, spec.mount_height])

    t_hit, intensity, hit = _cast_rays(
        origin, dirs, boxes, heights, classes, spec.reflectivity, spec.max_range, spec.ground_returns
    )
    idx = np.nonzero(hit)[0]
    pts = origin + t_hit[idx, None] * dirs[idx]
    rng_m = np.linalg.norm(pts - origin, axis=1)
    laser = (idx // n_az).astype(np.int64)
    az = np.tile(azimuths, spec.beams)[idx]
    points = PointArray(pts[:, 0], pts[:, 1], pts[:, 2], rng_m, intensity[idx], az, laser)
    return Sweep(timestamp=t, points=points, ego_pose=ego)


def render_camera(scene: Scene, camera: CameraModel, t: float) -> FeatureMap:
    """Depth-shaded RGB render of the cropped front-camera view at time t."""
    boxes, heights, classes = _scene_boxes_in_ego(scene, t)

    rows = np.arange(camera.crop_top, camera.height)
    cols = np.arange(camera.width)
    u = (cols + 0.5 - camera.cx) / camera.fx
    v = (rows + 0.5 - camera.cy) / camera.fy
    uu, vv = np.meshgrid(u, v)
    # camera frame: forward +x(ego), right -y, down -z; rotate by mount yaw
    yaw = camera.mount.yaw
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy, dz = np.ones_like(uu), -uu, -vv
    d_ego = np.stack([c * dx - s * dy, s * dx + c * dy, dz], axis=2).reshape(-1, 3)
    d_ego /= np.linalg.norm(d_ego, axis=1, keepdims=True)
    origin = np.array([camera.mount.tx, camera.mount.ty, camera.mount_height])

    # actors only; pixels hitting nothing stay sky-valued
    n = d_ego.shape[0]
    best_t = np.full(n, np.inf)
    color = np.empty((n, 3))
    color[:] = SKY_COLOR
    for box, height, cls in zip(boxes, heights, classes):
        t_hit, _ = _ray_box_hits(origin, d_ego, box, height)
        closer = t_hit < best_t
        best_t = np.where(closer, t_hit, best_t)
        shade = np.clip(1.0 / (1.0 + t_hit / 40.0), 0.15, 1.0)
        color[closer] = np.array(BASE_COLORS[cls]) * shade[closer, None]

    img = color.reshape(camera.cropped_height, camera.width, 3)
    return FeatureMap(CAMERA, img, CameraGeometry(camera, pixel_stride=1))


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActorLabel:
    """Ground truth for one actor in the ego frame at the reference time.

    centers/headings cover horizons 0..H; the footprint is constant across
    the horizon, so the box at h is (centers[h], headings[h], length, width).
    """

    actor_id: int
    cls: str
    box: RotatedBox2D
    centers: np.ndarray  # (H+1, 2)
    headings: np.ndarray  # (H+1,)


@dataclass(frozen=True)
class LabelSet:
    timestamp: float
    horizon: int
    labels: tuple[ActorLabel, ...]


def scene_labels(scene: Scene, t: float, horizon: int) -> LabelSet:
    """Labels at t with future waypoints at 10 Hz, in the ego frame at t."""
    t_last = t + horizon / LABEL_RATE_HZ
    if t < -1e-12 or t_last > scene.duration + 1e-9:
        raise ValueError(f"label horizon [{t}, {t_last}] exceeds scene duration {scene.duration}")
    inv_ego = se2_inverse(ego_pose_at(scene, t))
    labels = []
    for actor in scene.actors:
        centers = np.empty((horizon + 1, 2))
        headings = np.empty(horizon + 1)
        for h in range(horizon + 1):
            world = actor_pose_at(actor, t + h / LABEL_RATE_HZ)
            rel = se2_compose(inv_ego, world)
            centers[h] = (rel.tx, rel.ty)
            headings[h] = rel.yaw
        box = RotatedBox2D(centers[0, 0], centers[0, 1], actor.box.length, actor.box.width, headings[0])
        labels.append(ActorLabel(actor.actor_id, actor.cls, box, centers, headings))
    return LabelSet(t, horizon, tuple(labels))
