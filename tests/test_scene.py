import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion import scene
from mvfusion.geometry import Pose2, RotatedBox2D, points_in_box, rotated_iou
from mvfusion.scene import (
    LABEL_RATE_HZ,
    Actor,
    LidarSensorSpec,
    MapGeometry,
    MotionSegment,
    Scene,
    SceneConfig,
    SceneTooDenseError,
    actor_box_at,
    actor_pose_at,
    build_scene,
    ego_pose_at,
    render_camera,
    rv_spec_for,
    scene_labels,
    sensor_64_beam,
    simulate_sweep,
    uniform_elevations,
)
from mvfusion.oracles import polygon_is_simple_pairwise
from mvfusion.views import CameraModel, rv_cells_of

SKY = (0.53, 0.81, 0.92)


def small_sensor(**kw):
    args = dict(
        beams=8,
        elevations=uniform_elevations(8, 2.0, -20.0),
        azimuth_step=2 * math.pi / 256,
        mount_height=1.8,
    )
    args.update(kw)
    return LidarSensorSpec(**args)


def single_actor_scene(box, cls="vehicle", height=2.0, motion=(), duration=5.0):
    actor = Actor(0, cls, box, height, tuple(motion) or (MotionSegment(duration, 0.0, 0.0),))
    return Scene((actor,), MapGeometry.empty(), (MotionSegment(duration, 0.0, 0.0),), 0, 50.0, duration)


# ---------------------------------------------------------------------------
# build_scene
# ---------------------------------------------------------------------------

def test_build_scene_empty():
    scene = build_scene(SceneConfig(vehicles=0, pedestrians=0, bicyclists=0, seed=3))
    assert scene.actors == ()


def test_build_scene_deterministic():
    cfg = SceneConfig(vehicles=3, pedestrians=2, bicyclists=1, seed=11)
    a, b = build_scene(cfg), build_scene(cfg)
    assert a.actors == b.actors
    assert a.ego_motion == b.ego_motion
    for name in a.map_geometry.layers:
        for (ka, pa), (kb, pb) in zip(a.map_geometry.layers[name], b.map_geometry.layers[name]):
            assert ka == kb and np.array_equal(pa, pb)


def test_build_scene_seed_sweep_non_overlap():
    # footprints stay apart, and off the moving ego, at every 10 Hz label
    # time over the whole scene, not only at t = 0
    cfg = SceneConfig(vehicles=4, pedestrians=3, bicyclists=2, extent=28.0)
    label_times = [k / LABEL_RATE_HZ for k in range(round(cfg.duration * LABEL_RATE_HZ) + 1)]
    for seed in range(100):
        scene = build_scene(cfg, seed=seed)
        for t in label_times:
            boxes = [actor_box_at(a, t) for a in scene.actors]
            ego = ego_pose_at(scene, t)
            assert not any(points_in_box(np.array([[ego.tx, ego.ty]]), box)[0] for box in boxes), (seed, t)
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert rotated_iou(boxes[i], boxes[j]) == 0.0, (seed, t, i, j)


def test_build_scene_too_dense():
    with pytest.raises(SceneTooDenseError):
        build_scene(SceneConfig(vehicles=40, extent=12.0, seed=0))


def test_actor_class_size_validation():
    with pytest.raises(ValueError):
        Actor(0, "vehicle", RotatedBox2D(5, 5, 1.0, 0.5), 1.8, (MotionSegment(1, 0, 0),))
    with pytest.raises(ValueError):
        Actor(0, "pedestrian", RotatedBox2D(5, 5, 3.0, 3.0), 1.8, (MotionSegment(1, 0, 0),))


# ---------------------------------------------------------------------------
# motion
# ---------------------------------------------------------------------------

def test_actor_pose_at_zero_and_straight():
    box = RotatedBox2D(4.0, -6.0, 4.0, 1.8, 0.0)
    actor = Actor(0, "vehicle", box, 1.7, (MotionSegment(2.0, 10.0, 0.0),))
    p0 = actor_pose_at(actor, 0.0)
    assert (p0.tx, p0.ty, p0.yaw) == (4.0, -6.0, 0.0)
    p = actor_pose_at(actor, 0.5)
    assert p.tx == pytest.approx(9.0)
    assert p.ty == pytest.approx(-6.0)
    with pytest.raises(ValueError):
        actor_pose_at(actor, 2.5)
    with pytest.raises(ValueError):
        actor_pose_at(actor, -0.1)


def _rk4_pose(start: Pose2, speed: float, omega: float, t: float, steps: int = 4000):
    # independent fine-step integrator for the unicycle model
    x, y, yaw = start.tx, start.ty, start.yaw
    dt = t / steps

    def deriv(yaw_):
        return speed * math.cos(yaw_), speed * math.sin(yaw_), omega

    for _ in range(steps):
        k1 = deriv(yaw)
        k2 = deriv(yaw + 0.5 * dt * k1[2])
        k3 = deriv(yaw + 0.5 * dt * k2[2])
        k4 = deriv(yaw + dt * k3[2])
        x += dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        yaw += dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x, y, yaw


def test_turn_rate_matches_numeric_integration():
    box = RotatedBox2D(10.0, 5.0, 4.2, 1.9, 0.6)
    for speed, omega, t in [(5.0, 0.5, 1.7), (3.0, -0.8, 2.0), (6.0, 0.2, 0.9)]:
        actor = Actor(0, "vehicle", box, 1.7, (MotionSegment(2.0, speed, omega),))
        got = actor_pose_at(actor, t)
        x, y, yaw = _rk4_pose(Pose2(10.0, 5.0, 0.6), speed, omega, t)
        assert abs(got.tx - x) < 1e-6
        assert abs(got.ty - y) < 1e-6
        assert abs(got.yaw - yaw) < 1e-6
        # position sits on the circular arc of radius v/omega
        radius = speed / omega
        center = (10.0 - radius * math.sin(0.6), 5.0 + radius * math.cos(0.6))
        assert math.hypot(got.tx - center[0], got.ty - center[1]) == pytest.approx(abs(radius), abs=1e-9)


def test_multi_segment_motion_continuity():
    box = RotatedBox2D(8.0, 0.0, 4.0, 1.8, 0.0)
    motion = (MotionSegment(1.0, 2.0, 0.3), MotionSegment(1.0, 4.0, -0.2))
    actor = Actor(0, "vehicle", box, 1.7, motion)
    end_first = actor_pose_at(actor, 1.0)
    just_after = actor_pose_at(actor, 1.0 + 1e-9)
    assert abs(end_first.tx - just_after.tx) < 1e-7


# ---------------------------------------------------------------------------
# simulate_sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_scene_no_ground():
    scene = Scene((), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 30.0, 5.0)
    sweep = simulate_sweep(scene, small_sensor(ground_returns=False), 0.0)
    assert len(sweep.points) == 0


def test_sweep_analytic_face_range():
    # one horizontal beam at azimuth exactly 0; perpendicular face 10 m ahead
    sensor = LidarSensorSpec(
        beams=1, elevations=(0.0,), azimuth_step=2 * math.pi / 8,
        azimuth_offset=0.0, ground_returns=False, mount_height=1.8,
    )
    scene = single_actor_scene(RotatedBox2D(12.0, 0.0, 4.0, 2.0, 0.0), height=2.5)
    sweep = simulate_sweep(scene, sensor, 0.0)
    assert len(sweep.points) == 1
    assert abs(sweep.points.range[0] - 10.0) < 1e-9
    assert sweep.points.laser[0] == 0
    assert sweep.points.azimuth[0] == 0.0


def test_sweep_occlusion_nearest_hit():
    sensor = LidarSensorSpec(
        beams=1, elevations=(0.0,), azimuth_step=2 * math.pi / 8,
        azimuth_offset=0.0, ground_returns=False,
    )
    near = Actor(0, "vehicle", RotatedBox2D(12.0, 0.0, 4.0, 2.0, 0.0), 2.5, (MotionSegment(5, 0, 0),))
    far = Actor(1, "vehicle", RotatedBox2D(22.0, 0.0, 4.0, 2.0, 0.0), 2.5, (MotionSegment(5, 0, 0),))
    scene = Scene((near, far), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 50.0, 5.0)
    sweep = simulate_sweep(scene, sensor, 0.0)
    assert len(sweep.points) == 1
    assert abs(sweep.points.range[0] - 10.0) < 1e-9


def test_sweep_ranges_equal_distance_and_no_interior_points():
    scene = build_scene(SceneConfig(vehicles=3, pedestrians=2, bicyclists=1, seed=5))
    sensor = small_sensor()
    sweep = simulate_sweep(scene, sensor, 0.0)
    assert len(sweep.points) > 0
    origin = np.array([0.0, 0.0, sensor.mount_height])
    dist = np.linalg.norm(sweep.points.xyz - origin, axis=1)
    assert np.max(np.abs(dist - sweep.points.range)) < 1e-6
    # returns lie on surfaces, never strictly inside a box interior
    for actor in scene.actors:
        inside = points_in_box(sweep.points.xyz[:, :2], _shrunk(actor.box))
        above = (sweep.points.z > 1e-6) & (sweep.points.z < actor.height - 1e-6)
        assert not np.any(inside & above)
    assert np.all(sweep.points.intensity >= 0) and np.all(sweep.points.intensity <= 1)
    assert np.all(sweep.points.azimuth >= 0) and np.all(sweep.points.azimuth < 2 * math.pi)


def _shrunk(box, eps=1e-6):
    return RotatedBox2D(box.cx, box.cy, max(box.length - 2 * eps, 1e-9),
                        max(box.width - 2 * eps, 1e-9), box.heading)


def test_sweep_ground_returns_toggle():
    scene = Scene((), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 30.0, 5.0)
    with_ground = simulate_sweep(scene, small_sensor(ground_returns=True), 0.0)
    assert len(with_ground.points) > 0
    assert np.max(np.abs(with_ground.points.z)) < 1e-9


def test_sweep_deterministic_and_rv_roundtrip_unique():
    scene = build_scene(SceneConfig(seed=9))
    sensor = small_sensor()
    a = simulate_sweep(scene, sensor, 0.2)
    b = simulate_sweep(scene, sensor, 0.2)
    for f in ("x", "y", "z", "range", "intensity", "azimuth", "laser"):
        assert np.array_equal(getattr(a.points, f), getattr(b.points, f))
    rv = rv_spec_for(sensor)
    rows, cols = rv_cells_of(a.points.laser, a.points.azimuth, rv)
    lin = rows * rv.cols + cols
    assert len(np.unique(lin)) == len(lin)


def test_default_sensor_matches_rv_raster():
    sensor = sensor_64_beam()
    rv = rv_spec_for(sensor)
    assert (rv.rows, rv.cols) == (64, 2048)


# ---------------------------------------------------------------------------
# render_camera
# ---------------------------------------------------------------------------

def _test_camera():
    return CameraModel.from_fov(256, 192, 90.0, mount_height=1.6)


def test_render_empty_scene_uniform_sky():
    scene = Scene((), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 30.0, 5.0)
    img = render_camera(scene, _test_camera(), 0.0)
    assert img.data.shape == (192, 256, 3)
    assert np.all(img.data == np.array(SKY))


def test_render_on_axis_box_covers_principal_pixel():
    scene = single_actor_scene(RotatedBox2D(10.0, 0.0, 4.0, 2.0, 0.0), height=2.2)
    cam = _test_camera()
    img = render_camera(scene, cam, 0.0)
    principal = img.data[int(cam.cy), int(cam.cx)]
    assert not np.allclose(principal, SKY)


def test_render_blob_width_matches_pinhole():
    cam = _test_camera()
    # slim pedestrian: front face at 5 m, width 0.6 m
    box = RotatedBox2D(5.3, 0.0, 0.6, 0.6, 0.0)
    scene = single_actor_scene(box, cls="pedestrian", height=1.9)
    img = render_camera(scene, cam, 0.0)
    row = img.data[int(cam.cy)]
    non_sky = ~np.all(row == np.array(SKY), axis=1)
    expected = cam.fx * 0.6 / 5.0
    assert abs(int(non_sky.sum()) - expected) <= 2.0


def test_render_deterministic():
    scene = build_scene(SceneConfig(seed=4))
    a = render_camera(scene, _test_camera(), 0.1)
    b = render_camera(scene, _test_camera(), 0.1)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("camera_of", ["desk", "test"])
@pytest.mark.parametrize("block_rows", [1, 7, 45])
def test_render_in_row_blocks_equals_the_whole_image(monkeypatch, camera_of, block_rows):
    # rays are cast in blocks of image rows; the image is the same, bit for
    # bit, whatever the blocks, also when the last block is a short one
    # (192 and the desk camera's rows are no multiple of 7 or 45)
    from mvfusion.presets import get_preset

    if camera_of == "desk":
        preset = get_preset("desk")
        world, cam = build_scene(replace(preset.scene, seed=1000)), preset.camera
    else:
        world, cam = build_scene(SceneConfig(seed=4)), _test_camera()
    assert cam.cropped_height % 7 and cam.cropped_height % 45
    images = []
    for chunk in (2**40, block_rows * cam.width * 3 * 8):
        monkeypatch.setattr(scene, "CHUNK_BYTES", chunk)
        images.append(render_camera(world, cam, 0.9).data)
    whole, blocked = images
    assert whole.shape == (cam.cropped_height, cam.width, 3)
    assert whole.tobytes() == blocked.tobytes() and not np.all(whole == np.array(SKY))


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def test_labels_static_actor():
    box = RotatedBox2D(8.0, 3.0, 4.0, 1.8, 0.5)
    scene = single_actor_scene(box)
    labels = scene_labels(scene, 0.0, 30)
    (lab,) = labels.labels
    assert np.allclose(lab.centers, [[8.0, 3.0]] * 31)
    assert np.allclose(lab.headings, 0.5)
    assert lab.box.length == 4.0 and lab.box.width == 1.8


def test_labels_constant_velocity_displacement():
    # waypoint h is displaced v * (h / 10 Hz) along the motion direction
    box = RotatedBox2D(5.0, 0.0, 4.0, 1.8, 0.0)
    for speed in (1.0, 10.0):
        actor = Actor(0, "vehicle", box, 1.7, (MotionSegment(5.0, speed, 0.0),))
        scene = Scene((actor,), MapGeometry.empty(), (MotionSegment(5.0, 0.0, 0.0),), 0, 60.0, 5.0)
        labels = scene_labels(scene, 0.0, 30)
        (lab,) = labels.labels
        assert lab.centers[30, 0] - lab.centers[0, 0] == pytest.approx(speed * 3.0)
        assert lab.centers[0, 0] == pytest.approx(5.0)


def test_labels_moving_ego_frame_composition_oracle():
    box = RotatedBox2D(10.0, 4.0, 4.0, 1.8, 0.3)
    actor = Actor(0, "vehicle", box, 1.7, (MotionSegment(5.0, 3.0, 0.1),))
    scene = Scene((actor,), MapGeometry.empty(), (MotionSegment(5.0, 2.0, 0.05),), 0, 60.0, 5.0)
    t0 = 0.4
    labels = scene_labels(scene, t0, 10)
    (lab,) = labels.labels
    ego = ego_pose_at(scene, t0)
    for h in range(11):
        world = actor_pose_at(actor, t0 + 0.1 * h)
        # independent re-expression: rotate the world offset by -ego.yaw
        dx, dy = world.tx - ego.tx, world.ty - ego.ty
        c, s = math.cos(-ego.yaw), math.sin(-ego.yaw)
        assert lab.centers[h, 0] == pytest.approx(c * dx - s * dy, abs=1e-9)
        assert lab.centers[h, 1] == pytest.approx(s * dx + c * dy, abs=1e-9)
        assert math.remainder(lab.headings[h] - (world.yaw - ego.yaw), 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_labels_horizon_bounds():
    scene = single_actor_scene(RotatedBox2D(8.0, 3.0, 4.0, 1.8, 0.0), duration=2.0)
    with pytest.raises(ValueError):
        scene_labels(scene, 0.0, 30)  # needs 3 s
    scene_labels(scene, 0.0, 20)


def test_labels_deterministic():
    scene = build_scene(SceneConfig(seed=21))
    a = scene_labels(scene, 0.1, 30)
    b = scene_labels(scene, 0.1, 30)
    for la, lb in zip(a.labels, b.labels):
        assert np.array_equal(la.centers, lb.centers)
        assert np.array_equal(la.headings, lb.headings)


# ---------------------------------------------------------------------------
# map polygon simplicity
# ---------------------------------------------------------------------------

_OFFSETS = st.sampled_from([0.0, 1e6, -1e6, 0.1, -12345.678]) | st.floats(-1e6, 1e6)


@st.composite
def _polygons(draw):
    """Small polygons rich in touching, shared and collinear edges, offset by up to 1e6."""
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["lattice", "line", "free"]))
    if kind == "lattice":  # a 4x4 lattice: repeated vertices, touching and overlapping edges
        pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    elif kind == "line":  # nearly collinear: float rounding alone decides the side
        slope = draw(st.sampled_from([0.0, 0.1, 0.3, 1 / 3, -2.7, 1e-9]))
        ts = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        bumps = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 0.5]), min_size=n, max_size=n))
        pts = [(t, slope * t + bump) for t, bump in zip(ts, bumps)]
    else:
        coord = st.floats(-10, 10, allow_nan=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 1e-3, 7.3]))
    x0, y0 = draw(_OFFSETS), draw(_OFFSETS)
    return np.array([(x0 + scale * x, y0 + scale * y) for x, y in pts])


@settings(max_examples=1000, deadline=None)
@given(_polygons(), st.sampled_from([1, 3, 1 << 16]))
def test_polygon_is_simple_matches_the_pairwise_loop(pts, pairs_per_block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene, "_EDGE_PAIR_BLOCK", pairs_per_block)
        assert scene._polygon_is_simple(pts) == polygon_is_simple_pairwise(pts)


def _regular_polygon(n, radius=10.0):
    angle = 2 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def _zigzag(n):
    """n vertices alternating between x = 0 and x = 1, closed through x = 2:
    every zigzag edge spans the same unit x-interval."""
    k = np.arange(n)
    return np.vstack([np.stack([k % 2, k], axis=1), [(2, n - 1), (2, 0)]]).astype(float)


@pytest.mark.parametrize("pts,simple", [
    ([(0, 0), (2, 0), (2, 2), (0, 2)], True),
    ([(0, 0), (2, 2), (2, 0), (0, 2)], False),  # bow tie
    ([(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)], True),  # two edges touch at a vertex
    ([(0, 0), (4, 0), (4, 2), (2, 0), (2, 3), (0, 3)], True),  # a vertex on another edge
    ([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 2), (0, 2)], True),  # collinear overlapping edges
    (_regular_polygon(1000), True),
    (_regular_polygon(1000)[[*range(500), 501, 500, *range(502, 1000)]], False),
    (_zigzag(10_000), True),
    (_zigzag(10_000)[[*range(5000), 5002, 5001, 5000, *range(5003, 10_002)]], False),  # edges cross at (0.5, 5000.5)
])
def test_polygon_is_simple_known_shapes(pts, simple):
    assert scene._polygon_is_simple(np.asarray(pts, dtype=float)) == simple
    if len(pts) < 100:
        assert polygon_is_simple_pairwise(pts) == simple


def test_map_rejects_a_non_finite_vertex():
    layers = {name: [] for name in scene.LAYER_NAMES}
    layers["crosswalks"].append((scene.POLYGON, np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]])))
    with pytest.raises(ValueError, match="non-finite"):
        MapGeometry(layers)
