import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion import metrics
from mvfusion.geometry import Pose2, RotatedBox2D, rotated_iou, transform_box
from mvfusion.metrics import (
    MAX_DETECTIONS_PER_CLASS,
    DetBox,
    MatchResult,
    RecallUnattainableError,
    average_precision,
    decode_detections,
    displacement_error,
    evaluate_frames,
    filter_camera_fov,
    in_camera_fov,
    match_detections,
    operating_threshold_for_recall,
)
from mvfusion.network import CellOutputs
from mvfusion.oracles import Point3, camera_pixel_of, decode_detections_literal, monte_carlo_iou
from mvfusion.presets import get_preset
from mvfusion.scene import ActorLabel
from mvfusion.views import CameraModel, OutputGrid


def _det(cls="vehicle", score=0.9, box=None, waypoints=None, horizon=30):
    box = box or RotatedBox2D(5.0, 0.0, 4.0, 2.0, 0.0)
    if waypoints is None:
        waypoints = np.tile([box.cx, box.cy], (horizon, 1))
    return DetBox(cls, score, box, np.asarray(waypoints, dtype=float), np.zeros(len(waypoints)))


def _label(cls="vehicle", box=None, horizon=30):
    box = box or RotatedBox2D(5.0, 0.0, 4.0, 2.0, 0.0)
    centers = np.tile([box.cx, box.cy], (horizon + 1, 1))
    return ActorLabel(0, cls, box, centers, np.full(horizon + 1, box.heading))


# ---------------------------------------------------------------------------
# rotated IoU
# ---------------------------------------------------------------------------

def test_iou_identical_and_disjoint():
    a = RotatedBox2D(1.0, 2.0, 4.0, 2.0, 0.7)
    assert rotated_iou(a, a) == pytest.approx(1.0, abs=1e-12)
    b = RotatedBox2D(100.0, 100.0, 4.0, 2.0, 0.0)
    assert rotated_iou(a, b) == 0.0


def test_iou_offset_unit_squares_exact():
    a = RotatedBox2D(0.0, 0.0, 1.0, 1.0, 0.0)
    b = RotatedBox2D(0.5, 0.0, 1.0, 1.0, 0.0)
    assert rotated_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_nested_boxes_area_ratio():
    outer = RotatedBox2D(0.0, 0.0, 4.0, 4.0, 0.3)
    inner = RotatedBox2D(0.0, 0.0, 2.0, 1.0, 0.3)
    assert rotated_iou(outer, inner) == pytest.approx(2.0 / 16.0, abs=1e-12)


def test_iou_degenerate_box_is_zero():
    a = RotatedBox2D(0.0, 0.0, 1e-7, 1e-7, 0.0)
    b = RotatedBox2D(0.0, 0.0, 1.0, 1.0, 0.0)
    assert rotated_iou(a, b) == 0.0


def test_iou_matches_monte_carlo():
    rng = np.random.default_rng(3)
    for k in range(20):
        a = RotatedBox2D(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.8, 4), rng.uniform(0.8, 3), rng.uniform(-3, 3))
        b = RotatedBox2D(a.cx + rng.uniform(-2, 2), a.cy + rng.uniform(-2, 2), rng.uniform(0.8, 4), rng.uniform(0.8, 3), rng.uniform(-3, 3))
        mc = monte_carlo_iou(a, b, samples=200_000, seed=100 + k)
        assert abs(rotated_iou(a, b) - mc) < 0.01


boxes = st.builds(
    RotatedBox2D,
    st.floats(-5, 5), st.floats(-5, 5), st.floats(0.5, 6.0), st.floats(0.5, 4.0), st.floats(-3.1, 3.1),
)


@settings(max_examples=150)
@given(boxes, boxes)
def test_iou_symmetric_and_bounded(a, b):
    ab = rotated_iou(a, b)
    ba = rotated_iou(b, a)
    assert abs(ab - ba) < 1e-9
    assert 0.0 <= ab <= 1.0


@settings(max_examples=80)
@given(boxes, boxes, st.floats(-20, 20), st.floats(-20, 20), st.floats(-3.1, 3.1))
def test_iou_rigid_motion_equivariant(a, b, tx, ty, yaw):
    pose = Pose2(tx, ty, yaw)
    before = rotated_iou(a, b)
    after = rotated_iou(transform_box(a, pose), transform_box(b, pose))
    assert abs(before - after) < 1e-9


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def _outputs_one_cell(score=0.9, offset=(0.2, -0.1), size=(4.0, 2.0), heading=0.4, horizon=3):
    og = OutputGrid(rows=4, cols=4, x_min=-8.0, y_min=-8.0, step_x=4.0, step_y=4.0)
    classes = ("vehicle",)
    h1 = horizon + 1
    prob = {"vehicle": np.full((4, 4), 1e-4)}
    sizes = {"vehicle": np.zeros((4, 4, 2))}
    centers = {"vehicle": np.zeros((4, 4, h1, 2))}
    headings = {"vehicle": np.zeros((4, 4, h1, 2))}
    headings["vehicle"][..., 1] = 1.0
    prob["vehicle"][2, 1] = score
    sizes["vehicle"][2, 1] = size
    centers["vehicle"][2, 1, :, 0] = offset[0]
    centers["vehicle"][2, 1, :, 1] = offset[1]
    headings["vehicle"][2, 1, :, 0] = math.sin(heading)
    headings["vehicle"][2, 1, :, 1] = math.cos(heading)
    return CellOutputs(og, horizon, classes, prob, sizes, centers, headings)


def test_decode_single_cell_exact_parameters():
    out = _outputs_one_cell()
    dets = decode_detections(out, score_floor=0.5)
    assert len(dets) == 1
    d = dets[0]
    # cell (2, 1) center: (-8 + 2.5*4, -8 + 1.5*4) = (2, -2)
    assert d.box.cx == pytest.approx(2.2)
    assert d.box.cy == pytest.approx(-2.1)
    assert d.box.length == 4.0 and d.box.width == 2.0
    assert d.box.heading == pytest.approx(0.4, abs=1e-12)
    assert d.score == pytest.approx(0.9)
    assert d.waypoints.shape == (3, 2)
    assert np.allclose(d.waypoints, [[2.2, -2.1]] * 3)


def test_decode_nms_suppresses_duplicates():
    out = _outputs_one_cell()
    # adjacent cell decoding to the same absolute box, lower score
    out.prob["vehicle"][2, 2] = 0.8
    out.size["vehicle"][2, 2] = (4.0, 2.0)
    out.centers["vehicle"][2, 2, :, 0] = 0.2
    out.centers["vehicle"][2, 2, :, 1] = -0.1 - 4.0  # shift back to cell (2,1)'s box
    out.headings["vehicle"][2, 2, :, 0] = math.sin(0.4)
    out.headings["vehicle"][2, 2, :, 1] = math.cos(0.4)
    dets = decode_detections(out, score_floor=0.5)
    assert len(dets) == 1
    assert dets[0].score == pytest.approx(0.9)


def test_decode_score_floor():
    out = _outputs_one_cell(score=0.4)
    assert decode_detections(out, score_floor=0.5) == []
    assert len(decode_detections(out, score_floor=0.3)) == 1


def _same_detections(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert repr((g.cls, g.score, g.box, g.cell)) == repr((w.cls, w.score, w.box, w.cell))
        assert g.waypoints.tobytes() == w.waypoints.tobytes()
        assert g.headings.tobytes() == w.headings.tobytes()


@st.composite
def cell_outputs(draw):
    """Small random outputs: dense overlapping boxes, tied scores, touching
    circumcircles and centers shifted as far as 1e6 m."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    horizon = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.5, 1.0, 4.0]))
    classes = ("vehicle", "pedestrian")[:draw(st.integers(1, 2))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side_scale = draw(st.sampled_from([0.01, 0.5, 1.0, 3.0, 10.0]))
    jitter = draw(st.sampled_from([0.0, 0.3, 2.0]))
    shift = draw(st.sampled_from([0.0, 1e3, -1e6, 1e6]))
    touching = draw(st.booleans())
    og = OutputGrid(rows, cols, -rows * step / 2, -cols * step / 2, step, step)
    h1 = horizon + 1
    prob, sizes, centers, headings = {}, {}, {}, {}
    for cls in classes:
        # few distinct levels, so equal scores are common
        prob[cls] = rng.choice([0.3, 0.55, 0.7, 0.7, 0.9], size=(rows, cols))
        if touching:
            # 0.6 x 0.8 sides: adjacent circumcircles meet exactly at one step
            sizes[cls] = np.broadcast_to([0.6 * step, 0.8 * step], (rows, cols, 2)).copy()
            sizes[cls][rng.uniform(size=(rows, cols)) < 0.3] = 0.0  # clamped to the minimum side
        else:
            sizes[cls] = rng.uniform(-0.2, 1.0, size=(rows, cols, 2)) * side_scale * step
        centers[cls] = shift + rng.normal(0.0, jitter * step, size=(rows, cols, h1, 2))
        ang = rng.uniform(-math.pi, math.pi, size=(rows, cols, h1))
        headings[cls] = np.stack([np.sin(ang), np.cos(ang)], axis=3)
        if touching:
            headings[cls][..., 0] = rng.choice([0.0, 1.0], size=(rows, cols, h1))
            headings[cls][..., 1] = 1.0 - headings[cls][..., 0]
    return CellOutputs(og, horizon, classes, prob, sizes, centers, headings)


@settings(max_examples=150, deadline=None)
@given(cell_outputs(), st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.5]))
def test_decode_equals_literal_nms(outputs, nms_iou):
    want = decode_detections_literal(outputs, 0.5, nms_iou)
    _same_detections(decode_detections(outputs, 0.5, nms_iou), want)


def test_decode_suppresses_small_box_beyond_its_own_diameter():
    # a 1 x 1 box 1.45 m along x inside a 3.9 x 2.5 box: farther than the
    # small box's diameter (1.41 m), within the circumradius sum; IoU 1/9.75
    out = _outputs_one_cell(score=0.9, offset=(0.0, 0.0), size=(3.9, 2.5), heading=0.0)
    out.prob["vehicle"][3, 1] = 0.8
    out.size["vehicle"][3, 1] = (1.0, 1.0)
    out.centers["vehicle"][3, 1, :, 0] = 1.45 - 4.0  # cell (3, 1) is 4 m from cell (2, 1)
    out.headings["vehicle"][3, 1, :, 1] = 1.0
    dets = decode_detections(out, nms_iou=0.1)
    _same_detections(dets, decode_detections_literal(out, 0.5, 0.1))
    assert [d.cell for d in dets] == [(2, 1)]


def _dense_grid_outputs(n=32, side=1000.0):
    """Every cell of an n x n grid above the floor; boxes of one size, centered on their cells."""
    og = OutputGrid(n, n, 0.0, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(11)
    classes = ("vehicle", "bicyclist")
    prob = {c: rng.choice([0.6, 0.7, 0.8, 0.9], size=(n, n)) for c in classes}
    sizes = {c: np.full((n, n, 2), side) for c in classes}
    centers = {c: np.zeros((n, n, 2, 2)) for c in classes}
    headings = {c: np.zeros((n, n, 2, 2)) for c in classes}
    for c in classes:
        headings[c][..., 1] = 1.0
    return CellOutputs(og, 1, classes, prob, sizes, centers, headings)


def _ranked_cells(p):
    return sorted(np.ndindex(*p.shape), key=lambda rc: (-p[rc], rc))


def _count_iou_calls(monkeypatch):
    calls = []

    def counting_iou(a, b):
        calls.append(a)
        return rotated_iou(a, b)

    monkeypatch.setattr(metrics, "rotated_iou", counting_iou)
    return calls


def test_decode_keeps_top_ranked_disjoint_boxes_up_to_cap(monkeypatch):
    # 1,024 disjoint 0.5 m boxes per class: the literal loop keeps them all
    out = _dense_grid_outputs(side=0.5)
    calls = _count_iou_calls(monkeypatch)
    dets = decode_detections(out)
    assert MAX_DETECTIONS_PER_CLASS == 500
    for cls in out.classes:
        kept = [d.cell for d in dets if d.cls == cls]
        assert kept == _ranked_cells(out.prob[cls])[:MAX_DETECTIONS_PER_CLASS]
    assert calls == []  # no circumcircles meet


def test_decode_bounded_work_on_overlapping_outputs(monkeypatch):
    # 1,024 huge boxes per class over one spot: the top-ranked one
    # suppresses the rest, each after a single IoU test
    out = _dense_grid_outputs(side=1000.0)
    calls = _count_iou_calls(monkeypatch)
    dets = decode_detections(out)
    for cls in out.classes:
        assert [d.cell for d in dets if d.cls == cls] == _ranked_cells(out.prob[cls])[:1]
    assert len(calls) == 2 * (32 * 32 - 1)
    _same_detections(dets, decode_detections_literal(out, 0.5, 0.3))


def test_decode_keeps_every_object_beyond_cap_candidates():
    # four fitted 4.48 x 1.92 m vehicles on 0.16 m cells: 28 x 12 equally
    # scored cells each, 1,344 candidates, all decoding to their object's
    # box. The top 500 cells by (score, row, col) cover only two of them.
    og = OutputGrid(rows=120, cols=40, x_min=0.0, y_min=0.0, step_x=0.16, step_y=0.16)
    xs, ys = og.cell_centers()
    prob = np.full((120, 40), 1e-3)
    sizes = np.full((120, 40, 2), 0.1)
    centers = np.zeros((120, 40, 2, 2))
    headings = np.zeros((120, 40, 2, 2))
    headings[..., 1] = 1.0
    objects = [(0.16 * (row0 + 14), 0.16 * 20) for row0 in (0, 30, 60, 90)]
    for row0, (ox, oy) in zip((0, 30, 60, 90), objects):
        block = (slice(row0, row0 + 28), slice(14, 26))
        prob[block] = 0.9
        sizes[block] = (4.48, 1.92)
        centers[block + (slice(None), 0)] = ox - xs[block[0], None, None]
        centers[block + (slice(None), 1)] = oy - ys[None, block[1], None]
    out = CellOutputs(og, 1, ("vehicle",), {"vehicle": prob}, {"vehicle": sizes},
                      {"vehicle": centers}, {"vehicle": headings})
    assert np.count_nonzero(prob >= 0.5) > MAX_DETECTIONS_PER_CLASS
    dets = decode_detections(out)
    assert [d.cell for d in dets] == [(0, 14), (30, 14), (60, 14), (90, 14)]
    for det, (ox, oy) in zip(dets, objects):
        assert (det.box.cx, det.box.cy) == pytest.approx((ox, oy))


@pytest.mark.parametrize("field, value", [
    ("size", math.nan), ("size", math.inf), ("centers", math.nan),
    ("centers", -math.inf), ("headings", math.nan),
])
def test_decode_non_finite_raises_value_error(field, value):
    out = _dense_grid_outputs(n=8, side=2.0)
    getattr(out, field)["vehicle"][3, 4] = value
    out.prob["vehicle"][3, 4] = 0.99
    with pytest.raises(ValueError):
        decode_detections(out)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_match_perfect_one_to_one():
    gts = [RotatedBox2D(0, 0, 4, 2, 0), RotatedBox2D(10, 0, 4, 2, 0)]
    dets = [_det(score=0.9, box=gts[0]), _det(score=0.8, box=gts[1])]
    m = match_detections(dets, gts, iou_thresh=0.7)
    assert m.tp.all()
    assert int(m.tp.sum()) == m.n_gt


def test_match_duplicate_detection():
    gt = [RotatedBox2D(0, 0, 4, 2, 0)]
    dets = [_det(score=0.9, box=gt[0]), _det(score=0.8, box=gt[0])]
    m = match_detections(dets, gt, iou_thresh=0.7)
    assert m.tp.tolist() == [True, False]


def test_match_crafted_competition():
    # det A (highest) overlaps gt1 best; det B then must take gt2; det C unmatched
    gt1 = RotatedBox2D(0.0, 0.0, 4.0, 2.0, 0.0)
    gt2 = RotatedBox2D(5.0, 0.0, 4.0, 2.0, 0.0)
    det_a = _det(score=0.9, box=RotatedBox2D(0.5, 0.0, 4.0, 2.0, 0.0))
    det_b = _det(score=0.8, box=RotatedBox2D(2.5, 0.0, 4.0, 2.0, 0.0))  # overlaps both
    det_c = _det(score=0.7, box=RotatedBox2D(0.2, 0.0, 4.0, 2.0, 0.0))
    m = match_detections([det_a, det_b, det_c], [gt1, gt2], iou_thresh=0.1)
    assert m.tp.tolist() == [True, True, False]
    assert m.matched_gt.tolist() == [0, 1, -1]


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def _match_from(scores, tps, n_gt):
    return MatchResult(np.asarray(scores, dtype=float), np.asarray(tps, dtype=bool),
                       np.where(tps, 0, -1).astype(np.int64), n_gt)


def test_ap_perfect_and_empty():
    assert average_precision([_match_from([0.9, 0.8], [True, True], 2)]) == 1.0
    assert average_precision([_match_from([], [], 2)]) == 0.0


def test_ap_hand_enumerated_case():
    m = _match_from([0.9, 0.8, 0.7], [True, False, True], 2)
    assert average_precision([m]) == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-9)


def test_ap_invariant_to_monotone_score_transform():
    rng = np.random.default_rng(5)
    scores = np.sort(rng.uniform(0.1, 0.9, size=12))[::-1]
    tps = rng.uniform(size=12) < 0.5
    base = average_precision([_match_from(scores, tps, 8)])
    squeezed = average_precision([_match_from(scores ** 3, tps, 8)])
    assert base == pytest.approx(squeezed, abs=1e-12)


def test_ap_appending_low_fp_never_increases():
    m = _match_from([0.9, 0.8, 0.7], [True, False, True], 3)
    base = average_precision([m])
    worse = _match_from([0.9, 0.8, 0.7, 0.1], [True, False, True, False], 3)
    assert average_precision([worse]) <= base + 1e-12


def test_ap_pools_across_frames():
    a = _match_from([0.9], [True], 1)
    b = _match_from([0.8, 0.7], [False, True], 1)
    pooled = average_precision([a, b])
    assert pooled == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-9)


def test_ap_perfect_detector_is_exactly_one_for_every_label_count():
    # summing recall steps of 1/n rounded to 0.9999999999999999 at n = 24, 86, 90, ...
    for n in range(1, 401):
        assert average_precision([_match_from(np.linspace(0.9, 0.1, n), [True] * n, n)]) == 1.0


def _ap_by_recall_steps(results):
    """All-point AP as the sum of recall steps times the precision envelope."""
    scores = np.concatenate([r.scores for r in results])
    tp = np.concatenate([r.tp for r in results])[np.argsort(-scores, kind="stable")]
    n_gt = sum(r.n_gt for r in results)
    cum_tp = np.cumsum(tp)
    recall = cum_tp / n_gt
    envelope = np.maximum.accumulate((cum_tp / (cum_tp + np.cumsum(~tp)))[::-1])[::-1]
    return float(np.sum((recall - np.concatenate([[0.0], recall[:-1]])) * envelope))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=40),
                min_size=1, max_size=4),
       st.integers(0, 20))
def test_ap_matches_the_recall_step_sum(frames, extra_gt):
    results = []
    for dets in frames:
        scores, tps = zip(*sorted(dets, key=lambda d: -d[0]))
        results.append(_match_from(scores, list(tps), sum(tps) + extra_gt))
    if sum(r.n_gt for r in results) == 0:
        return
    assert average_precision(results) == pytest.approx(_ap_by_recall_steps(results), abs=1e-12)


# ---------------------------------------------------------------------------
# operating threshold and displacement error
# ---------------------------------------------------------------------------

def test_threshold_enumerated_example():
    m = _match_from([0.9, 0.8, 0.7, 0.6, 0.5], [True] * 5, 5)
    assert operating_threshold_for_recall([m], 0.8) == pytest.approx(0.6)


def test_threshold_single_tp():
    m = _match_from([0.77], [True], 1)
    assert operating_threshold_for_recall([m], 0.8) == pytest.approx(0.77)
    assert operating_threshold_for_recall([m], 1.0) == pytest.approx(0.77)


def test_threshold_unattainable():
    m = _match_from([0.9, 0.8], [True, False], 2)
    with pytest.raises(RecallUnattainableError):
        operating_threshold_for_recall([m], 0.8)


def test_displacement_error_cases():
    gt = _label()
    perfect = _det()
    assert displacement_error([(perfect, gt)], horizon=30) == 0.0
    off1 = _det(waypoints=np.tile([6.0, 0.0], (30, 1)))
    assert displacement_error([(off1, gt)], horizon=30) == pytest.approx(100.0)
    off_half = _det(waypoints=np.tile([5.5, 0.0], (30, 1)))
    off_15 = _det(waypoints=np.tile([6.5, 0.0], (30, 1)))
    assert displacement_error([(off_half, gt), (off_15, gt)], horizon=30) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        displacement_error([], horizon=30)


# ---------------------------------------------------------------------------
# camera FOV slicing
# ---------------------------------------------------------------------------

def _front_cam(hfov=90.0):
    return CameraModel.from_fov(640, 480, hfov, mount_height=1.6)


def test_fov_excludes_rear_actor():
    cam = _front_cam()
    behind = _label(box=RotatedBox2D(-10.0, 0.0, 4.0, 2.0, 0.0))
    ahead = _label(box=RotatedBox2D(30.0, 0.0, 4.0, 2.0, 0.0))
    parts = filter_camera_fov([behind, ahead], cam, [(0, 25), (25, 50)])
    assert parts["fov"] == [ahead]
    assert parts["fov_0m-25m"] == []
    assert parts["fov_25m-50m"] == [ahead]


def test_fov_boundary_consistent_with_pixel_projector():
    cam = _front_cam(90.0)
    for azimuth_deg in (44.0, 44.9, 45.0, 45.1, 46.0, -44.9, -45.1):
        a = math.radians(azimuth_deg)
        box = RotatedBox2D(20 * math.cos(a), 20 * math.sin(a), 4.0, 2.0, 0.0)
        pix = camera_pixel_of(Point3(box.cx, box.cy, cam.mount_height), cam)
        assert in_camera_fov(box, cam) == (pix is not None)


def test_fov_unrestricted_camera_is_identity():
    items = [
        _label(box=RotatedBox2D(-10.0, 0.0, 4.0, 2.0, 0.0)),
        _label(box=RotatedBox2D(10.0, 5.0, 4.0, 2.0, 0.0)),
    ]
    parts = filter_camera_fov(items, None)
    assert parts["fov"] == items


# ---------------------------------------------------------------------------
# frame evaluation and latency
# ---------------------------------------------------------------------------

DESK = get_preset("desk")


def test_evaluate_frames_perfect_detections():
    gt_v = _label(box=RotatedBox2D(10.0, 0.0, 4.0, 2.0, 0.0))
    gt_p = _label(cls="pedestrian", box=RotatedBox2D(8.0, 2.0, 0.6, 0.6, 0.0))
    dets = [
        _det(score=0.95, box=gt_v.box),
        _det(cls="pedestrian", score=0.9, box=gt_p.box),
    ]
    report = evaluate_frames([(dets, [gt_v, gt_p])], horizon=DESK.horizon, camera=_front_cam(),
                             range_bands=DESK.range_bands)
    v = report.sections["vehicle.full"]
    assert v["ap"] == 1.0
    assert v["operating_threshold"] == pytest.approx(0.95)
    assert v["de_cm"] == 0.0
    assert report.sections["pedestrian.full"]["ap"] == 1.0
    assert report.sections["bicyclist.full"]["ap"] == 0.0
    assert "vehicle.fov_0m-25m" in report.sections
    text = report.to_text()
    assert "[vehicle.full]" in text and "de_cm" in text
    for section in report.sections.values():
        assert all(np.isfinite(v) for v in section.values())


def test_evaluate_de_ignores_below_threshold_detections():
    gt = _label(box=RotatedBox2D(10.0, 0.0, 4.0, 2.0, 0.0))
    tp = _det(score=0.9, box=gt.box)
    frames = [([tp], [gt])]
    base = evaluate_frames(frames, horizon=DESK.horizon, camera=None, range_bands=DESK.range_bands)
    junk = _det(score=0.2, box=RotatedBox2D(40.0, 20.0, 4.0, 2.0, 0.0),
                waypoints=np.tile([0.0, 0.0], (30, 1)))
    with_junk = evaluate_frames([([tp, junk], [gt])], horizon=DESK.horizon, camera=None,
                                range_bands=DESK.range_bands)
    assert base.sections["vehicle.full"]["de_cm"] == with_junk.sections["vehicle.full"]["de_cm"]
