"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values are frozen from the independent oracles in
mvfusion.oracles (literal pooling loops, sextuple-loop convolution, central
finite differences, Monte-Carlo IoU, hand-enumerated PR curves).
"""
import math
import time

import numpy as np
import pytest

from mvfusion.cli import main as cli_main
from mvfusion.geometry import Pose2, RotatedBox2D, rotated_iou, transform_box, wrap_angle
from mvfusion.losses import encode_targets, fit_outputs, outputs_at_targets, total_loss
from mvfusion.metrics import (
    MatchResult,
    average_precision,
    decode_detections,
    displacement_error,
    match_detections,
    operating_threshold_for_recall,
)
from mvfusion.network import conv2d_raw
from mvfusion.oracles import (
    finite_difference_errors,
    monte_carlo_iou,
    naive_conv2d,
    project_reference,
    random_loss_frame,
    random_points,
)
from mvfusion.pipeline import generate_bundles
from mvfusion.presets import get_preset
from mvfusion.projection import grid_shape_of, project_features
from mvfusion.raster import build_rv_image, stack_history_bev
from mvfusion.scene import SceneConfig, build_scene, scene_labels, simulate_sweep
from mvfusion.views import CameraGeometry, CameraModel, FeatureMap, GridSpec, RvSpec

IOU_BY_CLASS = {"vehicle": 0.7, "pedestrian": 0.1, "bicyclist": 0.3}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def _simulate_history(preset, seed: int):
    cfg = SceneConfig(vehicles=3, pedestrians=2, bicyclists=1, extent=30.0, seed=seed,
                      duration=preset.sweep_count * preset.sweep_period + 3.5)
    scene = build_scene(cfg)
    return [
        simulate_sweep(scene, preset.sensor, i * preset.sweep_period)
        for i in range(preset.sweep_count)
    ]


def test_criterion_1_shape_fidelity():
    worst_frame_s = 0.0
    shapes = {}
    for name, want_bev, want_rv in (
        ("atg4d", (938, 625, 160), (64, 2048, 4)),
        ("nuscenes", (800, 800, 400), (32, 2048, 4)),
    ):
        preset = get_preset(name)
        sweeps = _simulate_history(preset, seed=1)
        start = time.perf_counter()
        stack = stack_history_bev(sweeps, preset.grid, expected_count=preset.sweep_count)
        rv = build_rv_image(sweeps[-1], preset.rv)
        worst_frame_s = max(worst_frame_s, time.perf_counter() - start)
        shapes[name] = (stack.data.shape, rv.data.shape)
        del stack
        assert shapes[name] == (want_bev, want_rv), shapes[name]
    ok = worst_frame_s < 5.0
    _report(1, "shape_fidelity", ok and shapes["atg4d"][0] == (938, 625, 160),
            f"{shapes}, worst {worst_frame_s:.2f}s")


def test_criterion_2_projection_oracle_equivalence():
    rng = np.random.default_rng(42)
    rv = RvSpec(6, 16)
    grid = GridSpec(6.0, 6.0, 2.0, 0.75, 0.75, 1.0, forward_fraction=0.5)
    cam = CameraModel.from_fov(32, 24, 100.0, mount_height=1.0)
    geom = CameraGeometry(cam, pixel_stride=8)
    sizes = [int(rng.integers(20, 400)) for _ in range(96)] + [10_000] * 4
    start = time.perf_counter()
    for trial, n in enumerate(sizes):
        pts = random_points(rng, n, rv.rows, spread=4.0)
        if trial % 2 == 0:
            source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 3)), rv)
            target = grid
        else:
            source = FeatureMap("camera", rng.normal(size=(*grid_shape_of(geom), 3)), geom)
            target = rv
        feats, validity = project_features(source, pts, target)
        ref_feats, ref_valid = project_reference(source, pts, target, grid_shape_of(target))
        assert np.array_equal(feats.data, ref_feats), f"trial {trial}"
        assert np.array_equal(validity.data[:, :, 0], ref_valid), f"trial {trial}"
    elapsed = time.perf_counter() - start
    _report(2, "eq1_oracle_equivalence", elapsed < 10.0,
            f"100 configurations bit-exact, {elapsed:.2f}s")


def test_criterion_3_convolution_oracle():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(70):
        if trial < 46 or trial >= 50:
            h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        else:
            h, w, cin, cout = 16, 16, 8, 8
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        data = rng.normal(size=(h, w, cin))
        kernel = rng.normal(size=(3, 3, cin, cout))
        bias = rng.normal(size=cout)
        if trial >= 50:  # sparse stride-1 instances: the occupied-pixel kernel
            stride = (1, 1)
            mask = rng.uniform(size=(h, w)) < 0.12
            mask[[0, -1], [0, -1]] = True
            data *= mask[:, :, None]
        got = conv2d_raw(data, kernel, bias, stride=stride)
        want = naive_conv2d(data, kernel, bias, stride, relu=True)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _report(3, "convolution_oracle", worst < 1e-10 and elapsed < 10.0,
            f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_rel, worst_abs = 0.0, 0.0
    for _ in range(10):
        outputs, targets = random_loss_frame(rng, 3, 3, horizon=30)
        rel, ab = finite_difference_errors(outputs, targets, step=1e-4)
        worst_rel = max(worst_rel, rel)
        worst_abs = max(worst_abs, ab)
    elapsed = time.perf_counter() - start
    _report(4, "gradient_correctness", worst_rel < 1e-4 and worst_abs < 1e-8 and elapsed < 60.0,
            f"rel {worst_rel:.2e}, abs {worst_abs:.2e}, {elapsed:.1f}s")


def test_criterion_5_loss_round_trip():
    start = time.perf_counter()
    # three actors, one per class, on a fine centered grid
    cfg = SceneConfig(vehicles=1, pedestrians=1, bicyclists=1, extent=7.0, seed=13, duration=4.0)
    scene = build_scene(cfg)
    grid = GridSpec(16.0, 16.0, 3.2, 0.25, 0.25, 0.8, forward_fraction=0.5)
    labels = scene_labels(scene, 0.0, 30)
    targets = encode_targets(labels, grid, output_stride=1, horizon=30)
    assert all(targets.fg[c].any() for c in targets.classes), "every class must encode"

    result = fit_outputs(targets, steps=1000, learning_rate=0.2, seed=0)
    dets = decode_detections(result.outputs, score_floor=0.5)

    half_cell = 0.5 * targets.grid.step_x
    worst_center, worst_heading_deg = 0.0, 0.0
    ap_by_class = {}
    for cls in targets.classes:
        cls_labels = [lab for lab in labels.labels if lab.cls == cls]
        cls_dets = [d for d in dets if d.cls == cls]
        match = match_detections(cls_dets, [lab.box for lab in cls_labels], IOU_BY_CLASS[cls])
        ap_by_class[cls] = average_precision([match])
        for rank, det_idx in enumerate(match.det_indices.tolist()):
            if not match.tp[rank]:
                continue
            det = cls_dets[det_idx]
            gt = cls_labels[int(match.matched_gt[rank])]
            worst_center = max(
                worst_center,
                math.hypot(det.box.cx - gt.box.cx, det.box.cy - gt.box.cy),
            )
            dh = abs(wrap_angle(det.box.heading - gt.box.heading))
            worst_heading_deg = max(worst_heading_deg, math.degrees(dh))

    # closed-form construction: one fg cell, constant 0.3 m x error at every h.
    # Oracle: the 31-term geometric sum evaluates to 20.3674381; with
    # smooth_l1(0.3) = 0.045 per horizon the center term is 0.9165347.
    oracle_value = sum(0.97 ** h * 0.5 * 0.3 * 0.3 for h in range(31))
    construction = outputs_at_targets(targets)
    r, c = np.argwhere(targets.fg["vehicle"])[0]
    construction.centers["vehicle"][r, c, :, 0] += 0.3
    got = float(total_loss(construction, targets, lam=0.97).per_class["vehicle"].center.sum())
    closed_form_ok = abs(got - oracle_value) < 1e-5

    elapsed = time.perf_counter() - start
    ok = (
        all(ap == 1.0 for ap in ap_by_class.values())
        and worst_center <= half_cell
        and worst_heading_deg <= 1.0
        and closed_form_ok
        and elapsed < 120.0
    )
    _report(5, "loss_round_trip", ok,
            f"ap {ap_by_class}, center {worst_center:.3f}m <= {half_cell}, "
            f"heading {worst_heading_deg:.3f}deg, center-term {got:.7f} vs {oracle_value:.7f}, "
            f"{elapsed:.1f}s")


def test_criterion_6_rotated_iou():
    start = time.perf_counter()
    a = RotatedBox2D(0.0, 0.0, 1.0, 1.0, 0.0)
    b = RotatedBox2D(0.5, 0.0, 1.0, 1.0, 0.0)
    exact_ok = abs(rotated_iou(a, b) - 1.0 / 3.0) < 1e-12

    rng = np.random.default_rng(6)
    worst_mc, worst_sym, worst_equiv = 0.0, 0.0, 0.0
    for k in range(200):
        p = RotatedBox2D(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.8, 5),
                         rng.uniform(0.8, 3), rng.uniform(-math.pi, math.pi))
        q = RotatedBox2D(p.cx + rng.uniform(-2.5, 2.5), p.cy + rng.uniform(-2.5, 2.5),
                         rng.uniform(0.8, 5), rng.uniform(0.8, 3), rng.uniform(-math.pi, math.pi))
        iou = rotated_iou(p, q)
        worst_mc = max(worst_mc, abs(iou - monte_carlo_iou(p, q, 1_000_000, seed=1000 + k)))
        worst_sym = max(worst_sym, abs(iou - rotated_iou(q, p)))
        pose = Pose2(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
        moved = rotated_iou(transform_box(p, pose), transform_box(q, pose))
        worst_equiv = max(worst_equiv, abs(iou - moved))
    elapsed = time.perf_counter() - start
    ok = exact_ok and worst_mc < 0.01 and worst_sym < 1e-9 and worst_equiv < 1e-9 and elapsed < 60.0
    _report(6, "rotated_iou", ok,
            f"mc gap {worst_mc:.4f}, sym {worst_sym:.1e}, equiv {worst_equiv:.1e}, {elapsed:.1f}s")


def test_criterion_7_metrics_protocol():
    start = time.perf_counter()
    m = MatchResult(np.array([0.9, 0.8, 0.7]), np.array([True, False, True]),
                    np.array([0, -1, 1]), 2)
    ap_ok = abs(average_precision([m]) - (0.5 + 0.5 * 2.0 / 3.0)) < 1e-9
    m5 = MatchResult(np.array([0.9, 0.8, 0.7, 0.6, 0.5]), np.ones(5, dtype=bool), np.arange(5), 5)
    thr_ok = operating_threshold_for_recall([m5], 0.8) == pytest.approx(0.6, abs=1e-12)

    from mvfusion.metrics import DetBox
    from mvfusion.scene import ActorLabel

    box = RotatedBox2D(5.0, 0.0, 4.0, 2.0, 0.0)
    gt = ActorLabel(0, "vehicle", box, np.tile([5.0, 0.0], (31, 1)), np.zeros(31))
    one_m = DetBox("vehicle", 0.9, box, np.tile([6.0, 0.0], (30, 1)), np.zeros(30))
    de_ok = displacement_error([(one_m, gt)], horizon=30) == 100.0
    half = DetBox("vehicle", 0.9, box, np.tile([5.5, 0.0], (30, 1)), np.zeros(30))
    mid = DetBox("vehicle", 0.9, box, np.tile([6.5, 0.0], (30, 1)), np.zeros(30))
    de_mixed_ok = displacement_error([(half, gt), (mid, gt)], horizon=30) == 100.0
    elapsed = time.perf_counter() - start
    ok = ap_ok and thr_ok and de_ok and de_mixed_ok and elapsed < 5.0
    _report(7, "metrics_protocol", ok, f"{elapsed:.2f}s")


def test_criterion_8_ablation_plumbing(tmp_path):
    start = time.perf_counter()
    out_l = tmp_path / "lmv"
    out_lc = tmp_path / "lcmv"
    for out, extra in ((out_l, ["--no-camera"]), (out_lc, [])):
        assert cli_main(["gen", "--preset", "desk", "--seed", "1", "--frames", "1",
                         "--out", str(out)]) == 0
        assert cli_main(["forward", "--preset", "desk", "--seed", "1", "--out", str(out), *extra]) == 0
        assert cli_main(["eval", "--preset", "desk", "--out", str(out)]) == 0

    def schema(path):
        lines = [l for l in path.read_text().splitlines()]
        sections = [l for l in lines if l.startswith("[")]
        keys = sorted({l.split(" = ")[0] for l in lines if " = " in l})
        return sections, keys

    schema_ok = schema(out_l / "metrics.txt")[0] == schema(out_lc / "metrics.txt")[0]

    # shape checks pass end-to-end: forward artifacts exist with the right lattice
    from mvfusion.pipeline import load_cell_outputs

    outputs = load_cell_outputs(out_l / "outputs_000.bin")
    lattice_ok = outputs.prob["vehicle"].shape == (24, 16)

    # rear actors are excluded from the camera-FOV slice in every scene
    from mvfusion.metrics import in_camera_fov

    preset = get_preset("desk")
    fov_ok = True
    checked_rear = 0
    for seed in range(10):
        _, bundles = generate_bundles(preset, seed=seed, frames=1)
        for lab in bundles[0].labels.labels:
            if lab.box.cx <= 0.0:  # at or behind the ego plane
                checked_rear += 1
                fov_ok = fov_ok and not in_camera_fov(lab.box, preset.camera)
    elapsed = time.perf_counter() - start
    ok = schema_ok and lattice_ok and fov_ok and checked_rear > 0 and elapsed < 30.0
    _report(8, "ablation_plumbing", ok,
            f"schema match, {checked_rear} rear actors excluded, {elapsed:.1f}s")


def test_criterion_9_selfcheck_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["selfcheck", "--out", str(out_a)]) == 0
    assert cli_main(["selfcheck", "--out", str(out_b)]) == 0
    report_a = (out_a / "selfcheck_report.txt").read_bytes()
    report_b = (out_b / "selfcheck_report.txt").read_bytes()
    ok = report_a == report_b and report_a.rstrip().endswith(b"selfcheck: PASS")
    _report(9, "selfcheck_determinism", ok, "bit-identical reports")
