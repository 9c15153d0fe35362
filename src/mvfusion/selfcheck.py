"""Built-in oracle and invariant suite behind the selfcheck subcommand.

Each check re-derives its expected values from an independent reference
implementation in oracles.py (literal pooling loops, sextuple-loop
convolution, finite differences, Monte-Carlo areas) and compares the
library's fast paths against them. Checks are deterministic: the produced
report is bit-identical across runs on one machine.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import RotatedBox2D, rotated_iou
from .losses import CellTargets, focal_loss, outputs_at_targets, smooth_l1, total_loss
from .metrics import MatchResult, average_precision, operating_threshold_for_recall
from .network import CellOutputs, conv2d_raw
from .oracles import finite_difference_errors, monte_carlo_iou, naive_conv2d, project_reference, random_points
from .pipeline import forward_frame, generate_bundles, make_weights, rasterize_frame
from .presets import get_preset
from .projection import grid_shape_of, project_features
from .raster import build_rv_image, stack_history_bev
from .scene import CLASSES, PointArray, SceneConfig, build_scene, rv_spec_for, simulate_sweep
from .views import CameraGeometry, CameraModel, FeatureMap, GridSpec, OutputGrid, RvSpec, rv_cells_of


class CheckFailure(AssertionError):
    pass


def _require(condition: bool, name: str, detail: str) -> None:
    if not condition:
        raise CheckFailure(f"{name}: {detail}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_bev_shape_atg4d() -> str:
    preset = get_preset("atg4d")
    scene = build_scene(SceneConfig(vehicles=3, pedestrians=1, bicyclists=1, extent=30.0, seed=5))
    sweeps = [simulate_sweep(scene, preset.sensor, 0.1 * i) for i in range(preset.sweep_count)]
    stack = stack_history_bev(sweeps, preset.grid, expected_count=10)
    _require(stack.data.shape == (938, 625, 160), "bev_shape_atg4d", f"got {stack.data.shape}")
    rv = build_rv_image(sweeps[-1], preset.rv)
    _require(rv.data.shape == (64, 2048, 4), "bev_shape_atg4d", f"rv {rv.data.shape}")
    return "938x625x160 bev, 2048x64 rv"


def check_shape_formula_nuscenes() -> str:
    preset = get_preset("nuscenes")
    g = preset.grid
    shape = (g.rows, g.cols, preset.sweep_count * g.z_cells)
    _require(shape == (800, 800, 400), "shape_formula_nuscenes", f"got {shape}")
    scene = build_scene(SceneConfig(vehicles=2, pedestrians=1, bicyclists=0, extent=25.0, seed=6))
    rv = build_rv_image(simulate_sweep(scene, preset.sensor, 0.0), preset.rv)
    _require(rv.data.shape == (32, 2048, 4), "shape_formula_nuscenes", f"rv {rv.data.shape}")
    return "800x800x400 bev, 2048x32 rv"


def check_projection_oracle() -> str:
    rng = np.random.default_rng(11)
    rv = RvSpec(6, 16)
    grid = GridSpec(6.0, 6.0, 2.0, 0.75, 0.75, 1.0, forward_fraction=0.5)
    cam = CameraModel.from_fov(32, 24, 100.0, mount_height=1.0)
    geom = CameraGeometry(cam, pixel_stride=8)
    for trial in range(12):
        pts = random_points(rng, int(rng.integers(10, 60)), rv.rows, spread=4.0)
        if trial % 2 == 0:
            source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 3)), rv)
            target = grid
        else:
            source = FeatureMap("camera", rng.normal(size=(*grid_shape_of(geom), 3)), geom)
            target = rv
        got_f, got_v = project_features(source, pts, target)
        want_f, want_v = project_reference(source, pts, target, grid_shape_of(target))
        _require(np.array_equal(got_f.data, want_f), "projection_oracle", f"trial {trial} features differ")
        _require(np.array_equal(got_v.data[:, :, 0], want_v), "projection_oracle", f"trial {trial} validity differs")
    return "12 configurations bit-exact"


def check_conv_oracle() -> str:
    """8 dense instances (im2col), then 8 stride-1 instances with about 12%
    of their pixels occupied, two corners included (the occupied-pixel kernel)."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(16):
        h, w = int(rng.integers(4, 11)), int(rng.integers(4, 11))
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        data = rng.normal(size=(h, w, cin))
        kernel = rng.normal(size=(3, 3, cin, cout))
        bias = rng.normal(size=cout)
        if trial >= 8:
            stride = (1, 1)
            mask = rng.uniform(size=(h, w)) < 0.12
            mask[[0, -1], [0, -1]] = True
            data *= mask[:, :, None]
        got = conv2d_raw(data, kernel, bias, stride=stride)
        want = naive_conv2d(data, kernel, bias, stride, relu=True)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _require(worst < 1e-10, "conv_oracle", f"max abs err {worst}")
    return f"16 instances (8 sparse), max abs err {worst:.3e}"


def check_loss_closed_forms() -> str:
    _require(abs(focal_loss(0.5) - 0.25 * math.log(2.0)) < 1e-12, "loss_closed_forms", "focal(0.5)")
    _require(abs(smooth_l1(0.5) - 0.125) < 1e-15, "loss_closed_forms", "smooth_l1(0.5)")
    _require(abs(smooth_l1(2.0) - 1.5) < 1e-15, "loss_closed_forms", "smooth_l1(2.0)")
    grid = OutputGrid(1, 1, 0.0, 0.0, 1.0, 1.0)
    h1 = 31
    fg = {c: np.array([[c == "vehicle"]]) for c in CLASSES}
    targets = CellTargets(
        grid, 30, CLASSES, fg,
        {c: np.zeros((1, 1, 2)) for c in CLASSES},
        {c: np.zeros((1, 1, h1, 2)) for c in CLASSES},
        {c: np.zeros((1, 1, h1, 2)) for c in CLASSES},
    )
    outputs = outputs_at_targets(targets)
    outputs.centers["vehicle"][0, 0, :, 0] = 0.3
    got = float(total_loss(outputs, targets, lam=0.97).per_class["vehicle"].center.sum())
    want = sum(0.97 ** h * 0.5 * 0.3 * 0.3 for h in range(31))
    _require(abs(got - want) < 1e-12, "loss_closed_forms", f"geometric sum {got} vs {want}")
    return f"geometric-sum construction {got:.7f}"


def check_gradient_finite_difference() -> str:
    rng = np.random.default_rng(17)
    grid = OutputGrid(3, 3, -1.5, -1.5, 1.0, 1.0)
    h1 = 4
    worst = 0.0
    for _ in range(2):
        fg = {c: rng.uniform(size=(3, 3)) < 0.3 for c in CLASSES}
        targets = CellTargets(
            grid, 3, CLASSES, fg,
            {c: rng.uniform(0.5, 4.0, size=(3, 3, 2)) for c in CLASSES},
            {c: rng.normal(0, 1, size=(3, 3, h1, 2)) for c in CLASSES},
            {c: rng.normal(0, 1, size=(3, 3, h1, 2)) for c in CLASSES},
        )
        outputs = CellOutputs(
            grid, 3, CLASSES,
            {c: rng.uniform(0.05, 0.95, size=(3, 3)) for c in CLASSES},
            {c: rng.uniform(0.2, 5.0, size=(3, 3, 2)) for c in CLASSES},
            {c: rng.normal(0, 1.5, size=(3, 3, h1, 2)) for c in CLASSES},
            {c: rng.normal(0, 1.0, size=(3, 3, h1, 2)) for c in CLASSES},
        )
        worst = max(worst, *finite_difference_errors(outputs, targets))
    _require(worst < 1e-4, "gradient_finite_difference", f"worst rel err {worst}")
    return f"worst rel err {worst:.2e}"


def check_rotated_iou() -> str:
    a = RotatedBox2D(0, 0, 1, 1, 0)
    b = RotatedBox2D(0.5, 0, 1, 1, 0)
    _require(abs(rotated_iou(a, b) - 1.0 / 3.0) < 1e-12, "rotated_iou", "offset squares")
    _require(rotated_iou(a, a) == 1.0, "rotated_iou", "identical")
    rng = np.random.default_rng(19)
    worst = 0.0
    for k in range(6):
        p = RotatedBox2D(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 4),
                         rng.uniform(1, 3), rng.uniform(-3, 3))
        q = RotatedBox2D(p.cx + rng.uniform(-1.5, 1.5), p.cy + rng.uniform(-1.5, 1.5),
                         rng.uniform(1, 4), rng.uniform(1, 3), rng.uniform(-3, 3))
        sym = abs(rotated_iou(p, q) - rotated_iou(q, p))
        _require(sym < 1e-9, "rotated_iou", f"asymmetry {sym}")
        worst = max(worst, abs(rotated_iou(p, q) - monte_carlo_iou(p, q, 100_000, 50 + k)))
    _require(worst < 0.02, "rotated_iou", f"monte-carlo gap {worst}")
    return f"monte-carlo gap {worst:.4f}"


def check_metrics_protocol() -> str:
    m = MatchResult(np.array([0.9, 0.8, 0.7]), np.array([True, False, True]),
                    np.array([0, -1, 1]), 2)
    ap = average_precision([m])
    _require(abs(ap - (0.5 + 0.5 * 2.0 / 3.0)) < 1e-9, "metrics_protocol", f"ap {ap}")
    m5 = MatchResult(np.array([0.9, 0.8, 0.7, 0.6, 0.5]), np.ones(5, dtype=bool),
                     np.arange(5), 5)
    thr = operating_threshold_for_recall([m5], 0.8)
    _require(abs(thr - 0.6) < 1e-12, "metrics_protocol", f"threshold {thr}")
    return "ap and operating point exact"


def check_rv_roundtrip() -> str:
    preset = get_preset("desk")
    scene = build_scene(SceneConfig(vehicles=2, pedestrians=1, bicyclists=1, extent=13.0, seed=7))
    sweep = simulate_sweep(scene, preset.sensor, 0.0)
    rv = rv_spec_for(preset.sensor)
    rows, cols = rv_cells_of(sweep.points.laser, sweep.points.azimuth, rv)
    lin = rows * rv.cols + cols
    _require(len(np.unique(lin)) == len(lin), "rv_roundtrip", "duplicate rv cells")
    fm = build_rv_image(sweep, rv)
    _require(int(fm.data[:, :, 3].sum()) == len(sweep.points), "rv_roundtrip", "validity count")
    return f"{len(sweep.points)} returns, all distinct cells"


def check_determinism() -> str:
    preset = get_preset("desk")
    results = []
    for _ in range(2):
        scene, bundles = generate_bundles(preset, seed=3, frames=1)
        weights = make_weights(preset, seed=3)
        outputs = forward_frame(bundles[0], preset, weights)
        rasters = rasterize_frame(bundles[0], preset)
        digest = (
            outputs.pack().tobytes(),
            rasters["lidar_stack"].data.tobytes(),
            bundles[0].camera_image.data.tobytes(),
        )
        results.append(digest)
    _require(results[0] == results[1], "determinism", "repeated run differs")
    return "generation + forward bit-identical"


def check_projection_permutation() -> str:
    rng = np.random.default_rng(23)
    rv = RvSpec(6, 16)
    grid = GridSpec(6.0, 6.0, 2.0, 0.75, 0.75, 1.0, forward_fraction=0.5)
    source = FeatureMap("rv", rng.normal(size=(rv.rows, rv.cols, 2)), rv)
    pts = random_points(rng, 80, rv.rows, spread=4.0)
    base, _ = project_features(source, pts, grid)
    perm = rng.permutation(80)
    shuffled = PointArray(pts.x[perm], pts.y[perm], pts.z[perm], pts.range[perm],
                          pts.intensity[perm], pts.azimuth[perm], pts.laser[perm])
    again, _ = project_features(source, shuffled, grid)
    _require(np.array_equal(base.data, again.data), "projection_permutation", "order dependence")
    return "bit-exact under permutation"


ALL_CHECKS = [
    ("bev_shape_atg4d", check_bev_shape_atg4d),
    ("shape_formula_nuscenes", check_shape_formula_nuscenes),
    ("projection_oracle", check_projection_oracle),
    ("projection_permutation", check_projection_permutation),
    ("conv_oracle", check_conv_oracle),
    ("loss_closed_forms", check_loss_closed_forms),
    ("gradient_finite_difference", check_gradient_finite_difference),
    ("rotated_iou", check_rotated_iou),
    ("metrics_protocol", check_metrics_protocol),
    ("rv_roundtrip", check_rv_roundtrip),
    ("determinism", check_determinism),
]


def run_selfcheck() -> tuple[str, list[str]]:
    """Run every check; returns (report text, list of failing check names)."""
    lines = []
    failures = []
    for name, check in ALL_CHECKS:
        try:
            detail = check()
            lines.append(f"ok {name}: {detail}")
        except CheckFailure as exc:
            lines.append(f"FAIL {exc}")
            failures.append(name)
        except Exception as exc:  # a crash is also a failed invariant
            lines.append(f"FAIL {name}: raised {type(exc).__name__}: {exc}")
            failures.append(name)
    lines.append("selfcheck: " + ("PASS" if not failures else f"FAIL ({', '.join(failures)})"))
    return "\n".join(lines) + "\n", failures
