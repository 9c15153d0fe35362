import hashlib
import math

import numpy as np
import pytest

from mvfusion import losses
from mvfusion.geometry import RotatedBox2D
from mvfusion.losses import (
    encode_targets,
    fit_outputs,
    focal_loss,
    loss_gradients,
    outputs_at_targets,
    smooth_l1,
    smooth_l1_grad,
    total_loss,
)
from mvfusion.network import CellOutputs
from mvfusion.oracles import (
    dense_gradients,
    fg_loss_at_h,
    finite_difference_errors,
    fit_outputs_dense,
    random_loss_frame,
)
from mvfusion.scene import (
    Actor,
    MapGeometry,
    MotionSegment,
    Scene,
    scene_labels,
)
from mvfusion.views import GridSpec


def one_actor_scene(box, cls="vehicle", motion=None):
    actor = Actor(0, cls, box, 1.8, motion or (MotionSegment(5.0, 0.0, 0.0),))
    return Scene((actor,), MapGeometry.empty(), (MotionSegment(5.0, 0.0, 0.0),), 0, 60.0, 5.0)


def grid016():
    return GridSpec(24.0, 24.0, 3.2, 0.16, 0.16, 0.8, forward_fraction=0.5)


# ---------------------------------------------------------------------------
# elementary losses
# ---------------------------------------------------------------------------

def test_focal_loss_values():
    assert focal_loss(1.0 - 1e-12) < 1e-13
    assert focal_loss(0.5) == pytest.approx(0.25 * math.log(2.0), abs=1e-12)
    assert focal_loss(0.3, gamma=0.0) == pytest.approx(-math.log(0.3), abs=1e-12)
    assert np.isfinite(focal_loss(0.0)) and np.isfinite(focal_loss(1.0))


def test_smooth_l1_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(2.0) == pytest.approx(1.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)
    assert smooth_l1_grad(0.5) == pytest.approx(0.5)
    assert smooth_l1_grad(2.0) == pytest.approx(1.0)
    assert smooth_l1_grad(-0.25) == pytest.approx(-0.25)


def _one_fg_frame(horizon=30):
    # a single fg cell with perfect outputs, ready for error injection
    labels = scene_labels(one_actor_scene(RotatedBox2D(4.0, 2.0, 4.0, 1.8, 0.0)), 0.0, horizon)
    targets = encode_targets(labels, grid016(), output_stride=4, horizon=horizon)
    outputs = outputs_at_targets(targets)
    return outputs, targets


def test_fg_loss_perfect_is_zero():
    outputs, targets = _one_fg_frame()
    r, c = np.argwhere(targets.fg["vehicle"])[0]
    assert fg_loss_at_h(outputs, targets, "vehicle", r, c, 5) == pytest.approx(0.0, abs=1e-9)


def test_fg_loss_single_center_error():
    outputs, targets = _one_fg_frame()
    r, c = np.argwhere(targets.fg["vehicle"])[0]
    outputs.centers["vehicle"][r, c, 0, 0] += 0.3
    assert fg_loss_at_h(outputs, targets, "vehicle", r, c, 0) == pytest.approx(0.045, abs=1e-9)


def test_fg_loss_heading_off_by_pi():
    outputs, targets = _one_fg_frame()
    r, c = np.argwhere(targets.fg["vehicle"])[0]
    h = 7
    # target heading 0: (sin, cos) = (0, 1); output heading pi: (0, -1)
    assert np.allclose(targets.headings["vehicle"][r, c, h], [0.0, 1.0])
    outputs.headings["vehicle"][r, c, h] = (0.0, -1.0)
    assert fg_loss_at_h(outputs, targets, "vehicle", r, c, h) == pytest.approx(1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_bg_only_at_clamp_floor():
    labels = scene_labels(one_actor_scene(RotatedBox2D(4.0, 2.0, 4.0, 1.8, 0.0)), 0.0, 4)
    targets = encode_targets(labels, grid016(), output_stride=4, horizon=4)
    for cls in targets.classes:
        targets.fg[cls][:] = False  # force a bg-only frame
    outputs = outputs_at_targets(targets, bg_logit=-40.0)
    breakdown = total_loss(outputs, targets)
    n_cells = targets.grid.rows * targets.grid.cols * 3
    assert breakdown.total <= n_cells * focal_loss(1.0 - 1e-7) + 1e-12
    assert breakdown.total < 1e-6


def test_total_loss_geometric_sum_construction():
    # one fg cell, constant 0.3 m x-center error at every horizon
    outputs, targets = _one_fg_frame(horizon=30)
    fg = targets.fg["vehicle"]
    assert fg.sum() >= 1
    outputs.centers["vehicle"][fg, :, 0] += 0.3
    breakdown = total_loss(outputs, targets, lam=0.97)
    oracle = sum(0.97 ** h * 0.5 * 0.3 * 0.3 for h in range(31)) * int(fg.sum())
    assert float(breakdown.per_class["vehicle"].center.sum()) == pytest.approx(oracle, abs=1e-12)
    # the sum evaluates to 20.3674381 * smooth_l1(0.3) per cell
    assert oracle / int(fg.sum()) == pytest.approx(0.045 * 20.367438117104562, abs=1e-12)


def test_total_loss_decay_collapse():
    outputs, targets = _one_fg_frame(horizon=6)
    rng = np.random.default_rng(3)
    outputs.centers["vehicle"] += rng.normal(0, 0.5, size=outputs.centers["vehicle"].shape)
    breakdown = total_loss(outputs, targets, lam=0.0)
    c = breakdown.per_class["vehicle"].center
    assert np.all(c[1:] == 0.0)
    assert c[0] > 0.0


def test_total_loss_terms_sum_and_nonnegative():
    rng = np.random.default_rng(11)
    outputs, targets = random_loss_frame(rng, 5, 6, horizon=5)
    breakdown = total_loss(outputs, targets)
    assert breakdown.total >= 0.0
    term_sum = float(sum(t.total() for t in breakdown.per_class.values()))
    assert abs(breakdown.total - term_sum) < 1e-9
    text = breakdown.to_text()
    assert text.startswith("total = ")
    assert "vehicle.center_h03" in text


def test_lambda_monotonicity():
    rng = np.random.default_rng(13)
    outputs, targets = random_loss_frame(rng, 4, 4, horizon=6)
    fg_losses = []
    for lam in np.linspace(0.0, 0.99, 12):
        b = total_loss(outputs, targets, lam=lam)
        fg_total = sum(
            t.focal_fg + t.size + float(t.center.sum() + t.heading.sum())
            for t in b.per_class.values()
        )
        fg_losses.append(fg_total)
    assert all(b >= a - 1e-12 for a, b in zip(fg_losses, fg_losses[1:]))


def test_heading_representation_two_pi_invariant():
    outputs, targets = _one_fg_frame(horizon=4)
    base = total_loss(outputs, targets).total
    # shifting both target and output headings by 2 pi changes nothing:
    # the representation is (sin, cos), identical after a full turn
    shifted_sin = np.sin(np.arcsin(np.clip(targets.headings["vehicle"][..., 0], -1, 1)) + 2 * math.pi)
    assert np.allclose(shifted_sin, targets.headings["vehicle"][..., 0], atol=1e-12)
    assert total_loss(outputs, targets).total == pytest.approx(base)


def test_ground_truth_is_global_minimum_of_regression():
    rng = np.random.default_rng(17)
    outputs, targets = _one_fg_frame(horizon=8)
    base = total_loss(outputs, targets)
    base_reg = base.total - sum(t.focal_fg + t.focal_bg for t in base.per_class.values())
    assert base_reg == pytest.approx(0.0, abs=1e-12)
    for _ in range(25):
        perturbed = outputs_at_targets(targets)
        cls = "vehicle"
        perturbed.centers[cls] += rng.normal(0, 0.3, size=perturbed.centers[cls].shape)
        perturbed.size[cls] += rng.normal(0, 0.3, size=perturbed.size[cls].shape)
        perturbed.headings[cls] += rng.normal(0, 0.3, size=perturbed.headings[cls].shape)
        b = total_loss(perturbed, targets)
        reg = b.total - sum(t.focal_fg + t.focal_bg for t in b.per_class.values())
        assert reg >= -1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_zero_at_perfect_regression():
    outputs, targets = _one_fg_frame(horizon=5)
    grads = loss_gradients(outputs, targets)
    assert not grads.size["vehicle"].any()
    assert not grads.centers["vehicle"].any()
    assert not grads.headings["vehicle"].any()


def test_regression_gradients_are_fg_rows_of_the_dense_gradient():
    rng = np.random.default_rng(29)
    outputs, targets = random_loss_frame(rng, 5, 4, horizon=3)
    grads = loss_gradients(outputs, targets)
    dense = dense_gradients(outputs, targets)
    for cls in targets.classes:
        fg = targets.fg[cls]
        n_fg = int(fg.sum())
        assert grads.prob[cls].shape == (5, 4)
        assert grads.size[cls].shape == (n_fg, 2)
        assert grads.centers[cls].shape == grads.headings[cls].shape == (n_fg, 4, 2)
        for name in ("size", "centers", "headings"):
            full = getattr(dense, name)[cls]
            assert np.array_equal(full[fg], getattr(grads, name)[cls])
            assert not full[~fg].any()


def _as_views(outputs, view):
    def fields(arrays):
        return {cls: view(arr) for cls, arr in arrays.items()}
    return CellOutputs(outputs.grid, outputs.horizon, outputs.classes, fields(outputs.prob),
                       fields(outputs.size), fields(outputs.centers), fields(outputs.headings))


@pytest.mark.parametrize("view", [
    lambda a: np.repeat(a, 2, axis=1)[:, ::2],  # strided along the columns
    lambda a: np.asfortranarray(a),
    lambda a: np.ascontiguousarray(a[::-1])[::-1],  # negative row stride
], ids=["strided", "fortran", "reversed"])
def test_losses_on_non_contiguous_outputs_equal_contiguous_copies(view):
    # the flat fg rows of a non-contiguous array come from a reshape that copies
    rng = np.random.default_rng(37)
    outputs, targets = random_loss_frame(rng, 7, 6, horizon=3, fg_fraction=0.3)
    viewed = _as_views(outputs, view)
    assert not viewed.centers["vehicle"].flags.c_contiguous
    copied = _as_views(viewed, np.ascontiguousarray)
    assert total_loss(viewed, targets).to_text() == total_loss(copied, targets).to_text()
    got, want = loss_gradients(viewed, targets), loss_gradients(copied, targets)
    for name in ("prob", "size", "centers", "headings"):
        for cls in targets.classes:
            assert np.array_equal(getattr(got, name)[cls], getattr(want, name)[cls])


def test_gradients_match_finite_differences_quick():
    rng = np.random.default_rng(23)
    for _ in range(2):
        outputs, targets = random_loss_frame(rng, 3, 3, horizon=4)
        max_rel, max_abs = finite_difference_errors(outputs, targets)
        assert max_rel < 1e-4
        assert max_abs < 1e-8


# ---------------------------------------------------------------------------
# encode_targets
# ---------------------------------------------------------------------------

def test_encode_empty_labels_all_bg():
    scene = Scene((), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 30.0, 5.0)
    labels = scene_labels(scene, 0.0, 6)
    targets = encode_targets(labels, grid016(), output_stride=4, horizon=6)
    assert int(sum(targets.fg[c].sum() for c in targets.classes)) == 0


def test_encode_vehicle_fg_cell_count():
    # 4.8 x 1.92 vehicle on a 0.64 m output grid: about 22.5 cells
    labels = scene_labels(one_actor_scene(RotatedBox2D(5.0, 1.0, 4.8, 1.92, 0.0)), 0.0, 2)
    targets = encode_targets(labels, grid016(), output_stride=4, horizon=2)
    count = int(targets.fg["vehicle"].sum())
    assert 18 <= count <= 27


def test_encode_cell_centered_actor_zero_offset():
    g = grid016()
    # grid: x_min = y_min = -12; stride-4 cells are 0.64 m; pick a cell center
    cx = -12.0 + (10 + 0.5) * 0.64
    cy = -12.0 + (14 + 0.5) * 0.64
    labels = scene_labels(one_actor_scene(RotatedBox2D(cx, cy, 4.0, 1.8, 0.0)), 0.0, 2)
    targets = encode_targets(labels, g, output_stride=4, horizon=2)
    assert targets.fg["vehicle"][10, 14]
    assert np.allclose(targets.centers["vehicle"][10, 14, 0], [0.0, 0.0], atol=1e-9)


def test_encode_overlapping_same_class_nearest_wins():
    g = grid016()
    a = Actor(0, "vehicle", RotatedBox2D(4.0, 0.0, 4.0, 2.0, 0.0), 1.8, (MotionSegment(5, 0, 0),))
    b = Actor(1, "vehicle", RotatedBox2D(6.5, 0.0, 4.0, 2.0, 0.0), 1.8, (MotionSegment(5, 0, 0),))
    scene = Scene((a, b), MapGeometry.empty(), (MotionSegment(5, 0, 0),), 0, 30.0, 5.0)
    labels = scene_labels(scene, 0.0, 2)
    targets = encode_targets(labels, g, output_stride=4, horizon=2)
    fg = targets.fg["vehicle"]
    assert fg.any()
    xs, ys = targets.grid.cell_centers()
    for r, c in np.argwhere(fg):
        off = targets.centers["vehicle"][r, c, 0]
        d_own = np.hypot(*off)
        d_a = np.hypot(4.0 - xs[r], 0.0 - ys[c])
        d_b = np.hypot(6.5 - xs[r], 0.0 - ys[c])
        assert d_own <= min(d_a, d_b) + 1e-9


def test_encode_horizon_limit():
    labels = scene_labels(one_actor_scene(RotatedBox2D(4.0, 2.0, 4.0, 1.8, 0.0)), 0.0, 4)
    with pytest.raises(ValueError):
        encode_targets(labels, grid016(), output_stride=4, horizon=10)


# ---------------------------------------------------------------------------
# fit_outputs
# ---------------------------------------------------------------------------

def test_fit_from_ground_truth_stays_near_zero():
    outputs, targets = _one_fg_frame(horizon=4)
    result = fit_outputs(targets, steps=20, learning_rate=0.1, init=outputs)
    assert result.losses[0] < 1e-6
    assert result.losses[-1] <= result.losses[0] + 1e-15
    assert np.all(np.diff(result.losses) <= 1e-15)


def test_fit_random_init_converges_one_actor():
    labels = scene_labels(one_actor_scene(RotatedBox2D(3.0, 1.0, 4.0, 1.8, 0.4)), 0.0, 6)
    g = GridSpec(12.0, 12.0, 3.2, 0.25, 0.25, 0.8, forward_fraction=0.5)
    targets = encode_targets(labels, g, output_stride=1, horizon=6)
    result = fit_outputs(targets, steps=500, learning_rate=0.2, seed=1)
    b = total_loss(result.outputs, targets)
    reg = b.total - sum(t.focal_fg + t.focal_bg for t in b.per_class.values())
    assert reg < 1e-3
    assert np.all(np.diff(result.losses) <= 1e-12)


def test_fit_bg_only_probabilities_decrease():
    rng = np.random.default_rng(5)
    outputs, targets = random_loss_frame(rng, 4, 4, horizon=3, fg_fraction=0.0)
    init = outputs
    result = fit_outputs(targets, steps=10, learning_rate=0.3, init=init)
    for cls in targets.classes:
        assert np.all(result.outputs.prob[cls] < init.prob[cls])


def _fit_digest(result):
    return hashlib.sha256(result.outputs.pack().tobytes() + result.losses.tobytes()).hexdigest()


@pytest.mark.parametrize("start", ["random", "init", "ground_truth"])
@pytest.mark.parametrize("fg_fraction", [0.0, 0.3, 1.0])
def test_fit_matches_the_dense_oracle_bit_for_bit(start, fg_fraction):
    rng = np.random.default_rng(31)
    outputs, targets = random_loss_frame(rng, 6, 5, horizon=3, fg_fraction=fg_fraction)
    init = {"random": None, "init": outputs, "ground_truth": outputs_at_targets(targets)}[start]
    before = None if init is None else init.pack()
    result = fit_outputs(targets, steps=40, learning_rate=0.2, seed=7, init=init)
    assert _fit_digest(result) == _fit_digest(
        fit_outputs_dense(targets, steps=40, learning_rate=0.2, seed=7, init=init))
    if init is not None:
        assert np.array_equal(init.pack(), before)  # the fit updated its own copies


def test_fit_restores_its_rows_after_a_step_with_no_descent(monkeypatch):
    # ground truth plus a center residue, with a learning rate that 30
    # halvings cannot bring into the descent range: the first step rejects
    # every try and must put the fg rows back before the next step
    rng = np.random.default_rng(31)
    _, targets = random_loss_frame(rng, 6, 5, horizon=3, fg_fraction=0.3)
    init = outputs_at_targets(targets)
    for cls in targets.classes:
        init.centers[cls][targets.fg[cls]] += 0.01
    tries = []
    real_loss, real_gradients = losses.total_loss, losses.loss_gradients

    def gradients(*args, **kwargs):
        tries.append([])
        return real_gradients(*args, **kwargs)

    def loss(*args, **kwargs):
        breakdown = real_loss(*args, **kwargs)
        if tries:
            tries[-1].append(breakdown.total)
        return breakdown

    monkeypatch.setattr(losses, "loss_gradients", gradients)
    monkeypatch.setattr(losses, "total_loss", loss)
    result = fit_outputs(targets, steps=5, learning_rate=1e10, init=init)
    monkeypatch.undo()
    no_descent = [i for i, step_losses in enumerate(tries) if min(step_losses) > result.losses[i]]
    assert no_descent and all(len(tries[i]) == 30 for i in no_descent)
    assert result.losses[-1] < result.losses[0]
    assert _fit_digest(result) == _fit_digest(fit_outputs_dense(targets, steps=5, learning_rate=1e10, init=init))
