"""Joint detection + motion-prediction objective with analytic gradients.

Foreground cells (those whose center lies inside a labeled box) pay a
focal classification term plus smooth-l1 regression on box size at
horizon 0, and smooth-l1 on waypoint center offsets and (sin, cos)
heading at every horizon, each horizon decayed by lambda**h. Background
cells pay the focal term evaluated at (1 - p). Reduction over cells and
classes is a plain sum in row-major order.

The gradient of every term with respect to the network outputs is in
closed form. The probability gradient covers the full grid; the size,
center and heading gradients are zero off the fg cells, so loss_gradients
returns them at the fg cells only, as (n_fg, ...) rows. fit_outputs runs
monotone gradient descent directly on output grids to show ground truth
minimizes the objective; it moves only those fg rows of the regression
arrays.

Fg cells are addressed by their flat row-major indices,
np.flatnonzero(targets.fg[cls]): a (rows, cols, ...) array is read as
(cells, ...) rows, gathered with take and written with integer setitem.
This gives the rows of arr[targets.fg[cls]] in the same order, so every
value and sum is the one the boolean mask gives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import points_in_box
from .network import CellOutputs
from .scene import CLASSES, LabelSet
from .views import GridSpec, OutputGrid

FOCAL_GAMMA = 2.0
PROB_CLAMP = 1e-7
DECAY = 0.97


@dataclass
class CellTargets:
    """Per-cell regression and classification targets on the output lattice.

    Regression fields are only meaningful at fg cells; centers hold offsets
    (label center minus cell center, meters) per horizon, headings hold
    (sin, cos) pairs.
    """

    grid: OutputGrid
    horizon: int
    classes: tuple[str, ...]
    fg: dict[str, np.ndarray]
    size: dict[str, np.ndarray]
    centers: dict[str, np.ndarray]
    headings: dict[str, np.ndarray]


def encode_targets(labels: LabelSet, grid: GridSpec, output_stride: int,
                   horizon: int | None = None) -> CellTargets:
    """Rasterize labels: a cell is fg iff its center is inside the h=0 box.

    When boxes of one class overlap a cell, the actor whose center is
    nearest the cell center wins.
    """
    if horizon is None:
        horizon = labels.horizon
    if horizon > labels.horizon:
        raise ValueError(f"labels carry {labels.horizon} horizons, need {horizon}")
    og = OutputGrid.from_grid(grid, output_stride)
    xs, ys = og.cell_centers()
    cell_xy = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=2)  # (R, C, 2)
    flat_xy = cell_xy.reshape(-1, 2)
    h1 = horizon + 1

    fg, size, centers, headings = {}, {}, {}, {}
    for cls in CLASSES:
        fg[cls] = np.zeros((og.rows, og.cols), dtype=bool)
        size[cls] = np.zeros((og.rows, og.cols, 2))
        centers[cls] = np.zeros((og.rows, og.cols, h1, 2))
        headings[cls] = np.zeros((og.rows, og.cols, h1, 2))
        best = np.full((og.rows, og.cols), np.inf)
        for label in labels.labels:
            if label.cls != cls:
                continue
            inside = points_in_box(flat_xy, label.box).reshape(og.rows, og.cols)
            if not inside.any():
                continue
            dist = np.hypot(cell_xy[:, :, 0] - label.box.cx, cell_xy[:, :, 1] - label.box.cy)
            take = inside & (dist < best)
            if not take.any():
                continue
            best[take] = dist[take]
            fg[cls][take] = True
            size[cls][take] = (label.box.length, label.box.width)
            offsets = label.centers[None, :h1, :] - cell_xy[take][:, None, :]
            centers[cls][take] = offsets
            sc = np.stack([np.sin(label.headings[:h1]), np.cos(label.headings[:h1])], axis=1)
            headings[cls][take] = sc
    return CellTargets(og, horizon, CLASSES, fg, size, centers, headings)


# ---------------------------------------------------------------------------
# elementary losses
# ---------------------------------------------------------------------------

def focal_loss(p, gamma: float = FOCAL_GAMMA):
    """-(1 - p)**gamma * log(p), with p clamped away from {0, 1}."""
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -((1.0 - p) ** gamma) * np.log(p)


def smooth_l1(d):
    """0.5 d^2 inside |d| < 1, |d| - 0.5 outside."""
    a = np.abs(d)
    return np.where(a < 1.0, 0.5 * d * d, a - 0.5)


def smooth_l1_grad(d):
    return np.where(np.abs(d) < 1.0, d, np.sign(d))


def focal_fg_grad(p, gamma: float = FOCAL_GAMMA):
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return gamma * (1.0 - p) ** (gamma - 1.0) * np.log(p) - (1.0 - p) ** gamma / p


def focal_bg_grad(p, gamma: float = FOCAL_GAMMA):
    # d/dp of focal(1 - p) = -p**gamma * log(1 - p)
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -gamma * p ** (gamma - 1.0) * np.log(1.0 - p) + p ** gamma / (1.0 - p)


# ---------------------------------------------------------------------------
# frame-level loss
# ---------------------------------------------------------------------------

@dataclass
class ClassLossTerms:
    focal_fg: float
    focal_bg: float
    size: float
    center: np.ndarray  # (H+1,), decay included
    heading: np.ndarray

    def total(self) -> float:
        return self.focal_fg + self.focal_bg + self.size + float(self.center.sum()) + float(self.heading.sum())


@dataclass
class LossBreakdown:
    total: float
    per_class: dict[str, ClassLossTerms]

    def to_text(self) -> str:
        lines = [f"total = {self.total!r}"]
        for cls, t in self.per_class.items():
            lines.append(f"{cls}.focal_fg = {t.focal_fg!r}")
            lines.append(f"{cls}.focal_bg = {t.focal_bg!r}")
            lines.append(f"{cls}.size = {t.size!r}")
            for h, v in enumerate(t.center):
                lines.append(f"{cls}.center_h{h:02d} = {float(v)!r}")
            for h, v in enumerate(t.heading):
                lines.append(f"{cls}.heading_h{h:02d} = {float(v)!r}")
        return "\n".join(lines) + "\n"


def _cells(arr: np.ndarray) -> np.ndarray:
    """A (rows, cols, ...) grid as (cells, ...) rows in row-major order.

    A view when arr is contiguous, a copy otherwise."""
    return arr.reshape(arr.shape[0] * arr.shape[1], *arr.shape[2:])


def _rows(arr: np.ndarray, fg: np.ndarray) -> np.ndarray:
    """The rows of a (rows, cols, ...) grid at the flat cell indices fg."""
    return _cells(arr).take(fg, axis=0)


def total_loss(outputs: CellOutputs, targets: CellTargets, lam: float = DECAY) -> LossBreakdown:
    """Sum of bg focal terms and decay-weighted fg terms over cells and classes."""
    h1 = targets.horizon + 1
    decay = lam ** np.arange(h1)
    per_class: dict[str, ClassLossTerms] = {}
    for cls in targets.classes:
        mask = targets.fg[cls]
        fg = np.flatnonzero(mask)
        p = outputs.prob[cls]
        focal_bg = float(focal_loss(1.0 - p[~mask]).sum())
        focal_fg = float(focal_loss(_rows(p, fg)).sum())
        ds = _rows(outputs.size[cls], fg) - _rows(targets.size[cls], fg)
        size = float(smooth_l1(ds).sum())
        dc = _rows(outputs.centers[cls], fg) - _rows(targets.centers[cls], fg)  # (n, H+1, 2)
        center = decay * smooth_l1(dc).sum(axis=(0, 2))
        dh = _rows(outputs.headings[cls], fg) - _rows(targets.headings[cls], fg)
        heading = decay * smooth_l1(dh).sum(axis=(0, 2))
        per_class[cls] = ClassLossTerms(focal_fg, focal_bg, size, center, heading)
    total = float(sum(t.total() for t in per_class.values()))
    return LossBreakdown(total, per_class)


@dataclass
class CellGradients:
    """d(total loss)/d(outputs).

    prob[cls] is full-grid, (rows, cols). The regression gradients are zero
    off the fg cells and are kept at the fg cells only: size[cls] is
    (n_fg, 2), centers[cls] and headings[cls] are (n_fg, H+1, 2), with rows
    in the order of np.flatnonzero(targets.fg[cls]), the row-major order
    that arr[targets.fg[cls]] gives.
    """

    prob: dict[str, np.ndarray]
    size: dict[str, np.ndarray]
    centers: dict[str, np.ndarray]
    headings: dict[str, np.ndarray]


def loss_gradients(outputs: CellOutputs, targets: CellTargets, lam: float = DECAY) -> CellGradients:
    h1 = targets.horizon + 1
    decay = (lam ** np.arange(h1))[None, :, None]
    prob, size, centers, headings = {}, {}, {}, {}
    for cls in targets.classes:
        fg = np.flatnonzero(targets.fg[cls])
        p = outputs.prob[cls]
        grad = _cells(focal_bg_grad(p))  # a row-major copy when p is not C-ordered
        grad[fg] = focal_fg_grad(_rows(p, fg))
        prob[cls] = grad.reshape(p.shape)
        size[cls] = smooth_l1_grad(_rows(outputs.size[cls], fg) - _rows(targets.size[cls], fg))
        centers[cls] = decay * smooth_l1_grad(_rows(outputs.centers[cls], fg) - _rows(targets.centers[cls], fg))
        headings[cls] = decay * smooth_l1_grad(_rows(outputs.headings[cls], fg) - _rows(targets.headings[cls], fg))
    return CellGradients(prob, size, centers, headings)


# ---------------------------------------------------------------------------
# direct output fitting
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    outputs: CellOutputs
    losses: np.ndarray  # loss before any step, then after each accepted step


def outputs_at_targets(targets: CellTargets, fg_logit: float = 10.0,
                       bg_logit: float = -10.0) -> CellOutputs:
    """Ground-truth outputs with saturated probabilities (a loss fixed point)."""
    prob = {}
    for cls in targets.classes:
        z = np.where(targets.fg[cls], fg_logit, bg_logit)
        prob[cls] = 1.0 / (1.0 + np.exp(-z))
    return CellOutputs(
        targets.grid, targets.horizon, targets.classes, prob,
        {c: targets.size[c].copy() for c in targets.classes},
        {c: targets.centers[c].copy() for c in targets.classes},
        {c: targets.headings[c].copy() for c in targets.classes},
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def fit_outputs(targets: CellTargets, steps: int = 500, learning_rate: float = 0.1,
                lam: float = DECAY, seed: int = 0, init: CellOutputs | None = None) -> FitResult:
    """Gradient descent on raw output grids, probability logit-parameterized.

    Each step backtracks by halving until the loss does not increase, so the
    recorded loss sequence is monotonically non-increasing.

    The regression gradients vanish off the fg cells, so only the fg rows of
    the size, center and heading arrays ever move. The fit owns those arrays
    (a fresh random init, or copies of init's), finds the flat fg indices
    once, and every try writes its candidate fg rows into them in place; a
    step that finds no descent writes the saved rows back.
    oracles.fit_outputs_dense is the full-array loop, bit-identical to this
    one.
    """
    rng = np.random.default_rng(seed)
    shape = (targets.grid.rows, targets.grid.cols)
    h1 = targets.horizon + 1
    if init is None:
        z = {c: rng.normal(0.0, 0.1, size=shape) for c in targets.classes}
        size = {c: np.abs(rng.normal(1.0, 0.3, size=(*shape, 2))) for c in targets.classes}
        centers = {c: rng.normal(0.0, 0.5, size=(*shape, h1, 2)) for c in targets.classes}
        headings = {c: rng.normal(0.0, 0.5, size=(*shape, h1, 2)) for c in targets.classes}
    else:
        z = {c: np.log(init.prob[c] / (1.0 - init.prob[c])) for c in targets.classes}
        size = {c: init.size[c].copy() for c in targets.classes}
        centers = {c: init.centers[c].copy() for c in targets.classes}
        headings = {c: init.headings[c].copy() for c in targets.classes}
    fg = {c: np.flatnonzero(targets.fg[c]) for c in targets.classes}
    # views, since the fit's own arrays are C-ordered
    moving = [(fg[c], _cells(arr)) for c in targets.classes for arr in (size[c], centers[c], headings[c])]

    def build(z) -> CellOutputs:
        return CellOutputs(
            targets.grid, targets.horizon, targets.classes,
            {c: _sigmoid(z[c]) for c in targets.classes}, size, centers, headings,
        )

    outputs = build(z)
    losses = [total_loss(outputs, targets, lam).total]
    step = learning_rate
    for _ in range(steps):
        grads = loss_gradients(outputs, targets, lam)
        fg_grads = [g for c in targets.classes for g in (grads.size[c], grads.centers[c], grads.headings[c])]
        saved = [rows.take(idx, axis=0) for idx, rows in moving]
        step = min(learning_rate, step * 2.0)  # warm-start from the last accepted step
        for _try in range(30):
            z_new = {c: z[c] - step * grads.prob[c] * outputs.prob[c] * (1.0 - outputs.prob[c])
                     for c in targets.classes}
            for (idx, rows), old, grad in zip(moving, saved, fg_grads):
                rows[idx] = old - step * grad
            candidate = build(z_new)
            new_loss = total_loss(candidate, targets, lam).total
            if new_loss <= losses[-1]:
                z, outputs = z_new, candidate
                losses.append(new_loss)
                break
            step *= 0.5
        else:
            for (idx, rows), old in zip(moving, saved):
                rows[idx] = old
            losses.append(losses[-1])  # no descent direction at float precision
    return FitResult(outputs, np.asarray(losses))
