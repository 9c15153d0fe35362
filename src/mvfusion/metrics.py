"""Detection decoding and the evaluation suite.

Per-cell outputs decode into rotated boxes with trajectories (greedy
rotated NMS, highest score wins). NMS stops once a class has
MAX_DETECTIONS_PER_CLASS (500) kept boxes, so decode work stays bounded
on untrained heads, which at published scale put tens of thousands of
cells above the floor; every candidate before that is considered, so no
object is ranked away. NMS tests a candidate only against kept boxes
whose circumradius can reach it. Detections match ground truth greedily
in descending score order, one match per ground truth. From pooled
matches we compute all-point average precision, pick the operating
threshold hitting a target recall, and measure displacement error at a
fixed future horizon over the true positives at that operating point.
Slices restrict both detections and ground truth to the camera FOV and
range bands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import RotatedBox2D, rotated_iou, se2_apply, se2_inverse
from .network import CellOutputs
from .scene import ActorLabel
from .views import CameraModel

IOU_THRESHOLDS = {"vehicle": 0.7, "pedestrian": 0.1, "bicyclist": 0.3}
DEFAULT_NMS_IOU = 0.3
DEFAULT_SCORE_FLOOR = 0.5
DEFAULT_RECALL_TARGET = 0.8

MIN_DECODED_SIDE = 0.05  # heads can emit nonpositive sizes; clamp for box validity

# Greedy NMS stops at this many kept boxes per class (SECOND's
# nms_post_max_size; the nuScenes detection benchmark takes at most 500
# boxes per sample, all classes together). It bounds decode on untrained
# heads, which put tens of thousands of small, disjoint boxes above the
# floor at published scale. A cap on candidates before NMS would instead
# rank away whole objects: a fitted vehicle covers hundreds of equally
# scored 0.16 m cells.
MAX_DETECTIONS_PER_CLASS = 500
_REACH_SLACK = 1e-9  # relative slack of the NMS neighbour prefilter


class RecallUnattainableError(RuntimeError):
    pass


@dataclass(frozen=True)
class DetBox:
    """A decoded detection: rotated box, score, and future waypoints."""

    cls: str
    score: float
    box: RotatedBox2D
    waypoints: np.ndarray  # (H, 2) absolute centers for h = 1..H
    headings: np.ndarray  # (H,)
    cell: tuple[int, int] = (0, 0)


def decode_detections(outputs: CellOutputs, score_floor: float = DEFAULT_SCORE_FLOOR,
                      nms_iou: float = DEFAULT_NMS_IOU) -> list[DetBox]:
    """Boxes from cells above the score floor, after per-class rotated NMS.

    Suppression is greedy by descending score with deterministic (row, col)
    tie-breaking, and stops once a class has MAX_DETECTIONS_PER_CLASS kept
    boxes. While nms_iou > 0, a candidate is tested only against kept boxes
    whose circumradius can reach it (see _ranked_neighbours). Heading
    decodes as atan2(sin, cos).
    """
    xs, ys = outputs.grid.cell_centers()
    detections: list[DetBox] = []
    for cls in outputs.classes:
        p, offsets, sc = outputs.prob[cls], outputs.centers[cls], outputs.headings[cls]
        rows, cols = np.nonzero(p >= score_floor)
        order = np.lexsort((cols, rows, -p[rows, cols]))
        rows, cols = rows[order], cols[order]
        cx = xs[rows] + offsets[rows, cols, 0, 0]
        cy = ys[cols] + offsets[rows, cols, 0, 1]
        sides = np.maximum(outputs.size[cls][rows, cols], np.float64(MIN_DECODED_SIDE))
        if not (np.isfinite(cx).all() and np.isfinite(cy).all() and np.isfinite(sides).all()):
            raise ValueError(f"{cls}: box parameters must be finite")
        kept: dict[int, DetBox] = {}  # by candidate index, in rank order
        for i, near in _ranked_neighbours(cx, cy, 0.5 * np.hypot(sides[:, 0], sides[:, 1]), kept):
            r, c = int(rows[i]), int(cols[i])
            heading = math.atan2(sc[r, c, 0, 0], sc[r, c, 0, 1])
            box = RotatedBox2D(cx[i], cy[i], float(sides[i, 0]), float(sides[i, 1]), heading)
            partners = [kept[j] for j in near if j in kept] if nms_iou > 0.0 else kept.values()
            if all(rotated_iou(box, other.box) < nms_iou for other in partners):
                kept[i] = DetBox(
                    cls, float(p[r, c]), box,
                    waypoints=np.array([xs[r], ys[c]]) + offsets[r, c, 1:],
                    headings=np.arctan2(sc[r, c, 1:, 0], sc[r, c, 1:, 1]),
                    cell=(r, c),
                )
                if len(kept) == MAX_DETECTIONS_PER_CLASS:
                    break
        detections.extend(kept.values())
    return detections


def _ranked_neighbours(cx: np.ndarray, cy: np.ndarray, reach: np.ndarray, kept: dict):
    """Yield each candidate index with the earlier candidates that may intersect it.

    A pair can intersect only if its center distance is within the sum of
    the circumradii; rotated_iou returns 0 for every other pair. Candidates
    come in blocks of MAX_DETECTIONS_PER_CLASS. Each block is compared with
    itself and with the candidates in `kept` as the block starts: a sweep
    along x within the widest reach, then the distance test. Both have
    relative slack far above their few-ulp rounding, the window also
    relative to |x|; overflow to inf widens them. Inputs must be finite.
    """
    for start in range(0, len(cx), MAX_DETECTIONS_PER_CLASS):
        block = np.arange(start, min(start + MAX_DETECTIONS_PER_CLASS, len(cx)))
        earlier = np.concatenate([np.fromiter(kept, dtype=np.int64, count=len(kept)), block])
        earlier = earlier[np.argsort(cx[earlier], kind="stable")]
        with np.errstate(over="ignore"):
            width = ((reach[block] + reach[earlier].max()) * (1.0 + _REACH_SLACK)
                     + _REACH_SLACK * np.abs(cx[block]))
            lo = np.searchsorted(cx[earlier], cx[block] - width, side="left")
            hi = np.searchsorted(cx[earlier], cx[block] + width, side="right")
            counts = hi - lo
            i = np.repeat(block, counts)
            j = earlier[np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
            near = (j < i) & (np.hypot(cx[i] - cx[j], cy[i] - cy[j])
                              <= (reach[i] + reach[j]) * (1.0 + _REACH_SLACK))
        i, j = i[near], j[near].tolist()
        bounds = np.searchsorted(i, np.arange(start, start + len(block) + 1)).tolist()  # i is nondecreasing
        yield from zip(block.tolist(), (j[a:b] for a, b in zip(bounds[:-1], bounds[1:])))


@dataclass
class MatchResult:
    """Descending-score detections of one class matched against ground truth."""

    scores: np.ndarray  # sorted descending
    tp: np.ndarray  # bool per detection
    matched_gt: np.ndarray  # gt index per detection, -1 for false positives
    n_gt: int
    det_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def match_detections(dets: Sequence[DetBox], gt_boxes: Sequence[RotatedBox2D],
                     iou_thresh: float) -> MatchResult:
    """Greedy matching: best-IoU unmatched ground truth, one match each."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gt_boxes)
    tp = np.zeros(len(dets), dtype=bool)
    matched = np.full(len(dets), -1, dtype=np.int64)
    for rank, i in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gt_boxes):
            if taken[j]:
                continue
            iou = rotated_iou(dets[i].box, gt)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_thresh:
            taken[best_j] = True
            tp[rank] = True
            matched[rank] = best_j
    scores = np.array([dets[i].score for i in order])
    return MatchResult(scores, tp, matched, len(gt_boxes), np.array(order, dtype=np.int64))


def _pooled(results: Sequence[MatchResult]):
    scores = np.concatenate([r.scores for r in results]) if results else np.zeros(0)
    tp = np.concatenate([r.tp for r in results]) if results else np.zeros(0, dtype=bool)
    n_gt = sum(r.n_gt for r in results)
    order = np.argsort(-scores, kind="stable")
    return scores[order], tp[order], n_gt


def average_precision(results: Sequence[MatchResult]) -> float:
    """All-point AP: area under the monotone precision envelope.

    Recall rises by exactly 1 / n_gt at each true positive, so the area is
    the envelope summed at the true positives over n_gt. A perfect detector
    scores exactly 1.0 for every label count.
    """
    scores, tp, n_gt = _pooled(results)
    if n_gt == 0 or len(scores) == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(tp) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(envelope[tp]) / n_gt)


def operating_threshold_for_recall(results: Sequence[MatchResult],
                                   recall_target: float = DEFAULT_RECALL_TARGET) -> float:
    """Highest score threshold whose recall is at least the target."""
    scores, tp, n_gt = _pooled(results)
    if n_gt == 0:
        raise RecallUnattainableError("no ground truth to recall")
    recall = np.cumsum(tp) / n_gt
    reached = np.nonzero(recall >= recall_target)[0]
    if reached.size == 0:
        raise RecallUnattainableError(
            f"max achievable recall {recall[-1] if len(recall) else 0.0:.3f} < target {recall_target}"
        )
    return float(scores[reached[0]])


def displacement_error(tp_pairs: Sequence[tuple[DetBox, ActorLabel]], horizon: int) -> float:
    """Mean Euclidean error at the given horizon over TP pairs, in centimeters."""
    if not tp_pairs:
        raise ValueError("displacement error needs at least one matched pair")
    dists = []
    for det, label in tp_pairs:
        pred = det.waypoints[horizon - 1]
        gt = label.centers[horizon]
        dists.append(math.hypot(pred[0] - gt[0], pred[1] - gt[1]))
    return 100.0 * float(np.mean(dists))


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

def in_camera_fov(box: RotatedBox2D, camera: CameraModel | None) -> bool:
    """Center-projection rule: the box center must land in a valid column.

    Consistent with the pixel projector's column arithmetic; the vertical
    crop is ignored so membership is decided purely by azimuth. A pinhole
    cannot express a full turn, so camera=None means unrestricted view and
    always passes.
    """
    if camera is None:
        return True
    inv = se2_inverse(camera.mount)
    x, y = se2_apply(inv, box.cx, box.cy)
    if x <= 1e-9:
        return False
    col = math.floor(camera.cx + camera.fx * (-y) / x)
    return 0 <= col < camera.width


def filter_camera_fov(items: Sequence, camera: CameraModel,
                      range_bands: Sequence[tuple[float, float]] = ()) -> dict[str, list]:
    """Keep items (anything with a .box) inside the FOV; partition by range.

    Returns {"fov": [...]} plus one "fov_<lo>m-<hi>m" list per band, banded
    by the box center's distance to the ego origin.
    """
    in_fov = [item for item in items if in_camera_fov(item.box, camera)]
    out: dict[str, list] = {"fov": in_fov}
    for lo, hi in range_bands:
        key = f"fov_{lo:g}m-{hi:g}m"
        out[key] = [
            item for item in in_fov
            if lo <= math.hypot(item.box.cx, item.box.cy) < hi
        ]
    return out


# ---------------------------------------------------------------------------
# frame evaluation and report
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    sections: dict[str, dict[str, float]]

    def to_text(self) -> str:
        lines = []
        for name in sorted(self.sections):
            lines.append(f"[{name}]")
            for key, value in self.sections[name].items():
                lines.append(f"{key} = {value!r}")
            lines.append("")
        return "\n".join(lines) + ("" if lines and lines[-1] == "" else "\n")


def evaluate_frames(
    frames: Sequence[tuple[Sequence[DetBox], Sequence[ActorLabel]]],
    recall_target: float = DEFAULT_RECALL_TARGET,
    *,
    horizon: int,
    camera: CameraModel | None = None,
    range_bands: Sequence[tuple[float, float]],
) -> MetricsReport:
    """AP, operating threshold, and DE per class and slice over a frame set.

    horizon and range_bands are the preset's (Preset.horizon,
    Preset.range_bands), as pipeline.evaluate_bundles passes them."""
    slices: dict[str, list[tuple[list, list]]] = {"full": []}
    for dets, labels in frames:
        slices["full"].append((list(dets), list(labels)))
    if camera is not None:
        for dets, labels in frames:
            det_parts = filter_camera_fov(list(dets), camera, range_bands)
            lab_parts = filter_camera_fov(list(labels), camera, range_bands)
            for key in det_parts:
                slices.setdefault(key, []).append((det_parts[key], lab_parts[key]))

    sections: dict[str, dict[str, float]] = {}
    for cls, thresh in IOU_THRESHOLDS.items():
        for slice_name, frame_list in slices.items():
            per_frame = []
            for dets, labels in frame_list:
                cls_dets = [d for d in dets if d.cls == cls]
                cls_labels = [lab for lab in labels if lab.cls == cls]
                match = match_detections(cls_dets, [lab.box for lab in cls_labels], thresh)
                per_frame.append((match, cls_dets, cls_labels))
            matches = [m for m, _, _ in per_frame]
            section = {
                "ap": average_precision(matches),
                "gt_count": float(sum(m.n_gt for m in matches)),
                "det_count": float(sum(len(m.scores) for m in matches)),
                "iou_threshold": float(thresh),
            }
            try:
                threshold = operating_threshold_for_recall(matches, recall_target)
                section["operating_threshold"] = threshold
                pairs = []
                for match, cls_dets, cls_labels in per_frame:
                    for rank, det_idx in enumerate(match.det_indices.tolist()):
                        if match.tp[rank] and match.scores[rank] >= threshold:
                            pairs.append((cls_dets[det_idx], cls_labels[int(match.matched_gt[rank])]))
                if pairs and horizon <= min(len(p[0].waypoints) for p in pairs):
                    section["de_cm"] = displacement_error(pairs, horizon)
            except RecallUnattainableError:
                section["recall_unattainable"] = 1.0
            sections[f"{cls}.{slice_name}"] = section
    return MetricsReport(sections)
