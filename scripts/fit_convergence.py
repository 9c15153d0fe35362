#!/usr/bin/env python3
"""Convergence study: how fast direct output fitting drives the loss down.

For a few seeded scenes, fits outputs to the encoded targets and prints
the loss at checkpoints plus the final detection quality after decoding.
"""
import argparse

import numpy as np

from mvfusion.losses import encode_targets, fit_outputs
from mvfusion.metrics import average_precision, decode_detections, match_detections
from mvfusion.scene import SceneConfig, build_scene, scene_labels
from mvfusion.views import GridSpec

IOU = {"vehicle": 0.7, "pedestrian": 0.1, "bicyclist": 0.3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--steps", type=int, default=600)
    parser.add_argument("--lr", type=float, default=0.2)
    args = parser.parse_args()

    grid = GridSpec(16.0, 16.0, 3.2, 0.25, 0.25, 0.8, forward_fraction=0.5)
    checkpoints = sorted({c for c in (0, 50, 100, 200, 400, args.steps) if c <= args.steps})
    header = "seed  " + "".join(f"loss@{c:<6d}" for c in checkpoints) + "mean_ap"
    print(header)
    print("-" * len(header))
    for seed in args.seeds:
        scene = build_scene(SceneConfig(1, 1, 1, extent=7.5, duration=4.0), seed=seed)
        labels = scene_labels(scene, 0.0, 30)
        targets = encode_targets(labels, grid, output_stride=1)
        result = fit_outputs(targets, steps=args.steps, learning_rate=args.lr, seed=seed)
        dets = decode_detections(result.outputs)
        aps = []
        for cls in IOU:
            cls_labels = [lab.box for lab in labels.labels if lab.cls == cls]
            cls_dets = [d for d in dets if d.cls == cls]
            aps.append(average_precision([match_detections(cls_dets, cls_labels, IOU[cls])]))
        row = f"{seed:<6d}"
        for c in checkpoints:
            row += f"{result.losses[min(c, len(result.losses) - 1)]:<11.4f}"
        row += f"{np.mean(aps):.3f}"
        print(row)


if __name__ == "__main__":
    main()
