"""Command-line surface tying the pipeline together for batch use.

Subcommands: gen (scenes to frame bundles), raster (bundles to feature
maps plus PGM dumps), project (cross-view projection demos), forward
(seeded-weight inference), fit (direct output fitting), eval (decode and
metrics report), bench (median CPU ms per stage and per whole frame),
selfcheck (oracle/invariant suite). --no-camera picks seeded weights
without the camera branch and the plan a --weights file must match; the
forward pass reads the branch off the weights. Every artifact path is
printed to stdout, one per line; the exit code is 0 only on full success.

Output bits depend on the BLAS kernel and its thread count (README.md,
"Determinism"), so the CLI runs BLAS and OpenMP on one thread unless the
environment already names a count: the variables are set before numpy is
first imported, and a run then reproduces the benchmark's digests.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .blockfile import BlockFileError
from .bundle_io import (
    BundleFormatError,
    format_scene_config,
    read_frame_bundle,
    write_frame_bundle,
)
from .losses import total_loss
from .metrics import decode_detections
from .network import load_weights, network_plan, save_weights
from .pipeline import (
    benchmark_frame,
    evaluate_bundles,
    fit_frame,
    forward_frame,
    generate_bundles,
    load_cell_outputs,
    make_weights,
    rasterize_frame,
    save_cell_outputs,
    scene_config_for,
)
from .presets import bev_stack_channels, get_preset, preset_names
from .projection import project_features
from .raster import dump_featuremap_pgm
from .selfcheck import run_selfcheck


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfusion",
        description="multi-view sensor-fusion pipeline on synthetic scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", default="desk", choices=preset_names())
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--frames", type=int, default=1)
        p.add_argument("--no-camera", action="store_true", help="drop the camera sub-branch")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--weights", default=None, help="weights file (default: seeded init)")
        p.add_argument("--score-floor", type=float, default=0.5)
        p.add_argument("--nms-iou", type=float, default=0.3)
        p.add_argument("--recall-target", type=float, default=0.8)
        return p

    common(sub.add_parser("gen", help="generate scenes and frame bundles"))
    common(sub.add_parser("raster", help="rasterize bundles and dump PGM channels"))
    common(sub.add_parser("project", help="cross-view feature projection demos"))
    common(sub.add_parser("forward", help="seeded-weight network inference"))
    fit = common(sub.add_parser("fit", help="fit outputs directly to the labels"))
    fit.add_argument("--steps", type=int, default=400)
    common(sub.add_parser("eval", help="decode outputs and write the metrics report"))
    bench = common(sub.add_parser("bench", help="per-stage and whole-frame CPU-time latency table"))
    bench.add_argument("--repeats", type=int, default=20)
    common(sub.add_parser("selfcheck", help="run the oracle/invariant suite"))
    return parser


def _emit(path: Path) -> None:
    print(path)


def _bundle_paths(out: Path) -> list[Path]:
    paths = sorted(out.glob("bundle_*.bin"))
    if not paths:
        raise FileNotFoundError(f"no bundle_*.bin under {out}; run `gen` first")
    return paths


def _load_bundles(args, preset):
    return [
        read_frame_bundle(p, expected_preset=preset.name, camera=preset.camera)
        for p in _bundle_paths(Path(args.out))
    ]


def _weights_for(args, preset):
    if not args.weights:
        return make_weights(preset, seed=args.seed, use_camera=not args.no_camera)
    weights = load_weights(args.weights)
    config = replace(preset.fusion, use_camera=not args.no_camera)
    try:
        weights.validate_plan(network_plan(config, bev_stack_channels(preset)))
    except ValueError as exc:
        raise BlockFileError(f"{args.weights}: {exc}") from exc
    return weights


def cmd_gen(args) -> int:
    preset = get_preset(args.preset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene, bundles = generate_bundles(preset, args.seed, args.frames)
    config_path = out / "scene_config.txt"
    config_path.write_text(format_scene_config(scene_config_for(preset, args.seed, args.frames)))
    _emit(config_path)
    for i, bundle in enumerate(bundles):
        path = out / f"bundle_{i:03d}.bin"
        write_frame_bundle(path, bundle)
        _emit(path)
    return 0


def cmd_raster(args) -> int:
    preset = get_preset(args.preset)
    for i, bundle in enumerate(_load_bundles(args, preset)):
        rasters = rasterize_frame(bundle, preset)
        base = Path(args.out) / f"raster_{i:03d}"
        for name in ("lidar_stack", "map_raster", "rv_image"):
            for path in dump_featuremap_pgm(rasters[name], base / name):
                _emit(path)
    return 0


def cmd_project(args) -> int:
    preset = get_preset(args.preset)
    for i, bundle in enumerate(_load_bundles(args, preset)):
        points = bundle.sweeps[-1].points
        base = Path(args.out) / f"project_{i:03d}"
        cam_rv, cam_rv_valid = project_features(bundle.camera_image, points, preset.rv)
        for path in dump_featuremap_pgm(cam_rv, base / "camera_to_rv"):
            _emit(path)
        for path in dump_featuremap_pgm(cam_rv_valid, base / "camera_to_rv_validity"):
            _emit(path)
        from .raster import build_rv_image

        rv_image = build_rv_image(bundle.sweeps[-1], preset.rv)
        rv_bev, rv_bev_valid = project_features(rv_image, points, preset.grid)
        for path in dump_featuremap_pgm(rv_bev, base / "rv_to_bev"):
            _emit(path)
        for path in dump_featuremap_pgm(rv_bev_valid, base / "rv_to_bev_validity"):
            _emit(path)
    return 0


def cmd_forward(args) -> int:
    preset = get_preset(args.preset)
    out = Path(args.out)
    weights = _weights_for(args, preset)
    if not args.weights:
        wpath = out / "weights.bin"
        save_weights(wpath, weights)
        _emit(wpath)
    for i, bundle in enumerate(_load_bundles(args, preset)):
        outputs = forward_frame(bundle, preset, weights)
        path = out / f"outputs_{i:03d}.bin"
        save_cell_outputs(path, outputs)
        _emit(path)
    return 0


def cmd_fit(args) -> int:
    preset = get_preset(args.preset)
    out = Path(args.out)
    for i, bundle in enumerate(_load_bundles(args, preset)):
        result, targets = fit_frame(bundle, preset, steps=args.steps, seed=args.seed)
        path = out / f"outputs_{i:03d}.bin"
        save_cell_outputs(path, result.outputs)
        _emit(path)
        report = out / f"fit_loss_{i:03d}.txt"
        report.write_text(total_loss(result.outputs, targets).to_text())
        _emit(report)
    return 0


def cmd_eval(args) -> int:
    preset = get_preset(args.preset)
    out = Path(args.out)
    bundles = _load_bundles(args, preset)
    frames = []
    for i, bundle in enumerate(bundles):
        opath = out / f"outputs_{i:03d}.bin"
        if not opath.exists():
            raise FileNotFoundError(f"{opath} missing; run `forward` or `fit` first")
        outputs = load_cell_outputs(opath)
        dets = decode_detections(outputs, score_floor=args.score_floor, nms_iou=args.nms_iou)
        frames.append((dets, list(bundle.labels.labels)))
    report = evaluate_bundles(frames, preset, recall_target=args.recall_target)
    path = out / "metrics.txt"
    path.write_text(report.to_text())
    _emit(path)
    return 0


def cmd_bench(args) -> int:
    preset = get_preset(args.preset)
    out = Path(args.out)
    bundles = _load_bundles(args, preset)
    weights = _weights_for(args, preset)
    medians = benchmark_frame(bundles[0], preset, weights, repeats=args.repeats)
    path = out / "latency.txt"
    lines = [f"repeats = {args.repeats}"] + [f"{name}_latency_ms = {ms:.3f}" for name, ms in medians.items()]
    path.write_text("\n".join(lines) + "\n")
    _emit(path)
    return 0


def cmd_selfcheck(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text, failures = run_selfcheck()
    path = out / "selfcheck_report.txt"
    path.write_text(text)
    _emit(path)
    if failures:
        print(f"selfcheck failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "raster": cmd_raster,
    "project": cmd_project,
    "forward": cmd_forward,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BundleFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
