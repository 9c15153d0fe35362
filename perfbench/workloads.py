"""The benchmark's workloads and one measured run of a workload.

A run builds its inputs from the seed, then repeats whole rounds until
their wall time reaches the requested seconds. One round is one frame and
three operations, each timed on its own on the process's CPU clock:

  gen      simulate the frame (T sweeps, camera image, labels) and write its bundle
  forward  read the bundle and produce cell outputs: the seeded-weight network,
           or, on desk-fit, the output fit (encode_targets + fit_outputs)
  decode   decode/NMS of those outputs, under a fixed in-process deadline

After the rounds, the decoded frames are scored once (metrics.evaluate_frames).
All correctness checks run outside the timed spans. Every package function
is called through the module attribute the package itself uses, so the
traced run's wrappers see exactly the calls the untraced run makes.
"""
from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

import checks
from mvfusion import bundle_io, losses, metrics, network, pipeline, projection, raster
from mvfusion.network import network_plan
from mvfusion.presets import get_preset
from mvfusion.scene import CLASSES, build_scene
from mvfusion.views import OutputGrid
from spans import Tracer, median_over

WEIGHT_SEED = 0  # the CLI's default --seed; weights are configuration, not input
FIT_STEPS = 400  # the CLI's `mvfusion fit` default
FIT_SEED = 0
# CPU seconds: about a quarter of an atg4d forward pass and 50 times a desk
# decode; today every atg4d decode runs past it (see README.md).
DECODE_DEADLINE_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    producer: str  # "network" or "fit"
    frames_per_scene: int
    seeded_scenes: bool  # False: one fixed scene, whatever the seed
    reforward: bool  # forward each scene's first frame again; must be bit-identical


WORKLOADS = {
    # Small tensors: per-call overhead, im2col copies and the Python NMS
    # loop (about 520 candidates per frame, all kept) decide the time.
    "desk-stream": Workload("desk-stream", "desk", "network", 4, True, True),
    # Published geometry: large convs, 117k-point projections and the
    # 1.17M-point voxelization decide the time. The scene is fixed so the
    # decode that always misses its deadline is the same operation in
    # every run; see README.md. A second forward would double the run.
    "atg4d-frame": Workload("atg4d-frame", "atg4d", "network", 8, False, False),
    # The only workload that runs the objective (losses); its decode sees
    # sparse fitted outputs with real matches.
    "desk-fit": Workload("desk-fit", "desk", "fit", 2, True, False),
}

OPS = ("gen", "forward", "decode")
TIMES = ("gen", "forward", "frame", "gen_wall", "forward_wall", "frame_wall")


class DecodeDeadline(BaseException):
    """Raised by SIGPROF inside a decode that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DecodeDeadline()


def frame_stream(wl: Workload, preset, seed: int):
    """Endless (scene seed, scene, t_ref) sequence determined by the seed."""
    k = 0
    while True:
        scene_seed = 1000 * seed + k if wl.seeded_scenes else 0
        scene = build_scene(pipeline.scene_config_for(preset, scene_seed, wl.frames_per_scene))
        for t in pipeline.frame_times(preset, wl.frames_per_scene):
            yield scene_seed, scene, t
        k += 1


def prepare(wl: Workload, seed: int):
    """Set-up after the imports: preset, weights, and the first scene."""
    preset = get_preset(wl.preset)
    weights = pipeline.make_weights(preset, WEIGHT_SEED) if wl.producer == "network" else None
    stream = frame_stream(wl, preset, seed)
    return preset, weights, stream, next(stream)


def output_grid(wl: Workload, preset):
    stride = preset.fusion.output_stride if wl.producer == "network" else 1
    return OutputGrid.from_grid(preset.grid, stride)


def digest(outputs, dets=()) -> str:
    """SHA-256 of the cell outputs and, if given, the decoded boxes."""
    h = hashlib.sha256(outputs.pack().tobytes())
    if dets is None:
        h.update(b"decode missed its deadline")
    else:
        for d in dets:
            h.update(repr((d.cls, d.score, d.box, d.cell)).encode())
            h.update(d.waypoints.tobytes() + d.headings.tobytes())
    return h.hexdigest()


def candidates(outputs, score_floor: float = metrics.DEFAULT_SCORE_FLOOR) -> int:
    return int(sum(np.count_nonzero(outputs.prob[c] >= score_floor) for c in outputs.classes))


# ---------------------------------------------------------------------------
# tracing: one wrapper per public layer function, where the package looks it up
# ---------------------------------------------------------------------------

def conv_macs(layer, in_shape) -> int:
    h, w, cin = in_shape
    kh, kw = layer.kernel
    if layer.transposed:
        return h * w * cin * layer.out_channels * kw
    oh, ow = network.conv_output_shape(h, w, layer.stride)
    return oh * ow * kh * kw * cin * layer.out_channels


def install_tracer(tracer: Tracer, preset) -> None:
    def points_hook(t, args, kwargs, result):
        t.add("scene.points_per_sweep", len(result.points) / preset.sweep_count)

    def bytes_hook(t, args, kwargs, result):
        t.add("bundle_io.bundle_bytes", os.path.getsize(args[0]))

    def voxels_hook(t, args, kwargs, result):
        t.add("raster.bev_occupied_voxels", int(np.count_nonzero(result.data)))

    def kept_points(source, points, target):
        pts = points
        tr, tc, t_ok = projection.cells_for(target, pts.xyz, pts.laser, pts.azimuth)
        sr, sc, s_ok = projection.cells_for(source.geometry, pts.xyz, pts.laser, pts.azimuth)
        return int(np.count_nonzero(t_ok & s_ok))

    def cam_proj_hook(t, args, kwargs, result):
        t.add("projection.points_kept", kept_points(*args[:3]))

    def bev_proj_hook(t, args, kwargs, result):
        t.add("projection.points_kept", kept_points(*args[:3]))
        t.add("projection.rv_to_bev_hit_cells", int(np.count_nonzero(result[1].data > 0)))

    def conv_hook(t, args, kwargs, result):
        fm, layer = args[0], args[1]
        macs = conv_macs(layer, fm.data.shape)
        t.add(f"network.{layer.name}.macs", macs)
        t.layer_info[layer.name] = {"dtype": str(result.data.dtype), "in": list(fm.data.shape),
                                    "out": list(result.data.shape)}

    def targets_hook(t, args, kwargs, result):
        labels, grid, stride = args[:3]
        t.add("losses.labels_without_cells",
              len(checks.cellless_labels(labels.labels, OutputGrid.from_grid(grid, stride))))

    def decode_hook(t, args, kwargs, result):
        t.add("metrics.nms_kept", len(result))

    p, n = pipeline, network
    tracer.wrap(p, "simulate_sweep", "scene.simulate_sweep", points_hook)
    tracer.wrap(p, "render_camera", "scene.render_camera")
    tracer.wrap(p, "scene_labels", "scene.scene_labels")
    tracer.wrap(bundle_io, "write_frame_bundle", "bundle_io.write", bytes_hook)
    tracer.wrap(bundle_io, "read_frame_bundle", "bundle_io.read")
    tracer.wrap(p, "stack_history_bev", "raster.stack_history_bev", voxels_hook)
    tracer.wrap(p, "rasterize_map", "raster.rasterize_map")
    tracer.wrap(p, "build_rv_image", "raster.build_rv_image")
    tracer.wrap(n, "project_features", "projection.camera_to_rv", cam_proj_hook)
    tracer.wrap(p, "project_features", "projection.rv_to_bev", bev_proj_hook)
    tracer.wrap(p, "camera_net_forward", "network.camera_net")
    tracer.wrap(p, "rv_branch_forward", "network.rv_branch")
    tracer.wrap(p, "bev_branch_forward", "network.bev_branch")
    tracer.wrap(p, "fuse_and_head_forward", "network.fuse_head")
    tracer.wrap(n, "conv2d_forward", lambda fm, layer, *rest, **kw: f"network.{layer.name}", conv_hook)
    tracer.wrap(metrics, "decode_detections", "metrics.decode", decode_hook)
    tracer.count_calls(metrics, "rotated_iou", "metrics.iou_calls", inside="metrics.decode")
    tracer.wrap(p, "evaluate_frames", "metrics.evaluate")
    tracer.wrap(p, "encode_targets", "losses.encode_targets", targets_hook)
    tracer.wrap(losses, "total_loss", "losses.total_loss")
    tracer.wrap(losses, "loss_gradients", "losses.loss_gradients")


COMMON_CALLS = [
    "mvfusion.pipeline.simulate_sweep", "mvfusion.pipeline.render_camera", "mvfusion.pipeline.scene_labels",
    "mvfusion.bundle_io.write_frame_bundle", "mvfusion.bundle_io.read_frame_bundle",
    "mvfusion.metrics.decode_detections", "mvfusion.metrics.rotated_iou", "mvfusion.pipeline.evaluate_frames",
]
PRODUCER_CALLS = {
    "network": [
        "mvfusion.pipeline.stack_history_bev", "mvfusion.pipeline.rasterize_map", "mvfusion.pipeline.build_rv_image",
        "mvfusion.network.project_features", "mvfusion.pipeline.project_features",
        "mvfusion.pipeline.camera_net_forward", "mvfusion.pipeline.rv_branch_forward",
        "mvfusion.pipeline.bev_branch_forward", "mvfusion.pipeline.fuse_and_head_forward",
        "mvfusion.network.conv2d_forward",
    ],
    "fit": ["mvfusion.pipeline.encode_targets", "mvfusion.losses.total_loss", "mvfusion.losses.loss_gradients"],
}


def layer_metrics(tracer: Tracer, frames: list[int], eval_frames: int, preset) -> tuple[dict, list]:
    """Per-layer metrics: medians over frames of per-frame sums."""
    def ms(name):
        return median_over(frames, tracer.per_frame_ms(name))

    def count(name):
        return median_over(frames, tracer.per_frame_count(name))

    out = {}
    for name in ("scene.simulate_sweep", "scene.render_camera", "scene.scene_labels",
                 "bundle_io.write", "bundle_io.read",
                 "raster.stack_history_bev", "raster.rasterize_map", "raster.build_rv_image",
                 "projection.camera_to_rv", "projection.rv_to_bev",
                 "network.camera_net", "network.bev_branch", "network.fuse_head",
                 "metrics.decode", "losses.encode_targets", "losses.total_loss", "losses.loss_gradients"):
        out[f"{name}_ms"] = ms(name)
    rv = tracer.per_frame_ms("network.rv_branch")
    cam_rv = tracer.per_frame_ms("projection.camera_to_rv")
    out["network.rv_branch_ms"] = median_over(frames, {f: v - cam_rv.get(f, 0.0) for f, v in rv.items()})
    for name in ("scene.points_per_sweep", "bundle_io.bundle_bytes", "raster.bev_occupied_voxels",
                 "projection.points_kept", "projection.rv_to_bev_hit_cells",
                 "metrics.nms_candidates", "metrics.nms_kept", "metrics.iou_calls"):
        out[name] = count(name)
    out["losses.total_loss_calls"] = median_over(frames, tracer.per_frame_calls("losses.total_loss"))
    # a mean, not a median: one such label in four frames must not read 0
    cellless = tracer.per_frame_count("losses.labels_without_cells")
    out["losses.labels_without_cells"] = sum(cellless.get(f, 0.0) for f in frames) / max(len(frames), 1)
    evaluate = tracer.per_frame_ms("metrics.evaluate")
    out["metrics.evaluate_ms"] = sum(evaluate.values()) / max(eval_frames, 1)

    table = []
    conv_ms_frames: dict[int, float] = {}
    total_macs = 0
    for layer in network_plan(preset.fusion, preset.sweep_count * preset.grid.z_cells):
        per = tracer.per_frame_ms(f"network.{layer.name}")
        for f, v in per.items():
            conv_ms_frames[f] = conv_ms_frames.get(f, 0.0) + v
        layer_ms = median_over(frames, per)
        macs = count(f"network.{layer.name}.macs")
        total_macs += macs
        gflops = 2.0 * macs / (layer_ms * 1e6) if layer_ms > 0 else 0.0
        out[f"network.{layer.name}.ms"] = layer_ms
        out[f"network.{layer.name}.gflops"] = gflops
        info = tracer.layer_info.get(layer.name, {})
        table.append({"layer": layer.name, "ms": layer_ms, "macs": macs, "gflops": gflops,
                      "dtype": info.get("dtype", "-"), "in": info.get("in"), "out": info.get("out")})
    out["network.conv_ms"] = median_over(frames, conv_ms_frames)
    out["network.conv_macs"] = total_macs
    out["network.conv_gflops"] = 2.0 * total_macs / (out["network.conv_ms"] * 1e6) if out["network.conv_ms"] else 0.0
    return out, table


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------

def bounded_decode(outputs, deadline_s: float, tracer: Tracer | None):
    """decode_detections under a CPU-time deadline; None when it ran past it.

    ITIMER_PROF counts the process's CPU time, the clock the rounds are
    timed on, so a missed decode costs the same deadline in every run.
    """
    depth = len(tracer.stack) if tracer else 0
    previous = signal.signal(signal.SIGPROF, _on_alarm)
    signal.setitimer(signal.ITIMER_PROF, deadline_s)
    try:
        return metrics.decode_detections(outputs)
    except DecodeDeadline:
        if tracer:
            tracer.unwind(depth)
            tracer.counts.pop(("metrics.iou_calls", tracer.frame), None)
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def produce(wl: Workload, bundle, preset, weights):
    if wl.producer == "network":
        return pipeline.forward_frame(bundle, preset, weights), None
    fit, _ = pipeline.fit_frame(bundle, preset, steps=FIT_STEPS, seed=FIT_SEED)
    return fit.outputs, fit.losses


def run_round(wl, preset, weights, scene, t, path, tracer):
    """One frame's three timed operations; returns timings and what the checks need."""
    c0, t0 = time.process_time(), time.perf_counter()
    generated = pipeline.generate_bundle(preset, scene, t)
    bundle_io.write_frame_bundle(path, generated)
    c1, t1 = time.process_time(), time.perf_counter()
    bundle = bundle_io.read_frame_bundle(path, preset.name, preset.camera)
    outputs, fit_losses = produce(wl, bundle, preset, weights)
    c2, t2 = time.process_time(), time.perf_counter()
    dets = bounded_decode(outputs, DECODE_DEADLINE_S, tracer)
    c3, t3 = time.process_time(), time.perf_counter()
    if tracer:
        tracer.add("metrics.nms_candidates", candidates(outputs))
    times = {"gen": (c1 - c0) * 1e3, "forward": (c2 - c1) * 1e3, "frame": (c3 - c1) * 1e3,
             "gen_wall": (t1 - t0) * 1e3, "forward_wall": (t2 - t1) * 1e3, "frame_wall": (t3 - t1) * 1e3,
             "missed": dets is None}
    return times, generated, bundle, outputs, fit_losses, dets


def check_round(wl, preset, generated, bundle, outputs, fit_losses, dets) -> None:
    checks.check_bundle_roundtrip(generated, bundle)
    for sweep in generated.sweeps:
        checks.check_sweep_points(sweep, preset.sensor)
    checks.check_cell_outputs(outputs, output_grid(wl, preset), preset.horizon, CLASSES)
    if dets is not None:
        checks.check_nms(dets, metrics.DEFAULT_SCORE_FLOOR, metrics.DEFAULT_NMS_IOU)
    if fit_losses is not None:
        checks.check_fit(fit_losses)


def check_scene_frame(wl, preset, weights, path, want_digest) -> None:
    """Checks on the kept first frame of a scene, after the rounds.

    The BEV stack of its sweeps and the RV->BEV projection of its RV image
    are checked against counts and averages recomputed in checks.py; with
    wl.reforward, a second forward must give bit-identical cell outputs.
    """
    bundle = bundle_io.read_frame_bundle(path, preset.name, preset.camera)
    grid, points = preset.grid, bundle.sweeps[-1].points
    checks.check_voxels(raster.stack_history_bev(bundle.sweeps, grid), bundle.sweeps, grid)
    rv_image = raster.build_rv_image(bundle.sweeps[-1], preset.rv)
    features, validity = projection.project_features(rv_image, points, grid)
    checks.check_rv_to_bev(rv_image, points, grid, features, validity)
    if wl.reforward:
        checks.check_identical(digest(pipeline.forward_frame(bundle, preset, weights)), want_digest,
                               os.path.basename(path))


def verify(failures: list, check, *args):
    try:
        return check(*args)
    except checks.CheckError as err:
        failures.append(f"{check.__name__}: {err}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir, probe) -> dict:
    """One measured run; returns metrics, counts, digests and the layer table.

    probe() is called once before the first round and once after the last,
    outside the timed work.
    """
    preset, weights, stream, first = prepare(wl, seed)
    probe()

    tracer = Tracer() if trace else None
    if tracer:
        install_tracer(tracer, preset)
    path = os.path.join(workdir, "bundle.bin")
    rounds, frames_done, digests, failures = [], [], [], []
    scene_firsts = {}  # scene seed -> (kept bundle file, outputs digest) of its first frame
    timed = 0.0
    try:
        item = first
        while not rounds or timed < seconds:
            scene_seed, scene, t = item
            if tracer:
                tracer.frame = len(rounds)
            times, generated, bundle, outputs, fit_losses, dets = run_round(
                wl, preset, weights, scene, t, path, tracer)
            timed += (times["gen_wall"] + times["frame_wall"]) / 1e3  # the run's length is wall time
            rounds.append(times)
            if len(rounds) == 1:
                rss = peak_rss_mb()  # set-up and one frame; later frames only add held results
            # checks and bookkeeping below are outside the timed spans
            frames_done.append((dets or [], bundle.labels.labels))
            digests.append(digest(outputs, dets))
            if wl.producer == "network" and scene_seed not in scene_firsts:
                kept = os.path.join(workdir, f"first-of-scene-{scene_seed}.bin")
                shutil.copyfile(path, kept)
                scene_firsts[scene_seed] = (kept, digest(outputs))
            verify(failures, check_round, wl, preset, generated, bundle, outputs, fit_losses, dets)
            del generated, bundle, outputs
            item = next(stream)

        if tracer:
            tracer.frame = -1
        c0 = time.process_time()
        report = pipeline.evaluate_bundles(frames_done, preset)
        eval_ms = (time.process_time() - c0) * 1e3 / len(frames_done)
    finally:
        if tracer:
            tracer.uninstall()

    probe()
    verify(failures, checks.check_eval_counts, report, frames_done, preset.camera, preset.range_bands, CLASSES)
    known_fault = {}
    if wl.producer == "fit":
        def evaluate(frames):
            return pipeline.evaluate_bundles(frames, preset)
        known_fault = verify(failures, checks.check_fit_ap, report, frames_done,
                             output_grid(wl, preset), CLASSES, evaluate) or {}
    else:
        for kept, want in scene_firsts.values():
            verify(failures, check_scene_frame, wl, preset, weights, kept, want)

    median = {op: statistics.median(r[op] for r in rounds) for op in TIMES}
    frame_ms = sorted(r["frame"] for r in rounds)
    extra = {"gen_ms": median["gen"], "eval_ms": eval_ms, "frames": len(rounds),
             **{f"{op}_ms": median[op] for op in TIMES if op.endswith("_wall")}}
    if len(frame_ms) >= 100:  # at least ten samples beyond the 90th percentile
        extra["frame_ms_p90"] = frame_ms[math.ceil(0.9 * len(frame_ms)) - 1]
    if wl.producer == "fit":
        extra["labels_without_cells"] = known_fault.get("labels_without_cells", 0)
    result = {
        "attempted": len(OPS) * len(rounds),
        "failed": sum(1 for r in rounds if r["missed"]),
        "digests": digests,
        "check_failures": failures,
        "known_fault": known_fault,
        # medians of the run's CPU times: see README.md, "Statistics"
        "e2e": {"forward_ms": median["forward"], "frame_ms": median["frame"], "peak_rss_mb": rss},
        "extra": extra,
        "times": {op: [r[op] for r in rounds] for op in TIMES},
    }
    if tracer:
        tracer.check_called(COMMON_CALLS + PRODUCER_CALLS[wl.producer])
        result["layers"], result["conv_table"] = layer_metrics(tracer, list(range(len(rounds))),
                                                               len(frames_done), preset)
        result["tracer"] = tracer
    return result
