#!/usr/bin/env python3
"""The frame's arena plan, then tracemalloc peaks per stage and per conv layer,
or with --frames N the CPU time, page faults and peak RSS of N frames.

Generates the first frame of scene seed --seed on --preset and writes it as
a bundle, with the benchmark's seeded weights (seed 0, camera branch on).
First prints the arena plan (pipeline.frame_plan): one JSON line per
tensor with its bytes, offset and live range (the names of its first and
last steps), then the arena's size:

  {"kind": "tensor", "name": "bev.lidar1", "bytes": 75040000, "offset": 187695104, "first": "bev.lidar1", "last": "bev.lidar2"}
  {"kind": "arena", "mib": 435.6, "tensors": 54}

Then, by default, reads the bundle back and runs the pipeline stages one
by one under tracemalloc, printing one JSON line per conv layer and per
stage, in the order they end, then one for the whole frame:

  {"kind": "layer", "name": "bev.lidar1", "stage": "bev_branch", "peak_mib": 435.6}
  {"kind": "stage", "name": "bev_branch", "peak_mib": 435.6}
  {"kind": "frame", "name": "forward", "peak_mib": 445.1, "baseline_mib": 96.2}

A peak is the most memory held at once while the layer or stage ran, in
MiB above the baseline taken right after the bundle read, so it counts what
the forward pass holds on top of the frame it reads; the arena is allocated
inside the first stage, so every peak includes it. Unlike peak RSS it
depends only on the sizes and lifetimes of the allocations, not on the
allocator's state or the host's huge-page settings.

With --frames N, instead reads the bundle and runs forward_frame N times in
this process, printing one JSON line per frame with the user and system
CPU ms and the minor page faults of that read + forward, and the process's
peak RSS (ru_maxrss) after it. The first frame allocates the arena and
pays its page faults; later frames reuse it:

  {"kind": "round", "frame": 1, "user_ms": 1451.0, "sys_ms": 4.0, "minor_faults": 312, "maxrss_mb": 737.9}

    PYTHONPATH=src python3 scripts/stage_memory.py --preset atg4d --seed 0
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/stage_memory.py --preset atg4d --frames 5
"""
import argparse
import json
import resource
import tempfile
import tracemalloc
from pathlib import Path

from mvfusion import bundle_io, network, pipeline
from mvfusion.presets import get_preset

MIB = float(1 << 20)


def plan_records(plan) -> list[dict]:
    records = [{"kind": "tensor", "name": t.name, "bytes": t.nbytes, "offset": t.offset,
                "first": plan.steps[t.first], "last": plan.steps[t.last]} for t in plan.tensors]
    return records + [{"kind": "arena", "mib": round(plan.size / MIB, 1), "tensors": len(plan.tensors)}]


def forward_peaks(preset, bundle, weights, baseline: int) -> list[dict]:
    """One record per conv layer and per stage, in the order they end."""
    records, stage_peak = [], 0

    def interval_peak() -> int:
        """Peak since the previous call; starts a new interval."""
        nonlocal stage_peak
        peak = tracemalloc.get_traced_memory()[1] - baseline
        tracemalloc.reset_peak()
        stage_peak = max(stage_peak, peak)
        return peak

    conv_fn = network.conv2d_forward

    def traced_conv(fm, layer, weights, **kwargs):
        interval_peak()
        out = conv_fn(fm, layer, weights, **kwargs)
        records.append({"kind": "layer", "name": layer.name, "stage": stage, "peak_mib": interval_peak() / MIB})
        return out

    network.conv2d_forward = traced_conv
    try:
        ctx = {"bundle": bundle}
        for stage, run in pipeline.pipeline_stages(preset, weights):
            stage_peak = 0
            interval_peak()
            ctx.update(run(ctx))
            interval_peak()
            records.append({"kind": "stage", "name": stage, "peak_mib": stage_peak / MIB})
    finally:
        network.conv2d_forward = conv_fn
    return records


def peak_records(path, preset, weights) -> list[dict]:
    tracemalloc.start()
    try:
        bundle = bundle_io.read_frame_bundle(path, preset.name, preset.camera)
        baseline = tracemalloc.get_traced_memory()[0]
        records = forward_peaks(preset, bundle, weights, baseline)
    finally:
        tracemalloc.stop()
    for record in records:
        record["peak_mib"] = round(record["peak_mib"], 1)
    frame_peak = max(r["peak_mib"] for r in records if r["kind"] == "stage")
    return records + [{"kind": "frame", "name": "forward", "peak_mib": frame_peak,
                       "baseline_mib": round(baseline / MIB, 1)}]


def round_records(path, preset, weights, frames: int) -> list[dict]:
    records = []
    for frame in range(1, frames + 1):
        before = resource.getrusage(resource.RUSAGE_SELF)
        pipeline.forward_frame(bundle_io.read_frame_bundle(path, preset.name, preset.camera), preset, weights)
        after = resource.getrusage(resource.RUSAGE_SELF)
        records.append({"kind": "round", "frame": frame,
                        "user_ms": round((after.ru_utime - before.ru_utime) * 1e3, 1),
                        "sys_ms": round((after.ru_stime - before.ru_stime) * 1e3, 1),
                        "minor_faults": after.ru_minflt - before.ru_minflt,
                        "maxrss_mb": round(after.ru_maxrss / 1024.0, 1)})
    return records


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "atg4d"), default="desk")
    parser.add_argument("--seed", type=int, default=0, help="scene seed")
    parser.add_argument("--frames", type=int, default=0,
                        help="time this many read + forward frames instead of tracing one")
    args = parser.parse_args(argv)

    preset = get_preset(args.preset)
    weights = pipeline.make_weights(preset, 0)
    for record in plan_records(pipeline.frame_plan(preset, pipeline.layer_plan(preset, weights))):
        print(json.dumps(record))
    _, bundles = pipeline.generate_bundles(preset, args.seed, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.bin"
        bundle_io.write_frame_bundle(path, bundles[0])
        del bundles
        if args.frames > 0:
            records = round_records(path, preset, weights, args.frames)
        else:
            records = peak_records(path, preset, weights)
    for record in records:
        print(json.dumps(record))


if __name__ == "__main__":
    main()
