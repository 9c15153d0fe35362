#!/usr/bin/env python3
"""tracemalloc peaks of one frame's forward pass, per stage and per conv layer.

Generates the first frame of scene seed --seed on --preset, writes it as a
bundle and reads it back, then runs the pipeline stages one by one under
tracemalloc with the benchmark's seeded weights (seed 0, camera branch on).
Prints one JSON line per conv layer and per stage, in the order they end,
then one for the whole frame:

  {"kind": "layer", "name": "bev.lidar1", "stage": "bev_branch", "peak_mib": 231.3}
  {"kind": "stage", "name": "bev_branch", "peak_mib": 436.0}
  {"kind": "frame", "name": "forward", "peak_mib": 436.0, "baseline_mib": 37.9}

A peak is the most memory held at once while the layer or stage ran, in
MiB above the baseline taken right after the bundle read, so it counts what
the forward pass holds on top of the frame it reads. Unlike peak RSS it
depends only on the sizes and lifetimes of the allocations, not on the
allocator's state or the host's huge-page settings.

    PYTHONPATH=src python3 scripts/stage_memory.py --preset atg4d --seed 0
"""
import argparse
import json
import tempfile
import tracemalloc
from pathlib import Path

from mvfusion import bundle_io, network, pipeline
from mvfusion.presets import get_preset

MIB = float(1 << 20)


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

    def traced_conv(fm, layer, weights):
        interval_peak()
        out = conv_fn(fm, layer, weights)
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "atg4d"), default="desk")
    parser.add_argument("--seed", type=int, default=0, help="scene seed")
    args = parser.parse_args(argv)

    preset = get_preset(args.preset)
    weights = pipeline.make_weights(preset, 0)
    _, bundles = pipeline.generate_bundles(preset, args.seed, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.bin"
        bundle_io.write_frame_bundle(path, bundles[0])
        del bundles
        tracemalloc.start()
        try:
            bundle = bundle_io.read_frame_bundle(path, preset.name, preset.camera)
            baseline = tracemalloc.get_traced_memory()[0]
            records = forward_peaks(preset, bundle, weights, baseline)
        finally:
            tracemalloc.stop()
    for record in records:
        record["peak_mib"] = round(record["peak_mib"], 1)
        print(json.dumps(record))
    frame_peak = max(r["peak_mib"] for r in records if r["kind"] == "stage")
    print(json.dumps({"kind": "frame", "name": "forward", "peak_mib": frame_peak,
                      "baseline_mib": round(baseline / MIB, 1)}))


if __name__ == "__main__":
    main()
