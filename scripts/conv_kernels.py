#!/usr/bin/env python3
"""Every conv layer of a preset's first frame under each kernel it can take.

Generates the first frame of scene seed --seed on --preset, writes it as a
bundle and reads it back, then runs it through the pipeline with the
benchmark's seeded weights (seed 0, camera branch on). Each conv layer's
call is timed first under every kernel that can run it, on its own input,
writing into its own output and work (bev.map2, which adds into
bev.lidar2's output, adds into a copy of it):

- im2col, for every layer;
- winograd, for the 3x3 stride-(1, 1) layers;
- occupied, for the stride-(1, 1) layers whose input has an empty pixel.

The transposed unet.up runs as its (1, 3) stride-(1, 1) sub-pixel conv
(network.sub_pixel_conv), so it is timed like any stride-1 layer. A
joined layer (fuse.conv1, and unet.enc1 with the camera) is split by
linearity (network.split_conv): its row times its dense part, the conv
over its features, and a row of its own, "<layer>.projected", times its
projected part (network.projected_part) adding into a copy of the dense
part's output. That part always runs the occupied-pixel kernel over the
cells points hit, so its row gives the share of the projection's cells
hit as "occupied" and only an occupied time.

A kernel is forced by setting the rule's constants in network, so each
time is that of a whole conv2d_raw call with that kernel chosen, the
occupancy scan included. A forced Winograd call gets the layer's float32
planes: the net's own (FusionNet.planes), or, for a layer the net holds
none for, planes made once before the timed calls. Prints one Markdown
table row per layer and per projected part, in call order: the input
shape, the share of its pixels that are occupied (channel row not all
zero), the kernel the rule picks (network.conv_kernel_of) and the median
CPU ms of --repeats calls under each eligible kernel ("-" where a kernel
cannot run the layer):

  | layer | input | occupied | rule | im2col ms | winograd ms | occupied ms |
  |---|---|---|---|---|---|---|
  | bev.lidar1 | 96x64x12 | 0.203 | occupied | 0.40 | 0.76 | 0.40 |

BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS,
MKL_NUM_THREADS) is set, as in the benchmark.

    PYTHONPATH=src python3 scripts/conv_kernels.py --preset atg4d --seed 0
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mvfusion import bundle_io, network, pipeline
from mvfusion.presets import get_preset

KERNELS = (network.IM2COL, network.WINOGRAD, network.OCCUPIED)

# The rule's constants that force each kernel: the occupied-pixel kernel
# takes a stride-1 input when its share is at least 1 and never when it is
# negative; Winograd takes every dense 3x3 stride-1 input at 0 channels.
_FORCED = {
    network.IM2COL: {"_OCCUPIED_SHARE": -1.0, "_WINOGRAD_MIN_CHANNELS": float("inf")},
    network.WINOGRAD: {"_OCCUPIED_SHARE": -1.0, "_WINOGRAD_MIN_CHANNELS": 0},
    network.OCCUPIED: {"_OCCUPIED_SHARE": 1.0},
}


@contextmanager
def forced(kernel: str):
    """network's rule set so that conv2d_raw picks kernel wherever it can run."""
    saved = {name: getattr(network, name) for name in _FORCED[kernel]}
    for name, value in _FORCED[kernel].items():
        setattr(network, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(network, name, value)


def occupied_share(data: np.ndarray) -> float:
    pixels = data.reshape(-1, data.shape[2])
    return np.count_nonzero(pixels.any(axis=1)) / len(pixels)


def eligible(layer, share: float) -> list[str]:
    kernels = [network.IM2COL]
    if layer.kernel == (3, 3) and layer.stride == (1, 1):
        kernels.append(network.WINOGRAD)
    if layer.stride == (1, 1) and share < 1.0:
        kernels.append(network.OCCUPIED)
    return kernels


def layer_rows(preset, path, weights, repeats: int) -> list[dict]:
    """One record per conv call and per projected part of a forward pass of the bundle at path."""
    rows = []
    conv_fn = network.conv2d_forward

    def timed_conv(fm, layer, net, out=None, work=None, add_to=None):
        share = occupied_share(fm.data)
        rule = network.conv_kernel_of(fm.data, layer)
        row = {"layer": layer.name, "input": "x".join(map(str, fm.data.shape)), "occupied": share, "rule": rule,
               "ms": {}}
        kernel_block, bias = net.params[layer.name]
        target = {"out": out} if add_to is None else {"add_to": add_to.copy()}  # the frame's sum stays as it is
        for kernel in eligible(layer, share):
            planes = None
            if kernel == network.WINOGRAD:
                planes = net.planes.get(layer.name)
                if planes is None:
                    planes = network.winograd_kernel(kernel_block, np.float32)
            with forced(kernel):
                samples = []
                for _ in range(repeats):
                    start = time.process_time()
                    network.conv2d_raw(fm.data, kernel_block, bias, layer.stride, layer.activation, work=work,
                                       planes=planes, **target)
                    samples.append((time.process_time() - start) * 1e3)
            row["ms"][kernel] = float(np.median(samples))
        rows.append(row)
        return conv_fn(fm, layer, net, out=out, work=work, add_to=add_to)

    part_fn = network.projected_part

    def timed_part(dense, projected, name, net, work=None):
        hits = np.count_nonzero(projected[:, :, -1] > 0) / (projected.shape[0] * projected.shape[1])
        samples = []
        for _ in range(repeats):
            copy = dense.copy()  # the frame's dense part stays as it is
            start = time.process_time()
            part_fn(copy, projected, name, net, work)
            samples.append((time.process_time() - start) * 1e3)
        rows.append({"layer": f"{name}.projected", "input": "x".join(map(str, projected.shape)), "occupied": hits,
                     "rule": network.OCCUPIED, "ms": {network.OCCUPIED: float(np.median(samples))}})
        return part_fn(dense, projected, name, net, work)

    network.conv2d_forward, network.projected_part = timed_conv, timed_part
    try:
        pipeline.forward_frame(bundle_io.read_frame_bundle(path, preset.name), preset, weights)
    finally:
        network.conv2d_forward, network.projected_part = conv_fn, part_fn
    return rows


def table(rows: list[dict]) -> list[str]:
    lines = ["| layer | input | occupied | rule | " + " | ".join(f"{k} ms" for k in KERNELS) + " |",
             "|---" * (4 + len(KERNELS)) + "|"]
    for row in rows:
        times = [f"{row['ms'][k]:.2f}" if k in row["ms"] else "-" for k in KERNELS]
        lines.append(f"| {row['layer']} | {row['input']} | {row['occupied']:.3f} | {row['rule']} | "
                     + " | ".join(times) + " |")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=("desk", "atg4d"), default="desk")
    parser.add_argument("--seed", type=int, default=0, help="scene seed")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per layer and kernel")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    preset = get_preset(args.preset)
    weights = pipeline.make_weights(preset, 0)
    _, bundles = pipeline.generate_bundles(preset, args.seed, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.bin"
        bundle_io.write_frame_bundle(path, bundles[0])
        del bundles
        rows = layer_rows(preset, path, weights, args.repeats)
    print("\n".join(table(rows)))


if __name__ == "__main__":
    main()
