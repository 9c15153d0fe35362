#!/usr/bin/env python3
"""SHA-256 of the cell outputs of a fixed set of frames, to compare commits bit for bit.

Runs the benchmark's frames through the pipeline with its seeded weights
(seed 0, camera branch on): the desk frames of scene seeds 1000 k, k = 1,
2, ..., four frames per scene, as desk-stream takes them, then the frames
of atg4d scene 0, as atg4d-frame takes them. Each frame is generated,
written as a bundle, read back and run through pipeline.forward_frame,
and one line is printed per frame: the preset, the scene seed, the
frame's reference time, the SHA-256 of CellOutputs.pack() and the SHA-256
of its decoded cells (metrics.decode_detections at its defaults), the
sorted "class row col" lines of its detections:

  desk 1000 0.900 3f2a... 9c41...

Two commits give the same outputs on these frames exactly when they print
the same lines, and the same detections, cell for cell, when the fifth
fields agree. BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or
OMP_NUM_THREADS, MKL_NUM_THREADS) is set, since its thread count may
change the bits of a product.

    PYTHONPATH=src python3 scripts/frame_digests.py
    PYTHONPATH=src python3 scripts/frame_digests.py --desk-frames 2 --atg4d-frames 0
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import itertools
import tempfile
from pathlib import Path

from mvfusion import bundle_io, pipeline
from mvfusion.metrics import decode_detections
from mvfusion.presets import get_preset
from mvfusion.scene import build_scene

FRAMES_PER_SCENE = {"desk": 4, "atg4d": 8}


def frames(preset, seeds):
    """(scene seed, scene, reference time) of every frame of the scenes, in order."""
    count = FRAMES_PER_SCENE[preset.name]
    for seed in seeds:
        scene = build_scene(pipeline.scene_config_for(preset, seed, count))
        for t in pipeline.frame_times(preset, count):
            yield seed, scene, t


def digest_lines(preset_name: str, seeds, n: int, path: Path):
    """One line per frame for the first n frames of the scenes."""
    if n == 0:
        return
    preset = get_preset(preset_name)
    weights = pipeline.make_weights(preset, 0)
    for seed, scene, t in itertools.islice(frames(preset, seeds), n):
        bundle_io.write_frame_bundle(path, pipeline.generate_bundle(preset, scene, t))
        outputs = pipeline.forward_frame(bundle_io.read_frame_bundle(path, preset.name), preset, weights)
        cells = "".join(sorted(f"{d.cls} {d.cell[0]} {d.cell[1]}\n" for d in decode_detections(outputs)))
        yield (f"{preset.name} {seed} {t:.3f} {hashlib.sha256(outputs.pack().tobytes()).hexdigest()} "
               f"{hashlib.sha256(cells.encode()).hexdigest()}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--desk-frames", type=int, default=40, help="desk frames, four per scene")
    parser.add_argument("--atg4d-frames", type=int, default=8, help="frames of atg4d scene 0")
    args = parser.parse_args(argv)
    if min(args.desk_frames, args.atg4d_frames) < 0:
        parser.error("frame counts must not be negative")
    if args.atg4d_frames > FRAMES_PER_SCENE["atg4d"]:
        parser.error(f"atg4d scene 0 has {FRAMES_PER_SCENE['atg4d']} frames")

    runs = (("desk", (1000 * k for k in itertools.count(1)), args.desk_frames), ("atg4d", (0,), args.atg4d_frames))
    with tempfile.TemporaryDirectory() as tmp:
        for preset_name, seeds, n in runs:
            for line in digest_lines(preset_name, seeds, n, Path(tmp) / "frame.bin"):
                print(line, flush=True)


if __name__ == "__main__":
    main()
