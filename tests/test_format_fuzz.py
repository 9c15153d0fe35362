"""Fuzz targets for the file parsers.

Every input either parses into finite values or raises its module's format
error (BlockFileError for block files, BundleFormatError for bundles and
PPMs); no other exception may escape. Inputs start from valid
files and are truncated, byte-flipped, given out-of-range or non-numeric
counts, or given NaN/inf payloads. Bundle mutations re-seal the CRC32
trailer so they reach the parser behind the checksum.
"""
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion.blockfile import BlockFileError, read_blocks
from mvfusion.bundle_io import (
    BundleFormatError,
    decode_ppm,
    encode_ppm,
    read_frame_bundle,
    write_frame_bundle,
)
from mvfusion.network import WEIGHTS_MAGIC, load_weights, save_weights
from mvfusion.pipeline import (
    OUTPUTS_MAGIC,
    forward_frame,
    generate_bundles,
    load_cell_outputs,
    make_weights,
    save_cell_outputs,
)
from mvfusion.presets import get_preset

SPECIAL_TOKENS = [b"-1", b"0", b"7", b"999999999999999999", b"1e999", b"nan", b"inf", b"-inf", b"2.5", b"x", b""]
NON_FINITE_F32 = [np.float32(v).tobytes() for v in (np.nan, np.inf, -np.inf)]
NUMBER = re.compile(rb"-?\d[\d.e+-]*")


@st.composite
def mutated(draw, data: bytes, manifest_end: int):
    """data after one structural mutation; manifest_end bounds the text part."""
    payload_floats = (len(data) - manifest_end) // 4
    kind = draw(st.sampled_from(["truncate", "flip", "token", "line"] + ["non-finite"] * (payload_floats > 0)))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(out) - 1))
            out[at] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "token":  # replace one number of the manifest: counts, dimensions, values
        spans = [m.span() for m in NUMBER.finditer(data, 0, manifest_end)]
        start, end = draw(st.sampled_from(spans))
        return data[:start] + draw(st.sampled_from(SPECIAL_TOKENS)) + data[end:]
    if kind == "line":  # drop or repeat one manifest line
        starts = [0] + [m.end() for m in re.finditer(rb"\n", data[:manifest_end])]
        i = draw(st.integers(0, len(starts) - 2))
        line = data[starts[i]:starts[i + 1]]
        return data[:starts[i]] + (line * 2 if draw(st.booleans()) else b"") + data[starts[i + 1]:]
    at = manifest_end + 4 * draw(st.integers(0, payload_floats - 1))
    return data[:at] + draw(st.sampled_from(NON_FINITE_F32)) + data[at + 4:]


# ---------------------------------------------------------------------------
# block files: weights and cell outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def block_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("blocks")
    preset = get_preset("desk")
    _, bundles = generate_bundles(preset, seed=3, frames=1)
    files = {}
    save_cell_outputs(root / "outputs.bin", forward_frame(bundles[0], preset, make_weights(preset, 0)))
    files[OUTPUTS_MAGIC] = (root / "outputs.bin").read_bytes()
    weights = make_weights(preset, 0)
    weights.blocks = {k: v for k, v in list(weights.blocks.items())[:4]}  # a small file
    save_weights(root / "weights.bin", weights)
    files[WEIGHTS_MAGIC] = (root / "weights.bin").read_bytes()
    return root / "mutated.bin", files


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([OUTPUTS_MAGIC, WEIGHTS_MAGIC]), st.data())
def test_block_file_parses_or_raises_block_file_error(block_files, magic, data):
    path, files = block_files
    original = files[magic]
    raw = data.draw(mutated(original, original.index(b"\nend\n") + 5))
    path.write_bytes(raw)
    try:
        read_blocks(path, magic)
    except BlockFileError:
        return
    loader = load_cell_outputs if magic == OUTPUTS_MAGIC else load_weights
    try:
        loaded = loader(path)
    except BlockFileError:
        return
    if magic == OUTPUTS_MAGIC:
        loaded.validate()
    else:
        loaded.validate_finite()


# ---------------------------------------------------------------------------
# frame bundles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    preset = get_preset("desk")
    _, bundles = generate_bundles(preset, seed=4, frames=1)
    write_frame_bundle(root / "valid.bin", bundles[0])
    return root / "mutated.bin", (root / "valid.bin").read_bytes(), preset


def _seal(body: bytes) -> bytes:
    return body + b"crc32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_bundle_parses_or_raises_bundle_format_error(bundle_file, reseal, data):
    path, original, preset = bundle_file
    body = original[:-len("crc32 00000000\n")]
    if reseal:
        raw = _seal(data.draw(mutated(body, body.index(b"\nend\n") + 5)))
    else:  # the checksum and trailer themselves
        raw = data.draw(mutated(original, body.index(b"\nend\n") + 5))
    path.write_bytes(raw)
    try:
        bundle = read_frame_bundle(path, expected_preset="desk", camera=preset.camera)
    except BundleFormatError:
        return
    for sweep in bundle.sweeps:
        pts = sweep.points
        assert all(np.isfinite(getattr(pts, f)).all() for f in ("x", "y", "z", "range", "intensity", "azimuth"))
        assert (pts.laser >= 0).all()
    image = bundle.camera_image.data
    assert image.shape == (preset.camera.cropped_height, preset.camera.width, 3)
    for label in bundle.labels.labels:
        assert np.isfinite(label.centers).all() and np.isfinite(label.headings).all()
        assert label.centers.shape == (bundle.horizon + 1, 2)


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------

PPM_FIELDS = st.one_of(st.sampled_from(SPECIAL_TOKENS), st.binary(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ppm_decodes_or_raises_bundle_format_error(data):
    h, w = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    valid = encode_ppm(np.random.default_rng(h * 7 + w).uniform(size=(h, w, 3)))
    if data.draw(st.booleans()):
        raw = data.draw(mutated(valid, valid.index(b"255\n") + 4)) if h * w else valid[:data.draw(st.integers(0, 8))]
    else:  # free-form header fields around the valid payload
        size = data.draw(st.one_of(PPM_FIELDS, st.just(b"%d %d" % (w, h))))
        maxval = data.draw(st.one_of(PPM_FIELDS, st.just(b"255")))
        raw = b"P6\n" + size + b"\n" + maxval + b"\n" + valid[valid.index(b"255\n") + 4:]
    try:
        image = decode_ppm(raw)
    except BundleFormatError:
        return
    assert image.ndim == 3 and image.shape[2] == 3
    assert np.isfinite(image).all() and image.min(initial=0.0) >= 0.0 and image.max(initial=1.0) <= 1.0
