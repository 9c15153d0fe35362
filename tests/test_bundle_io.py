import zlib

import numpy as np
import pytest

from mvfusion.bundle_io import (
    BundleFormatError,
    PresetMismatchError,
    decode_ppm,
    encode_ppm,
    format_scene_config,
    read_frame_bundle,
    write_frame_bundle,
)
from mvfusion.pipeline import generate_bundles
from mvfusion.presets import get_preset
from mvfusion.scene import SceneConfig


@pytest.fixture(scope="module")
def desk_bundle():
    preset = get_preset("desk")
    _, bundles = generate_bundles(preset, seed=4, frames=1)
    return preset, bundles[0]


def test_format_scene_config_lines():
    cfg = SceneConfig(vehicles=5, pedestrians=1, bicyclists=2, extent=22.5, duration=6.25,
                      seed=9, ego_speed=1.75)
    assert format_scene_config(cfg) == (
        "vehicles = 5\npedestrians = 1\nbicyclists = 2\nextent = 22.5\nduration = 6.25\n"
        "seed = 9\nego_speed = 1.75\n"
    )


def test_ppm_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(6, 9, 3))
    decoded = decode_ppm(encode_ppm(img))
    assert decoded.shape == (6, 9, 3)
    assert np.max(np.abs(decoded - img)) <= 0.5 / 255.0 + 1e-12
    # byte-exact once quantized
    assert np.array_equal(encode_ppm(decoded), encode_ppm(img))


def test_bundle_roundtrip_bit_identical(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    write_frame_bundle(p1, bundle)
    loaded = read_frame_bundle(p1, expected_preset="desk", camera=preset.camera)
    write_frame_bundle(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.timestamp == bundle.timestamp
    assert len(loaded.sweeps) == len(bundle.sweeps)
    assert len(loaded.labels.labels) == len(bundle.labels.labels)
    got = loaded.sweeps[-1].points
    want = bundle.sweeps[-1].points
    assert np.array_equal(got.laser, want.laser)
    assert np.allclose(got.x, want.x, atol=1e-4)  # float32 payload quantization


def test_bundle_truncation_detected(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    path = tmp_path / "t.bin"
    write_frame_bundle(path, bundle)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(BundleFormatError):
        read_frame_bundle(path)


def test_bundle_checksum_failure(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    path = tmp_path / "c.bin"
    write_frame_bundle(path, bundle)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(BundleFormatError, match="checksum"):
        read_frame_bundle(path)


def test_bundle_version_mismatch(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    path = tmp_path / "v.bin"
    write_frame_bundle(path, bundle)
    raw = path.read_bytes().replace(b"mvfusion-bundle v1", b"mvfusion-bundle v9", 1)
    path.write_bytes(raw)
    with pytest.raises(BundleFormatError):
        read_frame_bundle(path)


def test_bundle_label_with_non_positive_side(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    path = tmp_path / "l.bin"
    write_frame_bundle(path, bundle)
    lab = bundle.labels.labels[0]
    raw = path.read_bytes()
    body = raw[:-len("crc32 00000000\n")]
    line = f"\n{lab.actor_id} {lab.cls} {lab.box.length!r} ".encode("ascii")
    assert body.count(line) == 1
    body = body.replace(line, f"\n{lab.actor_id} {lab.cls} -1.0 ".encode("ascii"))
    path.write_bytes(body + b"crc32 %08x\n" % (zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(BundleFormatError, match=f"actor {lab.actor_id} box"):
        read_frame_bundle(path)


def test_bundle_preset_mismatch(tmp_path, desk_bundle):
    preset, bundle = desk_bundle
    path = tmp_path / "p.bin"
    write_frame_bundle(path, bundle)
    with pytest.raises(PresetMismatchError):
        read_frame_bundle(path, expected_preset="atg4d")
    read_frame_bundle(path, expected_preset="desk")
