"""Frame-bundle file format, scene-config documents, and image codecs.

A bundle file is a text manifest (preset, timestamp, map, labels, sweep
headers) followed by the binary payload: per-sweep point records as
little-endian 32-bit reals in field order (x, y, z, r, e, theta, m),
then the camera image as a binary PPM. The whole file carries a trailing
CRC32. Text sections round-trip floats exactly via repr.
"""
from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .geometry import Pose2, RotatedBox2D
from .presets import get_preset
from .scene import (
    CLASSES,
    LAYER_NAMES,
    POLYGON,
    POLYLINE,
    ActorLabel,
    LabelSet,
    MapGeometry,
    PointArray,
    SceneConfig,
    Sweep,
)
from .views import CAMERA, CameraGeometry, CameraModel, FeatureMap

BUNDLE_MAGIC = "mvfusion-bundle"


class BundleFormatError(ValueError):
    pass


class PresetMismatchError(BundleFormatError):
    pass


def _parse_int(text: str, what: str) -> int:
    """A non-negative integer, or BundleFormatError naming what."""
    try:
        value = int(text)
    except ValueError:
        raise BundleFormatError(f"{what}: expected an integer, got {text!r}") from None
    if value < 0:
        raise BundleFormatError(f"{what}: {value} is negative")
    return value


def _parse_float(text: str, what: str) -> float:
    """A finite real, or BundleFormatError naming what."""
    try:
        value = float(text)
    except ValueError:
        raise BundleFormatError(f"{what}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise BundleFormatError(f"{what}: non-finite value {text!r}")
    return value


def _parse_floats(texts: list[str], what: str) -> np.ndarray:
    return np.array([_parse_float(t, what) for t in texts], dtype=float)


@dataclass
class FrameBundle:
    """Everything one inference frame needs, tied to a preset."""

    preset: str
    timestamp: float
    horizon: int
    sweeps: tuple[Sweep, ...]
    map_geometry: MapGeometry
    camera_image: FeatureMap
    labels: LabelSet


# ---------------------------------------------------------------------------
# scene config documents
# ---------------------------------------------------------------------------

_SCENE_FIELDS = ("vehicles", "pedestrians", "bicyclists", "extent", "duration", "seed", "ego_speed")


def format_scene_config(config: SceneConfig) -> str:
    lines = [f"{name} = {getattr(config, name)!r}" for name in _SCENE_FIELDS]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------

def encode_ppm(image: np.ndarray) -> bytes:
    """Binary PPM (P6, maxval 255) from an (H, W, 3) array of values in [0, 1]."""
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w, _ = data.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def decode_ppm(raw: bytes) -> np.ndarray:
    """(H, W, 3) values in [0, 1] from an encode_ppm image: header lines
    "P6", "W H" and "255", then exactly H * W * 3 bytes."""
    return _decode_ppm(raw, 0, len(raw))


def _decode_ppm(data: bytes, start: int, end: int) -> np.ndarray:
    """decode_ppm of data[start:end], read in place: only the header lines are copied."""
    lines = []
    for _ in range(3):
        stop = data.find(b"\n", start, end)
        if stop < 0:
            break
        lines.append(data[start:stop])
        start = stop + 1
    if (lines[0] if lines else data[start:end]) != b"P6":
        raise BundleFormatError("not a binary PPM")
    if len(lines) < 3:
        raise BundleFormatError("truncated PPM header")
    dims = lines[1].split()
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        raise BundleFormatError(f"PPM size line {lines[1][:40]!r} is not two counts")
    w, h = int(dims[0]), int(dims[1])
    if lines[2] != b"255":
        raise BundleFormatError(f"PPM maxval {lines[2][:40]!r}, expected 255")
    if end - start != h * w * 3:
        raise BundleFormatError(f"PPM payload is {end - start} bytes, a {w}x{h} image needs {h * w * 3}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w * 3, offset=start).reshape(h, w, 3)
    return pixels / 255.0


# ---------------------------------------------------------------------------
# map and label text sections
# ---------------------------------------------------------------------------

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _map_lines(geometry: MapGeometry) -> list[str]:
    lines = []
    for name in LAYER_NAMES:
        for kind, pts in geometry.layers[name]:
            flat = np.asarray(pts, dtype=float).reshape(-1)
            lines.append(f"{name} {kind} {_fmt_floats(flat)}")
    return lines


_MIN_VERTICES = {POLYGON: 3, POLYLINE: 2}


def _parse_map(lines: list[str]) -> MapGeometry:
    layers: dict[str, list] = {name: [] for name in LAYER_NAMES}
    for line in lines:
        parts = line.split()
        if len(parts) < 2 or parts[0] not in layers or parts[1] not in _MIN_VERTICES:
            raise BundleFormatError(f"bad map entry {line[:80]!r}")
        name, kind = parts[0], parts[1]
        values = parts[2:]
        if len(values) % 2 or len(values) < 2 * _MIN_VERTICES[kind]:
            raise BundleFormatError(f"map {name} {kind}: {len(values)} coordinates")
        layers[name].append((kind, _parse_floats(values, f"map {name} {kind}").reshape(-1, 2)))
    try:
        return MapGeometry(layers)
    except ValueError as exc:
        raise BundleFormatError(f"map: {exc}") from exc


def _label_lines(labels: LabelSet) -> list[str]:
    lines = []
    for lab in labels.labels:
        per_h = np.concatenate([lab.centers, lab.headings[:, None]], axis=1).reshape(-1)
        lines.append(
            f"{lab.actor_id} {lab.cls} {lab.box.length!r} {lab.box.width!r} {_fmt_floats(per_h)}"
        )
    return lines


def _parse_labels(lines: list[str], timestamp: float, horizon: int) -> LabelSet:
    labels = []
    per_label = 4 + 3 * (horizon + 1)
    for line in lines:
        parts = line.split()
        if len(parts) != per_label or parts[1] not in CLASSES:
            raise BundleFormatError(f"bad label {line[:80]!r}: expected a class and {per_label - 2} numbers")
        actor_id, cls = _parse_int(parts[0], "label actor id"), parts[1]
        length, width = (_parse_float(v, f"actor {actor_id} size") for v in parts[2:4])
        per_h = _parse_floats(parts[4:], f"actor {actor_id} waypoints").reshape(horizon + 1, 3)
        centers = per_h[:, :2].copy()
        headings = per_h[:, 2].copy()
        try:
            box = RotatedBox2D(centers[0, 0], centers[0, 1], length, width, headings[0])
        except ValueError as exc:
            raise BundleFormatError(f"actor {actor_id} box: {exc}") from exc
        labels.append(ActorLabel(actor_id, cls, box, centers, headings))
    return LabelSet(timestamp, horizon, tuple(labels))


# ---------------------------------------------------------------------------
# bundle read/write
# ---------------------------------------------------------------------------

_POINT_FIELDS = 7  # x, y, z, r, e, theta, m


def _sweep_payload(sweep: Sweep) -> bytes:
    pts = sweep.points
    rec = np.stack(
        [pts.x, pts.y, pts.z, pts.range, pts.intensity, pts.azimuth, pts.laser.astype(np.float64)],
        axis=1,
    )
    return np.ascontiguousarray(rec, dtype="<f4").tobytes()


def _parse_sweep_header(header: str) -> tuple[float, float, float, float, int]:
    parts = header.split()
    if len(parts) != 5:
        raise BundleFormatError(f"sweep header {header[:80]!r}: expected t, tx, ty, yaw and a point count")
    t, tx, ty, yaw = (_parse_float(v, "sweep header") for v in parts[:4])
    return t, tx, ty, yaw, _parse_int(parts[4], "sweep point count")


def _parse_sweep(header: tuple, data: bytes, offset: int, beams: int) -> Sweep:
    """The sweep whose point records start at data[offset], read in place;
    every point must lie in a cell of an RV image of beams rows."""
    t, tx, ty, yaw, n = header
    rec = np.frombuffer(data, dtype="<f4", count=n * _POINT_FIELDS, offset=offset).reshape(n, _POINT_FIELDS)
    if not np.isfinite(rec).all():
        raise BundleFormatError(f"sweep at t={t!r}: non-finite point values")
    laser = rec[:, 6]
    if not ((laser >= 0) & (laser < beams) & (laser == np.floor(laser))).all():
        raise BundleFormatError(f"sweep at t={t!r}: laser ids must be integers in [0, {beams})")
    # one float64 array per column, each below numpy's 4 MiB threshold for
    # huge-page advice on an atg4d sweep, which a single (6, n) block is not
    x, y, z, r, e, theta = (rec[:, i].astype(np.float64) for i in range(6))
    if n and not (theta.min() >= 0.0 and theta.max() < 2.0 * math.pi):
        raise BundleFormatError(f"sweep at t={t!r}: azimuths must lie in [0, 2 pi)")
    return Sweep(t, PointArray(x, y, z, r, e, theta, laser.astype(np.int64)), Pose2(tx, ty, yaw))


def write_frame_bundle(path: str | Path, bundle: FrameBundle) -> None:
    lines = [f"{BUNDLE_MAGIC} v1"]
    lines.append(f"preset {bundle.preset}")
    lines.append(f"timestamp {bundle.timestamp!r}")
    lines.append(f"horizon {bundle.horizon}")
    map_lines = _map_lines(bundle.map_geometry)
    lines.append(f"map {len(map_lines)}")
    lines.extend(map_lines)
    label_lines = _label_lines(bundle.labels)
    lines.append(f"labels {len(label_lines)}")
    lines.extend(label_lines)
    lines.append(f"sweeps {len(bundle.sweeps)}")
    payloads = []
    for sweep in bundle.sweeps:
        pose = sweep.ego_pose
        lines.append(
            f"sweep {sweep.timestamp!r} {pose.tx!r} {pose.ty!r} {pose.yaw!r} {len(sweep.points)}"
        )
        payloads.append(_sweep_payload(sweep))
    ppm = encode_ppm(bundle.camera_image.data)
    lines.append(f"image {len(ppm)}")
    lines.append("end")
    body = ("\n".join(lines) + "\n").encode("ascii") + b"".join(payloads) + ppm
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(body + f"crc32 {crc:08x}\n".encode("ascii"))


def read_frame_bundle(path: str | Path, expected_preset: str | None = None,
                      camera: CameraModel | None = None) -> FrameBundle:
    """Parse and verify a bundle. Its camera image carries the geometry of
    camera, by default the camera of the preset the bundle names, and must
    have that camera's size."""
    raw = Path(path).read_bytes()
    trailer_len = len("crc32 00000000\n")
    if len(raw) < trailer_len:
        raise BundleFormatError(f"{path}: truncated file")
    body_len, trailer = len(raw) - trailer_len, raw[-trailer_len:]
    if not re.fullmatch(rb"crc32 [0-9a-fA-F]{8}\n", trailer):
        raise BundleFormatError(f"{path}: missing checksum trailer")
    if zlib.crc32(memoryview(raw)[:body_len]) & 0xFFFFFFFF != int(trailer[6:14], 16):
        raise BundleFormatError(f"{path}: checksum failure")
    try:
        return _parse_bundle(raw, body_len, camera, expected_preset)
    except BundleFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_bundle(data: bytes, body_len: int, camera: CameraModel | None,
                  expected_preset: str | None) -> FrameBundle:
    """The bundle whose manifest and payload are data[:body_len]. The
    payload is read in place: the point records and the image are decoded
    straight from data, never sliced out of it."""
    header_end = data.find(b"\nend\n", 0, body_len)
    if header_end < 0:
        raise BundleFormatError("no manifest terminator")
    try:
        manifest = data[:header_end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise BundleFormatError("manifest is not ASCII text") from None
    payload_start = header_end + len(b"\nend\n")

    if not manifest or manifest[0] != f"{BUNDLE_MAGIC} v1":
        raise BundleFormatError(f"bad magic or version {manifest[0][:40] if manifest else ''!r}")
    it = iter(manifest[1:])

    def expect(keyword: str) -> str:
        line = next(it, None)
        if line is None or not line.startswith(keyword + " "):
            raise BundleFormatError(f"expected {keyword!r} line, got {line if line is None else line[:80]!r}")
        return line[len(keyword) + 1:]

    def section(keyword: str) -> list[str]:
        count = _parse_int(expect(keyword), f"{keyword} count")
        lines = list(islice(it, count))
        if len(lines) < count:
            raise BundleFormatError(f"{keyword} count {count} runs past the manifest")
        return lines

    preset = expect("preset")
    if expected_preset is not None and preset != expected_preset:
        raise PresetMismatchError(f"bundle preset {preset!r}, expected {expected_preset!r}")
    try:
        named = get_preset(preset)
    except ValueError as exc:
        raise BundleFormatError(str(exc)) from None
    timestamp = _parse_float(expect("timestamp"), "timestamp")
    horizon = _parse_int(expect("horizon"), "horizon")
    map_lines = section("map")
    label_lines = section("labels")
    n_sweeps = _parse_int(expect("sweeps"), "sweeps count")
    sweep_headers = [_parse_sweep_header(expect("sweep")) for _ in range(n_sweeps)]
    image_bytes = _parse_int(expect("image"), "image size")
    if next(it, None) is not None:
        raise BundleFormatError("manifest lines after the image line")

    sweeps = []
    offset = payload_start
    for header in sweep_headers:
        size = header[4] * _POINT_FIELDS * 4
        if offset + size > body_len:
            raise BundleFormatError("truncated sweep payload")
        sweeps.append(_parse_sweep(header, data, offset, named.sensor.beams))
        offset += size
    if offset + image_bytes != body_len:
        raise BundleFormatError(f"image payload is {body_len - offset} bytes, the manifest says {image_bytes}")
    image = _decode_ppm(data, offset, body_len)
    camera = named.camera if camera is None else camera
    if image.shape[:2] != (camera.cropped_height, camera.width):
        raise BundleFormatError(f"camera image is {image.shape[:2]}, the preset camera gives "
                                f"{(camera.cropped_height, camera.width)}")

    return FrameBundle(
        preset=preset,
        timestamp=timestamp,
        horizon=horizon,
        sweeps=tuple(sweeps),
        map_geometry=_parse_map(map_lines),
        camera_image=FeatureMap(CAMERA, image, CameraGeometry(camera, 1)),
        labels=_parse_labels(label_lines, timestamp, horizon),
    )
