"""Frame-bundle file format, scene-config documents, and image codecs.

A bundle file is a text manifest (preset, timestamp, map, labels, sweep
headers) followed by the binary payload: per-sweep point records as
little-endian 32-bit reals in field order (x, y, z, r, e, theta, m),
then the camera image as a binary PPM. The whole file carries a trailing
CRC32. Text sections round-trip floats exactly via repr.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .geometry import Pose2, RotatedBox2D
from .scene import (
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


def parse_scene_config(text: str) -> SceneConfig:
    values: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise BundleFormatError(f"scene config line {lineno}: expected key = value")
        key = key.strip()
        if key not in _SCENE_FIELDS:
            raise BundleFormatError(f"scene config line {lineno}: unknown key {key!r}")
        values[key] = float(value.strip())
    ints = {k: int(values[k]) for k in ("vehicles", "pedestrians", "bicyclists", "seed") if k in values}
    floats = {k: values[k] for k in ("extent", "duration", "ego_speed") if k in values}
    return SceneConfig(**ints, **floats)


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------

def encode_ppm(image: np.ndarray) -> bytes:
    """Binary PPM (P6, maxval 255) from an (H, W, 3) array of values in [0, 1]."""
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w, _ = data.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + data.tobytes()


def decode_ppm(raw: bytes) -> np.ndarray:
    if not raw.startswith(b"P6"):
        raise BundleFormatError("not a binary PPM")
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        raise BundleFormatError("truncated PPM header")
    w, h = (int(v) for v in parts[1].split())
    body = parts[3]
    if len(body) < h * w * 3:
        raise BundleFormatError("truncated PPM payload")
    pixels = np.frombuffer(body[: h * w * 3], dtype=np.uint8).reshape(h, w, 3)
    return pixels.astype(np.float64) / 255.0


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


def _parse_map(lines: list[str]) -> MapGeometry:
    layers: dict[str, list] = {name: [] for name in LAYER_NAMES}
    for line in lines:
        parts = line.split()
        name, kind = parts[0], parts[1]
        if name not in layers or kind not in (POLYGON, POLYLINE):
            raise BundleFormatError(f"bad map entry {line!r}")
        coords = np.array([float(v) for v in parts[2:]], dtype=float).reshape(-1, 2)
        layers[name].append((kind, coords))
    return MapGeometry(layers)


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
    for line in lines:
        parts = line.split()
        actor_id, cls = int(parts[0]), parts[1]
        length, width = float(parts[2]), float(parts[3])
        per_h = np.array([float(v) for v in parts[4:]], dtype=float).reshape(horizon + 1, 3)
        centers = per_h[:, :2].copy()
        headings = per_h[:, 2].copy()
        box = RotatedBox2D(centers[0, 0], centers[0, 1], length, width, headings[0])
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


def _parse_sweep(header: str, payload: bytes) -> Sweep:
    parts = header.split()
    t, tx, ty, yaw = (float(v) for v in parts[:4])
    n = int(parts[4])
    rec = np.frombuffer(payload, dtype="<f4", count=n * _POINT_FIELDS).reshape(n, _POINT_FIELDS)
    rec = rec.astype(np.float64)
    pts = PointArray(
        rec[:, 0].copy(), rec[:, 1].copy(), rec[:, 2].copy(), rec[:, 3].copy(),
        rec[:, 4].copy(), rec[:, 5].copy(), rec[:, 6].astype(np.int64),
    )
    return Sweep(t, pts, Pose2(tx, ty, yaw))


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
    """Parse and verify a bundle; pass the preset camera to re-attach geometry."""
    raw = Path(path).read_bytes()
    trailer_len = len("crc32 00000000\n")
    if len(raw) < trailer_len:
        raise BundleFormatError(f"{path}: truncated file")
    body, trailer = raw[:-trailer_len], raw[-trailer_len:]
    if not trailer.startswith(b"crc32 "):
        raise BundleFormatError(f"{path}: missing checksum trailer")
    stated = int(trailer[6:14], 16)
    if zlib.crc32(body) & 0xFFFFFFFF != stated:
        raise BundleFormatError(f"{path}: checksum failure")

    header_end = body.find(b"\nend\n")
    if header_end < 0:
        raise BundleFormatError(f"{path}: no manifest terminator")
    manifest = body[:header_end].decode("ascii").splitlines()
    payload = body[header_end + len(b"\nend\n"):]

    if manifest[0] != f"{BUNDLE_MAGIC} v1":
        raise BundleFormatError(f"{path}: bad magic or version {manifest[0]!r}")
    it = iter(manifest[1:])

    def expect(keyword: str) -> str:
        line = next(it, None)
        if line is None or not line.startswith(keyword + " "):
            raise BundleFormatError(f"{path}: expected {keyword!r} line, got {line!r}")
        return line[len(keyword) + 1:]

    def section(keyword: str) -> list[str]:
        count = int(expect(keyword))
        lines = list(islice(it, max(count, 0)))
        if len(lines) < count:
            raise BundleFormatError(f"{path}: {keyword} count {count} runs past the manifest")
        return lines

    preset = expect("preset")
    if expected_preset is not None and preset != expected_preset:
        raise PresetMismatchError(f"{path}: bundle preset {preset!r}, expected {expected_preset!r}")
    timestamp = float(expect("timestamp"))
    horizon = int(expect("horizon"))
    map_lines = section("map")
    label_lines = section("labels")
    n_sweeps = int(expect("sweeps"))
    sweep_headers = [expect("sweep") for _ in range(n_sweeps)]
    image_bytes = int(expect("image"))

    sweeps = []
    offset = 0
    for header in sweep_headers:
        n = int(header.split()[4])
        size = n * _POINT_FIELDS * 4
        if offset + size > len(payload):
            raise BundleFormatError(f"{path}: truncated sweep payload")
        sweeps.append(_parse_sweep(header, payload[offset:offset + size]))
        offset += size
    if offset + image_bytes > len(payload):
        raise BundleFormatError(f"{path}: truncated image payload")
    image = decode_ppm(payload[offset:offset + image_bytes])
    geometry = CameraGeometry(camera, 1) if camera is not None else None
    camera_fm = FeatureMap(CAMERA, image, geometry)

    return FrameBundle(
        preset=preset,
        timestamp=timestamp,
        horizon=horizon,
        sweeps=tuple(sweeps),
        map_geometry=_parse_map(map_lines),
        camera_image=camera_fm,
        labels=_parse_labels(label_lines, timestamp, horizon),
    )
