"""Named-array container: a text manifest followed by float32 payload.

Used for network weights and per-cell output grids. The manifest lists
block names with their shapes; the payload is the blocks' data flattened
in manifest order as little-endian 32-bit reals.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class BlockFileError(ValueError):
    pass


def write_blocks(path: str | Path, magic: str, meta: dict[str, str], blocks: dict[str, np.ndarray]) -> None:
    lines = [f"{magic} v1"]
    for key, value in meta.items():
        lines.append(f"meta {key} {value}")
    for name, arr in blocks.items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"block {name} {dims}")
    lines.append("end")
    manifest = ("\n".join(lines) + "\n").encode("ascii")
    payload = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in blocks.values()
    )
    with open(path, "wb") as f:
        f.write(manifest)
        f.write(payload)


def read_blocks(path: str | Path, magic: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Manifest metadata and float64 blocks of a write_blocks file.

    Anything that does not parse as that layout raises BlockFileError.
    Values are not checked: callers reject the non-finite ones they cannot use.
    """
    raw = Path(path).read_bytes()
    header_end = raw.find(b"\nend\n")
    if header_end < 0:
        raise BlockFileError(f"{path}: no manifest terminator")
    try:
        manifest = raw[:header_end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise BlockFileError(f"{path}: manifest is not ASCII text") from None
    payload = raw[header_end + len(b"\nend\n"):]
    if not manifest or not manifest[0].startswith(magic + " "):
        raise BlockFileError(f"{path}: bad magic, expected {magic!r}")
    if manifest[0] != f"{magic} v1":
        raise BlockFileError(f"{path}: unsupported version {manifest[0]!r}")
    meta: dict[str, str] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    for line in manifest[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            if not key or key in meta:
                raise BlockFileError(f"{path}: missing or repeated meta key in {line!r}")
            meta[key] = value
        elif kind == "block":
            parts = rest.split()
            if not parts or parts[0] in shapes:
                raise BlockFileError(f"{path}: missing or repeated block name in {line!r}")
            if not all(d.isdigit() for d in parts[1:]):
                raise BlockFileError(f"{path}: block {parts[0]}: dimensions must be non-negative integers")
            shapes[parts[0]] = tuple(int(d) for d in parts[1:])
        else:
            raise BlockFileError(f"{path}: bad manifest line {line!r}")
    total = sum(math.prod(shape) for shape in shapes.values())
    if len(payload) != 4 * total:
        raise BlockFileError(f"{path}: payload is {len(payload)} bytes, expected {4 * total}")
    blocks: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        flat = np.frombuffer(payload, dtype="<f4", count=n, offset=4 * offset)
        try:
            blocks[name] = flat.reshape(shape).astype(np.float64)
        except (ValueError, OverflowError) as exc:  # an empty block with a dimension numpy cannot index
            raise BlockFileError(f"{path}: block {name} shape {shape}: {exc}") from exc
        offset += n
    return meta, blocks
