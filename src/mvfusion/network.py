"""Forward-only multi-view fusion network.

Topology: a lightweight 6-conv camera net (stride 2 on alternate layers),
an RV branch that fuses projected camera features with the LiDAR range
image and refines them in a 2-scale U-shaped net (horizontal-only
downscale), a BEV branch summing LiDAR-stack and map-raster embeddings,
and a fused stride-reducing head emitting per-cell detection and
trajectory outputs for every class.

Weights are seeded pseudo-random or loaded from a block file; there is no
training here. Convolutions are plain cross-correlations with zero SAME
padding computed via im2col + matmul, chunked over output rows to bound
memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blockfile import read_blocks, write_blocks
from .projection import project_features
from .scene import CLASSES
from .views import BEV, CAMERA, RV, CameraGeometry, FeatureMap, GridSpec, OutputGrid, RvSpec

RELU = "relu"
LINEAR = "linear"

_CHUNK_BYTES = 64 << 20  # im2col working-set bound per chunk


@dataclass(frozen=True)
class ConvLayerSpec:
    """One convolution: 3x3 unless transposed, SAME padding, optional stride."""

    name: str
    in_channels: int
    out_channels: int
    stride: tuple[int, int] = (1, 1)
    kernel: tuple[int, int] = (3, 3)
    activation: str = RELU
    transposed: bool = False  # horizontal-only 2x upsampling, kernel (1, kw)


def conv_output_shape(h: int, w: int, stride: tuple[int, int]) -> tuple[int, int]:
    return -(-h // stride[0]), -(-w // stride[1])


def _activate(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == RELU:
        return np.maximum(x, 0.0)
    if activation == LINEAR:
        return x
    raise ValueError(f"unknown activation {activation!r}")


def conv2d_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
               stride: tuple[int, int] = (1, 1), activation: str = RELU) -> np.ndarray:
    """Cross-correlation with zero SAME padding; output = ceil(input / stride)."""
    h, w, cin = data.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    sh, sw = stride
    oh, ow = conv_output_shape(h, w, stride)
    pad_h = max((oh - 1) * sh + kh - h, 0)
    pad_w = max((ow - 1) * sw + kw - w, 0)
    top, left = pad_h // 2, pad_w // 2

    dtype = data.dtype if data.dtype in (np.float32, np.float64) else np.float64
    padded = np.zeros((h + pad_h, w + pad_w, cin), dtype=dtype)
    padded[top:top + h, left:left + w] = data
    wmat = kernel.reshape(kh * kw * cin, cout).astype(dtype, copy=False)
    bvec = bias.astype(dtype, copy=False)

    out = np.empty((oh, ow, cout), dtype=dtype)
    bytes_per_row = ow * kh * kw * cin * np.dtype(dtype).itemsize
    chunk = max(1, _CHUNK_BYTES // max(bytes_per_row, 1))
    for r0 in range(0, oh, chunk):
        r1 = min(r0 + chunk, oh)
        rows = padded[r0 * sh:(r1 - 1) * sh + kh]
        win = np.lib.stride_tricks.sliding_window_view(rows, (kh, kw), axis=(0, 1))
        patches = win[::sh, ::sw].transpose(0, 1, 3, 4, 2)  # (rows, ow, kh, kw, cin)
        flat = np.ascontiguousarray(patches).reshape(-1, kh * kw * cin)
        out[r0:r1] = (flat @ wmat).reshape(r1 - r0, ow, cout) + bvec
    return _activate(out, activation)


def deconv2d_h_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   activation: str = RELU) -> np.ndarray:
    """Transposed conv, kernel (1, kw), horizontal stride 2: width doubles."""
    h, w, cin = data.shape
    _, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    dtype = data.dtype if data.dtype in (np.float32, np.float64) else np.float64
    pad = (kw - 2) // 2
    buf = np.zeros((h, 2 * w + kw - 2, cout), dtype=dtype)
    for t in range(kw):
        tap = data @ kernel[0, t].astype(dtype, copy=False)
        buf[:, t:t + 2 * w:2] += tap
    out = buf[:, pad:pad + 2 * w] + bias.astype(dtype, copy=False)
    return _activate(out, activation)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass
class NetworkWeights:
    """Ordered named parameter blocks plus the seed/scheme that produced them."""

    blocks: dict[str, np.ndarray]
    seed: int | None = None
    scheme: str = "uniform-fan"

    def kernel(self, name: str) -> np.ndarray:
        return self.blocks[f"{name}.kernel"]

    def bias(self, name: str) -> np.ndarray:
        return self.blocks[f"{name}.bias"]

    def validate_finite(self) -> None:
        for name, arr in self.blocks.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in block {name}")


WEIGHTS_MAGIC = "mvfusion-weights"


def save_weights(path, weights: NetworkWeights) -> None:
    meta = {"scheme": weights.scheme}
    if weights.seed is not None:
        meta["seed"] = str(weights.seed)
    write_blocks(path, WEIGHTS_MAGIC, meta, weights.blocks)


def load_weights(path) -> NetworkWeights:
    meta, blocks = read_blocks(path, WEIGHTS_MAGIC)
    seed = int(meta["seed"]) if "seed" in meta else None
    return NetworkWeights(blocks, seed=seed, scheme=meta.get("scheme", "unknown"))


# ---------------------------------------------------------------------------
# architecture plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FusionConfig:
    """Channel widths and head layout; everything desk-scale by default."""

    classes: tuple[str, ...] = CLASSES
    horizon: int = 30
    use_camera: bool = True
    rv_width: int = 32
    cam_widths: tuple[int, ...] = (16, 16, 32, 32, 64, 64)
    unet_width: int = 64
    bev_embed_width: int = 32
    bev_width: int = 64
    head_widths: tuple[int, ...] = (64, 64, 128, 128, 128, 128)
    output_stride: int = 4

    def __post_init__(self):
        if self.output_stride not in (1, 2, 4, 8):
            raise ValueError("output_stride must be one of 1, 2, 4, 8")

    @property
    def cam_out(self) -> int:
        return self.cam_widths[-1]

    @property
    def concat_width(self) -> int:
        # LiDAR RV features, plus projected camera features and their validity
        return self.rv_width + (self.cam_out + 1 if self.use_camera else 0)

    @property
    def per_class_channels(self) -> int:
        h1 = self.horizon + 1
        return 1 + 2 + 2 * h1 + 2 * h1

    @property
    def head_out_channels(self) -> int:
        return len(self.classes) * self.per_class_channels

    def head_strides(self) -> list[tuple[int, int]]:
        n_stride2 = int(math.log2(self.output_stride))
        strides = []
        for i in range(len(self.head_widths)):
            strides.append((2, 2) if i < n_stride2 * 2 and i % 2 == 0 else (1, 1))
        return strides


def network_plan(config: FusionConfig, bev_in_channels: int) -> list[ConvLayerSpec]:
    """Every layer of every branch, in a fixed deterministic order."""
    layers: list[ConvLayerSpec] = []
    if config.use_camera:
        cin = 3
        for i, cout in enumerate(config.cam_widths):
            stride = (2, 2) if i % 2 == 1 else (1, 1)
            layers.append(ConvLayerSpec(f"cam.conv{i + 1}", cin, cout, stride))
            cin = cout
    w = config.rv_width
    layers.append(ConvLayerSpec("rv.conv1", 4, w))
    layers.append(ConvLayerSpec("rv.conv2", w, w))
    u = config.unet_width
    layers.append(ConvLayerSpec("unet.enc1", config.concat_width, u))
    layers.append(ConvLayerSpec("unet.res1.conv1", u, u))
    layers.append(ConvLayerSpec("unet.res1.conv2", u, u, activation=LINEAR))
    layers.append(ConvLayerSpec("unet.down", u, 2 * u, stride=(1, 2)))
    layers.append(ConvLayerSpec("unet.res2.conv1", 2 * u, 2 * u))
    layers.append(ConvLayerSpec("unet.res2.conv2", 2 * u, 2 * u, activation=LINEAR))
    layers.append(ConvLayerSpec("unet.up", 2 * u, u, kernel=(1, 4), stride=(1, 2), transposed=True))
    layers.append(ConvLayerSpec("unet.fuse", 2 * u, u))
    e = config.bev_embed_width
    layers.append(ConvLayerSpec("bev.lidar1", bev_in_channels, e))
    layers.append(ConvLayerSpec("bev.lidar2", e, config.bev_width))
    layers.append(ConvLayerSpec("bev.map1", 7, e))
    layers.append(ConvLayerSpec("bev.map2", e, config.bev_width))
    cin = config.bev_width + u + 1
    for i, (cout, stride) in enumerate(zip(config.head_widths, config.head_strides())):
        layers.append(ConvLayerSpec(f"fuse.conv{i + 1}", cin, cout, stride))
        cin = cout
    layers.append(ConvLayerSpec("fuse.head", cin, config.head_out_channels, activation=LINEAR))
    return layers


def init_network_weights(config: FusionConfig, bev_in_channels: int, seed: int) -> NetworkWeights:
    """Seeded init: kernels uniform in +-sqrt(6/(fan_in+fan_out)), zero biases.

    Values are quantized to float32 so a save/load round-trip is exact.
    """
    rng = np.random.default_rng(seed)
    blocks: dict[str, np.ndarray] = {}
    for layer in network_plan(config, bev_in_channels):
        kh, kw = layer.kernel
        shape = (kh, kw, layer.in_channels, layer.out_channels)
        fan_in = kh * kw * layer.in_channels
        fan_out = kh * kw * layer.out_channels
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        kernel = rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)
        blocks[f"{layer.name}.kernel"] = kernel
        blocks[f"{layer.name}.bias"] = np.zeros(layer.out_channels)
    return NetworkWeights(blocks, seed=seed)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def conv2d_forward(fm: FeatureMap, layer: ConvLayerSpec, weights: NetworkWeights) -> FeatureMap:
    """Apply one planned layer to a feature map (geometry carried through)."""
    if fm.channels != layer.in_channels:
        raise ValueError(f"{layer.name}: expected {layer.in_channels} channels, got {fm.channels}")
    kernel = weights.kernel(layer.name)
    bias = weights.bias(layer.name)
    if kernel.shape != (*layer.kernel, layer.in_channels, layer.out_channels):
        raise ValueError(f"{layer.name}: weight block shape {kernel.shape} does not match the layer plan")
    if layer.transposed:
        out = deconv2d_h_raw(fm.data, kernel, bias, layer.activation)
    else:
        out = conv2d_raw(fm.data, kernel, bias, layer.stride, layer.activation)
    return FeatureMap(fm.view, out, fm.geometry)


def _layer(plan: dict, name: str) -> ConvLayerSpec:
    return plan[name]


def _plan_by_name(config: FusionConfig, bev_in_channels: int) -> dict[str, ConvLayerSpec]:
    return {layer.name: layer for layer in network_plan(config, bev_in_channels)}


def camera_net_forward(image: FeatureMap, weights: NetworkWeights, config: FusionConfig) -> FeatureMap:
    """6-conv camera feature extractor; total spatial downscale 8x with ceiling."""
    if not isinstance(image.geometry, CameraGeometry):
        raise ValueError("camera image must carry CameraGeometry")
    plan = _plan_by_name(config, bev_in_channels=1)
    out = image
    for i in range(len(config.cam_widths)):
        out = conv2d_forward(out, plan[f"cam.conv{i + 1}"], weights)
    geometry = CameraGeometry(image.geometry.camera, pixel_stride=8 * image.geometry.pixel_stride)
    return FeatureMap(CAMERA, out.data, geometry)


def rv_branch_forward(rv_image: FeatureMap, camera_features: FeatureMap | None,
                      points, weights: NetworkWeights, config: FusionConfig) -> FeatureMap:
    """LiDAR RV convs, camera fusion by point projection, 2-scale U-net."""
    rv = rv_image.geometry
    if not isinstance(rv, RvSpec) or rv_image.height != rv.rows:
        raise ValueError("rv image rows must match its RvSpec")
    plan = _plan_by_name(config, bev_in_channels=1)
    x = conv2d_forward(rv_image, plan["rv.conv1"], weights)
    x = conv2d_forward(x, plan["rv.conv2"], weights)

    if config.use_camera:
        if camera_features is None:
            raise ValueError("config.use_camera is set but no camera features were given")
        cam_rv, cam_valid = project_features(camera_features, points, rv)
        data = np.concatenate([x.data, cam_rv.data, cam_valid.data], axis=2)
        x = FeatureMap(RV, data, rv)

    enc1 = conv2d_forward(x, plan["unet.enc1"], weights)
    r = conv2d_forward(enc1, plan["unet.res1.conv1"], weights)
    r = conv2d_forward(r, plan["unet.res1.conv2"], weights)
    level1 = FeatureMap(RV, np.maximum(enc1.data + r.data, 0.0), rv)

    down = conv2d_forward(level1, plan["unet.down"], weights)
    r2 = conv2d_forward(down, plan["unet.res2.conv1"], weights)
    r2 = conv2d_forward(r2, plan["unet.res2.conv2"], weights)
    level2 = FeatureMap(RV, np.maximum(down.data + r2.data, 0.0), rv)

    up = conv2d_forward(level2, plan["unet.up"], weights)
    up_data = up.data[:, :level1.width]  # ceil-width rounding crop
    merged = FeatureMap(RV, np.concatenate([up_data, level1.data], axis=2), rv)
    return conv2d_forward(merged, plan["unet.fuse"], weights)


def bev_branch_forward(lidar_bev: FeatureMap, map_raster: FeatureMap,
                       weights: NetworkWeights, config: FusionConfig) -> FeatureMap:
    """Separate LiDAR and map embeddings summed on the shared BEV grid."""
    if (lidar_bev.height, lidar_bev.width) != (map_raster.height, map_raster.width):
        raise ValueError("lidar stack and map raster must share one grid")
    plan = _plan_by_name(config, bev_in_channels=lidar_bev.channels)
    lid = conv2d_forward(lidar_bev, plan["bev.lidar1"], weights)
    lid = conv2d_forward(lid, plan["bev.lidar2"], weights)
    mp = conv2d_forward(map_raster, plan["bev.map1"], weights)
    mp = conv2d_forward(mp, plan["bev.map2"], weights)
    return FeatureMap(BEV, lid.data + mp.data, lidar_bev.geometry)


# ---------------------------------------------------------------------------
# per-cell outputs
# ---------------------------------------------------------------------------

_PROB_EPS = 1e-12


@dataclass
class CellOutputs:
    """Per-cell detection and trajectory outputs on the BEV output lattice.

    prob is the existence probability in (0, 1). size is (length, width) in
    meters. centers are waypoint offsets from the cell center, in meters,
    for horizons 0..H; headings are the matching (sin, cos) pairs.
    """

    grid: OutputGrid
    horizon: int
    classes: tuple[str, ...]
    prob: dict[str, np.ndarray]
    size: dict[str, np.ndarray]
    centers: dict[str, np.ndarray]
    headings: dict[str, np.ndarray]

    def validate(self) -> None:
        shape = (self.grid.rows, self.grid.cols)
        h1 = self.horizon + 1
        for cls in self.classes:
            p = self.prob[cls]
            if p.shape != shape or not ((p > 0.0) & (p < 1.0)).all():
                raise ValueError(f"{cls}: probabilities must be strictly inside (0, 1)")
            for name, arr, want in (("size", self.size[cls], (*shape, 2)),
                                    ("centers", self.centers[cls], (*shape, h1, 2)),
                                    ("headings", self.headings[cls], (*shape, h1, 2))):
                if arr.shape != want:
                    raise ValueError(f"{cls}: bad {name} shape")
                if not np.isfinite(arr).all():
                    raise ValueError(f"{cls}: {name} must be finite")

    def pack(self) -> np.ndarray:
        """Flatten to (rows, cols, classes * per_class) channel layout."""
        h1 = self.horizon + 1
        parts = []
        for cls in self.classes:
            shape = (self.grid.rows, self.grid.cols)
            parts.append(self.prob[cls][:, :, None])
            parts.append(self.size[cls])
            parts.append(self.centers[cls].reshape(*shape, 2 * h1))
            parts.append(self.headings[cls].reshape(*shape, 2 * h1))
        return np.concatenate(parts, axis=2)

    @classmethod
    def unpack(cls, raw: np.ndarray, grid: OutputGrid, horizon: int,
               classes: Sequence[str], logits: bool = False) -> "CellOutputs":
        h1 = horizon + 1
        per = 1 + 2 + 2 * h1 + 2 * h1
        if raw.shape != (grid.rows, grid.cols, len(classes) * per):
            raise ValueError(f"raw head output shape {raw.shape} does not match layout")
        prob, size, centers, headings = {}, {}, {}, {}
        for i, name in enumerate(classes):
            block = raw[:, :, i * per:(i + 1) * per]
            p = block[:, :, 0]
            if logits:
                p = 1.0 / (1.0 + np.exp(-p))
            prob[name] = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
            size[name] = block[:, :, 1:3].astype(np.float64)
            centers[name] = block[:, :, 3:3 + 2 * h1].reshape(grid.rows, grid.cols, h1, 2).astype(np.float64)
            headings[name] = block[:, :, 3 + 2 * h1:].reshape(grid.rows, grid.cols, h1, 2).astype(np.float64)
        return cls(grid, horizon, tuple(classes), prob, size, centers, headings)


def fuse_and_head_forward(bev_features: FeatureMap, rv_features_bev: FeatureMap,
                          rv_validity_bev: FeatureMap, weights: NetworkWeights,
                          config: FusionConfig) -> CellOutputs:
    """Concatenate the two view stacks plus validity, reduce stride, emit cells."""
    if (bev_features.height, bev_features.width) != (rv_features_bev.height, rv_features_bev.width):
        raise ValueError("bev and projected rv features must share one grid")
    grid = bev_features.geometry
    if not isinstance(grid, GridSpec):
        raise ValueError("bev features must carry a GridSpec")
    plan = _plan_by_name(config, bev_in_channels=1)
    x = FeatureMap(
        BEV,
        np.concatenate([bev_features.data, rv_features_bev.data, rv_validity_bev.data], axis=2),
        grid,
    )
    for i in range(len(config.head_widths)):
        x = conv2d_forward(x, plan[f"fuse.conv{i + 1}"], weights)
    raw = conv2d_forward(x, plan["fuse.head"], weights)
    out_grid = OutputGrid.from_grid(grid, config.output_stride)
    return CellOutputs.unpack(raw.data, out_grid, config.horizon, config.classes, logits=True)
