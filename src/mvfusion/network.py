"""Forward-only multi-view fusion network.

Topology: a lightweight 6-conv camera net (stride 2 on alternate layers),
an RV branch that fuses projected camera features with the LiDAR range
image and refines them in a 2-scale U-shaped net (horizontal-only
downscale), a BEV branch summing LiDAR-stack and map-raster embeddings,
and a fused stride-reducing head emitting per-cell detection and
trajectory outputs for every class.

Weights are seeded pseudo-random or loaded from a block file; there is no
training here. Convolutions are plain cross-correlations with zero SAME
padding, computed by one of two kernels chosen from the input alone:

- occupied-pixel: a stride-(1, 1) input whose occupied pixels (channel rows
  that are not all zero) are at most _OCCUPIED_SHARE of the grid, such as
  the BEV LiDAR stack and map raster. The occupied rows are gathered once,
  each tap multiplies them and scatter-adds into the shifted output cells.
  This is ordinary sparse convolution (SECOND), not the submanifold kind:
  every output cell equals the dense conv's, up to summation order.
- im2col + matmul for every other input, chunked over output rows to bound
  memory. Each chunk zero-pads only the input rows it reads, so no padded
  copy of the whole input exists, and the matmul writes straight into the
  output. Bias and activation are applied in place on both kernels.

Dtype policy: every layer keeps the dtype of a float input and computes a
non-float input in float32. The frame path feeds uint8 0/1 BEV rasters
(the LiDAR stack and the map raster) and float32 camera and RV images, so
activations are float32 end to end; 0/1 is exact in float32, so the binary
rasters give the same products as float32 copies of them would. float64 is
used only inside the projection sums (project_features accumulates and
divides in float64 and returns the source's dtype, so float32 features
project to float32) and after the head (CellOutputs.unpack). Seeded
and loaded kernels are float64 blocks holding float32-exact values, so
casting them to float32 is exact.

Memory: the branch functions drop each large input and intermediate after
its last reader and do residual sums, their ReLU and the BEV LiDAR + map
sum in place, so a frame's tensors do not all live to the end of the pass.
The two inputs that join a view's own features with projected ones,
unet.enc1's and fuse.conv1's, are allocated once at their full width: the
view's own features are copied into their leading channels and
project_features writes the projection and its validity into the rest
through out=, so no concatenated copy of them exists (fuse_input_of).
One working-set bound, _CHUNK_BYTES, covers both kernels: an im2col chunk's
patch matrix and, in the occupied-pixel kernel, a row block's per-tap
product and gathered output rows. It sits below glibc's 32 MiB ceiling on
its adaptive mmap threshold, so the allocator can serve these temporaries
again and again from its heap; above the ceiling every one is mmapped,
faulted in and zero-filled by the OS page by page, and unmapped again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blockfile import BlockFileError, read_blocks, write_blocks
from .projection import project_features
from .scene import CLASSES
from .views import BEV, CAMERA, RV, CameraGeometry, FeatureMap, GridSpec, OutputGrid, RvSpec

RELU = "relu"
LINEAR = "linear"

# Working-set bound of both conv kernels (see Memory above), read off the
# chunk-size table in CHANGES.md: on the dense atg4d layers, 64 MiB spends
# a quarter of the im2col time in page faults, 24-32 MiB still fault, and
# 8 MiB was the fastest of 4, 8 and 16.
_CHUNK_BYTES = 8 << 20
# Stride-1 inputs with at most this share of occupied pixels take the
# occupied-pixel kernel. Measured crossover under the 8 MiB bound
# (CHANGES.md): on the BEV shapes it beats im2col up to about 20% occupancy
# at 32 -> 64 channels, beyond 60% at 160 -> 32, and only below about 5% at
# 7 -> 32.
_OCCUPIED_SHARE = 0.25
_SCAN_BYTES = 1 << 20  # occupancy-scan block: a dense input stops after about a share of its blocks


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


def _activate_inplace(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == RELU:
        np.maximum(x, 0, out=x)
    elif activation != LINEAR:
        raise ValueError(f"unknown activation {activation!r}")
    return x


def _compute_dtype(data: np.ndarray):
    """The dtype a layer computes in: a float input's own, float32 for any other."""
    return data.dtype if data.dtype in (np.float32, np.float64) else np.dtype(np.float32)


def conv2d_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
               stride: tuple[int, int] = (1, 1), activation: str = RELU) -> np.ndarray:
    """Cross-correlation with zero SAME padding; output = ceil(input / stride).

    Stride-(1, 1) inputs whose occupied pixels (channel row not all zero) are
    at most _OCCUPIED_SHARE of the grid take the occupied-pixel kernel;
    everything else takes chunked im2col. A non-float input (the uint8 0/1
    BEV rasters) is computed in float32: both kernels cast only the input
    rows they read.
    """
    h, w, cin = data.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    dtype = _compute_dtype(data)
    kernel = kernel.astype(dtype, copy=False)
    bias = bias.astype(dtype, copy=False)
    if tuple(stride) == (1, 1):
        pixels = data.reshape(h * w, cin)
        occupied = _occupied_pixels(pixels, _OCCUPIED_SHARE * h * w)
        if occupied is not None:
            out = _conv2d_occupied(pixels, occupied, (h, w), kernel, bias)
            return _activate_inplace(out, activation)
    out = _conv2d_im2col(data, kernel, bias, stride)
    return _activate_inplace(out, activation)


def _occupied_pixels(pixels: np.ndarray, limit: float) -> np.ndarray | None:
    """Indices of the occupied (not all-zero) rows of pixels, or None once
    there are more than limit of them.

    The rows are scanned in blocks of about _SCAN_BYTES, so a dense input is
    given up on after the first limit occupied rows, not read in full.
    """
    n, cin = pixels.shape
    step = max(1, _SCAN_BYTES // max(cin * pixels.itemsize, 1))
    found, count = [], 0
    for p0 in range(0, n, step):
        idx = np.flatnonzero(pixels[p0:p0 + step].any(axis=1))
        count += idx.size
        if count > limit:
            return None
        found.append(idx + p0)
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def _conv2d_occupied(pixels: np.ndarray, occupied: np.ndarray, grid: tuple[int, int],
                     kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 SAME conv plus bias of the (h * w, cin) pixel rows, summed
    over the occupied ones only.

    Ordinary sparse convolution: every output cell, including the ones next
    to an occupied pixel, equals the dense conv's. The occupied rows are
    gathered once, interior pixels first, and cast to the kernel's dtype
    (exact for the uint8 0/1 rasters); each tap multiplies them by its
    (cin, cout) slice and scatter-adds into the shifted output cells, in
    blocks of rows whose (rows, max(cin, cout)) temporaries fit
    _CHUNK_BYTES. Indices within one tap are unique and the taps run in a
    fixed order, so the gather-add-scatter is exact and the blocking does
    not change a bit. Only the pixels on the grid's border can shift off
    it, so only their taps are masked; the output is never padded.
    """
    h, w = grid
    kh, kw, cin, cout = kernel.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    iy, ix = np.divmod(occupied, w)
    interior = (iy >= top) & (iy < h - (kh - 1 - top)) & (ix >= left) & (ix < w - (kw - 1 - left))
    order = np.concatenate([occupied[interior], occupied[~interior]])
    n_interior = int(np.count_nonzero(interior))
    border_y, border_x = iy[~interior], ix[~interior]
    rows = pixels[order].astype(kernel.dtype, copy=False)
    out = np.zeros((h * w, cout), dtype=kernel.dtype)
    # numpy runs a one-row product as a matrix-vector call, which rounds
    # differently from the same row in a larger product, so no block is left
    # with a single row: the last block takes up to one row more.
    step = max(2, _CHUNK_BYTES // (max(cin, cout) * kernel.itemsize))
    bounds = [*range(0, max(len(order) - 1, 1), step), len(order)]
    for dy in range(kh):
        for dx in range(kw):
            shift = (top - dy) * w + (left - dx)
            oy, ox = border_y + (top - dy), border_x + (left - dx)
            inside = (oy >= 0) & (oy < h) & (ox >= 0) & (ox < w)
            for b0, b1 in zip(bounds, bounds[1:]):
                tap = rows[b0:b1] @ kernel[dy, dx]
                target = order[b0:b1] + shift
                split = min(max(n_interior - b0, 0), b1 - b0)  # the block's interior rows come first
                border = inside[max(b0 - n_interior, 0):max(b1 - n_interior, 0)]
                for cells, contrib in ((target[:split], tap[:split]), (target[split:][border], tap[split:][border])):
                    acc = out.take(cells, axis=0)  # take + setitem: faster than a fancy +=
                    acc += contrib
                    out[cells] = acc
    out += bias
    return out.reshape(h, w, cout)


def _conv2d_im2col(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   stride: tuple[int, int]) -> np.ndarray:
    """SAME conv plus bias via im2col + matmul, chunked over output rows.

    Each chunk zero-pads only the input rows it reads, so no padded copy of
    the whole input exists; the matmul writes straight into the output.
    """
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    oh, ow = conv_output_shape(h, w, stride)
    wmat = kernel.reshape(kh * kw * cin, cout)
    out = np.empty((oh, ow, cout), dtype=kernel.dtype)
    bytes_per_row = ow * kh * kw * cin * kernel.itemsize
    chunk = max(1, _CHUNK_BYTES // max(bytes_per_row, 1))
    for r0 in range(0, oh, chunk):
        r1 = min(r0 + chunk, oh)
        block = out[r0:r1].reshape(-1, cout)
        np.matmul(_im2col_rows(data, kernel, stride, r0, r1), wmat, out=block)
        block += bias
    return out


def _im2col_rows(data: np.ndarray, kernel: np.ndarray, stride: tuple[int, int],
                 r0: int, r1: int) -> np.ndarray:
    """Patch matrix ((r1 - r0) * ow, kh * kw * cin) of output rows r0..r1-1, in
    the kernel's dtype, built from a zero-padded copy of just the input rows
    they read."""
    h, w, cin = data.shape
    kh, kw = kernel.shape[:2]
    sh, sw = stride
    oh, ow = conv_output_shape(h, w, stride)
    pad_h = max((oh - 1) * sh + kh - h, 0)
    pad_w = max((ow - 1) * sw + kw - w, 0)
    top, left = pad_h // 2, pad_w // 2
    y0, y1 = r0 * sh - top, (r1 - 1) * sh + kh - top  # input rows read, padding included
    rows = np.zeros((y1 - y0, w + pad_w, cin), dtype=kernel.dtype)
    src0, src1 = max(y0, 0), min(y1, h)
    rows[src0 - y0:src1 - y0, left:left + w] = data[src0:src1]
    win = np.lib.stride_tricks.sliding_window_view(rows, (kh, kw), axis=(0, 1))
    patches = win[::sh, ::sw].transpose(0, 1, 3, 4, 2)  # (rows, ow, kh, kw, cin)
    return np.ascontiguousarray(patches).reshape(-1, kh * kw * cin)


def deconv2d_h_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   activation: str = RELU) -> np.ndarray:
    """Transposed conv, kernel (1, kw), horizontal stride 2: width doubles."""
    h, w, cin = data.shape
    _, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    dtype = _compute_dtype(data)
    pad = (kw - 2) // 2
    buf = np.zeros((h, 2 * w + kw - 2, cout), dtype=dtype)
    for t in range(kw):
        tap = data @ kernel[0, t].astype(dtype, copy=False)
        buf[:, t:t + 2 * w:2] += tap
    out = buf[:, pad:pad + 2 * w]
    out += bias.astype(dtype, copy=False)
    return _activate_inplace(out, activation)


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

    def validate_plan(self, plan: Sequence[ConvLayerSpec]) -> None:
        """Every planned layer has a kernel of its planned shape and a (cout,) bias."""
        for layer in plan:
            for block, want in ((f"{layer.name}.kernel", (*layer.kernel, layer.in_channels, layer.out_channels)),
                                (f"{layer.name}.bias", (layer.out_channels,))):
                if block not in self.blocks:
                    raise ValueError(f"missing block {block}")
                if self.blocks[block].shape != want:
                    raise ValueError(f"block {block} has shape {self.blocks[block].shape}, the plan needs {want}")


WEIGHTS_MAGIC = "mvfusion-weights"


def save_weights(path, weights: NetworkWeights) -> None:
    meta = {"scheme": weights.scheme}
    if weights.seed is not None:
        meta["seed"] = str(weights.seed)
    write_blocks(path, WEIGHTS_MAGIC, meta, weights.blocks)


def load_weights(path) -> NetworkWeights:
    meta, blocks = read_blocks(path, WEIGHTS_MAGIC)
    try:
        seed = int(meta["seed"]) if "seed" in meta else None
        weights = NetworkWeights(blocks, seed=seed, scheme=meta.get("scheme", "unknown"))
        weights.validate_finite()
    except ValueError as exc:
        raise BlockFileError(f"{path}: {exc}") from exc
    return weights


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
    # Even the small inputs are dropped early: the allocator then reuses their
    # memory, and atg4d-frame peak RSS reads 827 MB instead of 870 MB.
    del rv_image
    x = conv2d_forward(x, plan["rv.conv2"], weights)

    if config.use_camera:
        if camera_features is None:
            raise ValueError("config.use_camera is set but no camera features were given")
        x = _widened(x, config.concat_width)
        project_features(camera_features, points, rv, out=x.data[:, :, config.rv_width:])
        del camera_features

    # Each intermediate is dropped after its last reader; the residual sums
    # and their ReLU are written into the block input's buffer.
    enc1 = conv2d_forward(x, plan["unet.enc1"], weights)
    del x
    r = conv2d_forward(enc1, plan["unet.res1.conv1"], weights)
    r = conv2d_forward(r, plan["unet.res1.conv2"], weights)
    level1 = _residual_relu(enc1, r)
    del enc1, r

    down = conv2d_forward(level1, plan["unet.down"], weights)
    r2 = conv2d_forward(down, plan["unet.res2.conv1"], weights)
    r2 = conv2d_forward(r2, plan["unet.res2.conv2"], weights)
    level2 = _residual_relu(down, r2)
    del down, r2

    up = conv2d_forward(level2, plan["unet.up"], weights)
    del level2
    up_data = up.data[:, :level1.width]  # ceil-width rounding crop
    merged = FeatureMap(RV, np.concatenate([up_data, level1.data], axis=2), rv)
    del up, up_data, level1
    return conv2d_forward(merged, plan["unet.fuse"], weights)


def _widened(fm: FeatureMap, channels: int) -> FeatureMap:
    """fm's data copied into the leading channels of a new (h, w, channels)
    map of its dtype; the channels after them are left for the caller to
    write."""
    data = np.empty((fm.height, fm.width, channels), dtype=fm.data.dtype)
    data[:, :, :fm.channels] = fm.data
    return FeatureMap(fm.view, data, fm.geometry)


def fuse_input_of(bev_features: FeatureMap, config: FusionConfig) -> FeatureMap:
    """fuse.conv1's input with the BEV branch's features in its leading
    bev_width channels.

    The unet_width + 1 channels after them are left unwritten for the RV->BEV
    projection: project_features(rv_features, points, grid,
    out=fuse_input.data[:, :, config.bev_width:]) fills them with the
    projected RV features and their validity.
    """
    if bev_features.channels != config.bev_width or not isinstance(bev_features.geometry, GridSpec):
        raise ValueError(f"bev features must have {config.bev_width} channels and carry a GridSpec")
    return _widened(bev_features, config.bev_width + config.unet_width + 1)


def _residual_relu(x: FeatureMap, residual: FeatureMap) -> FeatureMap:
    """ReLU(x + residual), written into x's buffer."""
    np.add(x.data, residual.data, out=x.data)
    np.maximum(x.data, 0.0, out=x.data)
    return x


def bev_branch_forward(lidar_bev: FeatureMap, map_raster: FeatureMap,
                       weights: NetworkWeights, config: FusionConfig) -> FeatureMap:
    """Separate LiDAR and map embeddings summed on the shared BEV grid."""
    if (lidar_bev.height, lidar_bev.width) != (map_raster.height, map_raster.width):
        raise ValueError("lidar stack and map raster must share one grid")
    plan = _plan_by_name(config, bev_in_channels=lidar_bev.channels)
    geometry = lidar_bev.geometry
    lid = conv2d_forward(lidar_bev, plan["bev.lidar1"], weights)
    del lidar_bev  # the history stack is the frame's largest tensor
    lid = conv2d_forward(lid, plan["bev.lidar2"], weights)
    mp = conv2d_forward(map_raster, plan["bev.map1"], weights)
    del map_raster
    mp = conv2d_forward(mp, plan["bev.map2"], weights)
    np.add(lid.data, mp.data, out=lid.data)
    return FeatureMap(BEV, lid.data, geometry)


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
            p = block[:, :, 0].astype(np.float64, copy=False)  # in float32, 1 - 1e-12 rounds to 1
            if logits:
                p = 1.0 / (1.0 + np.exp(-p))
            elif not ((p > 0.0) & (p < 1.0)).all():  # stored probabilities: check before clipping
                raise ValueError(f"{name}: probabilities must be strictly inside (0, 1)")
            prob[name] = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
            size[name] = block[:, :, 1:3].astype(np.float64)
            centers[name] = block[:, :, 3:3 + 2 * h1].reshape(grid.rows, grid.cols, h1, 2).astype(np.float64)
            headings[name] = block[:, :, 3 + 2 * h1:].reshape(grid.rows, grid.cols, h1, 2).astype(np.float64)
        return cls(grid, horizon, tuple(classes), prob, size, centers, headings)


def fuse_and_head_forward(fuse_input: FeatureMap, weights: NetworkWeights,
                          config: FusionConfig) -> CellOutputs:
    """Reduce stride over the fused BEV input, emit cells.

    fuse_input is fuse.conv1's input: the BEV features, the projected RV
    features and their validity along the channels, as built by
    fuse_input_of and project_features.
    """
    grid = fuse_input.geometry
    if not isinstance(grid, GridSpec):
        raise ValueError("the fuse input must carry a GridSpec")
    plan = _plan_by_name(config, bev_in_channels=1)
    x = fuse_input
    del fuse_input  # freed once fuse.conv1 has read it
    for i in range(len(config.head_widths)):
        x = conv2d_forward(x, plan[f"fuse.conv{i + 1}"], weights)
    raw = conv2d_forward(x, plan["fuse.head"], weights)
    out_grid = OutputGrid.from_grid(grid, config.output_stride)
    return CellOutputs.unpack(raw.data, out_grid, config.horizon, config.classes, logits=True)
