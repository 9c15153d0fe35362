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
  output, where bias and activation are applied to the chunk while it is
  in cache. The occupied-pixel kernel applies them after its last tap.

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

Memory: every kernel writes into a caller's view when given one (out=), and
the branch functions take an optional Arena (arena.py) whose plan
(pipeline.frame_plan) gives each grid-shaped tensor of a frame its bytes
for its live range: each conv output, the joined inputs and the float32
copies of the images. A frame then allocates none of them, and a process
reuses the same pages frame after frame instead of mapping, zero-filling
and unmapping fresh ones; without an arena each tensor is a new array.
Residual sums, their ReLU and the BEV LiDAR + map sum are done in place.
The two inputs that join a view's own features with projected ones,
unet.enc1's and fuse.conv1's, are built at full width: rv.conv2 writes the
leading channels of unet.enc1's, fuse_input_of copies the BEV features into
fuse.conv1's, and project_features writes the projection and its validity
into the rest, so no concatenated copy of either exists. The kernels'
temporaries stay on the heap under one working-set bound, arena.CHUNK_BYTES
(its reason is given there): an im2col chunk's patch matrix, a row block's
per-tap product and gathered output rows in the occupied-pixel kernel, and
a row block's per-tap product in the transposed conv. A kernel's largest
temporary, which can be far larger (the occupied-pixel kernel's gathered
input rows, or an im2col patch matrix when one output row's patches exceed
the bound), goes into the work bytes the plan gives the layer
(conv_work_bytes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .arena import CHUNK_BYTES, Arena, output_array
from .blockfile import BlockFileError, read_blocks, write_blocks
from .projection import project_features
from .scene import CLASSES
from .views import BEV, CAMERA, RV, CameraGeometry, FeatureMap, GridSpec, OutputGrid, RvSpec

RELU = "relu"
LINEAR = "linear"

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


def _pixel_rows(out: np.ndarray) -> np.ndarray:
    """The (h * w, c) view of an (h, w, c) array whose pixels are evenly
    spaced, such as a channel slice of a wider contiguous array."""
    try:
        return np.reshape(out, (-1, out.shape[2]), copy=False)
    except ValueError:
        raise ValueError("out must be an array whose pixels are evenly spaced, such as a channel slice") from None


def conv_work_bytes(layer: ConvLayerSpec, h: int, w: int) -> int:
    """Bytes of scratch conv2d_raw can use on an (h, w) input of the layer
    computed in float32 (its work): one im2col chunk's patch matrix or, at
    stride 1, the occupied-pixel kernel's gathered rows at the most occupied
    pixels it takes, whichever is larger. A transposed layer uses none."""
    if layer.transposed:
        return 0
    itemsize = np.dtype(np.float32).itemsize
    oh, ow = conv_output_shape(h, w, layer.stride)
    row = ow * math.prod(layer.kernel) * layer.in_channels * itemsize  # one output row's patches
    occupied = int(_OCCUPIED_SHARE * h * w) * layer.in_channels * itemsize if layer.stride == (1, 1) else 0
    return max(_chunk_rows(oh, row) * row, occupied)


def _chunk_rows(oh: int, bytes_per_row: int) -> int:
    """Output rows per im2col chunk: as many as fit CHUNK_BYTES, at least one."""
    return min(oh, max(1, CHUNK_BYTES // max(bytes_per_row, 1)))


def _work_view(work: np.ndarray | None, shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """The first bytes of work as an array of shape and dtype, or None when work is too small."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if work is None or work.nbytes < nbytes:
        return None
    return work[:nbytes].view(dtype).reshape(shape)


def conv2d_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
               stride: tuple[int, int] = (1, 1), activation: str = RELU,
               out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with zero SAME padding; output = ceil(input / stride).

    Stride-(1, 1) inputs whose occupied pixels (channel row not all zero) are
    at most _OCCUPIED_SHARE of the grid take the occupied-pixel kernel;
    everything else takes chunked im2col. A non-float input (the uint8 0/1
    BEV rasters) is computed in float32: both kernels cast only the input
    rows they read.

    out, when given, receives the result and is returned: an (oh, ow, cout)
    array of the compute dtype whose pixels are evenly spaced (a channel
    slice of a wider array qualifies); every element is written. work, when
    given, is a uint8 buffer for the kernel's largest temporary, the
    occupied-pixel kernel's gathered input rows or an im2col chunk's patch
    matrix, used when it fits (conv_work_bytes sizes it); else that is
    allocated.
    """
    h, w, cin = data.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    dtype = _compute_dtype(data)
    kernel = kernel.astype(dtype, copy=False)
    bias = bias.astype(dtype, copy=False)
    out = output_array(out, (*conv_output_shape(h, w, stride), cout), dtype)
    if tuple(stride) == (1, 1):
        pixels = data.reshape(h * w, cin)
        occupied = _occupied_pixels(pixels, _OCCUPIED_SHARE * h * w)
        if occupied is not None:
            _conv2d_occupied(pixels, occupied, (h, w), kernel, bias, _pixel_rows(out), work)
            return _activate_inplace(out, activation)
    _conv2d_im2col(data, kernel, bias, stride, activation, _pixel_rows(out), work)
    return out


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


def _gathered_rows(pixels: np.ndarray, order: np.ndarray, dtype, work: np.ndarray | None) -> np.ndarray:
    """pixels[order] cast to dtype, in work when it is large enough, gathered
    in blocks of at most CHUNK_BYTES."""
    n, cin = len(order), pixels.shape[1]
    rows = _work_view(work, (n, cin), dtype)
    if rows is None:
        rows = np.empty((n, cin), dtype=dtype)
    step = max(1, CHUNK_BYTES // max(cin * np.dtype(dtype).itemsize, 1))
    for b0 in range(0, n, step):
        rows[b0:b0 + step] = pixels[order[b0:b0 + step]]
    return rows


def _conv2d_occupied(pixels: np.ndarray, occupied: np.ndarray, grid: tuple[int, int],
                     kernel: np.ndarray, bias: np.ndarray, out: np.ndarray,
                     work: np.ndarray | None) -> None:
    """Stride-1 SAME conv plus bias of the (h * w, cin) pixel rows, summed
    over the occupied ones only, written into out's (h * w, cout) rows.

    Ordinary sparse convolution: every output cell, including the ones next
    to an occupied pixel, equals the dense conv's. The occupied rows are
    gathered once, interior pixels first, and cast to the kernel's dtype
    (exact for the uint8 0/1 rasters); each tap multiplies them by its
    (cin, cout) slice and scatter-adds into the shifted output cells, in
    blocks of rows whose (rows, max(cin, cout)) temporaries fit
    CHUNK_BYTES. Indices within one tap are unique and the taps run in a
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
    rows = _gathered_rows(pixels, order, kernel.dtype, work)
    out[...] = 0
    # numpy runs a one-row product as a matrix-vector call, which rounds
    # differently from the same row in a larger product, so no block is left
    # with a single row: the last block takes up to one row more.
    step = max(2, CHUNK_BYTES // (max(cin, cout) * kernel.itemsize))
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


def _conv2d_im2col(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: tuple[int, int],
                   activation: str, out: np.ndarray, work: np.ndarray | None) -> None:
    """SAME conv plus bias and activation via im2col + matmul, chunked over
    output rows, written into out's (oh * ow, cout) rows.

    Each chunk zero-pads only the input rows it reads, so no padded copy of
    the whole input exists; its patch matrix goes into work when that fits;
    the matmul writes straight into the output, and bias and activation are
    applied to the chunk while it is in cache.
    """
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    oh, ow = conv_output_shape(h, w, stride)
    wmat = kernel.reshape(kh * kw * cin, cout)
    chunk = _chunk_rows(oh, ow * kh * kw * cin * kernel.itemsize)
    patches = _work_view(work, (chunk * ow * kh * kw * cin,), kernel.dtype)
    for r0 in range(0, oh, chunk):
        r1 = min(r0 + chunk, oh)
        block = out[r0 * ow:r1 * ow]
        np.matmul(_im2col_rows(data, kernel, stride, r0, r1, patches), wmat, out=block)
        block += bias
        _activate_inplace(block, activation)


def _im2col_rows(data: np.ndarray, kernel: np.ndarray, stride: tuple[int, int],
                 r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
    """Patch matrix ((r1 - r0) * ow, kh * kw * cin) of output rows r0..r1-1, in
    the kernel's dtype, built from a zero-padded copy of just the input rows
    they read; in the leading elements of the flat array out when given."""
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
    if out is None:
        return np.ascontiguousarray(patches).reshape(-1, kh * kw * cin)
    matrix = out[:patches.size].reshape(patches.shape)
    matrix[...] = patches
    return matrix.reshape(-1, kh * kw * cin)


def deconv2d_h_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                   activation: str = RELU, out: np.ndarray | None = None) -> np.ndarray:
    """Transposed conv, kernel (1, kw), horizontal stride 2: width doubles.

    Input column j reaches output column 2j + t - (kw - 2) // 2 through tap
    t; every output element starts at zero and adds its taps in tap order.
    Rows are done in blocks whose per-tap product fits CHUNK_BYTES. out is
    as in conv2d_raw.
    """
    h, w, cin = data.shape
    _, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    dtype = _compute_dtype(data)
    out = output_array(out, (h, 2 * w, cout), dtype)
    bias = bias.astype(dtype, copy=False)
    pad = (kw - 2) // 2
    step = max(1, CHUNK_BYTES // max(w * cout * np.dtype(dtype).itemsize, 1))
    for r0 in range(0, h, step):
        block = out[r0:r0 + step]
        block[...] = 0
        for t in range(kw):
            tap = data[r0:r0 + step] @ kernel[0, t].astype(dtype, copy=False)
            j0 = max(0, -((t - pad) // 2))  # input columns j0..j1-1 land inside the output
            j1 = min(w, w - (t - pad) // 2)
            if j1 > j0:
                c0 = 2 * j0 + t - pad
                block[:, c0:c0 + 2 * (j1 - j0) - 1:2] += tap[:, j0:j1]
        block += bias
        _activate_inplace(block, activation)
    return out


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

def conv2d_forward(fm: FeatureMap, layer: ConvLayerSpec, weights: NetworkWeights,
                   out: np.ndarray | None = None, work: np.ndarray | None = None) -> FeatureMap:
    """Apply one planned layer to a feature map (geometry carried through);
    out and work as in conv2d_raw."""
    if fm.channels != layer.in_channels:
        raise ValueError(f"{layer.name}: expected {layer.in_channels} channels, got {fm.channels}")
    kernel = weights.kernel(layer.name)
    bias = weights.bias(layer.name)
    if kernel.shape != (*layer.kernel, layer.in_channels, layer.out_channels):
        raise ValueError(f"{layer.name}: weight block shape {kernel.shape} does not match the layer plan")
    if layer.transposed:
        data = deconv2d_h_raw(fm.data, kernel, bias, layer.activation, out=out)
    else:
        data = conv2d_raw(fm.data, kernel, bias, layer.stride, layer.activation, out=out, work=work)
    return FeatureMap(fm.view, data, fm.geometry)


@dataclass(frozen=True)
class LayerPlan:
    """The conv layers of one configuration, looked up by name (plan["rv.conv1"])."""

    config: FusionConfig
    bev_in_channels: int

    @cached_property
    def layers(self) -> dict[str, ConvLayerSpec]:
        return {layer.name: layer for layer in network_plan(self.config, self.bev_in_channels)}

    def __getitem__(self, name: str) -> ConvLayerSpec:
        return self.layers[name]


# The branch functions below take an optional Arena (arena.py). With one,
# every tensor they produce is written into its planned view: a conv into
# the view named after its layer, with the layer's "<name>.work" bytes as
# its work, and the joined inputs into "unet.enc1.in", "unet.fuse.in" and
# "fuse.conv1.in". Without one, each is a new array.

def _conv(fm: FeatureMap, layer: ConvLayerSpec, weights: NetworkWeights, arena: Arena | None,
          out: np.ndarray | None = None) -> FeatureMap:
    """conv2d_forward into out, by default the arena's view of the layer's output."""
    if arena is None:
        return conv2d_forward(fm, layer, weights, out=out)
    return conv2d_forward(fm, layer, weights, out=arena.view(layer.name) if out is None else out,
                          work=arena.find(f"{layer.name}.work"))


def _buffer(arena: Arena | None, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """The arena's view called name, checked against shape and dtype, or a new array."""
    return output_array(None if arena is None else arena.view(name), shape, dtype)


def camera_net_forward(image: FeatureMap, weights: NetworkWeights, plan: LayerPlan,
                       arena: Arena | None = None) -> FeatureMap:
    """6-conv camera feature extractor; total spatial downscale 8x with ceiling."""
    if not isinstance(image.geometry, CameraGeometry):
        raise ValueError("camera image must carry CameraGeometry")
    out = image
    for i in range(len(plan.config.cam_widths)):
        out = _conv(out, plan[f"cam.conv{i + 1}"], weights, arena)
    geometry = CameraGeometry(image.geometry.camera, pixel_stride=8 * image.geometry.pixel_stride)
    return FeatureMap(CAMERA, out.data, geometry)


def rv_branch_forward(rv_image: FeatureMap, camera_features: FeatureMap | None, points,
                      weights: NetworkWeights, plan: LayerPlan, arena: Arena | None = None) -> FeatureMap:
    """LiDAR RV convs, camera fusion by point projection, 2-scale U-net.

    With the camera branch, unet.enc1's input is built in place: rv.conv2
    writes its leading rv_width channels and the camera projection, with
    its validity, the rest. The residual sums and their ReLU are written
    into the block input's buffer.
    """
    rv = rv_image.geometry
    if not isinstance(rv, RvSpec) or rv_image.height != rv.rows:
        raise ValueError("rv image rows must match its RvSpec")
    config = plan.config
    x = _conv(rv_image, plan["rv.conv1"], weights, arena)
    if config.use_camera:
        if camera_features is None:
            raise ValueError("config.use_camera is set but no camera features were given")
        enc1_in = _buffer(arena, "unet.enc1.in", (x.height, x.width, config.concat_width), x.data.dtype)
        _conv(x, plan["rv.conv2"], weights, arena, out=enc1_in[:, :, :config.rv_width])
        project_features(camera_features, points, rv, out=enc1_in[:, :, config.rv_width:])
        x = FeatureMap(RV, enc1_in, rv)
    else:
        x = _conv(x, plan["rv.conv2"], weights, arena)

    enc1 = _conv(x, plan["unet.enc1"], weights, arena)
    r = _conv(enc1, plan["unet.res1.conv1"], weights, arena)
    level1 = _residual_relu(enc1, _conv(r, plan["unet.res1.conv2"], weights, arena))
    down = _conv(level1, plan["unet.down"], weights, arena)
    r2 = _conv(down, plan["unet.res2.conv1"], weights, arena)
    level2 = _residual_relu(down, _conv(r2, plan["unet.res2.conv2"], weights, arena))
    up = _conv(level2, plan["unet.up"], weights, arena)
    merged = _buffer(arena, "unet.fuse.in", (level1.height, level1.width, up.channels + level1.channels),
                     level1.data.dtype)
    np.concatenate([up.data[:, :level1.width], level1.data], axis=2, out=merged)  # ceil-width rounding crop
    return _conv(FeatureMap(RV, merged, rv), plan["unet.fuse"], weights, arena)


def fuse_input_of(bev_features: FeatureMap, config: FusionConfig, arena: Arena | None = None) -> FeatureMap:
    """fuse.conv1's input with the BEV branch's features in its leading
    bev_width channels.

    The unet_width + 1 channels after them are left unwritten for the RV->BEV
    projection: project_features(rv_features, points, grid,
    out=fuse_input.data[:, :, config.bev_width:]) fills them with the
    projected RV features and their validity. The BEV features are copied
    in: had bev.map2 written these channels and bev.lidar2's output been
    added to them, bev.lidar2's output, bev.map1's and this input would be
    live at once: on atg4d, an arena of 507.2 MiB instead of 435.6.
    """
    if bev_features.channels != config.bev_width or not isinstance(bev_features.geometry, GridSpec):
        raise ValueError(f"bev features must have {config.bev_width} channels and carry a GridSpec")
    shape = (bev_features.height, bev_features.width, config.bev_width + config.unet_width + 1)
    data = _buffer(arena, "fuse.conv1.in", shape, bev_features.data.dtype)
    data[:, :, :config.bev_width] = bev_features.data
    return FeatureMap(BEV, data, bev_features.geometry)


def _residual_relu(x: FeatureMap, residual: FeatureMap) -> FeatureMap:
    """ReLU(x + residual), written into x's buffer."""
    np.add(x.data, residual.data, out=x.data)
    np.maximum(x.data, 0.0, out=x.data)
    return x


def bev_branch_forward(lidar_bev: FeatureMap, map_raster: FeatureMap, weights: NetworkWeights,
                       plan: LayerPlan, arena: Arena | None = None) -> FeatureMap:
    """Separate LiDAR and map embeddings summed on the shared BEV grid, in
    bev.lidar2's output."""
    if (lidar_bev.height, lidar_bev.width) != (map_raster.height, map_raster.width):
        raise ValueError("lidar stack and map raster must share one grid")
    lid = _conv(_conv(lidar_bev, plan["bev.lidar1"], weights, arena), plan["bev.lidar2"], weights, arena)
    mp = _conv(_conv(map_raster, plan["bev.map1"], weights, arena), plan["bev.map2"], weights, arena)
    np.add(lid.data, mp.data, out=lid.data)
    return FeatureMap(BEV, lid.data, lidar_bev.geometry)


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
               classes: Sequence[str], logits: bool = False, out: np.ndarray | None = None) -> "CellOutputs":
        """Cell outputs of a (rows, cols, classes * per_class) head output.

        Every field is a float64 array. With out, a flat float64 array of
        raw.size elements, the fields are consecutive blocks of it, class
        by class (prob, size, centers, headings); else each is a new array.
        """
        h1 = horizon + 1
        per = 1 + 2 + 2 * h1 + 2 * h1
        shape = (grid.rows, grid.cols)
        if raw.shape != (*shape, len(classes) * per):
            raise ValueError(f"raw head output shape {raw.shape} does not match layout")
        take = np.empty if out is None else _blocks(output_array(out, (raw.size,), np.float64))
        prob, size, centers, headings = {}, {}, {}, {}
        for i, name in enumerate(classes):
            block = raw[:, :, i * per:(i + 1) * per]
            p = block[:, :, 0].astype(np.float64, copy=False)  # in float32, 1 - 1e-12 rounds to 1
            if logits:
                p = 1.0 / (1.0 + np.exp(-p))
            elif not ((p > 0.0) & (p < 1.0)).all():  # stored probabilities: check before clipping
                raise ValueError(f"{name}: probabilities must be strictly inside (0, 1)")
            prob[name] = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS, out=take(shape))
            size[name] = take((*shape, 2))
            size[name][...] = block[:, :, 1:3]
            centers[name] = take((*shape, h1, 2))
            centers[name][...] = block[:, :, 3:3 + 2 * h1].reshape(*shape, h1, 2)
            headings[name] = take((*shape, h1, 2))
            headings[name][...] = block[:, :, 3 + 2 * h1:].reshape(*shape, h1, 2)
        return cls(grid, horizon, tuple(classes), prob, size, centers, headings)


def _blocks(flat: np.ndarray):
    """take(shape): the next block of flat, as a float64 array of that shape."""
    start = 0

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal start
        n = math.prod(shape)
        start += n
        return flat[start - n:start].reshape(shape)

    return take


def fuse_and_head_forward(fuse_input: FeatureMap, weights: NetworkWeights, plan: LayerPlan,
                          arena: Arena | None = None) -> CellOutputs:
    """Reduce stride over the fused BEV input, emit cells.

    fuse_input is fuse.conv1's input: the BEV features, the projected RV
    features and their validity along the channels, as built by
    fuse_input_of and project_features. With an arena, the cell outputs
    are written into its export, which lend hands over with its segment, so
    they never share memory with the arena's later frames.
    """
    grid = fuse_input.geometry
    if not isinstance(grid, GridSpec):
        raise ValueError("the fuse input must carry a GridSpec")
    config = plan.config
    x = fuse_input
    for i in range(len(config.head_widths)):
        x = _conv(x, plan[f"fuse.conv{i + 1}"], weights, arena)
    raw = _conv(x, plan["fuse.head"], weights, arena)
    out_grid = OutputGrid.from_grid(grid, config.output_stride)
    return CellOutputs.unpack(raw.data, out_grid, config.horizon, config.classes, logits=True,
                              out=None if arena is None else arena.lend())
