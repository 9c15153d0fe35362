"""Forward-only multi-view fusion network.

Topology: a lightweight 6-conv camera net (stride 2 on alternate layers),
an RV branch that fuses projected camera features with the LiDAR range
image and refines them in a 2-scale U-shaped net (horizontal-only
downscale), a BEV branch summing LiDAR-stack and map-raster embeddings,
and a fused stride-reducing head emitting per-cell detection and
trajectory outputs for every class.

Weights are seeded pseudo-random or loaded from a block file; there is no
training here. Convolutions are plain cross-correlations with zero SAME
padding, computed by one of three kernels chosen from the input's shape and
occupancy alone, by a constant rule (conv_kernel_of), never tuned at run
time (the transposed unet.up runs as its sub_pixel_conv, each joined layer
as its split_conv's parts):

- occupied-pixel: a stride-(1, 1) input whose occupied pixels (channel rows
  that are not all zero) are at most _OCCUPIED_SHARE of the grid, such as
  the BEV LiDAR stack and map raster. The output is made in bands of rows;
  each band gathers the occupied rows its taps reach, and each tap
  multiplies those rows and adds into the shifted cells. This is ordinary
  sparse convolution (SECOND), not the submanifold kind: every output cell
  equals the dense conv's, up to summation order. The joined layers'
  projected parts run it over the cells points hit (split_conv),
  fuse.conv1's with stride 2.
- Winograd F(2x2, 3x3) (Lavin & Gray, CVPR 2016) for a dense input of a
  3x3 stride-(1, 1) layer of at least _WINOGRAD_MIN_CHANNELS input
  channels, whatever its size (winograd_shape): on atg4d, the unet
  residual convs, unet.fuse, fuse.conv2, fuse.conv4-6 and fuse.head;
  on desk, the unet.res2 convs, unet.fuse, fuse.conv4-6 and fuse.head.
  Each 2x2 output tile costs 16 products over the channels instead of 36.
  Its input and output transforms only add and subtract; the kernel
  transform G g G^T is summed in float64 and cast, once per layer when a
  FusionNet is built (FusionNet.planes). In float32 its error against
  float64 is no larger than im2col's (3-5e-7 relative, against 5-6e-7),
  but its bits differ from im2col's; in float64 it agrees with the
  literal conv to rounding (below 1e-10 in the tests).
- im2col + matmul for every other input, chunked over output rows to bound
  memory. Each chunk zero-pads only the input rows it reads, so no padded
  copy of the whole input exists, and the matmul writes straight into the
  output, where bias and activation are applied to the chunk while it is
  in cache. The Winograd kernel applies them to each tile block's output
  tiles, assembled contiguously before one copy into the output; the
  occupied-pixel kernel to each band after its last tap, as it copies the
  band into the output. Neither adds a pass over the whole output. A
  layer's bits are fixed by its kernel and its block, which the plan's
  work sizes: a float32 matmul's bits can depend on how many rows it
  multiplies at once (OpenBLAS SkylakeX: A(667, 54) @ B(54, 5) done 23 or
  46 rows at a time differs from the whole product), so resizing a
  layer's work at or above CHUNK_BYTES can change its bits.

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

Memory: the forward pass is one list of steps (pipeline.frame_steps, made
of the stages' *_steps below), each naming the tensors it writes and reads
and carrying what it runs; each branch function runs its stage's steps
(FusionNet.run). A FusionNet (one configuration, its validated weights and
its layers' Winograd planes) may hold an Arena (arena.py) planned from that
list: each grid-shaped tensor of a frame gets its bytes for its live range,
and a process reuses the same pages frame after frame; a net without an
arena gives each tensor a new array. Where two branches meet, the second
conv adds into the first one's tensor: bev.map2 into bev.lidar2's output
and each residual block's second conv into its input (add_to=, then a
ReLU step in place), a joined layer's projected part into its dense
part's (split_conv), so no joined input but unet.fuse's skip concat is
built. fuse.conv1's dense part ends the BEV branch, so the BEV features
die before the camera net, and its projected part starts the head. Every
kernel writes into a caller's view when given one (out=) and
works in blocks of one size (_block_bytes): the layer's work, of which
each conv step asks CONV_WORK_BYTES and the plan gives only the room the
frame's tensors leave, when it holds at least arena.CHUNK_BYTES, else
CHUNK_BYTES on the heap. Only what cannot be cut smaller outgrows the
block, on the heap: one im2col row's patches (with add_to, its chunk's
products too), three Winograd tiles or a one-row band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .arena import CHUNK_BYTES, Arena, Step, output_array
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

# Dense inputs of 3x3 stride-(1, 1) layers of at least this many input
# channels, whatever their size, take the Winograd kernel, every other dense
# input im2col (winograd_shape). Measured per layer on one core (README.md,
# "Convolution kernels"): the 10 atg4d layers it picks run 16-36% faster,
# 4 of the 7 desk ones 5-35% (fuse.conv4-6, 24x16 pixels, lose 0.02-0.06 ms);
# narrower layers run slower (cam.conv3, 16 channels: 27 -> 41 ms;
# cam.conv5, 32: 18.6 -> 21.8) or tie (rv.conv2, 32).
_WINOGRAD_MIN_CHANNELS = 64
# The work every conv step asks of the frame plan (_StepList.conv), and so
# the block every kernel works in when the plan has room for it
# (_block_bytes). 8 MiB Winograd blocks ran an atg4d frame about 4% faster,
# but raised its peak RSS by 18 MB; 4 MiB still holds unet.down's im2col
# row (2.36 MB) and five of fuse.conv1's dense part (0.72 MB each).
CONV_WORK_BYTES = 4 << 20


@dataclass(frozen=True)
class ConvLayerSpec:
    """One convolution: 3x3 unless transposed (run as sub_pixel_conv), SAME padding, optional stride."""

    name: str
    in_channels: int
    out_channels: int
    stride: tuple[int, int] = (1, 1)
    kernel: tuple[int, int] = (3, 3)
    activation: str = RELU
    transposed: bool = False  # horizontal-only 2x upsampling, kernel (1, 4)


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


def winograd_shape(cin: int, kernel: tuple[int, int], stride: tuple[int, int]) -> bool:
    """Whether a dense input of cin channels to a conv of this kernel size
    and stride takes the Winograd kernel rather than im2col, whatever its
    height and width: a constant rule keyed by the layer's shape, never
    tuned at run time, since the kernel decides the output bits."""
    return tuple(kernel) == (3, 3) and tuple(stride) == (1, 1) and cin >= _WINOGRAD_MIN_CHANNELS


def _block_bytes(work: np.ndarray | None) -> int:
    """The bytes a conv kernel works in at a time (its block): work's when at least CHUNK_BYTES, else CHUNK_BYTES."""
    return CHUNK_BYTES if work is None or work.nbytes < CHUNK_BYTES else work.nbytes


def _scratch(work: np.ndarray | None, n: int, dtype) -> np.ndarray:
    """n elements of dtype: the leading bytes of work when it holds them, else a new array."""
    nbytes = n * np.dtype(dtype).itemsize
    return np.empty(n, dtype=dtype) if work is None or work.nbytes < nbytes else work[:nbytes].view(dtype)


OCCUPIED, WINOGRAD, IM2COL = "occupied", "winograd", "im2col"


def conv2d_raw(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
               stride: tuple[int, int] = (1, 1), activation: str = RELU,
               out: np.ndarray | None = None, work: np.ndarray | None = None,
               planes: np.ndarray | None = None, add_to: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with zero SAME padding; output = ceil(input / stride).

    Stride-(1, 1) inputs whose occupied pixels (channel row not all zero) are
    at most _OCCUPIED_SHARE of the grid take the occupied-pixel kernel;
    dense inputs of a Winograd shape (winograd_shape) take Winograd F(2x2,
    3x3); everything else takes chunked im2col (conv_kernel_of). A non-float
    input (the uint8 0/1 BEV rasters) is computed in float32: every kernel
    casts only the input rows it reads.

    out, when given, receives the result and is returned: an (oh, ow, cout)
    array of the compute dtype whose pixels are evenly spaced (a channel
    slice of a wider array qualifies); every element is written. work, when
    given, is a uint8 buffer the kernel works in when it holds at least
    CHUNK_BYTES, its blocks then growing to its size (_block_bytes); else
    they are CHUNK_BYTES on the heap. planes, when given, is the kernel's
    Winograd transform in the compute dtype, kept by the caller
    (FusionNet.planes, float32); else the Winograd kernel makes it
    (winograd_kernel).

    add_to, given instead of out, is an array of out's kind that the result
    is added to after the activation, add_to += act(conv + bias), and is
    returned: the bits of the conv written into an array of its own and
    then added (np.add), under every kernel, with no such array.
    """
    h, w, cin = data.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ValueError(f"kernel expects {kcin} input channels, data has {cin}")
    if out is not None and add_to is not None:
        raise ValueError("give out or add_to, not both")
    dtype = _compute_dtype(data)
    bias = bias.astype(dtype, copy=False)
    accumulate = add_to is not None
    out = output_array(add_to if accumulate else out, (*conv_output_shape(h, w, stride), cout), dtype)
    name, occupied = _choose_kernel(data, (kh, kw), stride)
    if name == WINOGRAD:
        planes = winograd_kernel(kernel, dtype) if planes is None else planes
        _conv2d_winograd(data, planes, bias, activation, out, work, accumulate)
        return out
    kernel = kernel.astype(dtype, copy=False)
    if name == OCCUPIED:
        _conv2d_occupied(data.reshape(h * w, cin), occupied, (h, w), kernel, bias, activation, _pixel_rows(out),
                         work, (1, 1), accumulate)
        return out
    _conv2d_im2col(data, kernel, bias, stride, activation, _pixel_rows(out), work, accumulate)
    return out


def conv_kernel_of(data: np.ndarray, layer: ConvLayerSpec) -> str:
    """The kernel conv2d_forward runs for layer on data: conv2d_raw's
    OCCUPIED, WINOGRAD or IM2COL."""
    return _choose_kernel(data, layer.kernel, layer.stride)[0]


def _choose_kernel(data: np.ndarray, kernel: tuple[int, int],
                   stride: tuple[int, int]) -> tuple[str, np.ndarray | None]:
    """conv2d_raw's kernel for data, with the occupied pixels when it is OCCUPIED."""
    h, w, cin = data.shape
    if tuple(stride) == (1, 1):
        occupied = _occupied_pixels(data.reshape(h * w, cin), _OCCUPIED_SHARE * h * w)
        if occupied is not None:
            return OCCUPIED, occupied
    return (WINOGRAD if winograd_shape(cin, kernel, stride) else IM2COL), None


def _occupied_pixels(pixels: np.ndarray, limit: float) -> np.ndarray | None:
    """Indices of the occupied (not all-zero) rows of pixels, or None once
    there are more than limit of them.

    The rows are scanned in blocks of about CHUNK_BYTES, so a dense input is
    given up on after the first limit occupied rows, not read in full.
    """
    n, cin = pixels.shape
    step = max(1, CHUNK_BYTES // max(cin * pixels.itemsize, 1))
    found, count = [], 0
    for p0 in range(0, n, step):
        idx = np.flatnonzero(pixels[p0:p0 + step].any(axis=1))
        count += idx.size
        if count > limit:
            return None
        idx += p0
        found.append(idx)
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def _same_pad(n: int, k: int, s: int) -> int:
    """SAME zero padding before the first of n inputs along an axis of k taps and stride s."""
    return max((-(-n // s) - 1) * s + k - n, 0) // 2


def _axis_taps(n: int, k: int, s: int) -> list[list[tuple[int, int]]]:
    """For each input parity p < s along an axis of n inputs, k taps and
    stride s, the taps (d, e) that read inputs p + s j: tap d sends input
    p + s j to output j - e."""
    before = _same_pad(n, k, s)
    return [[(d, (d - before - p) // s) for d in range(k) if (d - before - p) % s == 0] for p in range(s)]


class _Parity(NamedTuple):
    """One parity class of _conv2d_occupied's input, the pixels (p + sh i,
    q + sw j), and the taps that read it."""

    occupied: np.ndarray  # the class's occupied pixels, ascending
    base: np.ndarray  # each one's cell i * wide + j in a band starting at its row i
    first: np.ndarray  # first[k]: the first of them in row i = k + rows[0][1] or after
    rows: list[tuple[int, int]]  # the row taps (d, e) that read row parity p (_axis_taps)
    cols: list[tuple[int, int]]  # the column taps that read column parity q
    reach: int  # rows[-1][1] - rows[0][1]: a band [y0, y1) reads first[y0] up to first[y1 + reach]


def _occupied_bands(lo: np.ndarray, hi: np.ndarray, row: int, pixel: int, block: int,
                    neighbours: int) -> list[int]:
    """Bounds of the occupied-pixel kernel's output bands: as many rows as
    fit block elements, at least one, a band costing row elements a row and
    pixel elements for each occupied pixel its taps reach and for each of
    the neighbours gathered with them. The band [y0, y1) reaches hi[y1] -
    lo[y0] pixels, as in _conv2d_occupied."""
    h = len(lo) - 1
    y = np.arange(h + 1)
    fill = y * row + hi * pixel  # the cost of the band [0, y), less its neighbours
    bounds = [0]
    while bounds[-1] < h:
        y0 = bounds[-1]
        limit = block + y0 * row + (lo[y0] - neighbours) * pixel
        bounds.append(max(y0 + 1, int(np.searchsorted(fill, limit, side="right")) - 1))
    return bounds


def _conv2d_occupied(pixels: np.ndarray, occupied: np.ndarray, grid: tuple[int, int],
                     kernel: np.ndarray, bias: np.ndarray | None, activation: str, out: np.ndarray,
                     work: np.ndarray | None, stride: tuple[int, int] = (1, 1), accumulate: bool = False) -> None:
    """SAME conv plus bias and activation of the (h * w, cin) pixel rows,
    summed over the occupied ones only, written into out's (oh * ow, cout)
    rows, or with accumulate added to them after the activation. With bias
    None, the sums are added to what out holds before the activation
    instead: only the bands the pixels reach are visited, then the
    activation makes one pass over out (a band they do not reach would add
    +0.0, which changes no bit that the ReLU keeps: max(-0.0, 0) is +0.0).

    Ordinary sparse convolution: every output cell, including the ones next
    to an occupied pixel, equals the dense conv's. The output is made in
    bands of rows, cut by how many occupied pixels each reaches so that a
    band's scratch fits the kernel's block (_block_bytes) wherever the
    pixels cluster: the band, zeroed and padded on the left and right so a
    tap never shifts a pixel off it; the occupied rows its taps reach,
    gathered in pixel order and cast to the kernel's dtype (exact for the
    uint8 0/1 rasters); and one tap's product and the cells it adds to.
    With a stride, the occupied pixels fall into parity classes (_Parity),
    each read by its own taps as a stride-1 input of every sh-th row and
    sw-th column; a stride-1 input is one class read by every tap. For each
    class and row tap, the pixels whose row reaches the band are one run of
    the class's gathered rows (searchsorted on their pixel index); each tap
    multiplies the run by its (cin, cout) slice and adds the product into
    the shifted cells. Bias and activation (or out) are applied as the band
    is copied into out, while it is in cache. Indices within one tap are
    unique and every cell adds its taps in class, then (dy, dx) order,
    whatever the bands. The products may not be: a tap multiplies its run
    in one matmul, whose float32 bits can depend on the run's length, and
    the bands cut the runs (see the module docstring).
    """
    h, w = grid
    kh, kw, cin, cout = kernel.shape
    sh, sw = stride
    oh, ow = conv_output_shape(h, w, stride)
    left = _same_pad(w, kw, sw)
    pad = -((left - kw + 1) // sw)  # the band's padding columns on the left
    wide = pad + (w - 1 + left) // sw + 1
    iy, ix = np.divmod(occupied, w)
    classes = []
    for p, row_taps in enumerate(_axis_taps(h, kh, sh)):
        for q, col_taps in enumerate(_axis_taps(w, kw, sw)):
            if not row_taps or not col_taps:
                continue
            mine = (iy % sh == p) & (ix % sw == q)
            e0, reach = row_taps[0][1], row_taps[-1][1] - row_taps[0][1]
            first = np.searchsorted(occupied[mine], (np.arange(e0, e0 + oh + reach + 1) * sh + p) * w)
            classes.append(_Parity(occupied[mine], iy[mine] // sh * wide + ix[mine] // sw, first, row_taps,
                                   col_taps, reach))
    lo = sum(c.first[:oh + 1] for c in classes)
    hi = sum(c.first[c.reach:] for c in classes)  # see _occupied_bands
    bounds = _occupied_bands(lo, hi, wide * cout, cin + 2 * cout, _block_bytes(work) // kernel.itemsize,
                             2 * len(classes))
    for y0, y1 in zip(bounds, bounds[1:]):
        if bias is None and all(c.first[y0] == c.first[y1 + c.reach] for c in classes):
            continue
        # numpy runs a one-row product as a matrix-vector call, which rounds
        # differently from the same row in a larger product, so a run of one
        # row is multiplied together with a neighbour: one is gathered on
        # each side
        spans = [(max(c.first[y0] - 1, 0), min(c.first[y1 + c.reach] + 1, len(c.occupied))) for c in classes]
        cells_in_band, m = (y1 - y0) * wide * cout, sum(g1 - g0 for g0, g1 in spans)
        flat = _scratch(work, cells_in_band + m * (cin + 2 * cout), kernel.dtype)
        band = flat[:cells_in_band].reshape(-1, cout)
        gathered = flat[cells_in_band:cells_in_band + m * cin].reshape(m, cin)
        products = flat[cells_in_band + m * cin:].reshape(2, m, cout)
        band[...] = 0
        for c, (g0, g1) in zip(classes, spans):
            n, e0 = len(c.occupied), c.rows[0][1]
            rows, gathered = gathered[:g1 - g0], gathered[g1 - g0:]
            rows[...] = pixels[c.occupied[g0:g1]]
            for dy, ey in c.rows:
                a, b = c.first[y0 + ey - e0], c.first[y1 + ey - e0]
                if a == b:
                    continue
                p0 = a if b - a > 1 else max(0, min(a, n - 2))
                p1 = max(b, min(p0 + 2, n))
                for dx, ex in c.cols:
                    tap = np.matmul(rows[p0 - g0:p1 - g0], kernel[dy, dx], out=products[0, :p1 - p0])[a - p0:b - p0]
                    cells = c.base[a:b] + (-(ey + y0) * wide - ex + pad)
                    # take + setitem: faster than a fancy +=; mode="clip" lets take
                    # write straight into out (every cell lies inside the band)
                    acc = band.take(cells, axis=0, out=products[1, :b - a], mode="clip")
                    acc += tap
                    band[cells] = acc
        y = np.reshape(out[y0 * ow:y1 * ow], (y1 - y0, ow, cout), copy=False)
        sums = band.reshape(y1 - y0, wide, cout)[:, pad:pad + ow]
        if bias is None:
            y += sums
        elif accumulate:
            sums += bias
            y += _activate_inplace(sums, activation)
        else:
            _activate_inplace(np.add(sums, bias, out=y), activation)
    if bias is None:
        _activate_inplace(out, activation)


def _conv2d_im2col(data: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: tuple[int, int],
                   activation: str, out: np.ndarray, work: np.ndarray | None, accumulate: bool = False) -> None:
    """SAME conv plus bias and activation via im2col + matmul, chunked over
    output rows, written into out's (oh * ow, cout) rows, or with accumulate
    added to them after the activation.

    A chunk is as many output rows as their patch matrix fits the kernel's
    block (_block_bytes), at least one. Each chunk zero-pads only the input
    rows it reads, so no padded copy of the whole input exists; the matmul
    writes straight into the output, and bias and activation are applied to
    the chunk while it is in cache. With accumulate the matmul writes the
    chunk's products after its patches, in work when it holds both: the
    chunks stay those of writing, since a float32 matmul's bits depend on
    how many rows it multiplies at once.
    """
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    oh, ow = conv_output_shape(h, w, stride)
    wmat = kernel.reshape(kh * kw * cin, cout)
    row = ow * kh * kw * cin  # one output row's patches
    chunk = min(oh, max(1, _block_bytes(work) // (row * kernel.itemsize)))
    flat = _scratch(work, chunk * (row + (ow * cout if accumulate else 0)), kernel.dtype)
    for r0 in range(0, oh, chunk):
        r1 = min(r0 + chunk, oh)
        block = out[r0 * ow:r1 * ow]
        products = flat[chunk * row:chunk * row + block.size].reshape(block.shape) if accumulate else block
        np.matmul(_im2col_rows(data, kernel, stride, r0, r1, flat), wmat, out=products)
        products += bias
        _activate_inplace(products, activation)
        if accumulate:
            block += products


def _im2col_rows(data: np.ndarray, kernel: np.ndarray, stride: tuple[int, int],
                 r0: int, r1: int, out: np.ndarray) -> np.ndarray:
    """Patch matrix ((r1 - r0) * ow, kh * kw * cin) of output rows r0..r1-1, in
    the kernel's dtype, in the leading elements of the flat array out, built
    from a zero-padded copy of just the input rows they read."""
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
    matrix = out[:patches.size].reshape(patches.shape)
    matrix[...] = patches
    return matrix.reshape(-1, kh * kw * cin)


# Winograd F(2x2, 3x3) (Lavin & Gray, "Fast Algorithms for Convolutional
# Neural Networks", CVPR 2016): a 2x2 output tile is A^T [U * (B^T d B)] A,
# with d the 4x4 input patch around it and U = G g G^T the kernel's transform.
# Each row of B^T has two non-zeros, +-1: (index, index, ufunc) per row.
_WINOGRAD_BT = ((0, 2, np.subtract), (1, 2, np.add), (2, 1, np.subtract), (1, 3, np.subtract))
_WINOGRAD_G = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]])


def winograd_kernel(kernel: np.ndarray, dtype) -> np.ndarray:
    """The (16, cin, cout) transform U = G g G^T of a (3, 3, cin, cout)
    kernel in dtype, plane 4 * a + b holding U[a, b]. Each plane is summed
    in float64, then cast."""
    _, _, cin, cout = kernel.shape
    g = kernel.astype(np.float64, copy=False)
    out = np.empty((16, cin, cout), dtype=dtype)
    for a in range(4):
        for b in range(4):
            out[4 * a + b] = np.tensordot(np.outer(_WINOGRAD_G[a], _WINOGRAD_G[b]), g, axes=2)
    return out


def _even_spans(n: int, size: int) -> list[int]:
    """Bounds of the fewest spans of at most size covering range(n), their
    lengths differing by at most one."""
    k = -(-n // size)
    return [i * n // k for i in range(k + 1)]


def _winograd_blocks(h: int, w: int, cin: int, cout: int, itemsize: int,
                     budget: int) -> list[tuple[int, int, int, int]]:
    """The tile blocks (t0, t1, s0, s1), tile rows t0..t1-1 by tile columns
    s0..s1-1, of an (h, w) input: whole tile rows, as many as fit budget
    bytes of planes (_winograd_elements), or when one row does not fit, as
    many tiles of one row as do, at least three so no block is a single
    tile (numpy runs a one-row product as a matrix-vector call)."""
    th, tw = -(-h // 2), -(-w // 2)
    per_tile = (max(16 * cin, 4 * cout) + 16 * cout + 2 * cin) * itemsize  # planes, and a share of the row-pass rows
    per_row = tw * per_tile + 2 * cin * itemsize
    if per_row <= budget:
        rows, cols = _even_spans(th, budget // per_row), [0, tw]
    else:
        rows, cols = list(range(th + 1)), _even_spans(tw, max(3, (budget - 2 * cin * itemsize) // per_tile))
    return [(t0, t1, s0, s1) for t0, t1 in zip(rows, rows[1:]) for s0, s1 in zip(cols, cols[1:])]


def _winograd_elements(blocks: list[tuple[int, int, int, int]], cin: int, cout: int) -> int:
    """Elements of the largest block's planes: the transformed input V (16
    per tile, cin wide) or, in the same elements once V is read, the output
    tiles (4 per tile, cout wide), whichever is larger; the products M (16
    per tile, cout wide); and the rows of one row pass (2 * tile columns + 2
    per tile row, cin wide)."""
    return max((t1 - t0) * (s1 - s0) * (max(16 * cin, 4 * cout) + 16 * cout) + (t1 - t0) * (2 * (s1 - s0) + 2) * cin
               for t0, t1, s0, s1 in blocks)


def _conv2d_winograd(data: np.ndarray, transformed: np.ndarray, bias: np.ndarray, activation: str,
                     out: np.ndarray, work: np.ndarray | None, accumulate: bool = False) -> None:
    """Stride-1 SAME 3x3 conv plus bias and activation by Winograd F(2x2,
    3x3), written into out (h, w, cout), or with accumulate added to it
    after the activation.

    The output is cut into 2x2 tiles and the tiles into blocks
    (_winograd_blocks). Per block:
    - the input transform B^T d B runs one row of B^T at a time: over whole
      input rows, every other one, into the block's row-pass rows, then over
      those rows' stride-2 column views into four of the 16 planes V;
    - one batched matmul multiplies V by the transformed kernel (16, cin,
      cout) into M, 16 products per tile over the channels instead of 36;
    - the output transform A^T M A runs in place in M along the columns,
      then along the rows into the block's 2x2 output tiles, laid out
      contiguously as the block's output rows in the elements V took (V is
      read by then; when 4 cout > 16 cin the tiles need more, and
      _winograd_elements counts it); bias and activation are added there,
      and the rows are copied (or added) into out once. Writing each tile
      pixel into out's stride-2 view of it instead took four strided passes
      over out.
    Padding rows and columns enter as zeros and are never stored: rows
    outside the input are a broadcast zero, the row-pass rows' columns
    outside it are zeroed. The blocks' planes fit the kernel's block
    (_block_bytes) and go into work when it holds them, else into one heap
    buffer.
    """
    h, w, cin = data.shape
    cout, dtype = transformed.shape[2], transformed.dtype
    blocks = _winograd_blocks(h, w, cin, cout, dtype.itemsize, _block_bytes(work))
    flat = _scratch(work, _winograd_elements(blocks, cin, cout), dtype)
    zero = np.zeros((), dtype=dtype)
    for t0, t1, s0, s1 in blocks:
        nt, ns = t1 - t0, s1 - s0
        lead = nt * ns * max(16 * cin, 4 * cout)  # V, then the output tiles
        v = flat[:16 * nt * ns * cin].reshape(16, nt, ns, cin)
        m = flat[lead:lead + 16 * nt * ns * cout].reshape(16, nt * ns, cout)
        rows = flat[lead + m.size:lead + m.size + nt * (2 * ns + 2) * cin].reshape(nt, 2 * ns + 2, cin)
        x0 = 2 * s0 - 1  # input column of the rows' first column
        c0, c1 = max(x0, 0), min(x0 + 2 * ns + 2, w)
        rows[:, :c0 - x0] = 0
        rows[:, c1 - x0:] = 0
        lo, hi = max(t0, 1), min(t1, (h - 1) // 2)  # tile rows whose four input rows all lie inside the input
        spans = ([(lo, hi)] if lo < hi else []) + [(i, i + 1) for i in range(t0, t1) if not lo <= i < hi]
        for j, (ka, kb, combine_rows) in enumerate(_WINOGRAD_BT):
            for i0, i1 in spans:
                src = [_winograd_input_rows(data, i0, i1, k, c0, c1, zero) for k in (ka, kb)]
                combine_rows(*src, out=rows[i0 - t0:i1 - t0, c0 - x0:c1 - x0], dtype=dtype)
            for jj, (ca, cb, combine_cols) in enumerate(_WINOGRAD_BT):
                combine_cols(rows[:, ca:ca + 2 * ns:2], rows[:, cb:cb + 2 * ns:2], out=v[4 * j + jj])
        np.matmul(v.reshape(16, nt * ns, cin), transformed, out=m)
        m = m.reshape(4, 4, nt, ns, cout)
        for r in m:  # A^T along the columns: R[a, 0] into M[a, 0], R[a, 1] into M[a, 1]
            r[0] += r[1]
            r[0] += r[2]
            r[1] -= r[2]
            r[1] -= r[3]
        tiles = flat[:4 * nt * ns * cout].reshape(nt, 2, ns, 2, cout)  # pixel (2 i + p, 2 j + q) at [i, p, j, q]
        for q in (0, 1):  # A^T along the rows
            np.add(m[0, q], m[1, q], out=tiles[:, 0, :, q])
            tiles[:, 0, :, q] += m[2, q]
            np.subtract(m[1, q], m[2, q], out=tiles[:, 1, :, q])
            tiles[:, 1, :, q] -= m[3, q]
        tiles += bias
        _activate_inplace(tiles, activation)
        y1, x1 = min(2 * t1, h), min(2 * s1, w)
        rows = tiles.reshape(2 * nt, 2 * ns, cout)[:y1 - 2 * t0, :x1 - 2 * s0]
        if accumulate:
            out[2 * t0:y1, 2 * s0:x1] += rows
        else:
            out[2 * t0:y1, 2 * s0:x1] = rows


def _winograd_input_rows(data: np.ndarray, i0: int, i1: int, k: int, c0: int, c1: int,
                         zero: np.ndarray) -> np.ndarray:
    """Columns c0..c1-1 of input row 2 i - 1 + k, the k-th row of tile row
    i's patch, for tile rows i0..i1-1: every other row of data, or a
    broadcast zero for a single tile row whose row lies outside the input."""
    r = 2 * i0 - 1 + k
    if i1 - i0 == 1 and not 0 <= r < data.shape[0]:
        return np.broadcast_to(zero, (c1 - c0, data.shape[2]))
    return data[r:2 * i1 - 1 + k:2, c0:c1]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NetworkWeights:
    """Ordered named parameter blocks plus the seed/scheme that produced them.
    Immutable: blocks becomes a read-only mapping of read-only copies of the
    given arrays, so what a FusionNet computes from them never goes stale."""

    blocks: Mapping[str, np.ndarray]
    seed: int | None = None
    scheme: str = "uniform-fan"

    def __post_init__(self):
        blocks = {name: np.array(arr) for name, arr in self.blocks.items()}
        for arr in blocks.values():
            arr.flags.writeable = False
        object.__setattr__(self, "blocks", MappingProxyType(blocks))

    def kernel(self, name: str) -> np.ndarray:
        return self.blocks[f"{name}.kernel"]

    def bias(self, name: str) -> np.ndarray:
        return self.blocks[f"{name}.bias"]

    def validate_finite(self) -> None:
        for name, arr in self.blocks.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in block {name}")

    def validate_plan(self, plan: Iterable[ConvLayerSpec]) -> None:
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
    """Channel widths and head layout; everything desk-scale by default. The
    classes and the output stride are the same for every preset."""

    classes: ClassVar[tuple[str, ...]] = CLASSES
    output_stride: ClassVar[int] = 4  # the head's two stride-2 convs

    horizon: int = 30
    use_camera: bool = True
    rv_width: int = 32
    cam_widths: tuple[int, ...] = (16, 16, 32, 32, 64, 64)
    unet_width: int = 64
    bev_embed_width: int = 32
    bev_width: int = 64
    head_widths: tuple[int, ...] = (64, 64, 128, 128, 128, 128)

    @property
    def cam_out(self) -> int:
        return self.cam_widths[-1]

    @property
    def joined(self) -> dict[str, int]:
        """The layers whose input joins features with projected features and
        their validity (split_conv), each with its features' channels:
        unet.enc1 (RV, then camera) with the camera, fuse.conv1 (BEV, then RV)."""
        return {**({"unet.enc1": self.rv_width} if self.use_camera else {}), "fuse.conv1": self.bev_width}

    @property
    def per_class_channels(self) -> int:
        h1 = self.horizon + 1
        return 1 + 2 + 2 * h1 + 2 * h1

    @property
    def head_out_channels(self) -> int:
        return len(self.classes) * self.per_class_channels

    def head_strides(self) -> list[tuple[int, int]]:
        """Stride 2 on every other head conv from the first, until they reach output_stride."""
        halvings = int(math.log2(self.output_stride))
        return [(2, 2) if i % 2 == 0 and i < 2 * halvings else (1, 1) for i in range(len(self.head_widths))]


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
    layers.append(ConvLayerSpec("unet.enc1", w + (config.cam_out + 1 if config.use_camera else 0), u))
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


def sub_pixel_conv(layer: ConvLayerSpec, kernel: np.ndarray,
                   bias: np.ndarray) -> tuple[ConvLayerSpec, np.ndarray, np.ndarray]:
    """The stride-1 conv a transposed layer runs (sub-pixel convolution, Shi
    et al., CVPR 2016): its spec, kernel and bias, copies and zeros only.

    Tap t of the (1, 4, cin, cout) kernel K sends input column j to output
    column 2j + t - 1, so column 2m is x[m - 1] K3 + x[m] K1 and 2m + 1 is
    x[m] K2 + x[m + 1] K0: a (1, 3) SAME conv with 2 cout outputs, [K3, K1,
    0] then [0, K2, K0], whose (h, w, 2 cout) output read as (h, 2w, cout)
    is the transposed conv's."""
    _, _, cin, cout = kernel.shape
    sub = np.zeros((1, 3, cin, 2 * cout), dtype=kernel.dtype)
    sub[0, :2, :, :cout] = kernel[0, 3::-2]  # K3, K1
    sub[0, 1:, :, cout:] = kernel[0, 2::-2]  # K2, K0
    both = np.concatenate([bias, bias])
    sub.flags.writeable = both.flags.writeable = False
    return replace(layer, out_channels=2 * cout, kernel=(1, 3), stride=(1, 1), transposed=False), sub, both


class ProjectedPart(NamedTuple):
    """The part of a conv split by linearity (split_conv) that reads the
    projected features and their validity."""

    kernel: np.ndarray  # (kh, kw, c + 1, cout): K_r, then 2 K_v, for the hit cells' rows (r, +1)
    validity: np.ndarray  # (kh, kw, cout): K_v, for the windows that reach the zero padding
    activation: str


def split_conv(layer: ConvLayerSpec, kernel: np.ndarray, bias: np.ndarray,
               channels: int) -> tuple[ConvLayerSpec, np.ndarray, np.ndarray, ProjectedPart]:
    """A joined layer (FusionConfig.joined) split by linearity over its
    input channels [a; r; v]: the features a, then projected features r and
    their validity v, +1 at the cells points hit and -1 with r = 0 elsewhere
    (project_features). conv(K, [a; r; v]) = conv(K_a, a) + conv(K_r, r) +
    conv(K_v, v), and v = -1 + 2 [hit] inside the grid, 0 on its zero
    padding, so the layer is:
    - the dense part: conv(K_a, a) with bias b - sum_t K_v[t], summed in
      float64, and no activation; its spec, kernel and bias are returned;
    - the taps of K_v that a window puts on the zero padding, added back
      (_add_padding_taps);
    - conv([K_r; 2 K_v], [r; +1]) over the hit cells only (ProjectedPart),
      then the layer's activation."""
    projected = kernel[:, :, channels:].copy()
    projected[:, :, -1] *= 2
    validity = kernel[:, :, -1].copy()
    folded = bias - validity.astype(np.float64).sum(axis=(0, 1))
    dense = kernel[:, :, :channels].copy()
    for arr in (projected, validity, folded, dense):
        arr.flags.writeable = False
    spec = replace(layer, in_channels=channels, activation=LINEAR)
    return spec, dense, folded, ProjectedPart(projected, validity, layer.activation)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def conv2d_forward(fm: FeatureMap, layer: ConvLayerSpec, net: FusionNet, out: np.ndarray | None = None,
                   work: np.ndarray | None = None, add_to: np.ndarray | None = None) -> FeatureMap:
    """Apply one of net's layers to a feature map (geometry carried through);
    out, work and add_to as in conv2d_raw; net's float32 planes only for a
    float32 computation. A joined layer runs its dense part (split_conv):
    the folded bias, plus the validity taps its windows put on the zero
    padding. Its projected part (projected_part) adds the rest."""
    if fm.channels != layer.in_channels:
        raise ValueError(f"{layer.name}: expected {layer.in_channels} channels, got {fm.channels}")
    kernel, bias = net.params[layer.name]
    planes = net.planes.get(layer.name) if _compute_dtype(fm.data) == np.float32 else None
    data = conv2d_raw(fm.data, kernel, bias, layer.stride, layer.activation, out=out, work=work, planes=planes,
                      add_to=add_to)
    if layer.name in net.projected:
        _add_padding_taps(data, net.projected[layer.name].validity, (fm.height, fm.width), layer.stride)
    return FeatureMap(fm.view, data, fm.geometry)


class FusionNet:
    """The network of one configuration and one set of weights: the config,
    the layers by name, the weights, checked against the layers once when
    the net is built, the kernel and bias each layer runs (params: its
    stored blocks, the transposed unet.up's sub_pixel_conv, or a joined
    layer's dense part, whose projected part is projected[name]; split_conv),
    the float32 planes of its Winograd layers (planes), made here, and the
    arena of the frame path, which pipeline.fusion_net plans for a preset.
    Only the arena changes with a frame.

    run runs steps (the *_steps below), in the arena's views when it has one.
    """

    def __init__(self, config: FusionConfig, bev_in_channels: int, weights: NetworkWeights):
        self.config = config
        self.bev_in_channels = bev_in_channels
        plan = network_plan(config, bev_in_channels)
        weights.validate_plan(plan)
        self.weights = weights
        self.layers: dict[str, ConvLayerSpec] = {}
        self.params: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        planes, projected = {}, {}
        for layer in plan:
            kernel, bias = weights.kernel(layer.name), weights.bias(layer.name)
            if layer.transposed:
                layer, kernel, bias = sub_pixel_conv(layer, kernel, bias)
            if layer.name in config.joined:
                layer, kernel, bias, projected[layer.name] = split_conv(layer, kernel, bias, config.joined[layer.name])
            self.layers[layer.name] = layer
            self.params[layer.name] = kernel, bias
            if winograd_shape(layer.in_channels, layer.kernel, layer.stride):
                planes[layer.name] = winograd_kernel(kernel, np.float32)
                planes[layer.name].flags.writeable = False
        self.planes: Mapping[str, np.ndarray] = MappingProxyType(planes)
        self.projected: Mapping[str, ProjectedPart] = MappingProxyType(projected)
        self.arena: Arena | None = None

    def work(self, name: str) -> np.ndarray | None:
        """The arena's work bytes of the layer called name, if it has any."""
        return None if self.arena is None else self.arena.find(f"{name}.work")

    def run(self, steps: Iterable[Step], views: dict) -> dict:
        """Runs steps over views, giving each tensor they write before its
        first writer runs the arena's view or a new array of its shape and
        dtype, float32 taking the compute dtype of the step's first read."""
        for step in steps:
            for name, shape, dtype in step.writes:
                if name not in views:
                    dtype = _compute_dtype(views[step.reads[0]]) if step.reads and dtype == "float32" else dtype
                    views[name] = np.empty(shape, dtype) if self.arena is None else self.arena.view(name)
            step.run(views)
        return views


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


def _add_padding_taps(out: np.ndarray, validity: np.ndarray, grid: tuple[int, int],
                      stride: tuple[int, int]) -> None:
    """Adds to each (oh, ow, cout) output cell of a SAME conv over an (h, w)
    grid the taps of validity (kh, kw, cout) that its window puts on the zero
    padding, summed in float64 and cast: split_conv's bias subtracts every
    tap, as if the padding held validity -1 too. Only the edge rows and
    columns have such taps."""
    kh, kw = validity.shape[:2]
    inside = []
    for n, k, s in zip(grid, (kh, kw), stride):
        at = np.arange(-(-n // s))[:, None] * s - _same_pad(n, k, s) + np.arange(k)
        inside.append((at >= 0) & (at < n))
    rows, cols = inside
    taps = validity.astype(np.float64, copy=False)

    def outside(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        off = ~(rows[r][:, None, :, None] & cols[c][None, :, None, :])
        return np.einsum("yxab,abc->yxc", off.astype(np.float64), taps).astype(out.dtype)

    edge_rows, inner_rows = np.flatnonzero(~rows.all(axis=1)), np.flatnonzero(rows.all(axis=1))
    edge_cols = np.flatnonzero(~cols.all(axis=1))
    out[edge_rows] += outside(edge_rows, np.arange(len(cols)))
    out[inner_rows[:, None], edge_cols] += outside(inner_rows, edge_cols)


def projected_part(dense: np.ndarray, projected: np.ndarray, name: str, net: FusionNet,
                   work: np.ndarray | None = None) -> None:
    """Completes the joined layer called name in dense, its dense part's output:
    the occupied-pixel kernel over projected's hit cells (validity +1),
    project_features' (rows, cols, c + 1) array, then the activation."""
    layer, part = net.layers[name], net.projected[name]
    grid = projected.shape[:2]
    want = (*conv_output_shape(*grid, layer.stride), layer.out_channels)
    if projected.shape[2] != part.kernel.shape[2] or dense.shape != want:
        raise ValueError(f"the projection must be {(*grid, part.kernel.shape[2])} and {name}'s dense part {want}, "
                         f"got {projected.shape} and {dense.shape}")
    pixels = _pixel_rows(projected)
    hits = np.flatnonzero(pixels[:, -1] > 0)
    _conv2d_occupied(pixels, hits, grid, part.kernel.astype(dense.dtype, copy=False), None, part.activation,
                     _pixel_rows(dense), work, layer.stride)


# ---------------------------------------------------------------------------
# the forward pass as steps: each stage's, run by its branch function
# ---------------------------------------------------------------------------

class _StepList(list):
    """A stage's steps in order, with the shape of every tensor they write
    (shapes starts with the stage's inputs); view tags its convs' inputs."""

    def __init__(self, net: FusionNet, view: str, shapes: dict[str, tuple[int, ...]]):
        self.net, self.view, self.shapes = net, view, shapes

    def add(self, name: str, run, writes: dict[str, tuple[int, ...]], reads: Sequence[str] = (), work: int = 0):
        self.shapes.update(writes)
        self.append(Step(name, tuple((t, shape, "float32") for t, shape in writes.items()), tuple(reads), work, run))

    def conv(self, name: str, src: str, add_to: str | None = None) -> None:
        """The step of the layer called name, reading src: it writes the
        tensor named after the layer or, given add_to, adds into that tensor
        (conv2d_raw's add_to). A joined layer's step runs its dense part."""
        net, view, layer = self.net, self.view, self.net.layers[name]
        h, w, _ = self.shapes[src]

        def conv(v):
            target = {"add_to" if add_to else "out": v[add_to or name]}
            conv2d_forward(FeatureMap(view, v[src]), layer, net, work=net.work(name), **target)

        self.add(name, conv, {add_to or name: (*conv_output_shape(h, w, layer.stride), layer.out_channels)}, (src,),
                 CONV_WORK_BYTES)

    def projected(self, name: str, src: str) -> None:
        """The step that completes the joined layer called name in its
        tensor: its projected part over src, the projection (projected_part)."""
        net, step = self.net, f"{name}.projected"
        self.add(step, lambda v: projected_part(v[name], v[src], name, net, net.work(step)),
                 {name: self.shapes[name]}, (name, src), CONV_WORK_BYTES)

    def chain(self, src: str, *names: str) -> None:
        """Convs in order, each reading the one before, the first src."""
        for name in names:
            self.conv(name, src)
            src = name

    def residual(self, name: str, x: str) -> None:
        """The residual block called name over x, in x: name.conv1, then the
        linear name.conv2 adding into x, then a ReLU step in place."""
        self.chain(x, f"{name}.conv1")
        self.conv(f"{name}.conv2", f"{name}.conv1", add_to=x)
        self.add(name, lambda v: np.maximum(v[x], 0.0, out=v[x]), {x: self.shapes[x]}, (x,))


def bev_branch_steps(net: FusionNet, rows: int, cols: int) -> list[Step]:
    """LiDAR-stack and map-raster embeddings on a (rows, cols) grid, the map's
    added into bev.lidar2's output (the BEV features), then fuse.conv1's
    dense part over them (conv2d_forward): the branch ends with the
    stride-2 "fuse.conv1", a quarter of their size, and they die with it."""
    s = _StepList(net, BEV, {"lidar_stack": (rows, cols, net.bev_in_channels), "map_raster": (rows, cols, 7)})
    s.chain("lidar_stack", "bev.lidar1", "bev.lidar2")
    s.conv("bev.map1", "map_raster")
    s.conv("bev.map2", "bev.map1", add_to="bev.lidar2")
    s.conv("fuse.conv1", "bev.lidar2")
    return s


def camera_net_steps(net: FusionNet, height: int, width: int) -> list[Step]:
    """The 6-conv camera net on a (height, width) image, stride 2 on alternate layers."""
    s = _StepList(net, CAMERA, {"cam.conv1.in": (height, width, 3)})
    s.chain("cam.conv1.in", *(f"cam.conv{i + 1}" for i in range(len(net.config.cam_widths))))
    return s


def camera_features_geometry(image: CameraGeometry) -> CameraGeometry:
    """The camera net's features' geometry: 8x the image's pixel stride, with ceiling."""
    return CameraGeometry(image.camera, pixel_stride=8 * image.pixel_stride)


def rv_branch_steps(net: FusionNet, rv: RvSpec, camera: CameraGeometry | None) -> list[Step]:
    """LiDAR RV convs; unet.enc1, with the camera completed by its projected
    part over the camera features (of geometry camera) projected by
    views["points"] ("camera_to_rv"); and the 2-scale U-net, whose unet.up
    output (h, w, 2u) is read as (h, 2w, u), the pixel shuffle, cropped."""
    config = net.config
    s = _StepList(net, RV, {"rv.conv1.in": (rv.rows, rv.cols, 4)})
    s.chain("rv.conv1.in", "rv.conv1", "rv.conv2", "unet.enc1")
    if config.use_camera:
        cam = f"cam.conv{len(config.cam_widths)}"
        s.add("camera_to_rv", lambda v: project_features(FeatureMap(CAMERA, v[cam], camera), v["points"], rv,
                                                         out=v["camera_to_rv"]),
              {"camera_to_rv": (rv.rows, rv.cols, config.cam_out + 1)}, (cam,))
        s.projected("unet.enc1", "camera_to_rv")
    s.residual("unet.res1", "unet.enc1")
    s.conv("unet.down", "unet.enc1")
    s.residual("unet.res2", "unet.down")
    s.conv("unet.up", "unet.down")

    h, w, u = s.shapes["unet.enc1"]
    s.add("unet.fuse.in", lambda v: np.concatenate([v["unet.up"].reshape(h, -1, u)[:, :w], v["unet.enc1"]], axis=2,
                                                    out=v["unet.fuse.in"]),
          {"unet.fuse.in": (h, w, net.layers["unet.fuse"].in_channels)}, ("unet.up", "unet.enc1"))
    s.conv("unet.fuse", "unet.fuse.in")
    return s


def fuse_head_steps(net: FusionNet, grid: GridSpec) -> list[Step]:
    """The stride-reducing head on a BEV grid: fuse.conv1 completed by its
    projected part over the RV->BEV projection ("rv_to_bev"), in place
    (projected_part), then the rest of the head; the last step writes
    the cell outputs into "outputs", in float64, and their CellOutputs into
    views["cells"]."""
    config, layer = net.config, net.layers["fuse.conv1"]
    s = _StepList(net, BEV, {"fuse.conv1": (*conv_output_shape(grid.rows, grid.cols, layer.stride),
                                            layer.out_channels)})
    s.projected("fuse.conv1", "rv_to_bev")
    s.chain("fuse.conv1", *(f"fuse.conv{i + 1}" for i in range(1, len(config.head_widths))), "fuse.head")
    out_grid = OutputGrid.from_grid(grid, config.output_stride)
    s.append(Step("outputs", (("outputs", (math.prod(s.shapes["fuse.head"]),), "float64"),), ("fuse.head",), 0,
                  lambda v: v.update(cells=CellOutputs.unpack(v["fuse.head"], out_grid, config.horizon,
                                                              config.classes, logits=True, out=v["outputs"]))))
    return s


def camera_net_forward(image: FeatureMap, net: FusionNet) -> FeatureMap:
    """camera_net_steps over an image; total spatial downscale 8x."""
    if not isinstance(image.geometry, CameraGeometry):
        raise ValueError("camera image must carry CameraGeometry")
    views = net.run(camera_net_steps(net, image.height, image.width), {"cam.conv1.in": image.data})
    return FeatureMap(CAMERA, views[f"cam.conv{len(net.config.cam_widths)}"], camera_features_geometry(image.geometry))


def rv_branch_forward(rv_image: FeatureMap, camera_features: FeatureMap | None, points,
                      net: FusionNet) -> FeatureMap:
    """rv_branch_steps over an RV image, the camera features and the points."""
    rv, config = rv_image.geometry, net.config
    if not isinstance(rv, RvSpec) or rv_image.height != rv.rows:
        raise ValueError("rv image rows must match its RvSpec")
    if config.use_camera and camera_features is None:
        raise ValueError("config.use_camera is set but no camera features were given")
    views, camera = {"rv.conv1.in": rv_image.data, "points": points}, None
    if config.use_camera:
        views[f"cam.conv{len(config.cam_widths)}"], camera = camera_features.data, camera_features.geometry
    return FeatureMap(RV, net.run(rv_branch_steps(net, rv, camera), views)["unet.fuse"], rv)


def bev_branch_forward(lidar_bev: FeatureMap, map_raster: FeatureMap, net: FusionNet) -> FeatureMap:
    """bev_branch_steps over the LiDAR stack and the map raster: fuse.conv1's
    dense part over the BEV features, carrying the stack's grid."""
    if (lidar_bev.height, lidar_bev.width) != (map_raster.height, map_raster.width):
        raise ValueError("lidar stack and map raster must share one grid")
    views = net.run(bev_branch_steps(net, lidar_bev.height, lidar_bev.width),
                    {"lidar_stack": lidar_bev.data, "map_raster": map_raster.data})
    return FeatureMap(BEV, views["fuse.conv1"], lidar_bev.geometry)


def fuse_and_head_forward(bev_part: FeatureMap, projected: FeatureMap, net: FusionNet) -> CellOutputs:
    """fuse_head_steps over bev_branch_forward's fuse.conv1 part, on the grid
    it carries, and the RV->BEV projection, as project_features writes it;
    with an arena, the cell outputs are its export, lent with its segment
    (Arena.lend)."""
    if not isinstance(bev_part.geometry, GridSpec):
        raise ValueError("bev features must carry a GridSpec")
    views = net.run(fuse_head_steps(net, bev_part.geometry), {"fuse.conv1": bev_part.data, "rv_to_bev": projected.data})
    if net.arena is not None:
        net.arena.lend()
    return views["cells"]
