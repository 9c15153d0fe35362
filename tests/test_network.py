import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion import network
from mvfusion.blockfile import BlockFileError
from mvfusion.network import (
    CellOutputs,
    ConvLayerSpec,
    FusionConfig,
    FusionNet,
    NetworkWeights,
    bev_branch_forward,
    camera_net_forward,
    conv2d_forward,
    conv2d_raw,
    conv_output_shape,
    fuse_and_head_forward,
    init_network_weights,
    load_weights,
    network_plan,
    projected_part,
    rv_branch_forward,
    save_weights,
)
from mvfusion.oracles import naive_conv2d
from mvfusion.projection import grid_shape_of
from mvfusion.scene import PointArray
from mvfusion.views import (
    CameraGeometry,
    CameraModel,
    FeatureMap,
    GridSpec,
    OutputGrid,
    RvSpec,
)


def tiny_config(**kw):
    args = dict(
        horizon=2,
        rv_width=8,
        cam_widths=(4, 4, 4, 4, 8, 8),
        unet_width=8,
        bev_embed_width=4,
        bev_width=8,
        head_widths=(8, 8, 8, 8, 8, 8),
    )
    args.update(kw)
    return FusionConfig(**args)


def small_grid():
    return GridSpec(8.0, 8.0, 2.0, 0.5, 0.5, 1.0, forward_fraction=0.5)


def _rv_points(rng, n, rv):
    xyz = rng.uniform([-3.5, -3.5, 0.0], [3.5, 3.5, 2.0], size=(n, 3))
    az = rng.uniform(0, 2 * math.pi, size=n)
    laser = rng.integers(0, rv.rows, size=n).astype(np.int64)
    return PointArray(
        xyz[:, 0], xyz[:, 1], xyz[:, 2], np.linalg.norm(xyz, axis=1),
        np.full(n, 0.5), az, laser,
    )


# ---------------------------------------------------------------------------
# raw convolution
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 1.0, size=(6, 7, 1))  # nonnegative: relu is a no-op
    kernel = np.zeros((3, 3, 1, 1))
    kernel[1, 1, 0, 0] = 1.0
    out = conv2d_raw(data, kernel, np.zeros(1))
    assert np.array_equal(out, data)


def test_conv_center_column_sums_channels():
    c = 0.7
    data = np.full((5, 5, 3), c)
    kernel = np.zeros((3, 3, 3, 1))
    kernel[1, 1, :, 0] = 1.0
    out = conv2d_raw(data, kernel, np.zeros(1), activation="linear")
    assert np.allclose(out, 3 * c)


@pytest.mark.parametrize("seed,shape,cout,stride", [
    (1, (5, 5, 2), 3, (1, 1)),
    (2, (9, 7, 4), 5, (2, 2)),
    (3, (8, 11, 3), 2, (1, 2)),
    (4, (16, 16, 8), 8, (2, 1)),
])
def test_conv_matches_naive_oracle(seed, shape, cout, stride):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    kernel = rng.normal(size=(3, 3, shape[2], cout))
    bias = rng.normal(size=cout)
    got = conv2d_raw(data, kernel, bias, stride=stride)
    want = naive_conv2d(data, kernel, bias, stride, relu=True)
    assert np.max(np.abs(got - want)) < 1e-10


def _occupancy_instance(seed, h, w, cin, pattern):
    """float64 (h, w, cin) input whose occupied pixels follow the named pattern."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(h, w, cin))
    if pattern == "dense":
        return data
    mask = np.zeros((h, w), dtype=bool)
    if pattern == "sparse":
        mask = rng.uniform(size=(h, w)) < rng.uniform(0.02, 0.25)
        mask[[0, 0, -1, -1], [0, -1, 0, -1]] = True  # all four corners
    elif pattern == "border":
        mask[[0, -1], :] = rng.uniform(size=(2, w)) < 0.5
        mask[:, [0, -1]] |= rng.uniform(size=(h, 2)) < 0.5
    elif pattern == "single":
        mask[rng.integers(h), rng.integers(w)] = True
    return data * mask[:, :, None]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 6), st.integers(1, 4),
    st.sampled_from([(1, 1), (2, 2), (1, 2)]),
    st.sampled_from(["sparse", "border", "single", "zeros", "dense"]),
    st.sampled_from(["relu", "linear"]),
)
def test_conv_both_paths_match_naive_oracle(seed, h, w, cin, cout, stride, pattern, activation):
    data = _occupancy_instance(seed, h, w, cin, pattern)
    rng = np.random.default_rng(seed + 1)
    kernel = rng.normal(size=(3, 3, cin, cout))
    bias = rng.normal(size=cout)
    got = conv2d_raw(data, kernel, bias, stride=stride, activation=activation)
    want = naive_conv2d(data, kernel, bias, stride, relu=activation == "relu")
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("extra,stride,takes_occupied", [
    (0, (1, 1), True),   # exactly the share: occupied-pixel kernel
    (1, (1, 1), False),  # one pixel more: im2col
    (0, (2, 2), False),  # only stride (1, 1) has the occupied-pixel kernel
    (0, (1, 2), False),
])
def test_conv_path_follows_input_occupancy(monkeypatch, extra, stride, takes_occupied):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    h, w = 12, 10
    rng = np.random.default_rng(3)
    n = int(network._OCCUPIED_SHARE * h * w) + extra
    data = np.zeros((h * w, 4))
    data[rng.permutation(h * w)[:n]] = rng.uniform(0.5, 1.0, size=(n, 4))
    data = data.reshape(h, w, 4)
    kernel, bias = rng.normal(size=(3, 3, 4, 5)), rng.normal(size=5)
    got = conv2d_raw(data, kernel, bias, stride=stride)
    assert bool(calls) == takes_occupied
    assert np.max(np.abs(got - naive_conv2d(data, kernel, bias, stride, relu=True))) < 1e-12


@pytest.mark.parametrize("extra,takes_occupied", [(0, True), (1, False)])
@pytest.mark.parametrize("pixels_per_block", [1, 5, 1000])
def test_blocked_occupancy_scan_keeps_the_kernel_choice(monkeypatch, extra, takes_occupied, pixels_per_block):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    h, w, cin = 16, 12, 3
    monkeypatch.setattr(network, "CHUNK_BYTES", pixels_per_block * cin * 8)
    rng = np.random.default_rng(4)
    n = int(network._OCCUPIED_SHARE * h * w) + extra
    data = np.zeros((h * w, cin))
    data[h * w - n:] = rng.uniform(0.5, 1.0, size=(n, cin))  # the occupied pixels come last
    data = data.reshape(h, w, cin)
    kernel, bias = rng.normal(size=(3, 3, cin, 4)), rng.normal(size=4)
    got = conv2d_raw(data, kernel, bias)
    assert bool(calls) == takes_occupied
    assert np.max(np.abs(got - naive_conv2d(data, kernel, bias, (1, 1), relu=True))) < 1e-12


def test_occupied_pixels_do_not_depend_on_the_scan_block(monkeypatch):
    rng = np.random.default_rng(6)
    h, w, cin = 16, 12, 3
    pixels = np.where(rng.uniform(size=(h * w, 1)) < 0.3, rng.uniform(0.5, 1.0, size=(h * w, cin)), 0.0)
    want = np.flatnonzero(pixels.any(axis=1))
    count = len(want)
    row, whole = w * cin * pixels.itemsize, pixels.nbytes
    for limit in (count - 1, count, count + 1):
        found = []
        for block_bytes in (row, network.CHUNK_BYTES, whole):
            monkeypatch.setattr(network, "CHUNK_BYTES", block_bytes)
            found.append(network._occupied_pixels(pixels, limit))
        if limit < count:
            assert found == [None, None, None]
        else:
            assert all(np.array_equal(got, want) for got in found)


def _whole_input_padding_im2col(data, kernel, bias, stride):
    """im2col over one zero-padded copy of the whole input, in the same row chunks."""
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    sh, sw = stride
    oh, ow = conv_output_shape(h, w, stride)
    pad_h, pad_w = max((oh - 1) * sh + kh - h, 0), max((ow - 1) * sw + kw - w, 0)
    padded = np.zeros((h + pad_h, w + pad_w, cin), dtype=data.dtype)
    padded[pad_h // 2:pad_h // 2 + h, pad_w // 2:pad_w // 2 + w] = data
    wmat = kernel.reshape(-1, cout).astype(data.dtype)
    out = np.empty((oh, ow, cout), dtype=data.dtype)
    chunk = max(1, network.CHUNK_BYTES // (ow * kh * kw * cin * data.itemsize))
    for r0 in range(0, oh, chunk):
        r1 = min(r0 + chunk, oh)
        win = np.lib.stride_tricks.sliding_window_view(padded[r0 * sh:(r1 - 1) * sh + kh], (kh, kw), axis=(0, 1))
        flat = np.ascontiguousarray(win[::sh, ::sw].transpose(0, 1, 3, 4, 2)).reshape(-1, kh * kw * cin)
        out[r0:r1] = (flat @ wmat).reshape(r1 - r0, ow, cout) + bias.astype(data.dtype)
    return np.maximum(out, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2), (2, 1)])
@pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 7, 100])
def test_conv_chunk_padding_is_bit_identical(monkeypatch, dtype, stride, rows_per_chunk):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(23, 17, 5)).astype(dtype)  # dense: the im2col path
    kernel, bias = rng.normal(size=(3, 3, 5, 6)), rng.normal(size=6)
    ow = conv_output_shape(23, 17, stride)[1]
    monkeypatch.setattr(network, "CHUNK_BYTES", rows_per_chunk * ow * 9 * 5 * np.dtype(dtype).itemsize)
    got = conv2d_raw(data, kernel, bias, stride=stride)
    assert got.dtype == dtype
    assert np.array_equal(got, _whole_input_padding_im2col(data, kernel, bias, stride))


@pytest.mark.parametrize("occupied_share", [1.0, 0.1])  # im2col, occupied-pixel kernel
def test_conv_peak_memory_stays_below_a_padded_input_copy(occupied_share):
    rng = np.random.default_rng(5)
    data = rng.random((256, 256, 64), dtype=np.float32)
    data *= rng.random((256, 256, 1), dtype=np.float32) < occupied_share
    kernel, bias = rng.uniform(-0.1, 0.1, size=(3, 3, 64, 64)), np.zeros(64)
    tracemalloc.start()
    try:
        out = conv2d_raw(data, kernel, bias)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The input was allocated before tracing started; a padded copy of it
    # (17.3 MB) on top of the output and a full im2col chunk breaks the bound.
    assert peak < data.nbytes + out.nbytes + network.CHUNK_BYTES


def _unblocked_occupied_conv(data, kernel, bias, relu=True):
    """The occupied-pixel conv with each tap's product over all occupied rows at once."""
    h, w, cin = data.shape
    kh, kw, _, cout = kernel.shape
    kernel = kernel.astype(data.dtype)
    pixels = data.reshape(-1, cin)
    occupied = np.flatnonzero(pixels.any(axis=1))
    iy, ix = np.divmod(occupied, w)
    rows = pixels[occupied]
    out = np.zeros((h * w, cout), dtype=data.dtype)
    for dy in range(kh):
        for dx in range(kw):
            oy, ox = iy + 1 - dy, ix + 1 - dx
            inside = (oy >= 0) & (oy < h) & (ox >= 0) & (ox < w)
            out[(oy * w + ox)[inside]] += (rows @ kernel[dy, dx])[inside]
    out += bias.astype(data.dtype)
    return (np.maximum(out, 0) if relu else out).reshape(h, w, cout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout", [(5, 6), (9, 4)])
@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7, 100])
def test_occupied_blocks_are_bit_identical(monkeypatch, dtype, cin, cout, rows_per_block):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    monkeypatch.setattr(network, "CHUNK_BYTES", rows_per_block * max(cin, cout) * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(12)
    h, w = 29, 23
    mask = rng.uniform(size=(h, w)) < 0.15
    mask[[0, 0, -1, -1], [0, -1, 0, -1]] = True  # all four corners
    mask[[0, 7, -1, 12], [5, -1, 9, 0]] = True  # a pixel on each side
    data = (rng.normal(size=(h, w, cin)) * mask[:, :, None]).astype(dtype)
    kernel, bias = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    got = conv2d_raw(data, kernel, bias)
    assert calls and got.dtype == dtype
    assert np.array_equal(got, _unblocked_occupied_conv(data, kernel, bias))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("band_rows", [1, 2, 3, 5, 100])
@pytest.mark.parametrize("pattern", ["scattered", "one_per_row"])
def test_occupied_bands_are_bit_identical(monkeypatch, dtype, band_rows, pattern):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    rng = np.random.default_rng(13)
    h, w, cin, cout = 31, 19, 4, 7
    if pattern == "scattered":
        mask = rng.uniform(size=(h, w)) < 0.15
        mask[[0, 0, -1, -1], [0, -1, 0, -1]] = True  # all four corners
    else:  # one pixel in every other row, two of them on the edges: runs of a single row
        cols = rng.integers(0, w, size=len(range(0, h, 2)))
        cols[1:3] = 0, w - 1
        mask = np.zeros((h, w), dtype=bool)
        mask[np.arange(0, h, 2), cols] = True
    data = (rng.normal(size=(h, w, cin)) * mask[:, :, None]).astype(dtype)
    kernel, bias = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    monkeypatch.setattr(network, "CHUNK_BYTES", band_rows * (w + 2) * cout * np.dtype(dtype).itemsize)
    buffer = np.full((h, w, 2 + cout + 3), np.nan, dtype=dtype)
    out = buffer[:, :, 2:2 + cout]
    for activation in ("relu", "linear"):
        assert conv2d_raw(data, kernel, bias, activation=activation, out=out) is out
        assert np.array_equal(out, _unblocked_occupied_conv(data, kernel, bias, relu=activation == "relu"))
    assert len(calls) == 2
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 2 + cout:]).all()


def test_occupied_kernel_temporaries_stay_within_the_chunk_bound(monkeypatch):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    monkeypatch.setattr(network, "CHUNK_BYTES", 1 << 20)
    rng = np.random.default_rng(6)
    data = rng.random((256, 256, 128), dtype=np.float32)
    data *= rng.random((256, 256, 1), dtype=np.float32) < 0.1
    kernel = rng.uniform(-0.1, 0.1, size=(3, 3, 128, 128)).astype(np.float32)
    bias = np.zeros(128, dtype=np.float32)
    tracemalloc.start()
    try:
        out = conv2d_raw(data, kernel, bias)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls
    # The 6.5k occupied rows gathered at once, or a tap's product and its
    # output rows over all of them (3.4 MB each), break the bound whatever
    # the occupancy; bands of 1 MiB with the rows they reach do not.
    assert peak < out.nbytes + 4 * network.CHUNK_BYTES


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 13), w=st.integers(1, 13),
       cin=st.integers(1, 6), cout=st.integers(1, 5),
       path=st.sampled_from([("occupied", (1, 1)), ("im2col", (1, 1)), ("im2col", (2, 2)), ("im2col", (1, 2))]))
def test_binary_uint8_conv_equals_float32_bit_for_bit(seed, h, w, cin, cout, path):
    kernel_name, stride = path
    rng = np.random.default_rng(seed)
    share_limit = int(network._OCCUPIED_SHARE * h * w)  # at most this many occupied pixels: occupied kernel
    if kernel_name == "occupied":
        n_occupied = int(rng.integers(0, share_limit + 1))
    else:
        n_occupied = int(rng.integers(share_limit + 1 if stride == (1, 1) else 0, h * w + 1))
    mask = np.zeros((h * w, cin), dtype=bool)
    pixels = rng.choice(h * w, size=n_occupied, replace=False)
    mask[pixels] = rng.uniform(size=(n_occupied, cin)) < 0.5
    mask[pixels, rng.integers(0, cin, size=n_occupied)] = True  # each chosen pixel is occupied
    mask = mask.reshape(h, w, cin)
    kernel, bias = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    with mock.patch.object(network, "_conv2d_occupied", wraps=network._conv2d_occupied) as occupied:
        got = conv2d_raw(mask.astype(np.uint8), kernel, bias, stride=stride)
        assert occupied.called == (kernel_name == "occupied")
        want = conv2d_raw(mask.astype(np.float32), kernel, bias, stride=stride)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got, want)


def test_conv_output_shape_ceiling():
    assert conv_output_shape(9, 7, (2, 2)) == (5, 4)
    assert conv_output_shape(64, 2048, (1, 2)) == (64, 1024)
    data = np.zeros((9, 7, 1))
    out = conv2d_raw(data, np.zeros((3, 3, 1, 1)), np.zeros(1), stride=(2, 2))
    assert out.shape == (5, 4, 1)


def _transposed_scatter(data, kernel, bias, activation):
    """The literal horizontal stride-2 transposed conv: out[2j + t - 1] += x[j] @ K[t]."""
    h, w, _ = data.shape
    out = np.zeros((h, 2 * w, kernel.shape[3]))
    for j in range(w):
        for t in range(kernel.shape[1]):
            if 0 <= 2 * j + t - 1 < 2 * w:
                out[:, 2 * j + t - 1] += data[:, j] @ kernel[0, t]
    out += bias
    return np.maximum(out, 0.0) if activation == network.RELU else out


def test_deconv_doubles_width(monkeypatch):
    rng = np.random.default_rng(5)
    cfg = tiny_config()
    plan = network.network_plan
    stored = init_network_weights(cfg, 4, seed=3)
    bias = rng.normal(size=cfg.unet_width)
    weights = NetworkWeights({**stored.blocks, "unet.up.bias": bias})
    kernel = weights.kernel("unet.up")
    for activation in (network.RELU, network.LINEAR):
        monkeypatch.setattr(network, "network_plan", lambda *a: [
            replace(layer, activation=activation) if layer.transposed else layer for layer in plan(*a)])
        net = FusionNet(cfg, 4, weights)
        layer = net.layers["unet.up"]
        assert (layer.kernel, layer.stride, layer.out_channels) == ((1, 3), (1, 1), 2 * cfg.unet_width)
        for w in (5, 6, 1):
            data = rng.normal(size=(3, w, 2 * cfg.unet_width))
            out = conv2d_forward(FeatureMap("rv", data), layer, net).data
            assert out.shape == (3, w, 2 * cfg.unet_width)
            got = out.reshape(3, 2 * w, cfg.unet_width)  # the pixel shuffle
            want = _transposed_scatter(data, kernel, bias, activation)
            assert np.max(np.abs(got - want)) < 1e-12
    assert np.array_equal(weights.kernel("unet.up"), stored.kernel("unet.up"))  # derived, the block untouched


@pytest.mark.parametrize("path", ["occupied", "im2col-1", "im2col-2", "deconv"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_out_channel_slice_equals_the_allocating_call(path, dtype):
    rng = np.random.default_rng(31)
    data = rng.normal(size=(13, 11, 6)).astype(dtype)
    if path == "occupied":
        data *= rng.uniform(size=(13, 11, 1)) < 0.15
    bias = rng.normal(size=5)
    if path == "deconv":  # the net's transposed unet.up, run as its sub-pixel conv
        cfg = tiny_config(unet_width=3)  # unet.up: 6 -> 6 channels as a sub-pixel conv
        net = FusionNet(cfg, 4, init_network_weights(cfg, 4, seed=2))
        run = lambda **kw: conv2d_forward(FeatureMap("rv", data), net.layers["unet.up"], net, **kw).data  # noqa: E731
    else:
        kernel, stride = rng.normal(size=(3, 3, 6, 5)), (2, 2) if path == "im2col-2" else (1, 1)
        run = lambda **kw: conv2d_raw(data, kernel, bias, stride=stride, **kw)  # noqa: E731
    with mock.patch.object(network, "_conv2d_occupied", wraps=network._conv2d_occupied) as occupied:
        want = run()
        cout = want.shape[2]
        buffer = np.full((*want.shape[:2], 2 + cout + 3), np.nan, dtype=dtype)
        out = buffer[:, :, 2:2 + cout]
        assert run(out=out) is out
    assert occupied.call_count == (2 if path == "occupied" else 0)
    assert np.array_equal(out, want)
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 2 + cout:]).all()


def test_out_of_another_shape_or_spacing_raises():
    data, kernel, bias = np.ones((6, 5, 2), np.float32), np.ones((3, 3, 2, 4)), np.zeros(4)
    with pytest.raises(ValueError, match="out must be"):
        conv2d_raw(data, kernel, bias, out=np.empty((6, 5, 4)))  # float64 for a float32 layer
    uneven = np.empty((6, 6, 4), np.float32)[:, :5]  # rows of pixels 6 apart, pixels in a row 1 apart
    with pytest.raises(ValueError, match="evenly spaced"):
        conv2d_raw(data, kernel, bias, out=uneven)


@pytest.mark.parametrize("work_rows", [0, 5, 10_000])  # too small for the band's scratch, or room for it
def test_occupied_rows_gathered_into_work_give_the_same_output(work_rows):
    rng = np.random.default_rng(37)
    data = (rng.uniform(size=(23, 19, 4)) < 0.04).astype(np.uint8)  # binary: computed in float32
    kernel, bias = rng.normal(size=(3, 3, 4, 6)), rng.normal(size=6)
    work = np.full(work_rows * 4 * 4, 0xFF, dtype=np.uint8)
    with mock.patch.object(network, "_conv2d_occupied", wraps=network._conv2d_occupied) as occupied:
        assert np.array_equal(conv2d_raw(data, kernel, bias, work=work), conv2d_raw(data, kernel, bias))
    assert occupied.call_count == 2
    # the grid is one band: its padded rows and the gathered occupied rows
    # with their two products went into work exactly when they fit
    h, w, cin = data.shape
    n = np.count_nonzero(data.any(axis=2))
    scratch_bytes = (h * (w + 2) * 6 + n * (cin + 2 * 6)) * 4
    assert (work != 0xFF).any() == (work.nbytes >= scratch_bytes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_occupied_bands_cut_by_occupancy_give_the_same_output(monkeypatch, dtype):
    rng = np.random.default_rng(37)
    h, w, cin, cout = 40, 23, 4, 6
    mask = rng.uniform(size=(h, w)) < 0.03
    mask[20:26, 5:15] = True  # a cluster: every pixel of six rows' ten columns, against ~3% elsewhere
    mask[7:14] = False
    mask[10, 11] = True  # alone: the one-row band of row 10 reaches this one occupied row only
    assert mask[9:12].sum() == 1 and mask.sum() <= network._OCCUPIED_SHARE * h * w
    data = (rng.normal(size=(h, w, cin)) * mask[:, :, None]).astype(dtype)
    kernel, bias = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    itemsize = np.dtype(dtype).itemsize
    row, pixel = (w + 2) * cout, cin + 2 * cout  # elements of a band row, and of each occupied row it reaches
    reach = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])  # occupied pixels above each row
    cost = lambda y0, y1: (y1 - y0) * row + (reach[min(y1 + 1, h)] - reach[max(y0 - 1, 0)] + 2) * pixel  # noqa: E731
    monkeypatch.setattr(network, "CHUNK_BYTES", row * itemsize)  # work from one empty band row up is the block
    cuts = []
    cut = network._occupied_bands
    monkeypatch.setattr(network, "_occupied_bands", lambda *a: cuts.append(cut(*a)) or cuts[-1])
    want = _unblocked_occupied_conv(data, kernel, bias)
    several = 6 * row + 20 * pixel
    for elements in (row, several, cost(0, h)):  # blocks of one band row, several rows, the whole grid
        work = np.full(elements * itemsize, 0xFF, dtype=np.uint8)
        assert np.array_equal(conv2d_raw(data, kernel, bias, work=work), want)
        assert (work != 0xFF).any() == (elements > row)  # every band of the one-row blocks outgrows them
    one, bands, whole = cuts
    assert one == list(range(h + 1)) and whole == [0, h]
    spans = list(zip(bands, bands[1:]))
    assert all(cost(y0, y1) <= several or y1 - y0 == 1 for y0, y1 in spans)
    # the bands are shorter where the pixels cluster
    assert max(y1 - y0 for y0, y1 in spans if y0 < 26 and y1 > 20) < min(y1 - y0 for y0, y1 in spans[:2])


def _force_winograd(monkeypatch):
    """Every dense stride-1 3x3 input takes the Winograd kernel."""
    monkeypatch.setattr(network, "_WINOGRAD_MIN_CHANNELS", 1)


@pytest.mark.parametrize("h,w", [(1, 1), (1, 7), (7, 1), (1, 2), (2, 3), (3, 2), (4, 4), (5, 6), (9, 8), (8, 9),
                                 (13, 11)])
@pytest.mark.parametrize("activation", ["relu", "linear"])
@pytest.mark.parametrize("chunk_bytes", [None, 3000, 600])  # blocks of whole tile rows, or of three tiles
def test_winograd_matches_naive_oracle(monkeypatch, h, w, activation, chunk_bytes):
    _force_winograd(monkeypatch)
    if chunk_bytes is not None:
        monkeypatch.setattr(network, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(h * 100 + w)
    data = rng.normal(size=(h, w, 3))
    kernel, bias = rng.normal(size=(3, 3, 3, 4)), rng.normal(size=4)
    assert network.conv_kernel_of(data, ConvLayerSpec("x", 3, 4)) == network.WINOGRAD
    got = conv2d_raw(data, kernel, bias, activation=activation)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - naive_conv2d(data, kernel, bias, (1, 1), relu=activation == "relu"))) < 1e-10


@pytest.mark.parametrize("work_bytes", [None, 100, 64 << 10, 4 << 20])
def test_winograd_channel_slice_and_work_match_naive_oracle(monkeypatch, work_bytes):
    _force_winograd(monkeypatch)
    monkeypatch.setattr(network, "CHUNK_BYTES", 4096)  # several blocks; work larger than this grows them
    rng = np.random.default_rng(41)
    data = rng.normal(size=(17, 23, 6))
    kernel, bias = rng.normal(size=(3, 3, 6, 5)), rng.normal(size=5)
    want = naive_conv2d(data, kernel, bias, (1, 1), relu=True)
    buffer = np.full((17, 23, 2 + 5 + 3), np.nan)
    out = buffer[:, :, 2:7]
    work = None if work_bytes is None else np.full(work_bytes, 0xFF, dtype=np.uint8)
    with mock.patch.object(network, "_conv2d_winograd", wraps=network._conv2d_winograd) as winograd:
        assert conv2d_raw(data, kernel, bias, out=out, work=work) is out
    assert winograd.called
    assert np.max(np.abs(out - want)) < 1e-10
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 7:]).all()
    if work is not None:  # the planes went into work exactly when it was larger than the heap bound
        assert (work != 0xFF).any() == (work_bytes > network.CHUNK_BYTES)


@pytest.mark.parametrize("h,w", [(1, 1), (3, 5), (9, 8)])
def test_a_float64_input_never_takes_the_nets_float32_planes(h, w):
    # the net holds float32 planes for its Winograd layers; a float64 input
    # through such a layer computes in float64, a float32 one uses the planes
    cfg = tiny_config(unet_width=32)  # unet.fuse: 64 -> 32 channels, a Winograd layer
    net = FusionNet(cfg, 4, init_network_weights(cfg, 4, seed=4))
    layer = net.layers["unet.fuse"]
    assert net.planes["unet.fuse"].dtype == np.float32
    kernel, bias = net.params["unet.fuse"]
    data = np.random.default_rng(h * 10 + w).normal(size=(h, w, 64))
    assert network.conv_kernel_of(data, layer) == network.WINOGRAD
    with mock.patch.object(network, "conv2d_raw", wraps=network.conv2d_raw) as raw:
        got = conv2d_forward(FeatureMap("rv", data), layer, net).data
        conv2d_forward(FeatureMap("rv", data.astype(np.float32)), layer, net)
    assert raw.call_args_list[0].kwargs["planes"] is None
    assert raw.call_args_list[1].kwargs["planes"] is net.planes["unet.fuse"]
    assert got.dtype == np.float64
    assert np.max(np.abs(got - naive_conv2d(data, kernel, bias, (1, 1), relu=True))) < 1e-10


def test_winograd_uint8_input_equals_float32_bit_for_bit(monkeypatch):
    _force_winograd(monkeypatch)
    rng = np.random.default_rng(43)
    mask = rng.uniform(size=(14, 9, 5)) < 0.6  # dense: at most a quarter of the pixels are empty
    kernel, bias = rng.normal(size=(3, 3, 5, 4)), rng.normal(size=4)
    got = conv2d_raw(mask.astype(np.uint8), kernel, bias)
    assert network.conv_kernel_of(mask, ConvLayerSpec("x", 5, 4)) == network.WINOGRAD
    assert got.dtype == np.float32
    assert np.array_equal(got, conv2d_raw(mask.astype(np.float32), kernel, bias))


def _quadrant_winograd(data, kernel, bias, activation):
    """Winograd F(2x2, 3x3) over all tiles at once, from a zero-padded copy
    of the input, each output pixel of the tiles added up in out's
    stride-2 view of it, bias and activation applied there."""
    h, w, cin = data.shape
    cout, th, tw = kernel.shape[3], -(-h // 2), -(-w // 2)
    padded = np.zeros((2 * th + 2, 2 * tw + 2, cin), dtype=data.dtype)
    padded[1:h + 1, 1:w + 1] = data
    v = np.empty((16, th, tw, cin), dtype=data.dtype)
    for j, (ka, kb, combine_rows) in enumerate(network._WINOGRAD_BT):
        rows = combine_rows(padded[ka::2][:th], padded[kb::2][:th])
        for jj, (ca, cb, combine_cols) in enumerate(network._WINOGRAD_BT):
            combine_cols(rows[:, ca::2][:, :tw], rows[:, cb::2][:, :tw], out=v[4 * j + jj])
    m = np.matmul(v.reshape(16, th * tw, cin), network.winograd_kernel(kernel, data.dtype))
    m = m.reshape(4, 4, th, tw, cout)
    for r in m:
        r[0] += r[1]
        r[0] += r[2]
        r[1] -= r[2]
        r[1] -= r[3]
    out = np.empty((h, w, cout), dtype=data.dtype)
    for p in (0, 1):
        for q in (0, 1):
            y = out[p::2, q::2]
            part = m[:, q, :y.shape[0], :y.shape[1]]
            if p == 0:
                np.add(part[0], part[1], out=y)
                y += part[2]
            else:
                np.subtract(part[1], part[2], out=y)
                y -= part[3]
            y += bias.astype(data.dtype)
            if activation == "relu":
                np.maximum(y, 0, out=y)
    return out


@pytest.mark.parametrize("h,w,cin,cout", [(13, 11, 5, 23), (9, 15, 3, 13), (14, 10, 6, 4)])  # cout > 4 cin, and not
@pytest.mark.parametrize("chunk_bytes", [None, 3000, 600])  # one block, blocks of whole tile rows, of three tiles
def test_winograd_float32_bits_do_not_depend_on_the_tile_blocks(monkeypatch, h, w, cin, cout, chunk_bytes):
    _force_winograd(monkeypatch)
    if chunk_bytes is not None:
        monkeypatch.setattr(network, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(h * w + cout)
    data = rng.normal(size=(h, w, cin)).astype(np.float32)
    kernel = rng.normal(size=(3, 3, cin, cout)).astype(np.float32).astype(np.float64)
    bias = rng.normal(size=cout).astype(np.float32).astype(np.float64)
    buffer = np.full((h, w, 2 + cout + 3), np.nan, dtype=np.float32)
    out = buffer[:, :, 2:2 + cout]
    for activation in ("relu", "linear"):
        with mock.patch.object(network, "_conv2d_winograd", wraps=network._conv2d_winograd) as winograd:
            assert conv2d_raw(data, kernel, bias, activation=activation, out=out) is out
        assert winograd.called
        assert np.array_equal(out, _quadrant_winograd(data, kernel, bias, activation))
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 2 + cout:]).all()


def test_winograd_work_holds_the_output_tiles_apart_from_the_products(monkeypatch):
    # desk's fuse.head (64 -> 381 channels) with Winograd forced: the output
    # tiles (4 per tile, 381 wide) outgrow the transformed input (16 per
    # tile, 64 wide) whose elements they take, so the work must count them
    _force_winograd(monkeypatch)
    h, w = 24, 16
    blocks = network._winograd_blocks(h, w, 64, 381, 4, network.CONV_WORK_BYTES)
    assert network._winograd_elements(blocks, 64, 381) == 12 * 8 * (4 * 381 + 16 * 381) + 12 * 18 * 64
    rng = np.random.default_rng(47)
    data = rng.normal(size=(h, w, 64)).astype(np.float32)
    kernel = rng.normal(size=(3, 3, 64, 381)).astype(np.float32).astype(np.float64)
    bias = rng.normal(size=381)
    work = np.full(network.CONV_WORK_BYTES, 0xFF, dtype=np.uint8)
    got = conv2d_raw(data, kernel, bias, activation="linear", work=work)
    assert (work != 0xFF).any()  # the planes went into work
    assert np.array_equal(got, _quadrant_winograd(data, kernel, bias, "linear"))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_winograd_float32_error_is_no_worse_than_im2col(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    data = rng.random((128, 130, 64), dtype=np.float32)  # a Winograd shape
    kernel = rng.uniform(-0.1, 0.1, size=(3, 3, 64, 48)).astype(np.float32).astype(np.float64)
    bias = rng.normal(size=48).astype(np.float32).astype(np.float64)
    assert network.conv_kernel_of(data, ConvLayerSpec("x", 64, 48)) == network.WINOGRAD
    winograd = conv2d_raw(data, kernel, bias, activation="linear")
    monkeypatch.setattr(network, "_WINOGRAD_MIN_CHANNELS", 65)
    assert network.conv_kernel_of(data, ConvLayerSpec("x", 64, 48)) == network.IM2COL
    im2col = conv2d_raw(data, kernel, bias, activation="linear")
    exact = conv2d_raw(data.astype(np.float64), kernel, bias, activation="linear")
    scale = np.abs(exact).max()
    assert np.abs(winograd - exact).max() / scale <= np.abs(im2col - exact).max() / scale < 1e-6


def test_winograd_heap_temporaries_stay_within_the_chunk_bound():
    rng = np.random.default_rng(44)
    data = rng.random((256, 256, 64), dtype=np.float32)
    kernel = rng.uniform(-0.1, 0.1, size=(3, 3, 64, 96))
    bias = np.zeros(96)
    planes = network.winograd_kernel(kernel, np.float32)
    out = np.empty((256, 256, 96), dtype=np.float32)
    peaks = []
    for work in (None, np.empty(network.CONV_WORK_BYTES, dtype=np.uint8)):
        tracemalloc.start()
        try:
            conv2d_raw(data, kernel, bias, out=out, work=work, planes=planes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Without work the tile blocks' planes (60 MiB in all) come at most 2 MiB
    # at a time; with the layer's work they all go there, and what is left
    # is mostly the occupancy scan's index blocks.
    assert peaks[0] <= network.CHUNK_BYTES
    assert peaks[1] <= network.CHUNK_BYTES // 8


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def test_camera_net_shapes_both_presets():
    config = tiny_config()
    weights = init_network_weights(config, bev_in_channels=4, seed=0)
    nusc = CameraModel.from_fov(1600, 900, 70.0)
    img = FeatureMap("camera", np.zeros((900, 1600, 3), dtype=np.float32), CameraGeometry(nusc, 1))
    out = camera_net_forward(img, FusionNet(config, 4, weights))
    assert out.data.shape == (113, 200, config.cam_out)
    assert out.geometry.pixel_stride == 8
    atg = CameraModel.from_fov(1920, 1200, 90.0, crop_top=438)
    img = FeatureMap("camera", np.zeros((762, 1920, 3), dtype=np.float32), CameraGeometry(atg, 1))
    out = camera_net_forward(img, FusionNet(config, 4, weights))
    assert out.data.shape == (96, 240, config.cam_out)


def test_camera_net_zero_image_zero_bias_gives_zero():
    config = tiny_config()
    weights = init_network_weights(config, bev_in_channels=4, seed=1)
    cam = CameraModel.from_fov(64, 48, 90.0)
    img = FeatureMap("camera", np.zeros((48, 64, 3)), CameraGeometry(cam, 1))
    out = camera_net_forward(img, FusionNet(config, 4, weights))
    assert not out.data.any()


def test_rv_branch_output_shape_and_camera_width_independence():
    rng = np.random.default_rng(7)
    rv = RvSpec(8, 64)
    rv_img = FeatureMap("rv", rng.normal(size=(8, 64, 4)), rv)
    pts = _rv_points(rng, 40, rv)
    cam = CameraModel.from_fov(64, 48, 90.0, mount_height=1.0)

    cfg_lc = tiny_config(use_camera=True)
    w_lc = init_network_weights(cfg_lc, bev_in_channels=4, seed=3)
    cam_feats = FeatureMap(
        "camera", rng.normal(size=(*grid_shape_of(CameraGeometry(cam, 8)), cfg_lc.cam_out)),
        CameraGeometry(cam, 8),
    )
    out_lc = rv_branch_forward(rv_img, cam_feats, pts, FusionNet(cfg_lc, 4, w_lc))

    cfg_l = tiny_config(use_camera=False)
    w_l = init_network_weights(cfg_l, bev_in_channels=4, seed=3)
    out_l = rv_branch_forward(rv_img, None, pts, FusionNet(cfg_l, 4, w_l))

    assert out_lc.data.shape == (8, 64, cfg_lc.unet_width)
    assert out_l.data.shape == out_lc.data.shape


def test_rv_branch_invisible_camera_equals_zeroed_camera_path():
    rng = np.random.default_rng(11)
    rv = RvSpec(8, 64)
    rv_img = FeatureMap("rv", rng.normal(size=(8, 64, 4)), rv)
    cam = CameraModel.from_fov(64, 48, 90.0, mount_height=1.0)
    geom = CameraGeometry(cam, 8)
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=4, seed=5)
    # all points behind the camera: projection yields zeros and validity -1
    n = 30
    x = rng.uniform(-6.0, -1.0, size=n)
    y = rng.uniform(-3.0, 3.0, size=n)
    z = rng.uniform(0.0, 2.0, size=n)
    pts = PointArray(
        x, y, z, np.sqrt(x * x + y * y + z * z), np.full(n, 0.5),
        np.mod(np.arctan2(y, x), 2 * math.pi), rng.integers(0, 8, size=n).astype(np.int64),
    )
    cam_feats = FeatureMap("camera", rng.normal(size=(*grid_shape_of(geom), cfg.cam_out)), geom)
    net = FusionNet(cfg, 4, weights)
    out = rv_branch_forward(rv_img, cam_feats, pts, net)

    # manual zeroed-camera path, unet.enc1 unsplit over the joined input
    x_ = conv2d_forward(rv_img, net.layers["rv.conv1"], net)
    x_ = conv2d_forward(x_, net.layers["rv.conv2"], net)
    zeros = np.zeros((8, 64, cfg.cam_out))
    minus = np.full((8, 64, 1), -1.0)
    manual_in = np.concatenate([x_.data, zeros, minus], axis=2)
    enc1 = FeatureMap("rv", conv2d_raw(manual_in, weights.kernel("unet.enc1"), weights.bias("unet.enc1")), rv)
    r = conv2d_forward(enc1, net.layers["unet.res1.conv1"], net)
    r = conv2d_forward(r, net.layers["unet.res1.conv2"], net)
    level1 = FeatureMap("rv", np.maximum(enc1.data + r.data, 0.0), rv)
    down = conv2d_forward(level1, net.layers["unet.down"], net)
    r2 = conv2d_forward(down, net.layers["unet.res2.conv1"], net)
    r2 = conv2d_forward(r2, net.layers["unet.res2.conv2"], net)
    level2 = FeatureMap("rv", np.maximum(down.data + r2.data, 0.0), rv)
    up = conv2d_forward(level2, net.layers["unet.up"], net).data.reshape(8, 64, cfg.unet_width)
    merged = FeatureMap("rv", np.concatenate([up, level1.data], axis=2), rv)
    want = conv2d_forward(merged, net.layers["unet.fuse"], net)
    assert np.abs(out.data - want.data).max() < 1e-12  # the split unet.enc1 adds in another order


def test_bev_branch_zero_map_equals_lidar_embedding():
    rng = np.random.default_rng(13)
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=9)
    lidar = FeatureMap("bev", rng.uniform(size=(g.rows, g.cols, 6)), g)
    zero_map = FeatureMap("bev", np.zeros((g.rows, g.cols, 7)), g)
    net = FusionNet(cfg, 6, weights)
    out = bev_branch_forward(lidar, zero_map, net)  # fuse.conv1's dense part over the BEV features
    lid = conv2d_forward(conv2d_forward(lidar, net.layers["bev.lidar1"], net), net.layers["bev.lidar2"], net)
    assert np.array_equal(out.data, conv2d_forward(lid, net.layers["fuse.conv1"], net).data)
    assert out.data.shape == (*conv_output_shape(g.rows, g.cols, (2, 2)), cfg.head_widths[0])
    assert out.geometry is g


def test_bev_branch_sum_node_additivity():
    rng = np.random.default_rng(17)
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=10)
    map_fm = FeatureMap("bev", rng.uniform(size=(g.rows, g.cols, 7)), g)
    zero_map = FeatureMap("bev", np.zeros((g.rows, g.cols, 7)), g)
    deltas = []
    for seed in (1, 2):
        lidar = FeatureMap("bev", rng.uniform(size=(g.rows, g.cols, 6)), g)
        with_map = bev_branch_forward(lidar, map_fm, FusionNet(cfg, 6, weights))
        without = bev_branch_forward(lidar, zero_map, FusionNet(cfg, 6, weights))
        deltas.append(with_map.data - without.data)
    assert np.allclose(deltas[0], deltas[1], atol=1e-12)


def test_bev_branch_grid_mismatch_errors():
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=0)
    g = small_grid()
    lidar = FeatureMap("bev", np.zeros((g.rows, g.cols, 6)), g)
    bad_map = FeatureMap("bev", np.zeros((g.rows + 1, g.cols, 7)), g)
    with pytest.raises(ValueError):
        bev_branch_forward(lidar, bad_map, FusionNet(cfg, 6, weights))


def test_fuse_head_channel_bookkeeping():
    cfg = FusionConfig(horizon=30)
    assert cfg.per_class_channels == 127
    assert cfg.head_out_channels == 381


def test_closed_form_shape_algebra_both_presets():
    # stride-1 branches preserve the grid; the stride-4 head quarters it with ceiling
    for rows, cols, out_rows, out_cols in ((938, 625, 235, 157), (800, 800, 200, 200)):
        h, w = rows, cols
        for stride in ((2, 2), (1, 1), (2, 2), (1, 1), (1, 1), (1, 1)):
            h, w = conv_output_shape(h, w, stride)
        assert (h, w) == (out_rows, out_cols)
        assert conv_output_shape(rows, cols, (1, 1)) == (rows, cols)
    # RV level-2 halves only the horizontal axis
    assert conv_output_shape(64, 2048, (1, 2)) == (64, 1024)
    assert conv_output_shape(32, 2048, (1, 2)) == (32, 1024)


def test_fuse_head_zero_features_probability_half():
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=2)
    kernel = weights.kernel("fuse.conv1").copy()
    kernel[:, :, -1] = 0.0  # no validity taps: the -1 of the cells no point hits adds nothing
    weights = replace(weights, blocks={**weights.blocks, "fuse.conv1.kernel": kernel})
    net = FusionNet(cfg, 6, weights)
    zeros = conv2d_forward(FeatureMap("bev", np.zeros((g.rows, g.cols, cfg.bev_width)), g), net.layers["fuse.conv1"],
                           net)
    no_hits = np.zeros((g.rows, g.cols, cfg.unet_width + 1))  # the projection of no points
    no_hits[:, :, -1] = -1.0
    out = fuse_and_head_forward(zeros, FeatureMap("bev", no_hits, g), net)
    out.validate()
    for cls in cfg.classes:
        assert np.all(out.prob[cls] == 0.5)
    og = OutputGrid.from_grid(g, cfg.output_stride)
    assert out.prob["vehicle"].shape == (og.rows, og.cols)


def test_fuse_head_deterministic():
    rng = np.random.default_rng(23)
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=2)
    features = FeatureMap("bev", rng.normal(size=(g.rows, g.cols, cfg.bev_width)), g)
    hit = rng.uniform(size=(g.rows, g.cols, 1)) < 0.5
    projected = FeatureMap("bev", np.concatenate([rng.normal(size=(g.rows, g.cols, cfg.unet_width)) * hit,
                                                  np.where(hit, 1.0, -1.0)], axis=2), g)
    a, b = (fuse_and_head_forward(conv2d_forward(features, net.layers["fuse.conv1"], net), projected, net)
            for net in (FusionNet(cfg, 6, weights), FusionNet(cfg, 6, weights)))
    for cls in cfg.classes:
        assert np.array_equal(a.prob[cls], b.prob[cls])
        assert np.array_equal(a.centers[cls], b.centers[cls])


def _split_instance(name, h, w, hits, seed, dtype=np.float64):
    """A net of tiny_config whose joined layer called name has a non-zero
    bias, the layer's features and a projection (zero features, validity -1
    off the hit cells) on an (h, w) grid of its view, a BEV grid for
    fuse.conv1 and an RV image for unet.enc1, whose hit cells follow the
    named pattern."""
    rng = np.random.default_rng(seed)
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=seed)
    layer = next(layer for layer in network_plan(cfg, 6) if layer.name == name)
    weights = replace(weights, blocks={**weights.blocks, f"{name}.bias": rng.normal(size=layer.out_channels)})
    hit = np.zeros((h, w), dtype=bool)
    if hits == "all":
        hit[...] = True
    elif hits == "scattered":
        hit = rng.uniform(size=(h, w)) < 0.3
    elif hits.startswith("corner"):
        corner = int(hits[-1])
        hit[-(corner // 2), -(corner % 2)] = True
    view, geometry = ("bev", GridSpec(float(h), float(w), 1.0, 1.0, 1.0, 1.0)) if name == "fuse.conv1" else (
        "rv", RvSpec(h, w))
    channels = cfg.joined[name]
    features = rng.normal(size=(h, w, channels))
    projected = np.concatenate([rng.normal(size=(h, w, layer.in_channels - channels - 1)) * hit[:, :, None],
                                np.where(hit, 1.0, -1.0)[:, :, None]], axis=2)
    return (FusionNet(cfg, 6, weights), FeatureMap(view, features.astype(dtype), geometry),
            FeatureMap(view, projected.astype(dtype), geometry))


def _split_conv(net, name, features, projected):
    """The joined layer called name by its two parts, as the frame runs
    them: the dense part over its features, then the projected part added
    in place."""
    x = conv2d_forward(features, net.layers[name], net)
    projected_part(x.data, projected.data, name, net)
    return x


def _joined_conv(net, name, features, projected):
    """The joined layer called name by the literal conv over the joined input, with its stored kernel."""
    joined = np.concatenate([features.data, projected.data], axis=2).astype(np.float64)
    return naive_conv2d(joined, net.weights.kernel(name), net.weights.bias(name), net.layers[name].stride,
                        relu=True)


@pytest.mark.parametrize("h,w", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (5, 4), (4, 5), (6, 6), (7, 9)])
@pytest.mark.parametrize("hits", ["none", "all", "corner0", "corner1", "corner2", "corner3", "scattered"])
def test_split_fuse_conv1_equals_the_joined_conv_in_float64(h, w, hits):
    # both joined layers: fuse.conv1 at stride 2 on a BEV grid, unet.enc1 at
    # stride 1 on an RV image
    for name, stride in (("fuse.conv1", (2, 2)), ("unet.enc1", (1, 1))):
        net, features, projected = _split_instance(name, h, w, hits, seed=h * 10 + w)
        assert net.layers[name].in_channels == net.config.joined[name] and net.layers[name].stride == stride
        got = _split_conv(net, name, features, projected)
        assert got.data.dtype == np.float64
        assert np.abs(got.data - _joined_conv(net, name, features, projected)).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_split_fuse_conv1_float32_error_stays_inside_the_im2col_bound(seed):
    for name in ("fuse.conv1", "unet.enc1"):
        net, features, projected = _split_instance(name, 37, 29, "scattered", seed, np.float32)
        exact = _joined_conv(net, name, features, projected)
        joined = np.concatenate([features.data, projected.data], axis=2)
        im2col = conv2d_raw(joined, net.weights.kernel(name), net.weights.bias(name), net.layers[name].stride)
        split = _split_conv(net, name, features, projected).data
        assert split.dtype == im2col.dtype == np.float32
        scale = np.abs(exact).max()
        assert np.abs(split - exact).max() / scale < 1e-6 and np.abs(im2col - exact).max() / scale < 1e-6


@pytest.mark.parametrize("h,w", [(9, 8), (8, 9), (1, 1), (2, 3)])
@pytest.mark.parametrize("stride", [(2, 2), (1, 2), (2, 1), (1, 1)])
def test_strided_occupied_kernel_adds_into_out_over_the_given_pixels(monkeypatch, h, w, stride):
    # the projected part alone: the strided occupied-pixel kernel with no
    # bias adds the conv of the given pixels to what out holds, the same
    # bits whatever its bands
    rng = np.random.default_rng(h * w)
    cin, cout = 3, 4
    data = rng.normal(size=(h, w, cin)).astype(np.float32)
    taken = np.flatnonzero(rng.uniform(size=h * w) < 0.4)
    kernel = rng.normal(size=(3, 3, cin, cout)).astype(np.float32)
    oh, ow = conv_output_shape(h, w, stride)
    start = rng.normal(size=(oh, ow, cout)).astype(np.float32)
    runs = []
    for band_rows in (100, 1):
        monkeypatch.setattr(network, "CHUNK_BYTES", band_rows * (ow + 2) * cout * 4)
        out = start.copy()
        network._conv2d_occupied(data.reshape(h * w, cin), taken, (h, w), kernel, None, "linear",
                                 out.reshape(oh * ow, cout), None, stride)
        runs.append(out)
    assert np.array_equal(runs[0], runs[1])
    sparse = np.zeros(h * w * cin)
    sparse.reshape(h * w, cin)[taken] = data.reshape(h * w, cin)[taken]
    want = start + naive_conv2d(sparse.reshape(h, w, cin), kernel, np.zeros(cout), stride, relu=False)
    assert np.abs(runs[0] - want).max() < 1e-5


def test_projected_part_visits_only_the_bands_its_pixels_reach(monkeypatch):
    # with no bias the occupied-pixel kernel adds into out before its
    # activation: it skips the bands no given pixel reaches and applies the
    # ReLU in one pass over out, the bits of adding their +0.0 and applying
    # it band by band (max(-0.0, 0) is +0.0), here those of one band
    rng = np.random.default_rng(21)
    h, w, cin, cout, stride = 40, 9, 3, 4, (2, 2)
    data = rng.normal(size=(h, w, cin)).astype(np.float32)
    taken = np.flatnonzero((np.arange(h * w) // w % 13 == 5) & (rng.uniform(size=h * w) < 0.5))
    kernel = rng.normal(size=(3, 3, cin, cout)).astype(np.float32)
    oh, ow = conv_output_shape(h, w, stride)
    start = rng.normal(size=(oh, ow, cout)).astype(np.float32)
    start[::3, ::2] = -0.0
    scratch_fn, bands, runs = network._scratch, [], []
    monkeypatch.setattr(network, "_scratch", lambda *a: bands.append(1) or scratch_fn(*a))
    for band_rows in (100, 1):
        monkeypatch.setattr(network, "CHUNK_BYTES", band_rows * (ow + 2) * cout * 4)
        bands.clear()
        out = start.copy()
        network._conv2d_occupied(data.reshape(h * w, cin), taken, (h, w), kernel, None, "relu",
                                 out.reshape(oh * ow, cout), None, stride)
        runs.append((out, len(bands)))
    (whole, one_band), (banded, visited) = runs
    assert one_band == 1 and 0 < visited < oh  # the rows of 3 pixel rows out of 13 and their neighbours
    assert banded.tobytes() == whole.tobytes() and not np.signbit(banded).any()


# The rule's constants that force each kernel wherever it can run (as in
# scripts/conv_kernels.py).
_FORCED = {
    network.IM2COL: {"_OCCUPIED_SHARE": -1.0, "_WINOGRAD_MIN_CHANNELS": float("inf")},
    network.WINOGRAD: {"_OCCUPIED_SHARE": -1.0, "_WINOGRAD_MIN_CHANNELS": 0},
    network.OCCUPIED: {"_OCCUPIED_SHARE": 1.0},
}


@pytest.mark.parametrize("forced", [network.IM2COL, network.WINOGRAD, network.OCCUPIED])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk_rows", [1, 3, 100])
def test_add_to_equals_the_conv_then_np_add(monkeypatch, forced, dtype, chunk_rows):
    # bev.map2's mode: add_to += act(conv + bias), with non-zero biases,
    # gives the bits of the conv written into an array of its own and then
    # added by np.add, under every kernel and whatever its blocks
    rng = np.random.default_rng(31)
    h, w, cin, cout = 29, 23, 6, 5
    mask = rng.uniform(size=(h, w, 1)) < 0.2
    data = (rng.normal(size=(h, w, cin)) * mask).astype(dtype)
    kernel, bias = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
    base = rng.normal(size=(h, w, cout)).astype(dtype)
    for name, value in _FORCED[forced].items():
        monkeypatch.setattr(network, name, value)
    monkeypatch.setattr(network, "CHUNK_BYTES", chunk_rows * w * 9 * max(cin, cout) * np.dtype(dtype).itemsize)
    assert network._choose_kernel(data, (3, 3), (1, 1))[0] == forced
    for activation in ("relu", "linear"):
        want = np.add(base, conv2d_raw(data, kernel, bias, activation=activation))
        got = base.copy()
        assert conv2d_raw(data, kernel, bias, activation=activation, add_to=got) is got
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
    strided = base[::2, ::2].copy()  # im2col's accumulate mode with a stride, the only kernel that takes one
    want = np.add(strided, conv2d_raw(data, kernel, bias, stride=(2, 2)))
    assert conv2d_raw(data, kernel, bias, stride=(2, 2), add_to=strided).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="out or add_to"):
        conv2d_raw(data, kernel, bias, out=base.copy(), add_to=base.copy())


# ---------------------------------------------------------------------------
# weights and cell-output plumbing
# ---------------------------------------------------------------------------

def test_init_weights_deterministic_and_bounded():
    cfg = tiny_config()
    a = init_network_weights(cfg, bev_in_channels=12, seed=42)
    b = init_network_weights(cfg, bev_in_channels=12, seed=42)
    assert list(a.blocks) == list(b.blocks)
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name])
    for layer in network_plan(cfg, 12):
        k = a.kernel(layer.name)
        kh, kw = layer.kernel
        bound = math.sqrt(6.0 / (kh * kw * (layer.in_channels + layer.out_channels)))
        assert np.max(np.abs(k)) <= bound
        assert not a.bias(layer.name).any()


def test_weights_are_read_only_copies():
    weights = init_network_weights(tiny_config(), bev_in_channels=12, seed=7)
    kernel = weights.kernel("bev.lidar1")
    with pytest.raises(ValueError, match="read-only"):
        kernel[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(kernel, 1.0, out=kernel)
    with pytest.raises(TypeError):
        weights.blocks["bev.lidar1.kernel"] = np.zeros_like(kernel)
    with pytest.raises(AttributeError):
        weights.blocks = {}
    source = {"a.kernel": np.zeros((3, 3, 1, 1))}
    copied = NetworkWeights(source)
    source["a.kernel"][...] = 1.0  # the caller's arrays stay the caller's
    source["a.bias"] = np.zeros(1)
    assert list(copied.blocks) == ["a.kernel"] and not copied.kernel("a").any()


def test_weights_file_roundtrip(tmp_path):
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=12, seed=7)
    path = tmp_path / "w.bin"
    save_weights(path, weights)
    loaded = load_weights(path)
    assert loaded.seed == 7
    assert list(loaded.blocks) == list(weights.blocks)
    for name in weights.blocks:
        assert np.array_equal(loaded.blocks[name], weights.blocks[name])


def test_weights_file_truncation_detected(tmp_path):
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=12, seed=7)
    path = tmp_path / "w.bin"
    save_weights(path, weights)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(BlockFileError):
        load_weights(path)


def test_cell_outputs_pack_unpack_roundtrip():
    rng = np.random.default_rng(29)
    og = OutputGrid(rows=4, cols=5, x_min=-2.0, y_min=-2.5, step_x=1.0, step_y=1.0)
    h = 3
    cls = ("vehicle", "pedestrian")
    raw = rng.normal(size=(4, 5, 2 * (1 + 2 + 2 * 4 + 2 * 4)))
    out = CellOutputs.unpack(raw, og, h, cls, logits=True)
    out.validate()
    packed = out.pack()
    again = CellOutputs.unpack(packed, og, h, cls, logits=False)
    for c in cls:
        assert np.array_equal(out.prob[c], again.prob[c])
        assert np.array_equal(out.centers[c], again.centers[c])
        assert np.array_equal(out.headings[c], again.headings[c])


def test_cell_outputs_unpack_float32_saturated_logits():
    og = OutputGrid(rows=2, cols=3, x_min=-1.0, y_min=-1.5, step_x=1.0, step_y=1.0)
    h = 1
    cls = ("vehicle", "pedestrian")
    per = 1 + 2 + 2 * 2 + 2 * 2
    raw = np.zeros((2, 3, 2 * per), dtype=np.float32)
    raw[:, :, 0] = [[40.0, -40.0, 40.0], [-40.0, 40.0, -40.0]]
    raw[:, :, per] = -raw[:, :, 0]
    out = CellOutputs.unpack(raw, og, h, cls, logits=True)
    out.validate()
    for c in cls:
        p = out.prob[c]
        assert p.dtype == np.float64
        assert np.all((p > 0.0) & (p < 1.0))
        assert p.max() > 0.5 > p.min()
        for arr in (out.size[c], out.centers[c], out.headings[c]):
            assert arr.dtype == np.float64


def test_conv2d_forward_layer_validation():
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=0)
    g = small_grid()
    bad = FeatureMap("bev", np.zeros((g.rows, g.cols, 5)), g)
    with pytest.raises(ValueError):
        conv2d_forward(bad, network_plan(cfg, 6)[-1], FusionNet(cfg, 6, weights))
