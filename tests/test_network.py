import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfusion import network
from mvfusion.blockfile import BlockFileError
from mvfusion.network import (
    CellOutputs,
    FusionConfig,
    LayerPlan,
    bev_branch_forward,
    camera_net_forward,
    conv2d_forward,
    conv2d_raw,
    conv_output_shape,
    deconv2d_h_raw,
    fuse_and_head_forward,
    init_network_weights,
    load_weights,
    network_plan,
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
        output_stride=4,
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
    monkeypatch.setattr(network, "_SCAN_BYTES", pixels_per_block * cin * 8)
    rng = np.random.default_rng(4)
    n = int(network._OCCUPIED_SHARE * h * w) + extra
    data = np.zeros((h * w, cin))
    data[h * w - n:] = rng.uniform(0.5, 1.0, size=(n, cin))  # the occupied pixels come last
    data = data.reshape(h, w, cin)
    kernel, bias = rng.normal(size=(3, 3, cin, 4)), rng.normal(size=4)
    got = conv2d_raw(data, kernel, bias)
    assert bool(calls) == takes_occupied
    assert np.max(np.abs(got - naive_conv2d(data, kernel, bias, (1, 1), relu=True))) < 1e-12


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
    chunk = max(1, network._CHUNK_BYTES // (ow * kh * kw * cin * data.itemsize))
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
    monkeypatch.setattr(network, "_CHUNK_BYTES", rows_per_chunk * ow * 9 * 5 * np.dtype(dtype).itemsize)
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
    assert peak < data.nbytes + out.nbytes + network._CHUNK_BYTES


def _unblocked_occupied_conv(data, kernel, bias):
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
    return np.maximum(out, 0).reshape(h, w, cout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,cout", [(5, 6), (9, 4)])
@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7, 100])
def test_occupied_blocks_are_bit_identical(monkeypatch, dtype, cin, cout, rows_per_block):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    monkeypatch.setattr(network, "_CHUNK_BYTES", rows_per_block * max(cin, cout) * np.dtype(dtype).itemsize)
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


def test_occupied_kernel_temporaries_stay_within_the_chunk_bound(monkeypatch):
    calls = []
    kernel_fn = network._conv2d_occupied
    monkeypatch.setattr(network, "_conv2d_occupied", lambda *a: calls.append(1) or kernel_fn(*a))
    monkeypatch.setattr(network, "_CHUNK_BYTES", 1 << 20)
    rng = np.random.default_rng(6)
    data = rng.random((256, 256, 128), dtype=np.float32)
    data *= rng.random((256, 256, 1), dtype=np.float32) < 0.1
    kernel = rng.uniform(-0.1, 0.1, size=(3, 3, 128, 128)).astype(np.float32)
    bias = np.zeros(128, dtype=np.float32)
    rows_nbytes = np.count_nonzero(data.any(axis=2)) * 128 * data.itemsize
    tracemalloc.start()
    try:
        out = conv2d_raw(data, kernel, bias)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls
    # A tap's product and its gathered output rows over all 6.5k occupied
    # pixels (3.4 MB each) break the bound; 1 MiB blocks of them do not.
    assert peak < out.nbytes + rows_nbytes + 4 * network._CHUNK_BYTES


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


def test_deconv_doubles_width():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(4, 6, 2))
    kernel = rng.normal(size=(1, 4, 2, 3))
    out = deconv2d_h_raw(data, kernel, np.zeros(3), activation="linear")
    assert out.shape == (4, 12, 3)
    # scatter semantics: out[o] = sum_{2j + t - 1 = o} in[j] k[t]
    o = 5
    expect = np.zeros(3)
    for j in range(6):
        for t in range(4):
            if 2 * j + t - 1 == o:
                expect += data[0, j] @ kernel[0, t]
    assert np.allclose(out[0, o], expect, atol=1e-12)


@pytest.mark.parametrize("path", ["occupied", "im2col-1", "im2col-2", "deconv"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_out_channel_slice_equals_the_allocating_call(path, dtype):
    rng = np.random.default_rng(31)
    data = rng.normal(size=(13, 11, 6)).astype(dtype)
    if path == "occupied":
        data *= rng.uniform(size=(13, 11, 1)) < 0.15
    bias = rng.normal(size=5)
    if path == "deconv":
        kernel = rng.normal(size=(1, 4, 6, 5))
        run = lambda **kw: deconv2d_h_raw(data, kernel, bias, **kw)  # noqa: E731
    else:
        kernel, stride = rng.normal(size=(3, 3, 6, 5)), (2, 2) if path == "im2col-2" else (1, 1)
        run = lambda **kw: conv2d_raw(data, kernel, bias, stride=stride, **kw)  # noqa: E731
    with mock.patch.object(network, "_conv2d_occupied", wraps=network._conv2d_occupied) as occupied:
        want = run()
        buffer = np.full((*want.shape[:2], 2 + 5 + 3), np.nan, dtype=dtype)
        out = buffer[:, :, 2:7]
        assert run(out=out) is out
    assert occupied.call_count == (2 if path == "occupied" else 0)
    assert np.array_equal(out, want)
    assert np.isnan(buffer[:, :, :2]).all() and np.isnan(buffer[:, :, 7:]).all()


def test_out_of_another_shape_or_spacing_raises():
    data, kernel, bias = np.ones((6, 5, 2), np.float32), np.ones((3, 3, 2, 4)), np.zeros(4)
    with pytest.raises(ValueError, match="out must be"):
        conv2d_raw(data, kernel, bias, out=np.empty((6, 5, 4)))  # float64 for a float32 layer
    uneven = np.empty((6, 6, 4), np.float32)[:, :5]  # rows of pixels 6 apart, pixels in a row 1 apart
    with pytest.raises(ValueError, match="evenly spaced"):
        conv2d_raw(data, kernel, bias, out=uneven)


@pytest.mark.parametrize("work_rows", [0, 5, 10_000])  # too small for the occupied rows, or room for all
def test_occupied_rows_gathered_into_work_give_the_same_output(work_rows):
    rng = np.random.default_rng(37)
    data = (rng.uniform(size=(23, 19, 4)) < 0.04).astype(np.uint8)  # binary: computed in float32
    kernel, bias = rng.normal(size=(3, 3, 4, 6)), rng.normal(size=6)
    work = np.full(work_rows * 4 * 4, 0xFF, dtype=np.uint8)
    with mock.patch.object(network, "_conv2d_occupied", wraps=network._conv2d_occupied) as occupied:
        assert np.array_equal(conv2d_raw(data, kernel, bias, work=work), conv2d_raw(data, kernel, bias))
    assert occupied.call_count == 2
    # the rows went into work exactly when they fit
    assert (work != 0xFF).any() == (work_rows >= np.count_nonzero(data.any(axis=2)) > 0)


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def test_camera_net_shapes_both_presets():
    config = tiny_config()
    weights = init_network_weights(config, bev_in_channels=4, seed=0)
    nusc = CameraModel.from_fov(1600, 900, 70.0)
    img = FeatureMap("camera", np.zeros((900, 1600, 3), dtype=np.float32), CameraGeometry(nusc, 1))
    out = camera_net_forward(img, weights, LayerPlan(config, 4))
    assert out.data.shape == (113, 200, config.cam_out)
    assert out.geometry.pixel_stride == 8
    atg = CameraModel.from_fov(1920, 1200, 90.0, crop_top=438)
    img = FeatureMap("camera", np.zeros((762, 1920, 3), dtype=np.float32), CameraGeometry(atg, 1))
    out = camera_net_forward(img, weights, LayerPlan(config, 4))
    assert out.data.shape == (96, 240, config.cam_out)


def test_camera_net_zero_image_zero_bias_gives_zero():
    config = tiny_config()
    weights = init_network_weights(config, bev_in_channels=4, seed=1)
    cam = CameraModel.from_fov(64, 48, 90.0)
    img = FeatureMap("camera", np.zeros((48, 64, 3)), CameraGeometry(cam, 1))
    out = camera_net_forward(img, weights, LayerPlan(config, 4))
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
    out_lc = rv_branch_forward(rv_img, cam_feats, pts, w_lc, LayerPlan(cfg_lc, 4))

    cfg_l = tiny_config(use_camera=False)
    w_l = init_network_weights(cfg_l, bev_in_channels=4, seed=3)
    out_l = rv_branch_forward(rv_img, None, pts, w_l, LayerPlan(cfg_l, 4))

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
    plan = LayerPlan(cfg, 4)
    out = rv_branch_forward(rv_img, cam_feats, pts, weights, plan)

    # manual zeroed-camera path
    x_ = conv2d_forward(rv_img, plan["rv.conv1"], weights)
    x_ = conv2d_forward(x_, plan["rv.conv2"], weights)
    zeros = np.zeros((8, 64, cfg.cam_out))
    minus = np.full((8, 64, 1), -1.0)
    manual_in = FeatureMap("rv", np.concatenate([x_.data, zeros, minus], axis=2), rv)
    enc1 = conv2d_forward(manual_in, plan["unet.enc1"], weights)
    r = conv2d_forward(enc1, plan["unet.res1.conv1"], weights)
    r = conv2d_forward(r, plan["unet.res1.conv2"], weights)
    level1 = FeatureMap("rv", np.maximum(enc1.data + r.data, 0.0), rv)
    down = conv2d_forward(level1, plan["unet.down"], weights)
    r2 = conv2d_forward(down, plan["unet.res2.conv1"], weights)
    r2 = conv2d_forward(r2, plan["unet.res2.conv2"], weights)
    level2 = FeatureMap("rv", np.maximum(down.data + r2.data, 0.0), rv)
    up = conv2d_forward(level2, plan["unet.up"], weights)
    merged = FeatureMap("rv", np.concatenate([up.data[:, :64], level1.data], axis=2), rv)
    want = conv2d_forward(merged, plan["unet.fuse"], weights)
    assert np.array_equal(out.data, want.data)


def test_bev_branch_zero_map_equals_lidar_embedding():
    rng = np.random.default_rng(13)
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=9)
    lidar = FeatureMap("bev", rng.uniform(size=(g.rows, g.cols, 6)), g)
    zero_map = FeatureMap("bev", np.zeros((g.rows, g.cols, 7)), g)
    plan = LayerPlan(cfg, 6)
    out = bev_branch_forward(lidar, zero_map, weights, plan)
    lid = conv2d_forward(conv2d_forward(lidar, plan["bev.lidar1"], weights), plan["bev.lidar2"], weights)
    assert np.array_equal(out.data, lid.data)
    assert out.data.shape == (g.rows, g.cols, cfg.bev_width)


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
        with_map = bev_branch_forward(lidar, map_fm, weights, LayerPlan(cfg, 6))
        without = bev_branch_forward(lidar, zero_map, weights, LayerPlan(cfg, 6))
        deltas.append(with_map.data - without.data)
    assert np.allclose(deltas[0], deltas[1], atol=1e-12)


def test_bev_branch_grid_mismatch_errors():
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=0)
    g = small_grid()
    lidar = FeatureMap("bev", np.zeros((g.rows, g.cols, 6)), g)
    bad_map = FeatureMap("bev", np.zeros((g.rows + 1, g.cols, 7)), g)
    with pytest.raises(ValueError):
        bev_branch_forward(lidar, bad_map, weights, LayerPlan(cfg, 6))


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
    rng = np.random.default_rng(19)
    g = small_grid()
    cfg = tiny_config()
    weights = init_network_weights(cfg, bev_in_channels=6, seed=2)
    zeros = FeatureMap("bev", np.zeros((g.rows, g.cols, cfg.bev_width + cfg.unet_width + 1)), g)
    out = fuse_and_head_forward(zeros, weights, LayerPlan(cfg, 6))
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
    features = rng.normal(size=(g.rows, g.cols, cfg.bev_width + cfg.unet_width))
    validity = rng.choice([-1.0, 1.0], size=(g.rows, g.cols, 1))
    fused = FeatureMap("bev", np.concatenate([features, validity], axis=2), g)
    a = fuse_and_head_forward(fused, weights, LayerPlan(cfg, 6))
    b = fuse_and_head_forward(fused, weights, LayerPlan(cfg, 6))
    for cls in cfg.classes:
        assert np.array_equal(a.prob[cls], b.prob[cls])
        assert np.array_equal(a.centers[cls], b.centers[cls])


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
        conv2d_forward(bad, network_plan(cfg, 6)[-1], weights)
