"""Subsampling front ends against a loop-and-counter oracle."""

import functools
import hashlib
import json
import math
import threading
import time

import numpy as np
import pytest

from lowprec import cli, convsub, parallel
from lowprec.convsub import (
    CONV2D6,
    CONV2D6_X22,
    DWS2D6,
    DWS2D6_X22,
    SUBSAMPLERS,
    ConvLayerSpec,
    LazyWeights,
    SubsamplingConfig,
    conv2d_forward,
    frontend_share,
    init_weights,
    mac_count,
    mac_count_encoder,
    profile_dynamic_range,
    subsampler_graph,
)
from lowprec.floatsim import FP16, log2_bins, parse_format
from lowprec.graphir import execute_traced
from lowprec.streams import write_stream
from oracles import im2col_conv, naive_conv, naive_subsample


def forward(x, config, weights, fmt=None):
    """The subsampler's graph run on one (C, H, W) chunk, and its per-layer
    peaks: each relu node's, then the multiplier's."""
    trace = execute_traced(subsampler_graph(config, x.shape), {"x": x}, weights, fmt, peaks=True)
    return trace, tuple(v for k, v in trace.node_peaks.items() if k.startswith(("relu", "mult")))


def test_builtin_configurations():
    assert [
        (l.in_channels, l.out_channels, l.kernel, l.stride, l.groups)
        for l in CONV2D6.layers
    ] == [(1, 512, (3, 3), (2, 2), 1), (512, 512, (5, 5), (3, 3), 1)]
    assert [
        (l.in_channels, l.out_channels, l.kernel, l.stride, l.groups)
        for l in DWS2D6.layers
    ] == [
        (1, 512, (3, 3), (2, 2), 1),
        (512, 512, (5, 5), (3, 3), 512),
        (512, 512, (1, 1), (1, 1), 1),
    ]
    assert CONV2D6.output_multiplier == 1.0
    assert CONV2D6_X22.output_multiplier == math.sqrt(512.0)
    assert DWS2D6_X22.output_multiplier == math.sqrt(512.0)
    assert set(SUBSAMPLERS) == {"conv2d6", "dws2d6", "conv2d6x22", "dws2d6x22"}


def test_output_geometry_uses_floor():
    l1, l2 = CONV2D6.layers
    assert l1.out_hw(80, 1000) == (39, 499)
    assert l2.out_hw(39, 499) == (12, 165)
    with pytest.raises(ValueError):
        l2.out_hw(4, 100)  # smaller than the kernel


@pytest.mark.parametrize("layer", [
    ConvLayerSpec(1, 4, (3, 3), (2, 2)),
    ConvLayerSpec(4, 6, (3, 2), (2, 1), groups=2),
    ConvLayerSpec(6, 6, (5, 5), (3, 3), groups=6),
    ConvLayerSpec(3, 5, (1, 1), (1, 1)),
])
def test_forward_matches_loop_oracle(layer):
    rng = np.random.default_rng(layer.groups)
    x = rng.normal(size=(layer.in_channels, 11, 13))
    w = rng.normal(size=(layer.out_channels, layer.in_channels // layer.groups,
                         *layer.kernel))
    b = rng.normal(size=layer.out_channels)
    want, n_mult = naive_conv(x, w, b, layer)
    got = conv2d_forward(x, w, b, layer)
    assert np.abs(got - want).max() <= 1e-10
    assert layer.macs(11, 13) == n_mult


@pytest.mark.parametrize("per_block", [1, 4, None])
@pytest.mark.parametrize("layer, hw", [
    (ConvLayerSpec(3, 4, (3, 3), (2, 2)), (11, 13)),
    (ConvLayerSpec(4, 6, (3, 2), (2, 1), groups=2), (11, 13)),
    (ConvLayerSpec(6, 6, (5, 5), (3, 3), groups=6), (11, 13)),
    (DWS2D6.layers[1], (14, 40)),
])
def test_group_blocks_match_the_one_shot_im2col_bit_for_bit(monkeypatch, layer, hw,
                                                            per_block):
    rng = np.random.default_rng(layer.groups)
    x = rng.normal(size=(layer.in_channels, *hw))
    x[0, 2, 3], x[-1, 7, 8], x[layer.in_channels // 2, 5, 5] = np.inf, -np.inf, np.nan
    w = rng.normal(size=(layer.out_channels, layer.in_channels // layer.groups,
                         *layer.kernel))
    b = rng.normal(size=layer.out_channels)
    if per_block is not None:
        # groups per block: 4 leaves a ragged last block of 6 groups; the
        # default puts 27 of the 512 depthwise groups in a block
        oh, ow = layer.out_hw(*hw)
        k = layer.in_channels // layer.groups * layer.kernel[0] * layer.kernel[1]
        monkeypatch.setattr(convsub, "_COLS_BYTES", per_block * k * oh * ow * 8)
    got = conv2d_forward(x, w, b, layer)
    want = im2col_conv(x, w, b, layer)
    assert np.isnan(want).any() and np.isinf(want).any()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_panels_are_fixed_and_leave_no_short_tail():
    assert convsub._panels(1980) == [(0, 512), (512, 1024), (1024, 1536), (1536, 1980)]
    for n in range(1, 3000):
        cuts = [c for panel in convsub._panels(n) for c in panel]
        assert cuts[0] == 0 and cuts[-1] == n and cuts[1:-1:2] == cuts[2:-1:2]
        widths = np.diff(cuts[::2] + [n])
        assert set(widths[:-1]) <= {512} and (widths[-1] >= 256 or len(widths) == 1)


def _every_width_panel_products(owned: bool) -> None:
    """``_panel_gemm`` of a 64 x 64 product at every width 1..2600 against
    one whole-product ``matmul``; the window view is the operand itself."""
    # a 256-column panel is still 64 x 256 x 64 > 10**6 multiply-adds
    m, k, widths = 64, 64, range(1, 2601)
    rng = np.random.default_rng(21)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, widths[-1]))
    bufs = np.empty((2, m * widths[-1]))  # reused: no fresh pages per width
    for n in widths:
        bn, want = (buf[:rows * n].reshape(rows, n) for buf, rows in zip(bufs, (k, m)))
        bn[...] = b[:, :n]
        got = convsub._panel_gemm(bn.reshape(k, 1, 1, 1, n), lambda: a, m, owned)
        np.matmul(a, bn, out=want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


def test_panel_product_has_the_bits_of_one_matmul_at_every_width(one_blas_thread):
    # the whole-column order: each panel multiplies a slice of one copy
    _every_width_panel_products(owned=False)


def test_owned_panel_products_have_the_bits_of_one_matmul_at_every_width(one_blas_thread):
    # the owned order: each panel multiplies a freshly allocated contiguous
    # copy, whose leading dimension is the panel's width
    _every_width_panel_products(owned=True)


def _spy_panel_gemm(monkeypatch) -> list:
    """Record the operand shapes and the column order of every split GEMM."""
    calls, real = [], convsub._panel_gemm

    def spy(win, filters, m, owned):
        k, n = win.shape[0] * win.shape[1] * win.shape[2], win.shape[3] * win.shape[4]
        calls.append(((m, k), (k, n), owned))
        return real(win, filters, m, owned)

    monkeypatch.setattr(convsub, "_panel_gemm", spy)
    return calls


def _spy_columns(monkeypatch) -> list:
    """Record the column range of every im2col copy, once it is made."""
    copies, real = [], convsub._columns

    def spy(win, c0, c1):
        cols = real(win, c0, c1)
        copies.append((c0, c1))
        return cols

    monkeypatch.setattr(convsub, "_columns", spy)
    return copies


def test_only_the_long_dense_gemms_are_split(monkeypatch):
    calls = _spy_panel_gemm(monkeypatch)
    x = np.random.default_rng(0).normal(size=(30, 40))
    for name in sorted(SUBSAMPLERS):
        profile_dynamic_range([x], SUBSAMPLERS[name], init_weights(SUBSAMPLERS[name], 0))
    # conv2d6 layer 1 and the dws2d6 1x1 layer, each with and without x22
    assert [a for a, _, _ in calls] == [(512, 12800)] * 2 + [(512, 512)] * 2


@pytest.mark.parametrize("config, i", [(CONV2D6, 1), (DWS2D6, 2)], ids=["conv2d6", "dws2d6"])
def test_split_frontend_gemms_have_the_bits_of_one_matmul(monkeypatch, one_blas_thread,
                                                          config, i):
    # the layer's input for one 80x1000 chunk, with saturated entries; on
    # two CPUs conv2d6 copies its columns panel by panel, dws2d6 at once
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    h, w = 80, 1000
    for layer in config.layers[:i]:
        h, w = layer.out_hw(h, w)
    layer = config.layers[i]
    rng = np.random.default_rng(i)
    x = rng.random((layer.in_channels, h, w))
    x[0, 2, 3], x[-1, 7, 8], x[9, 5, 5] = np.inf, -np.inf, np.nan
    k = layer.in_channels * layer.kernel[0] * layer.kernel[1]
    wt = rng.normal(0.0, 1.0 / math.sqrt(k), (layer.out_channels, layer.in_channels,
                                              *layer.kernel))
    b = rng.normal(size=layer.out_channels)
    calls = _spy_panel_gemm(monkeypatch)
    got = conv2d_forward(x, wt, b, layer)
    assert calls == [((512, k), (k, 1980), config is CONV2D6)]
    want = im2col_conv(x, wt, b, layer)
    assert np.isnan(want).any() and np.isinf(want).any()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cpus", [1, 2, 8], indirect=True)
def test_a_weight_function_runs_once_after_the_first_panel_is_copied(monkeypatch, cpus):
    # 2048 positions in four panels: one or two panel copies at once peak
    # below the whole copy, four do not
    layer = ConvLayerSpec(64, 512, (5, 5), (1, 1))
    rng = np.random.default_rng(7)
    x = rng.normal(size=(64, 36, 68))
    wt = rng.normal(size=(512, 64, 5, 5))
    b = rng.normal(size=512)
    calls = _spy_panel_gemm(monkeypatch)
    copies = _spy_columns(monkeypatch)
    seen = []

    def weight():
        seen.append(len(copies))
        time.sleep(0.01)  # a second caller would come in meanwhile
        return wt

    got = conv2d_forward(x, weight, b, layer)
    owned = cpus < 8
    assert calls == [((512, 1600), (1600, 2048), owned)]
    assert sorted(copies) == (convsub._panels(2048) if owned else [(0, 2048)])
    assert len(seen) == 1 and seen[0] >= 1
    np.testing.assert_array_equal(got, conv2d_forward(x, wt, b, layer))


def _profile_conv_reports(path, out_dir, *args) -> dict:
    assert cli.main(["profile-conv", str(path), "--out-dir", str(out_dir), *args]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
def test_profile_conv_reports_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                             one_blas_thread, cpus):
    # 56x1000 gives conv2d6 layer 1 and the dws2d6 1x1 layer 8 x 165
    # positions, three panels (conv2d6 copies them in their tasks on one
    # CPU); the reference runs each GEMM as one call
    path = tmp_path / "frames.stream"
    write_stream(path, [np.random.default_rng(6).normal(0.0, 3.0, (56, 1000))])
    args = ("--conv", "conv2d6,dws2d6", "--format", "fp16")
    with monkeypatch.context() as m:
        m.setattr(convsub, "_panel_gemm", lambda win, filters, rows, owned: np.matmul(
            filters(), convsub._columns(win, 0, win.shape[3] * win.shape[4])))
        want = _profile_conv_reports(path, tmp_path / "one_call", *args)
    calls = _spy_panel_gemm(monkeypatch)
    assert _profile_conv_reports(path, tmp_path / "panels", *args) == want
    assert [b for _, b, _ in calls] == [(12800, 1320), (512, 1320)]
    assert [owned for _, _, owned in calls] == [cpus == 1, False]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_panel_threads_keep_the_callers_numpy_error_state(tmp_path, cpus):
    # fp16 rounds the input to +-inf, so the GEMMs make inf - inf; the
    # forward ignores that, on the helper thread as on the calling one
    path = tmp_path / "loud.stream"
    write_stream(path, [np.random.default_rng(3).normal(0.0, 1e5, (40, 1000))])
    _profile_conv_reports(path, tmp_path / "out", "--format", "fp16",
                          "--conv", "conv2d6,dws2d6")


def _same(a: float, b: float) -> bool:
    """Equal floats with equal signs, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("fill, want", [
    (0.0, 0.0),        # zero input, -0.0 biases: every output is a zero
    (1e6, math.inf),   # one pixel saturates fp16: inf, then inf - inf
    (np.nan, math.nan),
])
def test_layer_peaks_are_the_max_magnitude_of_each_output(fill, want):
    wts = init_weights(DWS2D6_X22, 4)
    for i in range(len(DWS2D6_X22.layers)):
        wts[f"layer{i}.bias"] = np.full(512, -0.0)
    x = np.zeros((1, 30, 40)) if fill == 0.0 else np.random.default_rng(5).normal(
        size=(1, 30, 40))
    x[0, 5, 5] = fill
    trace, peaks = forward(x, DWS2D6_X22, wts, FP16)
    out = trace.outputs["y"]
    outs = [forward(x, SubsamplingConfig("head", DWS2D6_X22.layers[:n]),
                    wts, FP16)[0].outputs["y"] for n in (1, 2, 3)] + [out]
    assert len(peaks) == len(outs) == 4
    for peak, o in zip(peaks, outs):
        assert _same(peak, float(np.abs(o).max()))
    assert _same(peaks[0], want)


def test_whole_frontend_matches_loop_oracle():
    # same geometry as the real front ends, channels cut down so the python
    # loops finish quickly
    small_dws = SubsamplingConfig("small", (
        ConvLayerSpec(1, 8, (3, 3), (2, 2)),
        ConvLayerSpec(8, 8, (5, 5), (3, 3), groups=8),
        ConvLayerSpec(8, 8, (1, 1), (1, 1)),
    ), output_multiplier=math.sqrt(8.0))
    rng = np.random.default_rng(0)
    wts = init_weights(small_dws, 1)
    x = rng.normal(size=(1, 30, 40))
    want, n_mult = naive_subsample(x, small_dws, wts)
    trace, _ = forward(x, small_dws, wts)
    got = trace.outputs["y"]
    assert np.abs(got - want).max() <= 1e-10
    assert mac_count(small_dws, (30, 40)).total == n_mult
    assert trace.total_overflow.total == 0  # double mode performs no quantization


def test_mac_counts_for_the_real_frontends():
    mc = mac_count(CONV2D6, (80, 1000))
    assert mc.per_layer == (89676288, 12976128000)
    assert mc.total == 13065804288
    assert mc.output_shape == (512, 12, 165)
    md = mac_count(DWS2D6, (80, 1000))
    assert md.per_layer == (89676288, 25344000, 519045120)
    assert md.total == 634065408
    assert md.output_shape == mc.output_shape
    # the separable variant strips better than an order of magnitude
    assert 20.0 < mc.total / md.total < 21.0


def test_encoder_mac_formula():
    one = 4 * 1 * 512 * 512 + 2 * 1 * 1 * 512 + 2 * 1 * 512 * 2048
    assert mac_count_encoder(1) == 12 * one
    assert mac_count_encoder(165) == 6563082240


def test_frontend_share_is_reported_not_flattered():
    conv = frontend_share(CONV2D6, (80, 1000))
    dws = frontend_share(DWS2D6, (80, 1000))
    assert conv["seq_len"] == dws["seq_len"] == 165
    assert dws["share"] < conv["share"]
    assert conv["share"] == pytest.approx(0.6656, abs=1e-3)
    assert dws["share"] == pytest.approx(0.0881, abs=1e-3)


def test_weight_shapes_and_scaling():
    wts = init_weights(DWS2D6, 7)
    assert wts["layer0.weight"].shape == (512, 1, 3, 3)
    assert wts["layer1.weight"].shape == (512, 1, 5, 5)
    assert wts["layer2.weight"].shape == (512, 512, 1, 1)
    assert np.all(wts["layer0.bias"] == 0.0)
    # std close to 1/sqrt(fan-in)
    assert wts["layer2.weight"].std() == pytest.approx(1 / math.sqrt(512), rel=0.05)
    again = init_weights(DWS2D6, 7)
    for k in wts:
        np.testing.assert_array_equal(wts[k], again[k])
    # every bit, in key order: the profile-conv reports depend on them
    digest = hashlib.sha256(b"".join(k.encode() + t.tobytes() for k, t in wts.items()))
    assert digest.hexdigest() == (
        "44544d12a9cd3ef0773442ce958b376ac09addbddab51952af2151d33ad6ada3")


def test_output_multiplier_is_exact_in_double():
    rng = np.random.default_rng(3)
    wts = init_weights(DWS2D6, 5)
    x = rng.normal(0.0, 1.0, (1, 80, 60))
    plain = forward(x, DWS2D6, wts)[0].outputs["y"]
    scaled = forward(x, DWS2D6_X22, wts)[0].outputs["y"]
    assert np.abs(scaled - plain * math.sqrt(512.0)).max() < 1e-12
    assert np.all(plain >= 0.0)  # last op before the multiplier is a ReLU


def test_quantized_forward_counts_overflow():
    wts = init_weights(CONV2D6, 2)
    x = np.full((1, 30, 40), 50000.0)
    assert forward(x, CONV2D6, wts, FP16)[0].total_overflow.overflow > 0
    assert forward(x * 1e-4, CONV2D6, wts, FP16)[0].total_overflow.overflow == 0


def test_a_nan_layer_peak_shows_whichever_chunk_holds_it():
    # x * 1e5 overflows fp16 at every layer, so its layer peaks are NaN
    wts = init_weights(DWS2D6, 0)
    x = np.random.default_rng(0).normal(0.0, 1.0, (30, 40))
    first = profile_dynamic_range([x, x * 1e5], DWS2D6, wts, FP16).per_layer_peak
    last = profile_dynamic_range([x * 1e5, x], DWS2D6, wts, FP16).per_layer_peak
    assert len(first) == 3 and all(math.isnan(p) for p in first)
    assert np.array_equal(first, last, equal_nan=True)


def test_quantized_forward_holds_no_second_copy_of_a_layer_output(traced_peak):
    # Each layer output is rounded in place, so the fp16 forward peaks where
    # the float64 one does: at the largest layer output and its conv.
    wts = init_weights(DWS2D6, 0)
    x = np.random.default_rng(0).normal(0.0, 2.0, (1, 80, 200))
    fp16 = traced_peak(lambda: forward(x, DWS2D6, wts, FP16))
    exact = traced_peak(lambda: forward(x, DWS2D6, wts))
    assert fp16 <= 1.05 * exact


def test_profile_conv_frees_a_dense_layers_input_before_drawing_its_weights(
        tmp_path, traced_peak):
    # conv2d6 layer 1 needs its columns whole; beside them the command may
    # hold the layer-0 output while it copies them, or the weights and the
    # product during the GEMM, but never all four at once
    h, w = 40, 400
    path = tmp_path / "frames.stream"
    write_stream(path, [np.random.default_rng(0).normal(size=(h, w))])
    l0, l1 = CONV2D6.layers
    oh0, ow0 = l0.out_hw(h, w)
    oh1, ow1 = l1.out_hw(oh0, ow0)
    k = l1.in_channels * l1.kernel[0] * l1.kernel[1]
    layer0_out = 8 * l0.out_channels * oh0 * ow0
    cols = 8 * k * oh1 * ow1
    weights = 8 * l1.out_channels * k
    product = 8 * l1.out_channels * oh1 * ow1
    peak = traced_peak(lambda: cli.main(["profile-conv", str(path), "--conv", "conv2d6",
                                         "--out-dir", str(tmp_path / "out")]))
    allowed = 1.02 * max(layer0_out + cols, cols + weights + product) + (1 << 20)
    assert layer0_out + cols + weights + product > allowed
    assert peak <= allowed


def _conv2d6_layer1_bytes(h: int, w: int) -> tuple[int, ...]:
    """Bytes of conv2d6 layer 1 on one h x w chunk: its input, its whole
    columns, its weights, its product and one 512-column panel."""
    l0, l1 = CONV2D6.layers
    oh0, ow0 = l0.out_hw(h, w)
    oh1, ow1 = l1.out_hw(oh0, ow0)
    k = l1.in_channels * l1.kernel[0] * l1.kernel[1]
    return (8 * l0.out_channels * oh0 * ow0, 8 * k * oh1 * ow1, 8 * l1.out_channels * k,
            8 * l1.out_channels * oh1 * ow1, 8 * k * 512)


def _traced_profile_conv(tmp_path, traced_peak, h: int, w: int) -> int:
    path = tmp_path / "frames.stream"
    write_stream(path, [np.random.default_rng(0).normal(size=(h, w))])
    return traced_peak(lambda: cli.main(["profile-conv", str(path), "--conv", "conv2d6",
                                         "--out-dir", str(tmp_path / "out")]))


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_profile_conv_copies_a_long_chunks_panels_in_their_tasks(tmp_path, monkeypatch,
                                                                  traced_peak, cpus):
    # at 80x1000 conv2d6 layer 1 has 1980 positions in four panels; with one
    # or two panel copies at a time the layer holds less than its input
    # beside its whole columns
    layer_in, cols, weights, product, panel = _conv2d6_layer1_bytes(80, 1000)
    copies = _spy_columns(monkeypatch)
    peak = _traced_profile_conv(tmp_path, traced_peak, 80, 1000)
    allowed = layer_in + weights + product + min(cpus, 4) * panel + (1 << 20)
    assert allowed < layer_in + cols
    assert sorted(copies) == convsub._panels(1980)
    assert peak <= allowed


@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_profile_conv_copies_a_short_chunks_columns_at_once(tmp_path, monkeypatch,
                                                            traced_peak, cpus):
    # at 40x1000 conv2d6 layer 1 has 825 positions in two panels; its whole
    # columns peak lower than its input, weights and product beside a panel
    layer_in, cols, weights, product, _ = _conv2d6_layer1_bytes(40, 1000)
    copies = _spy_columns(monkeypatch)
    peak = _traced_profile_conv(tmp_path, traced_peak, 40, 1000)
    assert copies == [(0, 825)]
    assert peak <= 1.02 * max(layer_in + cols, cols + weights + product) + (1 << 20)


@pytest.mark.parametrize("cpus", [3], indirect=True)
def test_profile_conv_copies_a_later_chunks_panels_in_their_tasks(tmp_path, monkeypatch,
                                                                   traced_peak, cpus):
    # on three CPUs the first 80x1000 chunk copies conv2d6 layer 1's columns
    # whole, its weights not drawn yet; the second chunk finds them held, and
    # beside them whole columns would peak above three owned panels
    layer_in, cols, weights, product, panel = _conv2d6_layer1_bytes(80, 1000)
    frames = np.random.default_rng(0).normal(size=(80, 1000))
    path = tmp_path / "frames.stream"
    write_stream(path, [frames, frames])
    copies = _spy_columns(monkeypatch)
    peak = traced_peak(lambda: cli.main(["profile-conv", str(path), "--conv", "conv2d6",
                                         "--out-dir", str(tmp_path / "out")]))
    allowed = layer_in + weights + product + 3 * panel + 2 * frames.nbytes + (1 << 20)
    assert cols + weights + layer_in > allowed
    assert copies[0] == (0, 1980)
    assert sorted(copies[1:]) == convsub._panels(1980)
    assert peak <= allowed


@pytest.mark.parametrize("cpus", [3], indirect=True)
def test_whole_columns_are_copied_before_the_product_is_allocated(monkeypatch, traced_peak,
                                                                   cpus):
    # on three CPUs conv2d6 layer 1 copies an 80x1000 chunk's columns whole,
    # its weights looked up late; the product is allocated once the input is
    # dropped, so the input, the columns and the product are never all live
    layer_in, cols, weights, product, _ = _conv2d6_layer1_bytes(80, 1000)
    l0, layer = CONV2D6.layers
    oh0, ow0 = l0.out_hw(80, 1000)
    rng = np.random.default_rng(4)
    copies = _spy_columns(monkeypatch)

    def forward():
        held = [rng.random((layer.in_channels, oh0, ow0))]  # the call's only reference
        conv2d_forward(held.pop(), lambda: rng.normal(
            size=(layer.out_channels, layer.in_channels, *layer.kernel)),
            np.zeros(layer.out_channels), layer)

    peak = traced_peak(forward)
    order, modelled = convsub._copy_order(layer, layer_in, 1980, held=False)
    assert (order, modelled) == ("whole", cols + max(layer_in, weights + product))
    assert copies == [(0, 1980)]
    assert peak <= modelled + (1 << 20) < layer_in + cols + product


_FRAMES = np.random.default_rng(8).normal(0.0, 4.0, (31, 40))


@functools.cache
def _init_weights(name: str) -> dict:
    return init_weights(SUBSAMPLERS[name], 3)


@pytest.mark.parametrize("chunks", [[_FRAMES[:24]], [_FRAMES[:20], _FRAMES, _FRAMES[5:]]],
                         ids=["one-chunk", "three-chunks"])
@pytest.mark.parametrize("fmt", ["none", "fp16", "custom:3,4"])
@pytest.mark.parametrize("name", sorted(SUBSAMPLERS))
def test_lazy_weights_profile_bit_for_bit_as_init_weights(name, fmt, chunks):
    config = SUBSAMPLERS[name]
    fmt = None if fmt == "none" else parse_format(fmt)
    eager = _init_weights(name)
    lazy = LazyWeights(config, 3)
    want = profile_dynamic_range(chunks, config, eager, fmt).to_json_dict()
    got = profile_dynamic_range(chunks, config, lazy, fmt).to_json_dict()
    assert json.dumps(got) == json.dumps(want)  # floats at full repr
    assert sorted(lazy) == sorted(eager)
    for key, tensor in eager.items():
        assert lazy[key].dtype == tensor.dtype
        assert lazy[key].tobytes() == tensor.tobytes(), key


@pytest.mark.parametrize("config, hw, cpus, layers", [
    (CONV2D6, (80, 1000), 1, 2),  # layer 1 copies owned panels, its weights counted
    (CONV2D6, (80, 1000), 2, 2),
    (CONV2D6, (80, 1000), 3, 0),  # layer 1 copies whole columns
    (CONV2D6, (40, 1000), 2, 0),
    (DWS2D6, (80, 1000), 2, 0),   # the 1x1 layer copies whole columns
    (DWS2D6, (80, 1000), 1, 0),
], indirect=["cpus"])
def test_the_weights_drawn_ahead_for_a_first_chunk(config, hw, cpus, layers):
    assert convsub._ahead_layers(config, (1, *hw)) == layers
    lazy = LazyWeights(config, 3)
    wait = lazy.draw_ahead((1, *hw))
    assert (wait is None) == (layers == 0)
    if wait is not None:
        assert wait().tobytes() == _init_weights(config.name)[f"layer{layers - 1}.weight"].tobytes()
        assert sorted(lazy) == sorted(f"layer{i}.bias" for i in range(len(config.layers)))


def _spy_ahead(monkeypatch) -> list:
    """Record every function ``parallel.ahead`` starts."""
    started, real = [], parallel.ahead

    def spy(fn):
        started.append(fn)
        return real(fn)

    monkeypatch.setattr(parallel, "ahead", spy)
    return started


@pytest.mark.parametrize("fmt", ["none", "fp16"])
@pytest.mark.parametrize("cpus", [1, 2], indirect=True)
def test_weights_drawn_ahead_profile_bit_for_bit_as_init_weights(monkeypatch, one_blas_thread,
                                                                 cpus, fmt):
    # an 80x1000 first chunk draws layer 1's weights ahead; the second finds them held
    fmt = None if fmt == "none" else parse_format(fmt)
    frames = np.random.default_rng(9).normal(0.0, 4.0, (80, 1000))
    chunks = [frames, frames[:40]]
    want = profile_dynamic_range(chunks, CONV2D6, _init_weights("conv2d6"), fmt).to_json_dict()
    started = _spy_ahead(monkeypatch)
    got = profile_dynamic_range(chunks, CONV2D6, LazyWeights(CONV2D6, 3), fmt).to_json_dict()
    assert len(started) == 1
    assert json.dumps(got) == json.dumps(want)  # floats at full repr


@pytest.mark.parametrize("cpus", [2], indirect=True)
def test_profile_conv_leaves_no_helper_thread_running(tmp_path, monkeypatch, cpus):
    path = tmp_path / "frames.stream"
    write_stream(path, [np.random.default_rng(0).normal(size=(80, 1000))])
    started = _spy_ahead(monkeypatch)
    before = threading.active_count()
    _profile_conv_reports(path, tmp_path / "out", "--conv", "conv2d6,dws2d6")
    assert len(started) == 1 and threading.active_count() == before


def test_lazy_weights_draw_in_layer_order_whichever_is_asked_first():
    eager = init_weights(DWS2D6, 11)
    lazy = LazyWeights(DWS2D6, 11)
    assert sorted(lazy) == ["layer0.bias", "layer1.bias", "layer2.bias"]
    last = lazy["layer2.weight"]  # draws layers 0 and 1 on the way
    assert sorted(lazy) == sorted(eager)
    assert last.tobytes() == eager["layer2.weight"].tobytes()
    assert lazy["layer0.weight"].tobytes() == eager["layer0.weight"].tobytes()
    assert lazy["layer2.weight"] is last
    with pytest.raises(KeyError):
        lazy["layer3.weight"]


def test_two_dimensional_input_is_promoted():
    wts = init_weights(CONV2D6, 2)
    x = np.random.default_rng(0).normal(size=(30, 40))
    a = profile_dynamic_range([x], CONV2D6, wts)
    b = profile_dynamic_range([x[None]], CONV2D6, wts)
    assert a == b


def test_range_profile_accounting():
    rng = np.random.default_rng(4)
    wts = init_weights(DWS2D6_X22, 1)
    chunks = [rng.normal(0.0, 4.0, (1, 30, 30)) for _ in range(6)]
    prof = profile_dynamic_range(chunks, DWS2D6_X22, wts, FP16)
    assert len(prof.per_chunk_peak) == 6
    assert sum(prof.histogram_counts) == 6
    assert len(prof.histogram_counts) == len(prof.histogram_log2_edges) - 1
    assert len(prof.per_layer_peak) == 4  # three layers plus the multiplier
    assert prof.config_name == "dws2d6x22" and prof.fmt_name == "fp16"
    d = prof.to_json_dict()
    assert d["chunks"] == 6 and d["quantize"]["total"] == prof.overflow.total
    again = profile_dynamic_range(chunks, DWS2D6_X22, wts, FP16)
    assert again == prof  # deterministic


def test_log2_bins_share_one_rule():
    peaks = [0.0, 1e-40, 0.75, 1.0, 3.0, 2.06e35, 1e308, math.inf]
    assert log2_bins(peaks).tolist() == [-100, -100, -1, 0, 1, 117, 1023, 1023]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype, peaks, bins", [
    (np.float16, [0.0, 6e-8, 1.0, 65504.0, math.inf], [-100, -24, 0, 15, 1023]),
    (np.float32, [0.0, 1e-40, 3.0, 3.4e38, math.inf], [-100, -100, 1, 127, 1023]),
])
def test_log2_bins_clip_past_the_peaks_own_dtype(dtype, peaks, bins):
    assert log2_bins(np.array(peaks, dtype=dtype)).tolist() == bins


@pytest.mark.parametrize("fmt,peak,edges", [
    (None, 1.7766751014301652e+33, (110, 111)),  # exact, far past fp16's range
    (FP16, math.inf, (1023, 1024)),  # every output saturated: the top bin
])
def test_range_profile_bins_huge_and_saturated_peaks(fmt, peak, edges):
    x = np.random.default_rng(0).normal(0.0, 1e33, (20, 40))
    prof = profile_dynamic_range([x], DWS2D6, init_weights(DWS2D6, 0), fmt)
    assert prof.per_chunk_peak == (peak,)
    assert prof.histogram_log2_edges == edges and prof.histogram_counts == (1,)


def test_profile_rejects_empty_stream():
    with pytest.raises(ValueError):
        profile_dynamic_range([], DWS2D6, init_weights(DWS2D6, 0))


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        ConvLayerSpec(3, 4, (3, 3), (1, 1), groups=2)
    with pytest.raises(ValueError):
        ConvLayerSpec(1, 4, (0, 3), (1, 1))
    with pytest.raises(ValueError):
        SubsamplingConfig("bad", (
            ConvLayerSpec(1, 8, (3, 3), (2, 2)),
            ConvLayerSpec(16, 8, (1, 1), (1, 1)),
        ))
    for multiplier in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError):
            SubsamplingConfig("bad", CONV2D6.layers, multiplier)
