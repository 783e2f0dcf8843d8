"""Subsampling front ends against a loop-and-counter oracle."""

import math

import numpy as np
import pytest

from lowprec import convsub
from lowprec.convsub import (
    CONV2D6,
    CONV2D6_X22,
    DWS2D6,
    DWS2D6_X22,
    SUBSAMPLERS,
    ConvLayerSpec,
    SubsamplingConfig,
    conv2d_forward,
    frontend_share,
    init_weights,
    mac_count,
    mac_count_encoder,
    profile_dynamic_range,
    subsample_forward,
)
from lowprec.floatsim import FP16, QuantRecorder, log2_bins
from oracles import im2col_conv, naive_conv, naive_subsample


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
    out, peaks = subsample_forward(x, DWS2D6_X22, wts, QuantRecorder(FP16))
    outs = [subsample_forward(x, SubsamplingConfig("head", DWS2D6_X22.layers[:n]),
                              wts, QuantRecorder(FP16))[0] for n in (1, 2, 3)] + [out]
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
    rec = QuantRecorder(None)
    got, _ = subsample_forward(x, small_dws, wts, rec)
    assert np.abs(got - want).max() <= 1e-10
    assert mac_count(small_dws, (30, 40)).total == n_mult
    assert rec.stats.total == 0  # double mode performs no quantization


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


def test_output_multiplier_is_exact_in_double():
    rng = np.random.default_rng(3)
    wts = init_weights(DWS2D6, 5)
    x = rng.normal(0.0, 1.0, (1, 80, 60))
    plain, _ = subsample_forward(x, DWS2D6, wts, QuantRecorder(None))
    scaled, _ = subsample_forward(x, DWS2D6_X22, wts, QuantRecorder(None))
    assert np.abs(scaled - plain * math.sqrt(512.0)).max() < 1e-12
    assert np.all(plain >= 0.0)  # last op before the multiplier is a ReLU


def test_quantized_forward_counts_overflow():
    wts = init_weights(CONV2D6, 2)
    x = np.full((1, 30, 40), 50000.0)
    rec = QuantRecorder(FP16)
    subsample_forward(x, CONV2D6, wts, rec)
    assert rec.stats.overflow > 0
    rec2 = QuantRecorder(FP16)
    subsample_forward(x * 1e-4, CONV2D6, wts, rec2)
    assert rec2.stats.overflow == 0


def test_quantized_forward_holds_no_second_copy_of_a_layer_output(traced_peak):
    # Each layer output is rounded in place, so the fp16 forward peaks where
    # the float64 one does: at the largest layer output and its conv.
    wts = init_weights(DWS2D6, 0)
    x = np.random.default_rng(0).normal(0.0, 2.0, (80, 200))
    fp16 = traced_peak(lambda: subsample_forward(x, DWS2D6, wts, QuantRecorder(FP16)))
    exact = traced_peak(lambda: subsample_forward(x, DWS2D6, wts, QuantRecorder(None)))
    assert fp16 <= 1.05 * exact


def test_two_dimensional_input_is_promoted():
    wts = init_weights(CONV2D6, 2)
    x = np.random.default_rng(0).normal(size=(30, 40))
    a, _ = subsample_forward(x, CONV2D6, wts, QuantRecorder(None))
    b, _ = subsample_forward(x[None], CONV2D6, wts, QuantRecorder(None))
    np.testing.assert_array_equal(a, b)


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
