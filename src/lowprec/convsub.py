"""Convolutional subsampling front ends: forward pass, MAC counts, range profiling.

Implements the two-layer vanilla subsampler and its depthwise-separable
replacement (a grouped 5x5 followed by a 1x1 mix), both reducing the time
axis by 6. Convolutions are valid (no padding) with floor output sizes and
a ReLU after every layer. The optional sqrt(512) output multiplier mirrors
the transformer embedding scale and is the main driver of large activation
magnitudes downstream, which is why the range profiler lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowprec.floatsim import FloatFormat, OverflowStats, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401


@dataclass(frozen=True)
class ConvLayerSpec:
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    groups: int = 1

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.groups) < 1:
            raise ValueError("channel and group counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError("groups must divide both channel counts")
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise ValueError("kernel and stride must be positive")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel
        if h < kh or w < kw:
            raise ValueError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
        sh, sw = self.stride
        return (h - kh) // sh + 1, (w - kw) // sw + 1

    def macs(self, h: int, w: int) -> int:
        oh, ow = self.out_hw(h, w)
        per_position = self.kernel[0] * self.kernel[1] * self.in_channels // self.groups
        return oh * ow * self.out_channels * per_position


@dataclass(frozen=True)
class SubsamplingConfig:
    name: str
    layers: tuple[ConvLayerSpec, ...]
    output_multiplier: float = 1.0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_channels != b.in_channels:
                raise ValueError(
                    f"layer chain broken: {a.out_channels} -> {b.in_channels}"
                )


CONV2D6 = SubsamplingConfig("conv2d6", (
    ConvLayerSpec(1, 512, (3, 3), (2, 2)),
    ConvLayerSpec(512, 512, (5, 5), (3, 3)),
))

DWS2D6 = SubsamplingConfig("dws2d6", (
    ConvLayerSpec(1, 512, (3, 3), (2, 2)),
    ConvLayerSpec(512, 512, (5, 5), (3, 3), groups=512),
    ConvLayerSpec(512, 512, (1, 1), (1, 1)),
))

CONV2D6_X22 = SubsamplingConfig("conv2d6x22", CONV2D6.layers, math.sqrt(512.0))
DWS2D6_X22 = SubsamplingConfig("dws2d6x22", DWS2D6.layers, math.sqrt(512.0))

SUBSAMPLERS = {c.name: c for c in (CONV2D6, DWS2D6, CONV2D6_X22, DWS2D6_X22)}


def conv2d_forward(x, weight, bias, layer: ConvLayerSpec) -> np.ndarray:
    """Valid grouped 2-d convolution of one sample.

    x: (C_in, H, W); weight: (C_out, C_in/groups, kh, kw); bias: (C_out,).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != layer.in_channels:
        raise ValueError(f"expected ({layer.in_channels}, H, W) input, got {x.shape}")
    g = layer.groups
    cig = layer.in_channels // g
    cog = layer.out_channels // g
    kh, kw = layer.kernel
    if weight.shape != (layer.out_channels, cig, kh, kw):
        raise ValueError(f"bad weight shape {weight.shape}")
    oh, ow = layer.out_hw(x.shape[1], x.shape[2])
    sh, sw = layer.stride
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    # im2col: (g, cig*kh*kw, oh*ow) columns against (g, cog, cig*kh*kw) filters
    cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(
        g, cig * kh * kw, oh * ow
    )
    filt = np.asarray(weight, dtype=np.float64).reshape(g, cog, cig * kh * kw)
    with np.errstate(invalid="ignore"):  # saturated inputs propagate inf/nan
        out = np.matmul(filt, cols).reshape(layer.out_channels, oh, ow)
    return out + np.asarray(bias, dtype=np.float64)[:, None, None]


def init_weights(config: SubsamplingConfig, seed: int) -> dict[str, np.ndarray]:
    """Gaussian weights with std 1/sqrt(fan-in) and zero biases."""
    rng = np.random.default_rng(seed)
    out = {}
    for i, layer in enumerate(config.layers):
        fan_in = layer.kernel[0] * layer.kernel[1] * layer.in_channels // layer.groups
        shape = (layer.out_channels, layer.in_channels // layer.groups, *layer.kernel)
        out[f"layer{i}.weight"] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)
        out[f"layer{i}.bias"] = np.zeros(layer.out_channels)
    return out


def subsample_forward(x, config: SubsamplingConfig, weights: dict,
                      fmt: FloatFormat | None = None):
    """Run the subsampler on one (C, H, W) sample.

    With a float format, the input and each layer output (and the final
    multiplied result) are quantized; arithmetic inside a convolution stays
    in float64, so the simulation tracks activation range rather than
    accumulator rounding. Returns (output, stats, per-layer peak |values|).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    rec = QuantRecorder(fmt)
    x = rec.q(x)
    peaks = []
    for i, layer in enumerate(config.layers):
        x = conv2d_forward(x, weights[f"layer{i}.weight"],
                           weights[f"layer{i}.bias"], layer)
        x = np.maximum(rec.q(x), 0.0)
        peaks.append(float(np.abs(x).max()))
    if config.output_multiplier != 1.0:
        x = rec.q(x * config.output_multiplier)
        peaks.append(float(np.abs(x).max()))
    return x, rec.stats, tuple(peaks)


@dataclass(frozen=True)
class MacCount:
    per_layer: tuple[int, ...]
    total: int
    output_shape: tuple[int, int, int]


def mac_count(config: SubsamplingConfig, input_hw: tuple[int, int]) -> MacCount:
    """Multiply-accumulate count for one sample, exact integer arithmetic."""
    h, w = input_hw
    per_layer = []
    for layer in config.layers:
        per_layer.append(layer.macs(h, w))
        h, w = layer.out_hw(h, w)
    return MacCount(tuple(per_layer), sum(per_layer),
                    (config.layers[-1].out_channels, h, w))


@dataclass(frozen=True)
class TransformerDims:
    layers: int = 12
    d_model: int = 512
    d_ff: int = 2048
    heads: int = 8


def mac_count_encoder(seq_len: int, dims: TransformerDims = TransformerDims()) -> int:
    """Attention + feed-forward MACs for the whole encoder stack.

    Per layer: 4*S*d^2 for the q/k/v/output projections, 2*S^2*d for the
    score and context products, 2*S*d*d_ff for the feed-forward pair.
    """
    s, d, dff = seq_len, dims.d_model, dims.d_ff
    return dims.layers * (4 * s * d * d + 2 * s * s * d + 2 * s * d * dff)


def frontend_share(config: SubsamplingConfig, input_hw: tuple[int, int],
                   dims: TransformerDims = TransformerDims()) -> dict:
    """How much of the front end + encoder MAC budget the front end takes."""
    mc = mac_count(config, input_hw)
    seq_len = mc.output_shape[-1]  # last axis is time
    enc = mac_count_encoder(seq_len, dims)
    return {
        "config": config.name,
        "input_hw": list(input_hw),
        "frontend_macs": mc.total,
        "encoder_macs": enc,
        "seq_len": seq_len,
        "share": mc.total / (mc.total + enc),
    }


@dataclass(frozen=True)
class RangeProfile:
    config_name: str
    fmt_name: str | None
    per_chunk_peak: tuple[float, ...]
    per_layer_peak: tuple[float, ...]
    histogram_log2_edges: tuple[int, ...]
    histogram_counts: tuple[int, ...]
    overflow: OverflowStats = field(default_factory=OverflowStats)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_name,
            "format": self.fmt_name,
            "chunks": len(self.per_chunk_peak),
            "per_chunk_peak": list(self.per_chunk_peak),
            "per_layer_peak": list(self.per_layer_peak),
            "histogram": {
                "log2_edges": list(self.histogram_log2_edges),
                "counts": list(self.histogram_counts),
            },
            "quantize": {
                "total": self.overflow.total,
                "rounded": self.overflow.rounded,
                "underflow": self.overflow.underflow,
                "overflow": self.overflow.overflow,
            },
        }


def profile_dynamic_range(chunks, config: SubsamplingConfig, weights: dict,
                          fmt: FloatFormat | None = None) -> RangeProfile:
    """Forward every chunk and summarize output magnitudes.

    The histogram buckets per-chunk peak output magnitude by integer log2,
    the natural scale for judging distance to a float format's ceiling.
    """
    peak_per_chunk = []
    layer_peaks = None
    stats = OverflowStats()
    for chunk in chunks:
        out, st, peaks = subsample_forward(chunk, config, weights, fmt)
        finite = np.abs(out[np.isfinite(out)])
        peak_per_chunk.append(float(finite.max()) if finite.size else math.inf)
        stats = stats + st
        layer_peaks = peaks if layer_peaks is None else tuple(
            max(a, b) for a, b in zip(layer_peaks, peaks)
        )
    if not peak_per_chunk:
        raise ValueError("empty stream")

    logs = np.floor(np.log2(np.clip(peak_per_chunk, 1e-30, 1e30))).astype(int)
    lo, hi = int(logs.min()), int(logs.max()) + 1
    edges = tuple(range(lo, hi + 1))
    counts = tuple(int(np.count_nonzero(logs == e)) for e in edges[:-1])
    return RangeProfile(
        config_name=config.name,
        fmt_name=None if fmt is None else fmt.name,
        per_chunk_peak=tuple(peak_per_chunk),
        per_layer_peak=layer_peaks,
        histogram_log2_edges=edges,
        histogram_counts=counts,
        overflow=stats,
    )
