"""Convolutional subsampling front ends: conv layers, graphs, MAC counts, range profiling.

Implements the two-layer vanilla subsampler and its depthwise-separable
replacement (a grouped 5x5 followed by a 1x1 mix), both reducing the time
axis by 6. Convolutions are valid (no padding) with floor output sizes and
a ReLU after every layer. The optional sqrt(512) output multiplier mirrors
the transformer embedding scale and is the main driver of large activation
magnitudes downstream, which is why the range profiler lives here.

A front end runs as a graph (``subsampler_graph``) through
``graphir.execute_traced``, which rounds each conv output and the
multiplied result; arithmetic inside a convolution stays in float64, so the
simulation tracks activation range rather than accumulator rounding.

``conv2d_forward`` builds its im2col columns one block of groups at a time
(about ``_COLS_BYTES`` of columns per block) and multiplies each block into
a preallocated output. numpy's stacked ``matmul`` already makes one BLAS
call per group, so splitting the stack along the group axis makes the same
calls on the same operands and changes no bit. The depthwise layer's
columns thus never exist at once (512 x 25 x 1980 float64, 203 MB, for one
80x1000 chunk).

A dense layer is one group and so one block, and one GEMM. A large one is
computed as column panels of the output positions, each one BLAS call
written straight into its slice of ``out``, and the panels are spread over
every usable CPU. A panel gives the bits of the same columns of one
whole-product call only if it is large. Measured with OpenBLAS 0.3.31
(SkylakeX kernels, one thread) at k = 64: with 512 output channels, a last
panel shorter than 192 columns whose width is not a multiple of 8 changed
its last few columns (tails 1, 76, 164, 188 and 189 among them); with 16,
panels changed bits at most widths from 977 on, where the whole product
passes 10**6 multiply-adds and leaves BLAS's small-matrix kernel. So
only a GEMM with at least ``_PANEL`` output channels and reduction length
is split, in panels of ``_PANEL`` = 512 columns with a remainder under 256
folded into the last panel: conv2d6 layer 1 (k = 12800) and the dws2d6 1x1
layer (k = 512), whose 1980 positions per 80x1000 chunk split as
512/512/512/444. The layout follows from the shapes alone, so no bit
depends on the CPU count. Layer 0 (k = 9) stays one call: its GEMM writes
one output per 9 multiply-adds, so memory bounds it, and its panels ran
1.35x slower on one thread and only about 10 % faster on two.

The executor hands each conv2d node's call the only reference to its
input, and ``conv2d_forward`` looks the weight up late (a ``LazyWeights``
draws it on that first lookup), so a layer's largest buffers are not all
live at once. A layer whose GEMM is not split drops its input once its last group
block is copied, and only then looks up the weight. A split GEMM copies its
columns in one of two orders, whichever peaks lower by these formulas:

- whole columns: copy every column, drop the input, then look up the
  weight. Peak: columns + max(input, weights + product), or columns +
  weights + max(input, product) for a weight passed as an array, which
  a conv2d node does once ``LazyWeights`` holds it.
- owned panels: each panel's task copies its own columns from the window
  view into an array it owns. The first task to finish its copy looks up
  the weight, once and under a lock (``LazyWeights`` is not thread-safe),
  and the input is dropped after the last panel is copied. Peak: input +
  weights + product + min(usable CPUs, panels) x widest panel.

README.md works these through for conv2d6 layer 1: on one 80x1000 chunk
owned panels peak lower up to two CPUs, or up to three once the weights
are drawn. Either way each panel is one BLAS call on the same values in
the same ``_panels`` layout, and the tests check both orders for the bits
of one call at every width up to 2600. Grouped layers keep their input for
all group blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowprec import graphir, parallel
from lowprec.floatsim import FloatFormat, OverflowStats, log2_bins
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
        # an embedding scale: it keeps the ReLU outputs' signs, and a graph
        # scale factor must be finite
        if not 0 < self.output_multiplier < math.inf:
            raise ValueError(f"output multiplier {self.output_multiplier} "
                             "is not positive and finite")
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


# Target bytes of im2col columns per group block in conv2d_forward (a
# larger group is a block of its own): a block stays in L2 between its copy
# and its matmul. For dws2d6 this is one 396 KB group per block, which ran
# faster than blocks of 1 to 8 MiB.
_COLS_BYTES = 1 << 18

# Output positions per column panel of a dense GEMM that conv2d_forward
# splits; a remainder under half a panel joins the last panel.
_PANEL = 512


def _panels(n: int) -> list[tuple[int, int]]:
    """Column ranges of ``n`` positions: panels of ``_PANEL`` columns, the
    last 256 to 767 wide (or all ``n`` when fewer than 768)."""
    cuts = list(range(0, n, _PANEL))
    if len(cuts) > 1 and n - cuts[-1] < _PANEL // 2:
        cuts.pop()
    return list(zip(cuts, cuts[1:] + [n]))


def _columns(win, c0: int, c1: int) -> np.ndarray:
    """Columns ``c0:c1`` of the im2col matrix of a (C, kh, kw, oh, ow)
    window view (output positions in row-major order), copied into a new
    (C*kh*kw, c1 - c0) array one output row's segment at a time."""
    c, kh, kw, _, ow = win.shape
    cols = np.empty((c, kh, kw, c1 - c0))
    for r in range(c0 // ow, -(-c1 // ow)):
        s0, s1 = max(c0, r * ow), min(c1, (r + 1) * ow)
        cols[..., s0 - c0:s1 - c0] = win[..., r, s0 - r * ow:s1 - r * ow]
    return cols.reshape(c * kh * kw, c1 - c0)


def _panel_gemm(win, filters, out, owned: bool) -> None:
    """``out = filters() @ cols``, ``cols`` being the im2col matrix of the
    (C, kh, kw, oh, ow) window view ``win``: one BLAS call per column panel
    of ``_panels``, the panels spread over every usable CPU.

    The caller passes the only reference to ``win``, and ``filters`` is
    called once. The whole-column order copies every column, drops the
    input and calls ``filters`` on this thread, as an unsplit layer does;
    the panels multiply slices of that one copy. In the owned order
    (``owned``) each panel's task copies its own columns into an array it
    owns, the first task to finish its copy calls ``filters`` under a lock,
    and the input lives until the last panel is copied.
    """
    n = out.shape[1]
    ranges = _panels(n)
    filters = parallel.once(filters)
    if owned:
        held = [[win] for _ in ranges]  # a task drops its panel's reference once copied
        del win
    else:
        cols = _columns(win, 0, n)
        del win
        filters()

    def panel(i):
        c0, c1 = ranges[i]
        b = _columns(held[i].pop(), c0, c1) if owned else cols[:, c0:c1]
        np.matmul(filters(), b, out=out[:, c0:c1])

    parallel.map_in_order(panel, range(len(ranges)), len(ranges))


def conv2d_forward(x, weight, bias, layer: ConvLayerSpec) -> np.ndarray:
    """Valid grouped 2-d convolution of one sample.

    x: (C_in, H, W); weight: (C_out, C_in/groups, kh, kw), or a function of
    no arguments that returns it; bias: (C_out,).

    The im2col columns are built for one block of groups at a time, each
    block's product written into its slice of the output. Each group is
    still one BLAS call on the same operands, so the output bits do not
    depend on the block size; a dense layer is a single block. A dense
    layer with at least ``_PANEL`` output channels and reduction length
    runs its GEMM in column panels on every usable CPU (``_panel_gemm``),
    copying its columns whole or panel by panel, whichever peaks lower; the
    module docstring says why its bits are those of one call. The input is
    dropped once the last block or panel is copied, and a weight function
    is called once, after the first block or panel is (the module docstring
    says why).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != layer.in_channels:
        raise ValueError(f"expected ({layer.in_channels}, H, W) input, got {x.shape}")
    g = layer.groups
    cig = layer.in_channels // g
    cog = layer.out_channels // g
    kh, kw = layer.kernel
    oh, ow = layer.out_hw(x.shape[1], x.shape[2])
    sh, sw = layer.stride
    # (C_in, kh, kw, oh, ow) view; im2col of groups g0:g1 is a copy of
    # channels g0*cig:g1*cig, against (g, cog, cig*kh*kw) filters
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    win = win.transpose(0, 3, 4, 1, 2)
    in_bytes = x.nbytes
    del x  # from here only win's base holds the input
    k = cig * kh * kw
    n = oh * ow

    def filters():
        filt = np.asarray(weight() if callable(weight) else weight, dtype=np.float64)
        if filt.shape != (layer.out_channels, cig, kh, kw):
            raise ValueError(f"bad weight shape {filt.shape}")
        return filt.reshape(g, cog, k)

    out = np.empty((g, cog, n))
    with np.errstate(invalid="ignore"):  # saturated inputs propagate inf/nan
        if g == 1 and min(cog, k) >= _PANEL:
            ranges = _panels(n)
            w_bytes, p_bytes = 8 * cog * k, 8 * cog * n  # the weights, the product
            drawn = 0 if callable(weight) else w_bytes  # held weights stay live
            widest = 8 * k * max(c1 - c0 for c0, c1 in ranges)
            # the owned order's peak bytes against the whole-column order's
            owned = (in_bytes + w_bytes + p_bytes
                     + min(parallel.usable_cpus(), len(ranges)) * widest
                     < 8 * k * n + drawn + max(in_bytes, w_bytes + p_bytes - drawn))
            held = [win]
            del win  # _panel_gemm gets the only reference to the input
            _panel_gemm(held.pop(), lambda: filters()[0], out[0], owned)
        else:
            filt = None
            step = max(1, _COLS_BYTES // (k * n * 8))
            for g0 in range(0, g, step):
                g1 = min(g0 + step, g)
                cols = np.ascontiguousarray(win[g0 * cig:g1 * cig]).reshape(g1 - g0, k, n)
                if g1 == g:  # every block copied: free the input before the GEMM
                    win = None
                if filt is None:
                    filt = filters()
                np.matmul(filt[g0:g1], cols, out=out[g0:g1])
    out = out.reshape(layer.out_channels, oh, ow)
    out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


class LazyWeights(dict):
    """The tensors of ``init_weights(config, seed)``, each weight drawn on
    its first lookup.

    The zero biases are there from the start. Looking up a missing
    ``layer{i}.weight`` draws the weights of every layer up to i that are
    not drawn yet, in layer order, from the one ``default_rng(seed)``, so
    every tensor is bit for bit the one ``init_weights`` returns. Drawn
    tensors stay for later lookups. Like a ``defaultdict``, it iterates
    over only what it holds so far.
    """

    def __init__(self, config: SubsamplingConfig, seed: int):
        super().__init__((f"layer{i}.bias", np.zeros(layer.out_channels))
                         for i, layer in enumerate(config.layers))
        self._layers = config.layers
        self._rng = np.random.default_rng(seed)
        self._drawn = 0

    def __missing__(self, key):
        while self._drawn < len(self._layers):
            layer = self._layers[self._drawn]
            fan_in = layer.kernel[0] * layer.kernel[1] * layer.in_channels // layer.groups
            shape = (layer.out_channels, layer.in_channels // layer.groups, *layer.kernel)
            self[f"layer{self._drawn}.weight"] = self._rng.normal(
                0.0, 1.0 / math.sqrt(fan_in), shape)
            self._drawn += 1
            if key in self:
                return self[key]
        raise KeyError(key)


def init_weights(config: SubsamplingConfig, seed: int) -> dict[str, np.ndarray]:
    """Gaussian weights with std 1/sqrt(fan-in) and zero biases."""
    lazy = LazyWeights(config, seed)
    return {key: lazy[key] for i in range(len(config.layers))
            for key in (f"layer{i}.weight", f"layer{i}.bias")}


def subsampler_graph(config: SubsamplingConfig, shape) -> graphir.Graph:
    """``config`` as a graph on one (C, H, W) chunk of ``shape``: input ``x``;
    per layer i a conv2d ``conv{i}`` that reads tensors ``layer{i}.weight``
    and ``layer{i}.bias``, and a relu ``relu{i}``; then a scale ``mult``
    when the output multiplier is not 1; output ``y``."""
    nodes = [graphir.Node("x", "input", attrs={"shape": list(shape)})]
    for i, layer in enumerate(config.layers):
        nodes += [graphir.Node(f"conv{i}", "conv2d", (nodes[-1].id,), {
            "weight": f"layer{i}.weight", "bias": f"layer{i}.bias",
            "out_features": layer.out_channels, "kernel": list(layer.kernel),
            "stride": list(layer.stride), "groups": layer.groups,
        }), graphir.Node(f"relu{i}", "relu", (f"conv{i}",))]
    if config.output_multiplier != 1.0:
        nodes.append(graphir.Node("mult", "scale", (nodes[-1].id,),
                                  {"factor": config.output_multiplier}))
    nodes.append(graphir.Node("y", "output", (nodes[-1].id,)))
    return graphir.Graph(config.name, nodes, ["x"], ["y"])


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


# The encoder the front end feeds: layers, model width, feed-forward width.
_ENC_LAYERS, _ENC_D, _ENC_FF = 12, 512, 2048


def mac_count_encoder(seq_len: int) -> int:
    """Attention + feed-forward MACs for the whole encoder stack.

    Per layer: 4*S*d^2 for the q/k/v/output projections, 2*S^2*d for the
    score and context products, 2*S*d*d_ff for the feed-forward pair.
    """
    s, d, dff = seq_len, _ENC_D, _ENC_FF
    return _ENC_LAYERS * (4 * s * d * d + 2 * s * s * d + 2 * s * d * dff)


def frontend_share(config: SubsamplingConfig, input_hw: tuple[int, int]) -> dict:
    """How much of the front end + encoder MAC budget the front end takes."""
    mc = mac_count(config, input_hw)
    seq_len = mc.output_shape[-1]  # last axis is time
    enc = mac_count_encoder(seq_len)
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
    """Run every chunk through ``subsampler_graph`` and summarize output
    magnitudes.

    A chunk is (H, W) or (C, H, W). The histogram buckets per-chunk peak
    output magnitude by integer log2 (``log2_bins``), the natural scale for
    judging distance to a float format's ceiling. A per-layer peak is the
    largest over the chunks of a relu node's peak (or the multiplier's),
    NaN if any chunk's is, and ``overflow`` sums the node counts of every
    chunk.
    """
    chunk_peaks, layer_peaks, stats = [], [], OverflowStats()
    for chunk in chunks:
        peak, peaks, chunk_stats = _profile_chunk(chunk, config, weights, fmt)
        chunk_peaks.append(peak)
        layer_peaks.append(peaks)
        stats = stats + chunk_stats
    if not chunk_peaks:
        raise ValueError("empty stream")
    logs = log2_bins(chunk_peaks)
    edges = tuple(range(int(logs.min()), int(logs.max()) + 2))
    return RangeProfile(
        config_name=config.name, fmt_name=None if fmt is None else fmt.name,
        per_chunk_peak=tuple(chunk_peaks),
        per_layer_peak=tuple(map(float, np.max(layer_peaks, axis=0))),  # NaN wins
        histogram_log2_edges=edges,
        histogram_counts=tuple(int(np.count_nonzero(logs == e)) for e in edges[:-1]),
        overflow=stats)


def _profile_chunk(chunk, config, weights, fmt):
    """(largest finite |output| or inf, per-layer peaks, counts) of one chunk;
    its output dies here, before the next chunk's columns exist."""
    x = np.asarray(chunk, dtype=np.float64)
    x = x[None] if x.ndim == 2 else x
    g = subsampler_graph(config, x.shape)
    # looked up at call time, so a wrapper (the benchmark tracer) sees it
    trace = graphir.execute_traced(g, {"x": x}, weights, fmt, peaks=True)
    out = trace.outputs["y"]
    finite = np.abs(out[np.isfinite(out)])
    return (float(finite.max()) if finite.size else math.inf,
            tuple(trace.node_peaks[n.id] for n in g.nodes if n.op in ("relu", "scale")),
            trace.total_overflow)
