"""Independent reference implementations used by several test modules.

Deliberately written in the dumbest possible style (explicit Python loops,
an explicit multiply counter) so they share no code path, vectorization
trick, or library routine with the package under test. The quantizer
oracle rounds through frexp/ldexp/rint, the package through integer
operations on the float64 bit pattern.

``im2col_conv`` is the exception: it is the package's former one-shot
im2col convolution, kept unchanged as the bit-for-bit reference for the
group-blocked one (the loop oracle only agrees to a tolerance).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lowprec.floatsim import FloatFormat, QuantizeStatus


def naive_conv(x, w, b, layer):
    """Grouped valid conv by sextuple loop. Returns (output, multiply count)."""
    g = layer.groups
    cig = layer.in_channels // g
    cog = layer.out_channels // g
    kh, kw = layer.kernel
    sh, sw = layer.stride
    oh = (x.shape[1] - kh) // sh + 1
    ow = (x.shape[2] - kw) // sw + 1
    out = np.zeros((layer.out_channels, oh, ow))
    n_mult = 0
    for o in range(layer.out_channels):
        gi = o // cog
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(cig):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += w[o, c, a, bb] * x[gi * cig + c, i * sh + a, j * sw + bb]
                            n_mult += 1
                out[o, i, j] = acc + b[o]
    return out, n_mult


def im2col_conv(x, weight, bias, layer) -> np.ndarray:
    """Valid grouped 2-d convolution of one sample, one im2col for all groups.

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
    out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def naive_subsample(x, config, weights):
    """Chain naive_conv + ReLU + multiplier. Returns (output, multiply count)."""
    total = 0
    for i, layer in enumerate(config.layers):
        x, n = naive_conv(x, weights[f"layer{i}.weight"],
                          weights[f"layer{i}.bias"], layer)
        x = np.maximum(x, 0.0)
        total += n
    return x * config.output_multiplier, total


def frexp_quantize(xs, fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """Round every element of ``xs`` to the nearest value of ``fmt``.

    Returns (values, codes) where codes holds QuantizeStatus per element.
    Rounding is single-step round-to-nearest-even on the float64 input;
    magnitudes past the overflow rounding boundary saturate to +/-inf.
    """
    x = np.asarray(xs, dtype=np.float64)
    a = np.abs(x)
    codes = np.zeros(x.shape, dtype=np.int8)

    nan = np.isnan(x)
    inf = np.isinf(x)
    zero = a == 0.0
    finite = ~(nan | inf | zero)

    with np.errstate(all="ignore"):
        _, e = np.frexp(a)
        k = e - 1  # floor(log2(|x|)) for finite nonzero input
        keff = np.maximum(k, fmt.min_exponent)
        # |x| / 2**(keff - mantissa_bits) is an exact power-of-two scaling,
        # so np.rint performs the one true round-to-nearest-even step.
        n = np.rint(np.ldexp(a, fmt.mantissa_bits - keff))
        r = np.ldexp(n, keff - fmt.mantissa_bits)

    r = np.where(finite, r, a)

    tiny = finite & (r < fmt.min_normal) & (r != a)
    ovf = (finite & (r > fmt.max_finite)) | inf

    codes[finite & (r != a)] = QuantizeStatus.ROUNDED
    codes[tiny] = QuantizeStatus.UNDERFLOW
    codes[ovf] = QuantizeStatus.OVERFLOW
    r = np.where(ovf, np.inf, r)

    out = np.where(nan, np.nan, np.copysign(r, x))
    return out, codes
