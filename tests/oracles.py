"""Independent reference implementations used by several test modules.

Deliberately written in the dumbest possible style (explicit Python loops,
an explicit multiply counter) so they share no code path, vectorization
trick, or library routine with the package under test. The quantizer
oracle rounds through frexp/ldexp/rint, the package through integer
operations on the float64 bit pattern.
"""

import numpy as np

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
