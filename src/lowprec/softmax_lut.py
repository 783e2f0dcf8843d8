"""Softmax built from a small exponential lookup table plus input rescaling.

The exponential is replaced by linear interpolation over a fixed table on
[-16, 0]; anything below the table underflows to an exact zero and anything
above clamps to the top entry. Inputs whose maximum exceeds a threshold are
first pulled back by x -> threshold * x / max(x), which keeps the dominant
entries inside a range the table (and a 16-bit float) can express. With
1024 entries the interpolation itself is accurate to about 3.1e-5 relative,
far below half-precision resolution.
"""

from __future__ import annotations

import numpy as np

from lowprec.floatsim import QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401

# Rows whose max exceeds this are pulled back to it before the table exp.
RESCALE_THRESHOLD = 4096.0


class ExpLUT:
    """Uniform-grid table of exp over [domain_lo, domain_hi]."""

    domain_lo = -16.0
    domain_hi = 0.0
    entries = 1024

    def __init__(self):
        self.grid = np.linspace(self.domain_lo, self.domain_hi, self.entries)
        self.step = (self.domain_hi - self.domain_lo) / (self.entries - 1)
        self.values = np.exp(self.grid)

    def __call__(self, x) -> np.ndarray:
        """Interpolated exp; below-domain inputs become exactly zero."""
        x = np.asarray(x, dtype=np.float64)
        out = np.asarray(np.interp(x, self.grid, self.values))  # 0-d for a scalar
        np.copyto(out, 0.0, where=x < self.domain_lo)
        return out


_LUT = ExpLUT()


def _hot_ratio(x, mx):
    """x / mx for hot rows, with the infinite-max limit taken explicitly.

    When the max has saturated to infinity, dividing by it would turn the
    row to nan; the limiting behavior keeps entries equal to the max at 1
    and sends every other finite entry to 0 (and -inf stays -inf, which
    later underflows the exp table to an exact zero).
    """
    with np.errstate(invalid="ignore"):
        ratio = x / mx
    bad = np.isinf(mx)
    if np.any(bad):
        ratio = np.where(bad & (x == mx), 1.0, ratio)
        ratio = np.where(bad & (x != mx) & np.isfinite(x), 0.0, ratio)
        ratio = np.where(bad & np.isneginf(x), -np.inf, ratio)
    return ratio


def softmax_reference(x) -> np.ndarray:
    """Max-subtracted float64 softmax over the last axis, the comparison baseline."""
    x = np.asarray(x, dtype=np.float64)
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def hot_rows(peak) -> np.ndarray:
    """Which rows ``softmax_lut`` rescales, given each row's max ``peak``."""
    return np.asarray(peak) > RESCALE_THRESHOLD


def softmax_lut(x, rec: QuantRecorder | None = None) -> np.ndarray:
    """Softmax over the last axis via rescale + table exp, rounded into ``rec``.

    ``x`` is already in ``rec.fmt``. Rows whose max exceeds
    ``RESCALE_THRESHOLD`` are first mapped by x -> RESCALE_THRESHOLD * x /
    max(x); other rows pass through untouched. Each stage is rounded into
    ``rec``: the rescale ratio and product (on rescaled rows only), the
    max-subtracted values, the table outputs, the row total, and the final
    quotient. The total is accumulated in a wide register and rounded once;
    chaining narrow partial sums instead would put the row-sum error at
    levels*u and break the 1e-3 normalization guarantee for wide rows (u
    being the format's unit roundoff). With one rounding on the total and
    one on each quotient the deviation of the output sum from 1 is bounded
    by 2u + u^2, about 9.8e-4 in half precision. With ``rec=None`` every
    stage runs in float64.
    """
    if rec is None:
        rec = QuantRecorder(None)
    x = np.array(x, dtype=np.float64)  # every later stage works in place on it
    mx = np.max(x, axis=-1, keepdims=True)
    hot = hot_rows(mx[..., 0])
    if np.any(hot):
        ratio = _hot_ratio(x[hot], mx[hot])
        rec.q(ratio, out=ratio)
        ratio *= RESCALE_THRESHOLD
        x[hot] = rec.q(ratio, out=ratio)
        mx = np.max(x, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf on saturated rows gives nan
        x -= mx
    rec.q(x, out=x)
    e = _LUT(x)
    rec.q(e, out=e)
    total = rec.q(e.sum(axis=-1, keepdims=True))
    e /= total
    return rec.q(e, out=e)
