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

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lowprec.floatsim import FloatFormat, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401
from lowprec.streams import StreamFormatError, atomic_write


@dataclass(frozen=True)
class SoftmaxRescaleSpec:
    threshold: float = 4096.0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class ExpLUT:
    """Uniform-grid table of exp over [domain_lo, domain_hi]."""

    domain_lo: float = -16.0
    domain_hi: float = 0.0
    entries: int = 1024
    values: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise ValueError("need domain_lo < domain_hi")
        if self.entries < 2:
            raise ValueError("need at least two table entries")
        if self.values is None:
            object.__setattr__(self, "values", np.exp(self.grid))
        else:
            v = np.asarray(self.values, dtype=np.float64)
            if v.shape != (self.entries,):
                raise ValueError("values length does not match entries")
            object.__setattr__(self, "values", v)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.domain_lo, self.domain_hi, self.entries)

    @property
    def step(self) -> float:
        return (self.domain_hi - self.domain_lo) / (self.entries - 1)

    def __call__(self, x) -> np.ndarray:
        """Interpolated exp; below-domain inputs become exactly zero."""
        x = np.asarray(x, dtype=np.float64)
        out = np.interp(x, self.grid, self.values)
        return np.where(x < self.domain_lo, 0.0, out)

    def save(self, path) -> None:
        meta = {
            "domain_hi": self.domain_hi,
            "domain_lo": self.domain_lo,
            "dtype": "<f8",
            "entries": self.entries,
            "kind": "exp_lut",
        }
        with atomic_write(path) as fh:
            fh.write((json.dumps(meta, sort_keys=True,
                                 separators=(",", ":")) + "\n").encode())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ExpLUT":
        path = Path(path)
        with open(path, "rb") as fh:
            try:
                meta = json.loads(fh.readline())
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"{path}: bad header line: {exc}") from None
            if meta.get("kind") != "exp_lut":
                raise StreamFormatError(f"{path}: not an exp table dump")
            entries = int(meta["entries"])
            payload = fh.read(8 * entries)
            if len(payload) != 8 * entries:
                raise StreamFormatError(f"{path}: truncated table payload")
        return cls(
            domain_lo=float(meta["domain_lo"]),
            domain_hi=float(meta["domain_hi"]),
            entries=entries,
            values=np.frombuffer(payload, dtype="<f8").copy(),
        )


def _hot_ratio(x, mx, hot):
    """x / mx on hot rows, with the infinite-max limit taken explicitly.

    When the max has saturated to infinity, dividing by it would turn the
    row to nan; the limiting behavior keeps entries equal to the max at 1
    and sends every other finite entry to 0 (and -inf stays -inf, which
    later underflows the exp table to an exact zero).
    """
    with np.errstate(invalid="ignore"):
        ratio = x / np.where(hot, mx, 1.0)
    bad = hot & np.isinf(mx)
    if np.any(bad):
        ratio = np.where(bad & (x == mx), 1.0, ratio)
        ratio = np.where(bad & (x != mx) & np.isfinite(x), 0.0, ratio)
        ratio = np.where(bad & np.isneginf(x), -np.inf, ratio)
    return ratio


def conditional_rescale(x, spec: SoftmaxRescaleSpec, axis: int = -1):
    """x -> threshold * x / max(x) on rows whose max exceeds the threshold.

    Rows at or below the threshold pass through bit-identical. Returns
    (rescaled array, boolean mask of rows that were touched).
    """
    x = np.asarray(x, dtype=np.float64)
    mx = np.max(x, axis=axis, keepdims=True)
    if axis != -1 and axis != x.ndim - 1:
        raise ValueError("rescaling is defined along the last axis")
    hot = mx > spec.threshold
    scaled = np.where(hot, spec.threshold * _hot_ratio(x, mx, hot), x)
    return scaled, np.squeeze(hot, axis=axis)


def softmax_reference(x, axis: int = -1) -> np.ndarray:
    """Max-subtracted float64 softmax, the comparison baseline."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_lut(x, spec: SoftmaxRescaleSpec | None = None,
                lut: ExpLUT | None = None, fmt: FloatFormat | None = None,
                subtract_max: bool = True):
    """Softmax over the last axis via rescale + table exp, optionally in ``fmt``.

    Every named stage is re-quantized when a format is given: the input,
    the rescale products, the max-subtracted values, the table outputs, the
    row total, and the final quotient. The total is accumulated in a wide
    register and rounded once; chaining narrow partial sums instead would
    put the row-sum error at levels*u and break the 1e-3 normalization
    guarantee for wide rows (u being the format's unit roundoff). With one
    rounding on the total and one on each quotient the deviation of the
    output sum from 1 is bounded by 2u + u^2, about 9.8e-4 in half
    precision. ``subtract_max=False``
    skips the max subtraction, which pushes rescaled-but-positive inputs
    above the table domain where they all clamp to the same entry; it
    exists to demonstrate that failure, not for use.

    Returns (softmax array, quantize statistics).
    """
    spec = spec or SoftmaxRescaleSpec()
    lut = lut or ExpLUT()
    rec = QuantRecorder(fmt)
    x = rec.q(x)
    mx = np.max(x, axis=-1, keepdims=True)
    hot = mx > spec.threshold
    if np.any(hot):
        ratio = rec.q(_hot_ratio(x, mx, hot), rows=hot)
        x = np.where(hot, rec.q(spec.threshold * ratio, rows=hot), x)
    if subtract_max:
        x = rec.q(x - np.max(x, axis=-1, keepdims=True))
    e = rec.q(lut(x))
    total = rec.q(e.sum(axis=-1, keepdims=True))
    return rec.q(e / total), rec.stats
