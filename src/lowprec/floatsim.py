"""Bit-accurate simulation of small IEEE-754-style floating point formats.

Values are carried as float64 and rounded onto the target format's grid
(round-to-nearest-even), so every representable value of the simulated
format is exact and every rounding decision matches real hardware that
follows IEEE 754-2008 defaults. Overflow saturates to +/-inf and is
reported through a status flag instead of raising, because the audit
tooling needs to count overflows rather than abort on the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class QuantizeStatus(IntEnum):
    EXACT = 0
    ROUNDED = 1
    UNDERFLOW = 2
    OVERFLOW = 3


@dataclass(frozen=True)
class FloatFormat:
    """A binary floating point format with IEEE-style exponent layout.

    ``mantissa_bits`` counts explicit fraction bits (10 for fp16), the
    all-ones exponent is reserved for inf/nan, and subnormals are
    representable unless ``flush_to_zero`` is set.
    """

    name: str
    mantissa_bits: int
    exponent_bits: int
    max_finite: float
    min_normal: float
    flush_to_zero: bool = False

    def __post_init__(self):
        if self.mantissa_bits < 1 or self.exponent_bits < 2:
            raise ValueError("need at least 1 mantissa bit and 2 exponent bits")
        if not (self.max_finite > self.min_normal > 0):
            raise ValueError("require max_finite > min_normal > 0")

    @classmethod
    def from_bits(cls, name: str, mantissa_bits: int, exponent_bits: int,
                  flush_to_zero: bool = False) -> "FloatFormat":
        bias = 2 ** (exponent_bits - 1) - 1
        max_exp = bias  # all-ones exponent is inf/nan
        max_finite = math.ldexp(2.0 - math.ldexp(1.0, -mantissa_bits), max_exp)
        min_normal = math.ldexp(1.0, 1 - bias)
        return cls(name, mantissa_bits, exponent_bits, max_finite, min_normal,
                   flush_to_zero)

    @property
    def min_exponent(self) -> int:
        """Exponent k of min_normal = 2**k (smallest normal binade)."""
        return math.frexp(self.min_normal)[1] - 1

    @property
    def subnormal_quantum(self) -> float:
        """Spacing of the subnormal range (also the smallest positive value)."""
        return math.ldexp(1.0, self.min_exponent - self.mantissa_bits)


FP16 = FloatFormat.from_bits("fp16", 10, 5)
FP32 = FloatFormat.from_bits("fp32", 23, 8)


def parse_format(spec: str) -> FloatFormat:
    """Parse ``fp16``, ``fp32``, or ``custom:<mantissa>,<exponent>``."""
    s = spec.strip().lower()
    if s == "fp16":
        return FP16
    if s == "fp32":
        return FP32
    if s.startswith("custom:"):
        try:
            m, e = s[len("custom:"):].split(",")
            return FloatFormat.from_bits(f"custom_m{int(m)}e{int(e)}", int(m), int(e))
        except ValueError as exc:
            raise ValueError(f"bad custom format {spec!r}, "
                             "expected custom:<mantissa>,<exponent>") from exc
    raise ValueError(f"unknown float format {spec!r}")


@dataclass
class OverflowStats:
    total: int = 0
    exact: int = 0
    rounded: int = 0
    underflow: int = 0
    overflow: int = 0

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "OverflowStats":
        c = np.asarray(codes)
        return cls(
            total=int(c.size),
            exact=int(np.count_nonzero(c == QuantizeStatus.EXACT)),
            rounded=int(np.count_nonzero(c == QuantizeStatus.ROUNDED)),
            underflow=int(np.count_nonzero(c == QuantizeStatus.UNDERFLOW)),
            overflow=int(np.count_nonzero(c == QuantizeStatus.OVERFLOW)),
        )

    def __add__(self, other: "OverflowStats") -> "OverflowStats":
        return OverflowStats(
            self.total + other.total, self.exact + other.exact,
            self.rounded + other.rounded, self.underflow + other.underflow,
            self.overflow + other.overflow)


def quantize_array(xs, fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
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
    if fmt.flush_to_zero:
        ftz = finite & (r < fmt.min_normal)
        tiny = tiny | (ftz & (a != 0.0))
        r = np.where(ftz, 0.0, r)

    codes[finite & (r != a)] = QuantizeStatus.ROUNDED
    codes[tiny] = QuantizeStatus.UNDERFLOW
    codes[ovf] = QuantizeStatus.OVERFLOW
    r = np.where(ovf, np.inf, r)

    out = np.where(nan, np.nan, np.copysign(r, x))
    return out, codes


def quantize(v: float, fmt: FloatFormat) -> tuple[float, QuantizeStatus]:
    """Quantize one value; NaN passes through with status EXACT."""
    vals, codes = quantize_array(np.array([v], dtype=np.float64), fmt)
    return float(vals[0]), QuantizeStatus(int(codes[0]))


def quantize_tensor(xs, fmt: FloatFormat) -> tuple[np.ndarray, OverflowStats]:
    vals, codes = quantize_array(xs, fmt)
    return vals, OverflowStats.from_codes(codes)


class QuantRecorder:
    """Quantize-and-account: the one way the pipelines round intermediates.

    ``q(values)`` rounds ``values`` onto ``fmt``, keeps the status codes
    in ``codes`` (one array per call, in call order) and merges them into
    ``stats``. A ``rows`` mask, broadcastable against ``values``, limits
    the accounting to the entries it selects while every entry is still
    rounded; the softmax hot-row rescale counts only the rows it touches.
    With ``fmt=None`` values pass through as float64 and nothing is kept.
    """

    def __init__(self, fmt: FloatFormat | None):
        self.fmt = fmt
        self.stats = OverflowStats()
        self.codes: list[np.ndarray] = []

    def q(self, values, rows=None) -> np.ndarray:
        if self.fmt is None:
            return np.asarray(values, dtype=np.float64)
        out, codes = quantize_array(values, self.fmt)
        if rows is not None:
            codes = codes[np.broadcast_to(rows, codes.shape)]
        self.codes.append(codes)
        self.stats = self.stats + OverflowStats.from_codes(codes)
        return out


def ulp(v: float, fmt: FloatFormat) -> float:
    """Spacing between adjacent representable values at magnitude ``|v|``.

    For 2**k <= |v| < 2**(k+1) in the normal range this is
    2**(k - mantissa_bits); subnormal magnitudes share one quantum.
    """
    if not math.isfinite(v) or v == 0.0:
        raise ValueError("ulp is defined for finite non-zero magnitudes")
    a = abs(v)
    if a > fmt.max_finite:
        raise ValueError(f"magnitude {a} exceeds max finite {fmt.max_finite}")
    k = math.frexp(a)[1] - 1
    return math.ldexp(1.0, max(k, fmt.min_exponent) - fmt.mantissa_bits)
