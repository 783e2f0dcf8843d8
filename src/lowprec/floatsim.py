"""Bit-accurate simulation of small IEEE-754-style floating point formats.

Values are carried as float64 and rounded onto the target format's grid
(round-to-nearest-even), so every representable value of the simulated
format is exact and every rounding decision matches real hardware that
follows IEEE 754-2008 defaults. Overflow saturates to +/-inf and is
reported through a status flag instead of raising, because the audit
tooling needs to count overflows rather than abort on the first one.

The rounding works on the uint64 view of the float64 magnitude. In the
normal range it is integer RNE on the s = 52 - mantissa_bits fraction bits
the format drops: add half a quantum less one plus the lowest kept bit,
then clear the dropped bits; a carry out of the fraction moves the value
to the next binade, as it should. Below min_normal the quantum stops
shrinking, so those magnitudes are rounded by one float64 addition
instead: with c = 2**(min_exponent - mantissa_bits + 52), a + c lands in
[c, 2c), where the float64 spacing is exactly the format's subnormal
quantum, so the addition is the RNE step and subtracting c is exact.
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
    representable.
    """

    name: str
    mantissa_bits: int
    exponent_bits: int
    max_finite: float
    min_normal: float

    def __post_init__(self):
        if self.mantissa_bits < 1 or self.exponent_bits < 2:
            raise ValueError("need at least 1 mantissa bit and 2 exponent bits")
        if not (self.max_finite > self.min_normal > 0):
            raise ValueError("require max_finite > min_normal > 0")

    @classmethod
    def from_bits(cls, name: str, mantissa_bits: int,
                  exponent_bits: int) -> "FloatFormat":
        bias = 2 ** (exponent_bits - 1) - 1
        max_exp = bias  # all-ones exponent is inf/nan
        max_finite = math.ldexp(2.0 - math.ldexp(1.0, -mantissa_bits), max_exp)
        min_normal = math.ldexp(1.0, 1 - bias)
        return cls(name, mantissa_bits, exponent_bits, max_finite, min_normal)

    @property
    def min_exponent(self) -> int:
        """Exponent k of min_normal = 2**k (smallest normal binade)."""
        return math.frexp(self.min_normal)[1] - 1


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


_SIGN = np.uint64(1 << 63)
_ABS = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF0_0000_0000_0000)
_QNAN = np.uint64(0x7FF8_0000_0000_0000)


def _bits(v: float) -> np.uint64:
    return np.float64(v).view(np.uint64)


def quantize_array(xs, fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """Round every element of ``xs`` to the nearest value of ``fmt``.

    Returns (values, codes) where codes holds QuantizeStatus per element.
    Rounding is single-step round-to-nearest-even on the float64 input;
    magnitudes past the overflow rounding boundary saturate to +/-inf.
    NaN comes back as the positive quiet NaN with status EXACT.
    """
    x = np.asarray(xs, dtype=np.float64)
    bits = np.ascontiguousarray(x).view(np.uint64)  # 0-d input turns 1-d here
    u = bits & _ABS  # |x| as bits, ordered like the magnitudes
    s = 52 - fmt.mantissa_bits
    if s > 0:
        # RNE on the dropped fraction bits; a carry into the exponent field
        # moves the value to the next binade, which is exactly right.
        r = u >> s
        r &= 1
        r += u
        r += (1 << (s - 1)) - 1
        r &= (1 << 64) - (1 << s)
    else:  # the target grid holds every float64 above its subnormal range
        r = u.copy()
    # Below min_normal, a + c lands in [c, 2c), whose float64 spacing is the
    # subnormal quantum, so the addition is the RNE step and the subtraction
    # exact. With more than 52 fraction bits c sits below min_normal, and
    # magnitudes from c up are on the grid already, so the step stops at c.
    c = math.ldexp(1.0, fmt.min_exponent - fmt.mantissa_bits + 52)
    sub = u < _bits(min(c, fmt.min_normal))
    if sub.any():
        with np.errstate(invalid="ignore"):  # signalling NaN payloads
            t = u.view(np.float64) + c
            t -= c
        np.copyto(r, t.view(np.uint64), where=sub)
        del t

    codes = np.not_equal(r, u).view(np.int8)  # QuantizeStatus.ROUNDED or EXACT
    under = r < _bits(fmt.min_normal)  # only subnormal inputs can get here
    under &= codes.view(np.bool_)
    codes += under.view(np.int8)  # ROUNDED + 1 == UNDERFLOW
    over = r > _bits(fmt.max_finite)  # inf and nan included
    nan = None
    if over.any():
        np.copyto(codes, QuantizeStatus.OVERFLOW, where=over)
        np.copyto(r, _INF, where=over)
        nan = u > _INF
        np.copyto(codes, QuantizeStatus.EXACT, where=nan)
    r |= np.bitwise_and(bits, _SIGN, out=u)  # u is not needed any more
    if nan is not None:
        np.copyto(r, _QNAN, where=nan)
    return r.view(np.float64).reshape(x.shape), codes.reshape(x.shape)


def quantize(v: float, fmt: FloatFormat) -> tuple[float, QuantizeStatus]:
    """Quantize one value; NaN passes through with status EXACT."""
    vals, codes = quantize_array(np.array([v], dtype=np.float64), fmt)
    return float(vals[0]), QuantizeStatus(int(codes[0]))


class QuantRecorder:
    """Quantize-and-account: the one way the pipelines round intermediates.

    ``q(values)`` rounds ``values`` onto ``fmt``, keeps the status codes
    in ``codes`` (one array per call, in call order) and merges them into
    ``stats``. With ``fmt=None`` values pass through as float64 and
    nothing is kept.
    """

    def __init__(self, fmt: FloatFormat | None):
        self.fmt = fmt
        self.stats = OverflowStats()
        self.codes: list[np.ndarray] = []

    def q(self, values) -> np.ndarray:
        if self.fmt is None:
            return np.asarray(values, dtype=np.float64)
        out, codes = quantize_array(values, self.fmt)
        self.codes.append(codes)
        self.stats = self.stats + OverflowStats.from_codes(codes)
        return out

