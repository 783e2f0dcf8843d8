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

``quantize_array`` runs these steps over blocks of ``_BLOCK`` elements
(256 KiB of float64), so each step reads and writes a block still held in
the L2 cache rather than a whole array from memory. The rounded values go
to an ``out`` array that may be the input itself: each block's sign bits
are saved before its first write, and nothing reads the input block after
that. A block whose smallest magnitude is at least min_normal skips the
subnormal and underflow steps. The subnormal step gathers by index only
the non-zero magnitudes below its limit, which in the audit and graph
workloads are under 1 % of a block (table-exp outputs are almost all
zero, and zero needs no step). Overflow saturates without a masked copy
(``codes |= 3 * over`` and ``r = maximum(r, over * inf)``).
The status counts come from masks the block already holds: its non-zero
codes, the underflow mask, and the saturation mask less the NaNs. The
codes of the whole array are kept only when a caller asks for them.
Block boundaries change no bit: every step is element-wise.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
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
    representable. ``max_finite`` and ``min_normal`` follow from the bits.
    """

    name: str
    mantissa_bits: int
    exponent_bits: int
    max_finite: float = field(init=False)
    min_normal: float = field(init=False)

    def __post_init__(self):
        m, e = self.mantissa_bits, self.exponent_bits
        # float64 carries the values, so its 11 exponent bits are the limit.
        if m < 1 or not 2 <= e <= 11:
            raise ValueError("need at least 1 mantissa bit and 2 to 11 exponent bits")
        if e == 11 and m > 52:
            # (2 - 2**-m) * 2**1023 is past the largest float64
            raise ValueError("max_finite is past the float64 range")
        max_exp = 2 ** (e - 1) - 1  # the bias; the all-ones exponent is inf/nan
        # The largest float64 on the format's grid: past 52 fraction bits
        # (2 - 2**-m) * 2**max_exp is no float64, and 2**(max_exp + 1) overflows.
        object.__setattr__(self, "max_finite",
                           math.ldexp(2.0 - math.ldexp(1.0, -min(m, 52)), max_exp))
        object.__setattr__(self, "min_normal", math.ldexp(1.0, 1 - max_exp))

    @property
    def min_exponent(self) -> int:
        """Exponent k of min_normal = 2**k (smallest normal binade)."""
        return math.frexp(self.min_normal)[1] - 1


FP16 = FloatFormat("fp16", 10, 5)
FP32 = FloatFormat("fp32", 23, 8)


def parse_format(spec: str) -> FloatFormat:
    """Parse ``fp16``, ``fp32``, or ``custom:<mantissa>,<exponent>``."""
    s = spec.strip().lower()
    if s == "fp16":
        return FP16
    if s == "fp32":
        return FP32
    if s.startswith("custom:"):
        try:
            m, e = map(int, s[len("custom:"):].split(","))
        except ValueError:
            raise ValueError(f"bad custom format {spec!r}, "
                             "expected custom:<mantissa>,<exponent>") from None
        try:
            return FloatFormat(f"custom_m{m}e{e}", m, e)
        except ValueError as exc:
            raise ValueError(f"format {spec!r} is not representable: {exc}") from None
    raise ValueError(f"unknown float format {spec!r}")


@dataclass
class OverflowStats:
    total: int = 0
    exact: int = 0
    rounded: int = 0
    underflow: int = 0
    overflow: int = 0

    def __add__(self, other: "OverflowStats") -> "OverflowStats":
        return OverflowStats(
            self.total + other.total, self.exact + other.exact,
            self.rounded + other.rounded, self.underflow + other.underflow,
            self.overflow + other.overflow)


_SIGN = np.uint64(1 << 63)
_ABS = np.uint64((1 << 63) - 1)
_INF = np.uint64(0x7FF0_0000_0000_0000)
_QNAN = np.uint64(0x7FF8_0000_0000_0000)

# Elements per block of the quantize loop: 256 KiB of float64 keeps a
# block's working set in L2, and a 64x512 graph tensor is one block.
_BLOCK = 1 << 15


def _bits(v: float) -> np.uint64:
    return np.float64(v).view(np.uint64)


class _Scratch(threading.local):
    """The quantize loop's block scratch, one per thread: u, t and sign, two
    masks and a codes block. Made on a thread's first call (the importing
    thread's at import) and reused by its later calls, so a call faults in
    no fresh pages and leaves no long-lived buffer atop the heap, and calls
    on different threads do not share it."""

    def __init__(self):
        self.blocks = (*(np.empty(_BLOCK, dtype=np.uint64) for _ in range(3)),
                       *(np.empty(_BLOCK, dtype=np.bool_) for _ in range(2)),
                       np.empty(_BLOCK, dtype=np.int8))


_SCRATCH = _Scratch()


def _quantize_blocks(xs, fmt: FloatFormat, out=None, codes: bool = True
                     ) -> tuple[np.ndarray, np.ndarray | None, OverflowStats]:
    """``quantize_array`` into ``out``, plus the status counts of the codes.

    ``out``, a C-contiguous float64 array of the input's shape, may be
    ``xs`` itself; ``None`` allocates it. The codes array is built only
    when ``codes`` is true, and is returned as ``None`` otherwise.
    """
    x = np.asarray(xs, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not (out.dtype == np.float64 and out.shape == x.shape
              and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous float64 array of the input's shape")
    bits = np.ascontiguousarray(x).view(np.uint64).reshape(-1)
    r_all = out.view(np.uint64).reshape(-1)
    n = bits.size
    k = min(n, _BLOCK)
    u_buf, t_buf, sign_buf, m_buf, m2_buf, code_buf = (b[:k] for b in _SCRATCH.blocks)
    codes_all = np.empty(n, dtype=np.int8) if codes else code_buf
    s = 52 - fmt.mantissa_bits
    # Below min_normal, a + c lands in [c, 2c), whose float64 spacing is the
    # subnormal quantum, so the addition is the RNE step and the subtraction
    # exact. With more than 52 fraction bits c sits below min_normal, and
    # magnitudes from c up are on the grid already, so the step stops at c.
    c = math.ldexp(1.0, fmt.min_exponent - fmt.mantissa_bits + 52)
    # 0 < u < sub_lim as one uint64 test, u - 1 < sub_lim - 1: zero wraps
    # past it. Both sides stay uint64 (an int operand would promote a
    # uint64 scalar to float64 under numpy 1.x and blur the limit).
    sub_hi = _bits(min(c, fmt.min_normal)) - np.uint64(1)
    normal, max_finite = _bits(fmt.min_normal), _bits(fmt.max_finite)
    changed_n = underflow = overflow = 0
    for i in range(0, n, _BLOCK):
        b = bits[i:i + _BLOCK]
        j = b.size
        u, t, sign, m, m2 = u_buf[:j], t_buf[:j], sign_buf[:j], m_buf[:j], m2_buf[:j]
        r = r_all[i:i + j]
        code = codes_all[i:i + j] if codes else codes_all[:j]
        np.bitwise_and(b, _ABS, out=u)  # |x| as bits, ordered like the magnitudes
        np.bitwise_and(b, _SIGN, out=sign)  # r may be b: nothing reads b after this
        if s > 0:
            # RNE on the dropped fraction bits; a carry into the exponent
            # field moves the value to the next binade, which is exactly right.
            np.right_shift(u, s, out=r)
            r &= 1
            r += u
            r += (1 << (s - 1)) - 1
            r &= (1 << 64) - (1 << s)
        else:  # the target grid holds every float64 above its subnormal range
            np.copyto(r, u)
        low = u.min() < normal  # else no subnormal step and no underflow
        if low:
            np.subtract(u, np.uint64(1), out=t)
            idx = np.flatnonzero(np.less(t, sub_hi, out=m))
            a = u[idx].view(np.float64)  # finite subnormal magnitudes only
            a += c
            a -= c
            r[idx] = a.view(np.uint64)
        changed = np.not_equal(r, u, out=code.view(np.bool_))  # ROUNDED or EXACT
        if low:
            np.less(r, normal, out=m)  # only subnormal inputs can get here
            m &= changed
            underflow += np.count_nonzero(m)
            code += m.view(np.int8)  # ROUNDED + 1 == UNDERFLOW
        over = np.greater(r, max_finite, out=m)  # inf and nan included
        over_n, nan_n = np.count_nonzero(over), 0
        if over_n:
            # EXACT/ROUNDED | 3 == OVERFLOW, and inf is the largest non-nan
            # bit pattern, so both saturations are branch free.
            code |= np.multiply(over.view(np.int8), 3, out=m2.view(np.int8))
            np.maximum(r, np.multiply(over, _INF, out=t), out=r)
            nan = np.greater(u, _INF, out=m2)
            nan_n = np.count_nonzero(nan)
            overflow += over_n - nan_n
        r |= sign
        if nan_n:
            np.copyto(code, QuantizeStatus.EXACT, where=nan)
            np.copyto(r, _QNAN, where=nan)
        changed_n += np.count_nonzero(code)
    changed_n, underflow, overflow = int(changed_n), int(underflow), int(overflow)
    stats = OverflowStats(n, n - changed_n, changed_n - underflow - overflow,
                          underflow, overflow)
    return out, codes_all.reshape(x.shape) if codes else None, stats


def quantize_array(xs, fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """Round every element of ``xs`` to the nearest value of ``fmt``.

    Returns (values, codes) where codes holds QuantizeStatus per element.
    Rounding is single-step round-to-nearest-even on the float64 input;
    magnitudes past the overflow rounding boundary saturate to +/-inf.
    NaN comes back as the positive quiet NaN with status EXACT.
    """
    return _quantize_blocks(xs, fmt)[:2]


def quantize(v: float, fmt: FloatFormat) -> tuple[float, QuantizeStatus]:
    """Quantize one value; NaN passes through with status EXACT."""
    vals, codes = quantize_array(np.array([v], dtype=np.float64), fmt)
    return float(vals[0]), QuantizeStatus(int(codes[0]))


def log2_bins(peaks) -> np.ndarray:
    """Integer log2 bin of each peak magnitude, the scale of a format's range.

    Peaks are converted to float64 and clipped to [1e-30, 1e308], so 0
    lands in bin -100 and inf in the top bin, 1023, with the largest finite
    float64s, whatever the peaks' own dtype (both bounds are past float16's
    range, and 1e308 past float32's).
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    return np.floor(np.log2(np.clip(peaks, 1e-30, 1e308))).astype(int)


class QuantRecorder:
    """Quantize-and-account, the one way the pipelines round values.

    The rule: a stage rounds the values it computes into its caller's
    recorder and never rounds a value it was handed, which is already in
    ``fmt``; only entry points (graph input nodes, an audit's stream
    blocks) round external input, once. So each value is rounded and
    counted once, and a run's counts accumulate in one place.

    ``q(values)`` rounds ``values`` onto ``fmt`` into a new array and
    merges their status counts into ``stats``; ``q(values, out=values)``
    rounds in place a C-contiguous float64 array the caller owns. A
    recorder made for ``rows`` rows also adds, for each call that
    overflowed, the OVERFLOW codes of each leading-axis index i to
    ``row_overflow[first_row + i]``; only such a recorder builds the codes.
    A caller that feeds a stream one block of rows at a time sets
    ``first_row`` to the block's first stream row. With ``fmt=None`` values
    pass through as float64 and nothing is counted.
    """

    def __init__(self, fmt: FloatFormat | None, rows: int = 0):
        self.fmt = fmt
        self.stats = OverflowStats()
        self.row_overflow = np.zeros(rows, dtype=np.int64)
        self.first_row = 0

    def q(self, values, out=None) -> np.ndarray:
        if self.fmt is None:
            return np.asarray(values, dtype=np.float64)
        out, codes, stats = _quantize_blocks(values, self.fmt, out,
                                             codes=self.row_overflow.size > 0)
        self.stats = self.stats + stats
        if stats.overflow and self.row_overflow.size:
            # a plain int: numpy compares with an IntEnum operand far slower
            over = codes.reshape(len(codes), -1) == int(QuantizeStatus.OVERFLOW)
            self.row_overflow[self.first_row:self.first_row + len(over)] += (
                np.count_nonzero(over, axis=1))
        return out
