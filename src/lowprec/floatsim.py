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
subnormal step, which gathers by index only the non-zero magnitudes below
its limit: under 1 % of a block in the audit and graph workloads, where
table-exp outputs are almost all zero and zero needs no step. Only those
can underflow (from min_normal up a magnitude rounds to min_normal or
more), so the UNDERFLOW codes and count come from the gathered values.
Past the overflow rounding boundary, and at inf and nan, a block saturates
without a masked copy (``codes |= 3 * over``, ``r = maximum(r, over *
inf)``); only a block holding a bit pattern past inf's builds a NaN mask,
to give its NaNs back as EXACT quiet NaNs. Comparisons read the magnitude
bits as float64, which orders them alike and which numpy vectorizes. The
status counts are the non-zero codes, the underflow count, and the
saturation count less the NaNs; the codes of the whole array are kept only
when a caller asks for them. Each format's constants are made once.
Block boundaries change no bit: every step is element-wise.
"""

from __future__ import annotations

import functools
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
    representable. ``max_finite``, ``min_normal`` and ``name`` follow from
    the bits, so two formats with the same bits are equal.
    """

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

    @property
    def name(self) -> str:
        return _NAMED.get(self, f"custom_m{self.mantissa_bits}e{self.exponent_bits}")


FP16 = FloatFormat(10, 5)
FP32 = FloatFormat(23, 8)
# The named formats: the one table that FloatFormat.name and parse_format read.
_NAMED = {FP16: "fp16", FP32: "fp32"}


def parse_format(spec: str) -> FloatFormat:
    """Parse ``fp16``, ``fp32``, or ``custom:<mantissa>,<exponent>``."""
    s = spec.strip().lower()
    for fmt, name in _NAMED.items():
        if s == name:
            return fmt
    if s.startswith("custom:"):
        try:
            m, e = map(int, s[len("custom:"):].split(","))
        except ValueError:
            raise ValueError(f"bad custom format {spec!r}, "
                             "expected custom:<mantissa>,<exponent>") from None
        try:
            return FloatFormat(m, e)
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
_ONE = np.uint64(1)

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


@functools.lru_cache(maxsize=64)
def _grid(fmt: FloatFormat) -> tuple:
    """The quantize loop's constants for ``fmt``, made on its first call
    (threads share the cache; a race only builds two equal tuples)."""
    s = 52 - fmt.mantissa_bits
    rne = (np.uint64(s), np.uint64((1 << (s - 1)) - 1),
           np.uint64((1 << 64) - (1 << s))) if s > 0 else None
    # Below min_normal, a + c lands in [c, 2c), whose float64 spacing is the
    # subnormal quantum, so the addition is the RNE step and the subtraction
    # exact. With more than 52 fraction bits c sits below min_normal, and
    # magnitudes from c up are on the grid already, so the step stops at c.
    c = math.ldexp(1.0, fmt.min_exponent - fmt.mantissa_bits + 52)
    # 0 < u < sub_lim as one test, u - 1 < sub_lim - 1: zero wraps to a nan
    # pattern, which compares false. The limits are formed in uint64 (an int
    # operand would promote a uint64 scalar to float64 under numpy 1.x) and
    # read as float64. over_lo, the least magnitude rounding past max_finite,
    # is the tie above it (its last kept bit is odd) or, with s <= 0, the
    # next float64.
    sub_hi = (_bits(min(c, fmt.min_normal)) - _ONE).view(np.float64)
    over_lo = (_bits(fmt.max_finite) + np.uint64(1 << max(s - 1, 0))).view(np.float64)
    return rne, c, sub_hi, _bits(fmt.min_normal), over_lo


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
    rne, c, sub_hi, normal, over_lo = _grid(fmt)
    changed_n = underflow = overflow = 0
    for i in range(0, n, _BLOCK):
        b = bits[i:i + _BLOCK]
        j = b.size
        u, t, sign, m, m2 = u_buf[:j], t_buf[:j], sign_buf[:j], m_buf[:j], m2_buf[:j]
        r = r_all[i:i + j]
        code = codes_all[i:i + j] if codes else codes_all[:j]
        np.bitwise_and(b, _ABS, out=u)  # |x| as bits, ordered like the magnitudes
        np.bitwise_and(b, _SIGN, out=sign)  # r may be b: nothing reads b after this
        a = u.view(np.float64)  # |x|, for the comparisons
        if rne:
            # RNE on the dropped fraction bits; a carry into the exponent
            # field moves the value to the next binade, which is exactly right.
            s, half, keep = rne
            np.right_shift(u, s, out=r)
            r &= 1
            r += u
            r += half
            r &= keep
        else:  # the target grid holds every float64 above its subnormal range
            np.copyto(r, u)
        # ROUNDED or EXACT; a nan compares unequal here and is reset below
        np.not_equal(r.view(np.float64), a, out=code.view(np.bool_))
        if u.min() < normal:  # else no subnormal step and no underflow
            np.subtract(u, _ONE, out=t)
            idx = np.flatnonzero(np.less(t.view(np.float64), sub_hi, out=m))
            sub = a[idx]  # finite subnormal magnitudes only
            low = sub + c
            low -= c
            r[idx] = low.view(np.uint64)
            # Only these can underflow: from min_normal up a magnitude rounds
            # to min_normal or more, and zero and on-grid ones stay EXACT.
            changed = low != sub
            under = changed & (low < fmt.min_normal)
            code[idx] = changed.view(np.int8) + under  # ROUNDED + 1 == UNDERFLOW
            underflow += np.count_nonzero(under)
        fits = np.less(a, over_lo, out=m)  # false for inf and nan
        over_n, nan_n = j - np.count_nonzero(fits), 0
        if over_n:
            # EXACT/ROUNDED | 3 == OVERFLOW, and inf is the largest non-nan
            # bit pattern, so both saturations are branch free.
            over = np.logical_not(fits, out=m)
            code |= np.multiply(over.view(np.int8), 3, out=m2.view(np.int8))
            np.maximum(r, np.multiply(over, _INF, out=t), out=r)
            if u.max() > _INF:  # only then can a block hold a nan
                nan = np.isnan(a, out=m2)
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
    ``first_row`` to the block's first stream row. ``add(other)`` adds the
    counts of a recorder that rounded on this one's behalf, such as a stage
    that two recorders share. With ``fmt=None`` values pass through as
    float64 and nothing is counted.
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

    def add(self, other: "QuantRecorder") -> None:
        """Add ``other``'s counts to this recorder's; ``other``'s row i
        counts as row ``first_row + i``."""
        self.stats = self.stats + other.stats
        if self.row_overflow.size:
            rows = other.row_overflow
            self.row_overflow[self.first_row:self.first_row + rows.size] += rows
