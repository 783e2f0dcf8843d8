"""Bit-accurate checks for the simulated float formats.

The implementation never touches numpy's native float16, so np.float16 and a
from-scratch bit-pattern decoder serve as two independent oracles for it.
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowprec import floatsim
from lowprec.floatsim import (
    FP16,
    FP32,
    FloatFormat,
    OverflowStats,
    QuantRecorder,
    QuantizeStatus,
    parse_format,
    quantize,
    quantize_array,
)
from oracles import frexp_quantize


def decode_fp16_bits(sign: int, exp: int, mant: int) -> float:
    """Decode a finite half-precision bit pattern by its defining formula."""
    assert 0 <= exp <= 30 and 0 <= mant <= 1023
    if exp == 0:
        value = mant * 2.0 ** (-24)
    else:
        value = (1024 + mant) * 2.0 ** (exp - 25)
    return -value if sign else value


def test_every_finite_fp16_value_is_a_fixed_point():
    signs, exps, mants = np.meshgrid(
        np.arange(2), np.arange(31), np.arange(1024), indexing="ij"
    )
    values = np.array(
        [
            decode_fp16_bits(s, e, m)
            for s, e, m in zip(signs.ravel(), exps.ravel(), mants.ravel())
        ]
    )
    assert values.size == 63488
    out, codes = quantize_array(values, FP16)
    np.testing.assert_array_equal(out, values)
    assert np.all(codes == QuantizeStatus.EXACT)


def _reference_fp16(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.float16(x).astype(np.float64)


@given(st.integers(0, 2**64 - 1))
def test_quantize_matches_numpy_float16(seed):
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-12, 6, 256)
    x = mag * rng.choice([-1.0, 1.0], 256)
    got, codes = quantize_array(x, FP16)
    want = _reference_fp16(x)
    np.testing.assert_array_equal(got, want)
    finite_in = np.isfinite(x)
    assert np.array_equal(
        codes == QuantizeStatus.OVERFLOW, finite_in & np.isinf(want) | np.isinf(x)
    )
    exact = finite_in & (want == x)
    assert np.all(codes[exact] == QuantizeStatus.EXACT)


def test_documented_examples():
    assert quantize(70000.0, FP16) == (math.inf, QuantizeStatus.OVERFLOW)
    assert quantize(0.0, FP16) == (0.0, QuantizeStatus.EXACT)
    assert quantize(4097.3, FP16) == (4096.0, QuantizeStatus.ROUNDED)
    assert quantize(65519.99, FP16) == (65504.0, QuantizeStatus.ROUNDED)
    assert quantize(65520.0, FP16) == (math.inf, QuantizeStatus.OVERFLOW)
    assert quantize(2.0**-30, FP16) == (0.0, QuantizeStatus.UNDERFLOW)
    # smallest subnormal is representable, hence exact
    assert quantize(2.0**-24, FP16) == (2.0**-24, QuantizeStatus.EXACT)


def test_nan_and_infinity_handling():
    v, code = quantize(math.nan, FP16)
    assert math.isnan(v) and code == QuantizeStatus.EXACT
    assert quantize(math.inf, FP16) == (math.inf, QuantizeStatus.OVERFLOW)
    assert quantize(-math.inf, FP16) == (-math.inf, QuantizeStatus.OVERFLOW)


def test_negative_zero_keeps_its_sign():
    v, code = quantize(-0.0, FP16)
    assert v == 0.0 and math.copysign(1.0, v) == -1.0
    assert code == QuantizeStatus.EXACT


def test_underflow_statuses():
    # halfway below the smallest subnormal rounds to zero (ties to even)
    assert quantize(2.0**-25, FP16) == (0.0, QuantizeStatus.UNDERFLOW)
    v, code = quantize(2.0**-24 * 1.4, FP16)
    assert v == 2.0**-24 and code == QuantizeStatus.UNDERFLOW
    # normal-range rounding is merely ROUNDED
    assert quantize(1.0 + 2.0**-13, FP16)[1] == QuantizeStatus.ROUNDED


def test_overflow_rounding_boundary():
    # 65519.x is still nearer to 65504 than to the next (absent) step
    v, code = quantize(65505.0, FP16)
    assert v == 65504.0 and code == QuantizeStatus.ROUNDED
    v, code = quantize(-65521.0, FP16)
    assert v == -math.inf and code == QuantizeStatus.OVERFLOW


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_quantize_is_idempotent(x):
    v1, _ = quantize(x, FP16)
    v2, code = quantize(v1, FP16)
    assert v2 == v1 or (math.isinf(v1) and math.isinf(v2))
    if math.isfinite(v1):
        assert code == QuantizeStatus.EXACT


@given(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)
def test_quantize_is_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert quantize(lo, FP16)[0] <= quantize(hi, FP16)[0]


@given(st.floats(0.1, 1e3), st.integers(-5, 5))
def test_quantize_commutes_with_power_of_two_scaling(x, k):
    # stays inside the normal range, where spacing is relative
    v, _ = quantize(x, FP16)
    vs, _ = quantize(x * 2.0**k, FP16)
    assert vs == v * 2.0**k


@given(st.floats(allow_nan=False, width=64))
def test_quantize_is_odd(x):
    assert quantize(-x, FP16)[0] == -quantize(x, FP16)[0]


@given(st.floats(1e-4, 6e4))
def test_rounding_is_within_half_ulp(x):
    v, _ = quantize(x, FP16)
    assert abs(v - x) <= float(np.spacing(np.float16(v))) / 2  # numpy's fp16 spacing


def test_fp32_round_trips_float32_exactly():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
    out, codes = quantize_array(x, FP32)
    np.testing.assert_array_equal(out, x)
    assert np.all(codes == QuantizeStatus.EXACT)
    assert FP32.max_finite == 3.4028234663852886e38


def test_from_bits_reproduces_the_builtin_formats():
    f16 = FloatFormat(10, 5)
    assert f16.max_finite == FP16.max_finite == 65504.0
    assert f16.min_normal == FP16.min_normal == 2.0**-14
    f32 = FloatFormat(23, 8)
    assert f32.max_finite == FP32.max_finite
    assert f32.min_normal == 2.0**-126


def test_a_format_is_its_bits():
    assert FloatFormat(10, 5) == FP16 and FloatFormat(23, 8) == FP32
    assert FloatFormat(23, 8).name == "fp32" and FloatFormat(10, 5).name == "fp16"
    assert parse_format("custom:10,5") == FP16 and parse_format("custom:23,8") == FP32
    assert parse_format("custom:10,5").name == "fp16"
    assert parse_format("custom:7,6").name == "custom_m7e6"


def test_past_52_fraction_bits_the_ceiling_is_the_largest_float64_on_the_grid():
    # (2 - 2**-60) * 2**127 is not a float64; (2 - 2**-52) * 2**127 is the
    # largest float64 below it, and 2**128 lies past the rounding boundary.
    fmt = parse_format("custom:60,8")
    top = 3.4028236692093843e38
    assert top == (2.0 - 2.0**-52) * 2.0**127
    assert quantize(top, fmt) == (top, QuantizeStatus.EXACT)
    assert quantize(2.0**128, fmt) == (math.inf, QuantizeStatus.OVERFLOW)
    assert quantize(-2.0**128, fmt) == (-math.inf, QuantizeStatus.OVERFLOW)


def test_parse_format():
    assert parse_format("fp16") is FP16
    assert parse_format("fp32") is FP32
    custom = parse_format("custom:7,6")
    assert custom.mantissa_bits == 7 and custom.exponent_bits == 6
    with pytest.raises(ValueError):
        parse_format("bf16")


def test_quantize_tensor_statistics():
    x = np.array([70000.0, 1.0, 2.0**-30, 1.0 + 2.0**-13])
    rec = QuantRecorder(FP16)
    out, stats = rec.q(x), rec.stats
    assert stats.total == 4
    assert stats.overflow == 1
    assert stats.underflow == 1
    assert stats.rounded == 1
    assert stats.exact == 1
    assert math.isinf(out[0])


def test_overflow_stats_merge():
    a, b, both = QuantRecorder(FP16), QuantRecorder(FP16), QuantRecorder(FP16)
    a.q(np.array([70000.0, 1.0]))
    b.q(np.array([2.0**-30]))
    both.q(np.array([70000.0, 1.0]))
    both.q(np.array([2.0**-30]))
    c = a.stats + b.stats
    assert (c.total, c.overflow, c.underflow, c.exact) == (3, 1, 1, 1)
    assert both.stats == c  # one recorder merges its calls the same way


def test_shape_is_preserved():
    x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    out, codes = quantize_array(x, FP16)
    assert out.shape == x.shape and codes.shape == x.shape


# ---------------------------------------------------------------------------
# Equivalence with the frexp/rint oracle

# s = 52 - mantissa_bits spans 42 down to -8: custom:52,11 drops no bits
# (s = 0) and custom:60,8 keeps more than float64 has (s < 0).
ORACLE_FORMATS = ["fp16", "fp32", "custom:7,8", "custom:3,4", "custom:1,2",
                  "custom:2,11", "custom:52,11", "custom:60,8"]


@st.composite
def oracle_cases(draw):
    """(format, input array) with raw bit patterns, ties and boundaries."""
    fmt = parse_format(draw(st.sampled_from(ORACLE_FORMATS)))
    m = fmt.mantissa_bits
    emax = math.frexp(fmt.max_finite)[1] - 1
    raw = draw(st.lists(st.integers(0, 2**64 - 1), max_size=48))
    vals = list(np.array(raw, dtype=np.uint64).view(np.float64))
    # Exact ties between two normal grid points, and between two subnormal
    # ones (half-integer multiples of the subnormal quantum).
    mant = st.integers(0, 2 ** min(m, 51) - 1)
    for k, n in draw(st.lists(st.tuples(st.integers(fmt.min_exponent, emax), mant),
                              max_size=16)):
        vals.append(math.ldexp(2.0**m + n + 0.5, k - m) if m <= 51 else math.ldexp(1.0, k))
    quantum = math.ldexp(fmt.min_normal, -m)
    vals += [(j + 0.5) * quantum for j in draw(st.lists(mant, max_size=16))]
    # max_finite and the overflow rounding boundary, each +/- one float64 ulp;
    # then min_normal from below, the smallest float64, zeros, inf and nan.
    boundary = fmt.max_finite + math.ldexp(1.0, emax - m - 1)
    with np.errstate(over="ignore"):  # the boundary may lie past float64's max
        for b in (fmt.max_finite, boundary):
            vals += [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    vals += [np.nextafter(fmt.min_normal, 0.0), fmt.min_normal, 5e-324, 0.0, -0.0,
             np.inf, -np.inf, np.nan]
    # A signalling NaN and a quiet one carrying a payload.
    vals += list(np.array([0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0BAD],
                          dtype=np.uint64).view(np.float64))
    signs = draw(st.lists(st.booleans(), min_size=len(vals), max_size=len(vals)))
    x = np.where(signs, -np.array(vals), np.array(vals))
    layout = draw(st.sampled_from(["contiguous", "strided", "transposed", "empty", "0-d"]))
    if layout == "strided":
        x = np.repeat(x, 2)[1::2]
    elif layout == "transposed":
        x = np.resize(x, (2, (x.size + 1) // 2)).T
    elif layout == "empty":
        x = np.zeros((0, 3))
    elif layout == "0-d":
        x = np.array(x[draw(st.integers(0, x.size - 1))])
    return fmt, x


@given(oracle_cases())
def test_quantize_array_matches_the_frexp_oracle(case):
    fmt, x = case
    want, want_codes = frexp_quantize(x, fmt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nan and inf input must stay quiet
        got, codes = quantize_array(x, fmt)
    assert got.shape == x.shape and codes.shape == x.shape
    assert codes.dtype == want_codes.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(codes, want_codes)


def test_quantize_array_matches_the_frexp_oracle_across_blocks(monkeypatch):
    # With 7-element blocks most cases span several blocks, and their
    # specials and ties land on every position within a block.
    monkeypatch.setattr(floatsim, "_BLOCK", 7)
    test_quantize_array_matches_the_frexp_oracle()


def _recorder_input(rng):
    x = rng.normal(0.0, 500.0, 5000) ** 2  # about half of it past fp16's range
    x[::97] = rng.choice([np.inf, -np.inf, np.nan, 0.0, 2.0**-30, 2.0**-20], x[::97].size)
    x[1000:1500] = 2.0 ** rng.uniform(-26, -13, 500)  # a subnormal stretch
    return x


@pytest.mark.parametrize("block", [7, 1000])
def test_recorder_stats_count_the_returned_codes(monkeypatch, block):
    monkeypatch.setattr(floatsim, "_BLOCK", block)
    x = _recorder_input(np.random.default_rng(5))
    rec = QuantRecorder(FP16)
    rec.q(x)
    _, codes = quantize_array(x, FP16)
    want = [int(np.count_nonzero(codes == s)) for s in QuantizeStatus]
    assert rec.stats == OverflowStats(x.size, *want)
    assert min(want) > 0


@pytest.mark.parametrize("block", [7, 1000])
def test_recorder_row_overflow_counts_each_rows_overflow_codes(monkeypatch, block):
    monkeypatch.setattr(floatsim, "_BLOCK", block)
    rng = np.random.default_rng(6)
    x = _recorder_input(rng).reshape(50, 100)
    x[7] = 1.0  # a row that never overflows
    rec = QuantRecorder(FP16, rows=50)
    want = np.zeros(50, dtype=np.int64)
    # (rows, n), (rows, k) and (rows,) calls, as in the layernorm kernel,
    # plus one call without an overflow, which adds nothing
    for a in (x, x[:, 10:13] * 100.0, x[:, 0], np.ones(50)):
        rec.q(a)
        _, codes = quantize_array(a, FP16)
        want += np.count_nonzero(codes.reshape(50, -1) == QuantizeStatus.OVERFLOW, axis=1)
    assert rec.row_overflow.tolist() == want.tolist()
    assert want[7] == 0 and want.min() == 0 < want.max()
    assert int(want.sum()) == rec.stats.overflow


def test_a_recorder_fed_row_blocks_counts_by_stream_row():
    x = _recorder_input(np.random.default_rng(8)).reshape(50, 100)
    whole, blocked = QuantRecorder(FP16, rows=50), QuantRecorder(FP16, rows=50)
    whole.q(x)
    whole.q(x[:, 0])
    for start, stop in ((0, 1), (1, 23), (23, 50)):
        blocked.first_row = start
        blocked.q(x[start:stop])
        blocked.q(x[start:stop, 0])
    assert blocked.row_overflow.tolist() == whole.row_overflow.tolist()
    assert blocked.stats == whole.stats and whole.stats.overflow > 0


def test_rounding_in_place_without_codes_allocates_no_block_scratch(traced_peak):
    x = np.random.default_rng(9).normal(0.0, 500.0, floatsim._BLOCK)
    peak = traced_peak(lambda: floatsim._quantize_blocks(x, FP16, out=x, codes=False))
    assert peak < x.nbytes // 8  # no scratch block of the input's size


def test_concurrent_calls_round_as_sequential_ones():
    # each thread rounds through a block scratch of its own, and threads
    # rounding fp16 and custom:3,4 at once build and share the per-format
    # constants; four threads oversubscribe a small machine's cores
    rng = np.random.default_rng(12)
    fmts = [FP16, parse_format("custom:3,4")] * 2
    xs = [rng.normal(0.0, 5e4 if f is FP16 else 100.0, (64, 512)) for f in fmts]
    want = [quantize_array(x, f) for x, f in zip(xs, fmts)]
    wrong = [0] * len(xs)

    def calls(i):
        for _ in range(100):
            values, codes = quantize_array(xs[i], fmts[i])
            wrong[i] += not (np.array_equal(values.view(np.uint64),
                                            want[i][0].view(np.uint64))
                             and np.array_equal(codes, want[i][1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    floatsim._grid.cache_clear()  # the threads race to make the constants
    try:
        threads = [threading.Thread(target=calls, args=(i,)) for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [0] * len(xs)
    assert min(int(np.count_nonzero(c == QuantizeStatus.OVERFLOW)) for _, c in want) > 0


# ---------------------------------------------------------------------------
# The branches a block takes: subnormal step, underflow, saturation, NaN

BRANCH_FORMATS = ["fp16", "custom:3,4", "custom:52,11", "custom:60,8"]


def _assert_rounds_as_the_oracle(x, fmt):
    """Each of the four ways to call the loop (in place or into a new
    array, codes on or off) gives the oracle's bits, its codes, and stats
    recounted from those codes."""
    want, want_codes = frexp_quantize(x, fmt)
    counts = OverflowStats(x.size, *(int(np.count_nonzero(want_codes == s))
                                     for s in QuantizeStatus))
    for in_place in (False, True):
        for codes in (True, False):
            y = x.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # nan and inf input must stay quiet
                out, got_codes, stats = floatsim._quantize_blocks(
                    y, fmt, out=y if in_place else None, codes=codes)
            assert (out is y) == in_place
            np.testing.assert_array_equal(out.view(np.uint64), want.view(np.uint64))
            if codes:
                np.testing.assert_array_equal(got_codes, want_codes)
            else:
                assert got_codes is None
            assert stats == counts, (in_place, codes)


def _normals(fmt, n, rng):
    """n magnitudes in [min_normal, 4 min_normal) of both signs, most off the grid."""
    return rng.choice([-1.0, 1.0], n) * fmt.min_normal * rng.uniform(1.0, 4.0, n)


@pytest.mark.parametrize("spec", BRANCH_FORMATS)
def test_a_block_with_zeros_and_no_subnormal_has_no_underflow(monkeypatch, spec):
    monkeypatch.setattr(floatsim, "_BLOCK", 8)
    fmt = parse_format(spec)
    x = _normals(fmt, 29, np.random.default_rng(1))
    x[[0, 5, 9, 15, 16]] = [0.0, -0.0, 0.0, -0.0, 0.0]  # zeros in blocks 0, 1 and 2
    x[24:] = 0.0  # a short last block of zeros only
    _assert_rounds_as_the_oracle(x, fmt)
    codes = frexp_quantize(x, fmt)[1]
    assert codes.max() == (QuantizeStatus.ROUNDED if fmt.mantissa_bits < 52 else 0)


@pytest.mark.parametrize("spec", BRANCH_FORMATS)
@pytest.mark.parametrize("where", [0, 7, 8, 15, 16, 20])
def test_a_single_subnormal_at_a_block_edge(monkeypatch, spec, where):
    # first and last index of a block, each side of the boundaries at 8 and
    # 16, and the last entry of a short block
    monkeypatch.setattr(floatsim, "_BLOCK", 8)
    fmt = parse_format(spec)
    quantum = math.ldexp(fmt.min_normal, -fmt.mantissa_bits)
    beside = where + 1 if where % 8 < 4 else where - 1  # in the same block
    for tiny in (1.3 * quantum, 0.4 * quantum, 3.0 * quantum,
                 fmt.min_normal - 0.4 * quantum, 5e-324):
        # underflows up, underflows to zero, on the subnormal grid, rounds up
        # to min_normal, and the smallest float64; alone or beside a zero
        for sign, zero in ((1.0, None), (-1.0, None), (1.0, beside)):
            x = _normals(fmt, 21, np.random.default_rng(where))
            x[where] = sign * tiny
            if zero is not None:
                x[zero] = 0.0
            _assert_rounds_as_the_oracle(x, fmt)


@pytest.mark.parametrize("spec", BRANCH_FORMATS)
@pytest.mark.parametrize("nan", [False, True])
def test_overflow_blocks_with_and_without_a_nan(monkeypatch, spec, nan):
    monkeypatch.setattr(floatsim, "_BLOCK", 8)
    fmt = parse_format(spec)
    rng = np.random.default_rng(2)
    with np.errstate(over="ignore"):  # past custom:52,11's max_finite is inf
        x = rng.choice([-1.0, 1.0], 30) * fmt.max_finite * rng.uniform(0.5, 1.5, 30)
        x[[3, 11, 19]] = np.nextafter(fmt.max_finite, np.inf)  # past it by a float64 ulp
    x[[1, 9, 17, 29]] = [np.inf, -fmt.max_finite, -np.inf, fmt.max_finite]
    x[6] = x[22] = 2.0 * fmt.max_finite  # far past it
    if nan:  # quiet, signalling, negative and all-ones NaNs, one per block,
        # inside, first, last and first again
        x[[4, 8, 23, 24]] = np.array([0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001,
                                       0xFFF8_0000_0000_0BAD, 0x7FFF_FFFF_FFFF_FFFF],
                                      dtype=np.uint64).view(np.float64)
    _assert_rounds_as_the_oracle(x, fmt)
    codes = frexp_quantize(x, fmt)[1]
    assert np.count_nonzero(codes == QuantizeStatus.OVERFLOW) >= 8


# ---------------------------------------------------------------------------
# Rounding in place, without codes

IN_PLACE_FORMATS = ["fp16", "fp32", "custom:7,8", "custom:3,4", "custom:60,8",
                    "custom:52,11"]


def _in_place_inputs(fmt, n, rng):
    """Zero-heavy, dense- and sparse-subnormal, special and overflow-heavy inputs.

    The tiny magnitudes spread over 2**-50 below min_normal, so most sit
    below where each format's subnormal step stops, and the step gathers
    from 0.2 %, 1 % and all of a block.
    """
    sign = rng.choice([-1.0, 1.0], n)
    tiny = sign * fmt.min_normal * 2.0 ** rng.uniform(-50.0, 0.0, n)
    zero_heavy = np.where(rng.random(n) < 0.998, 0.0, rng.normal(0.0, 1.0, n))
    zero_heavy[::503] = tiny[::503]
    sparse = rng.normal(0.0, 1.0, n)
    sparse[::100] = tiny[::100]
    specials = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, fmt.max_finite,
                           fmt.min_normal], n)
    overflow_heavy = sign * fmt.max_finite * rng.uniform(0.5, 1.0, n)
    overflow_heavy[::2] = np.inf
    return {"zero-heavy": zero_heavy, "dense-subnormal": tiny, "sparse-subnormal": sparse,
            "specials": specials, "overflow-heavy": overflow_heavy}


@pytest.mark.parametrize("block", [7, floatsim._BLOCK])
@pytest.mark.parametrize("spec", IN_PLACE_FORMATS)
def test_in_place_rounding_without_codes_matches_quantize_array(monkeypatch, block, spec):
    monkeypatch.setattr(floatsim, "_BLOCK", block)
    fmt = parse_format(spec)
    n = 2 * block + 123 if block > 7 else 701  # several blocks, the last one short
    for name, x in _in_place_inputs(fmt, n, np.random.default_rng(block)).items():
        want, want_codes = frexp_quantize(x, fmt)
        y = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nan and inf input must stay quiet
            got, codes = quantize_array(x, fmt)
            out, no_codes, stats = floatsim._quantize_blocks(y, fmt, out=y, codes=False)
        assert out is y and no_codes is None, name
        for v in (got, y):
            np.testing.assert_array_equal(v.view(np.uint64), want.view(np.uint64), name)
        np.testing.assert_array_equal(codes, want_codes, name)
        counts = [int(np.count_nonzero(want_codes == s)) for s in QuantizeStatus]
        assert stats == OverflowStats(n, *counts), name


@pytest.mark.parametrize("spec", ["custom:60,8", "custom:50,8", "fp16"])
def test_magnitudes_next_to_where_the_subnormal_step_stops(spec):
    # The step stops at min(c, min_normal); bit patterns there are about
    # 2**62, where float64 steps by 512 or more, so the limit test has to
    # stay in uint64.
    fmt = parse_format(spec)
    c = math.ldexp(1.0, fmt.min_exponent - fmt.mantissa_bits + 52)
    lim = int(np.float64(min(c, fmt.min_normal)).view(np.uint64))
    d = np.r_[-1000, -16:3, 1000]
    u = (lim + d).astype(np.uint64)
    u = np.concatenate([u, u | np.uint64(1 << 63)])
    x = u.view(np.float64)
    want, want_codes = frexp_quantize(x, fmt)
    got, codes = quantize_array(x, fmt)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(codes, want_codes)
    assert np.count_nonzero(got != x) > 0  # some of them do round


def test_out_must_be_a_contiguous_float64_array_of_the_input_shape():
    x = np.ones((3, 2))
    for out in (np.empty((2, 3)).T, np.empty((3, 2), dtype=np.float32), np.empty(6)):
        with pytest.raises(ValueError):
            floatsim._quantize_blocks(x, FP16, out=out)


@pytest.mark.parametrize("block", [7, 1000])
def test_recorder_stats_do_not_depend_on_rows_or_in_place_rounding(monkeypatch, block):
    monkeypatch.setattr(floatsim, "_BLOCK", block)
    x = _recorder_input(np.random.default_rng(7)).reshape(50, 100)
    plain, per_row = QuantRecorder(FP16), QuantRecorder(FP16, rows=50)
    for a in (x, x[:, 10:13] * 1e-9, x[:, 0]):
        want = per_row.q(a)  # out of place, with codes for row_overflow
        y = a.copy()
        assert plain.q(y, out=y) is y  # in place, without codes
        np.testing.assert_array_equal(y.view(np.uint64), want.view(np.uint64))
    s = plain.stats
    assert per_row.stats == s and min(s.exact, s.rounded, s.underflow, s.overflow) > 0
    assert s.exact + s.rounded + s.underflow + s.overflow == s.total == 5000 + 150 + 50
