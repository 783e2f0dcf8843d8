"""Table-exponential softmax against the float64 reference."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowprec.floatsim import FP16, FP32, QuantRecorder
from lowprec.softmax_lut import (
    RESCALE_THRESHOLD,
    ExpLUT,
    softmax_lut,
    softmax_reference,
)


def test_table_endpoints_and_step():
    lut = ExpLUT()
    assert lut.entries == 1024
    assert lut.step == 16.0 / 1023.0
    assert lut.values[0] == math.exp(-16.0)
    assert lut.values[-1] == 1.0
    assert lut(0.0) == 1.0


def test_below_domain_is_an_exact_zero():
    lut = ExpLUT()
    assert lut(-16.0000001) == 0.0
    assert lut(-1e9) == 0.0
    assert lut(-16.0) == math.exp(-16.0)


def test_above_domain_clamps_to_the_top_entry():
    lut = ExpLUT()
    assert lut(0.5) == 1.0
    assert lut(4096.0) == 1.0


def test_interpolation_error_matches_second_order_theory():
    lut = ExpLUT()
    mids = lut.grid[:-1] + lut.step / 2.0  # worst points of linear interp
    rel = np.abs(lut(mids) - np.exp(mids)) / np.exp(mids)
    worst = rel.max()
    assert worst <= 1e-3
    theory = lut.step**2 / 8.0
    assert 0.5 * theory < worst < 1.1 * theory


@given(st.floats(-16.0, 0.0))
def test_interpolation_stays_close_everywhere(x):
    assert abs(ExpLUT()(x) - math.exp(x)) <= 1e-3 * math.exp(x)


def test_table_is_monotone():
    lut = ExpLUT()
    xs = np.linspace(-17.0, 1.0, 10_001)
    assert np.all(np.diff(lut(xs)) >= 0.0)


# ---------------------------------------------------------------------------
# Rescaling of hot rows (max above RESCALE_THRESHOLD)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def unrescaled(x):
    """The table softmax of a row with the rescale step left out."""
    e = ExpLUT()(x - x.max())
    return e / e.sum()


def test_rescale_example_row():
    x = np.array([5000.0, 4995.0, -3000.0])
    out = softmax_lut(x)
    assert same_bits(out, softmax_lut(4096.0 * (x / x.max())))
    assert out[1] > unrescaled(x)[1]  # the gap of 5 shrank to 4.096


def test_rescale_threshold_is_strict():
    assert RESCALE_THRESHOLD == 4096.0
    x = np.array([4096.0, 4090.5, 1.0])
    assert same_bits(softmax_lut(x), unrescaled(x))
    rec = QuantRecorder(FP16)
    softmax_lut(rec.q(x), rec)
    assert rec.stats.total == 3 * 4 + 1  # input, shift, table, quotient + total
    y = np.array([4100.0, 4092.0, 1.0])
    assert same_bits(softmax_lut(y), softmax_lut(4096.0 * (y / y.max())))
    rec = QuantRecorder(FP16)
    softmax_lut(rec.q(y), rec)
    assert rec.stats.total == 3 * 6 + 1  # plus the ratio and the product


def test_rescale_is_per_row():
    x = np.array([[9000.0, 0.0, 8990.0], [1.0, 2.0, -3.0]])
    out = softmax_lut(x)
    assert same_bits(out[0], softmax_lut(4096.0 * (x[0] / 9000.0)))
    assert same_bits(out[1], softmax_lut(x[1]))


@given(st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=6))
def test_rescale_preserves_order(xs):
    x = np.array(xs)
    out = softmax_lut(x)
    # weakly monotone: sorting by x must leave the output sorted (ties allowed)
    assert np.all(np.diff(out[np.argsort(x)]) >= 0.0)


def test_all_negative_rows_are_never_rescaled():
    x = np.array([-5000.0, -9000.0, -5003.0])
    out = softmax_lut(x)
    assert same_bits(out, unrescaled(x))
    assert np.argmax(out) == 0


# ---------------------------------------------------------------------------
# Full softmax


def test_exact_mode_tracks_the_reference():
    rng = np.random.default_rng(1)
    x = rng.uniform(-6.0, 6.0, (40, 32))
    rec = QuantRecorder(None)
    out = softmax_lut(x, rec)
    assert rec.stats.total == 0  # no quantization happened
    np.testing.assert_allclose(out, softmax_reference(x), atol=1e-4)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-4)


def test_wide_spread_rows_flush_their_tail():
    x = np.array([[0.0, -20.0, -30.0]])
    out = softmax_lut(x)
    assert out[0, 0] == 1.0 and out[0, 1] == 0.0 and out[0, 2] == 0.0


def test_half_precision_hot_rows_keep_argmax_and_mass():
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 3000.0, (100, 64))
    rows = rows[np.max(rows, axis=1) > 4096.0]
    assert len(rows) >= 50
    rec = QuantRecorder(FP16)
    out = softmax_lut(rec.q(rows), rec)
    ref = softmax_reference(rows)
    assert np.all(np.argmax(out, axis=1) == np.argmax(ref, axis=1))
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-3
    assert rec.stats.overflow == 0


def test_single_precision_mass_is_much_tighter():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 100.0, (200, 48))
    rec = QuantRecorder(FP32)
    out = softmax_lut(rec.q(x), rec)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6


def test_skipping_max_subtraction_ruins_the_answer():
    # Why softmax_lut subtracts the row max after the rescale: rescaled
    # positives fed to the table directly all clamp to its top entry.
    rng = np.random.default_rng(2)
    rows = rng.normal(0.0, 3000.0, (30, 64))
    rows = rows[np.max(rows, axis=1) > 4096.0]
    e = ExpLUT()(4096.0 * rows / rows.max(axis=1, keepdims=True))
    ref = softmax_reference(rows)
    agree = np.mean(np.argmax(e, axis=1) == np.argmax(ref, axis=1))
    assert agree < 0.5
    assert np.argmax(softmax_lut(rows), axis=1).tolist() == \
        np.argmax(ref, axis=1).tolist()


def test_nd_batches():
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 2.0, (2, 3, 5))
    out = softmax_lut(x)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-4)
    np.testing.assert_allclose(out, softmax_reference(x), atol=1e-4)


def test_table_softmax_peaks_below_two_and_a_half_inputs(traced_peak):
    # Only the input copy and the table exp make new arrays; every other
    # stage works in place.
    x = np.random.default_rng(6).normal(0.0, 500.0, (1024, 512))
    x[3::4] *= 10.0  # hot rows take the rescale
    x = QuantRecorder(FP16).q(x)
    before = x.copy()
    assert traced_peak(lambda: softmax_lut(x, QuantRecorder(FP16))) <= 2.5 * x.nbytes
    softmax_lut(x)
    np.testing.assert_array_equal(x, before)  # with or without a format


def test_half_precision_runs_are_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 5000.0, (10, 16))
    a = softmax_lut(QuantRecorder(FP16).q(x), QuantRecorder(FP16))
    b = softmax_lut(QuantRecorder(FP16).q(x), QuantRecorder(FP16))
    assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error")
def test_reference_of_a_row_spanning_past_float64_warns_nothing():
    # 1e308 - (-1e308) overflows to inf by design; exp(-inf) is 0
    np.testing.assert_array_equal(softmax_reference(np.array([1e308, -1e308])), [1.0, 0.0])
