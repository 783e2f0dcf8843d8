"""Pre-normalizer math against brute-force search and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lowprec.floatsim import FP16, QuantRecorder, parse_format
from lowprec.prenorm import (
    BoundStats,
    PrenormSpec,
    extremal_vector,
    layernorm,
    lemma1_bound,
    lemma1_oracle,
    mad_monte_carlo,
    merge_step,
    merge_to_spikes,
    prenormalize,
    stabilized_layernorm_rows,
    theorem1_ceiling,
    theorem1_scale,
)

zero_mean_vectors = st.lists(
    st.floats(-1e3, 1e3), min_size=2, max_size=8
).map(lambda xs: np.asarray(xs) - np.mean(xs))


def test_layernorm_example():
    np.testing.assert_allclose(
        layernorm([0.0, 2.0, 4.0]),
        [-2.0 / math.sqrt(8.0 / 3.0 + 1e-5), 0.0, 2.0 / math.sqrt(8.0 / 3.0 + 1e-5)],
        rtol=1e-14,
    )


def test_layernorm_of_constant_row_is_zero():
    np.testing.assert_array_equal(layernorm([7.0, 7.0, 7.0]), [0.0, 0.0, 0.0])


def test_layernorm_batches_along_requested_axis():
    x = np.arange(12.0).reshape(3, 4)
    rowwise = layernorm(x, axis=-1)
    for i in range(3):
        np.testing.assert_allclose(rowwise[i], layernorm(x[i]), rtol=1e-14)
    np.testing.assert_allclose(layernorm(x, axis=0)[:, 2], layernorm(x[:, 2]))


@given(zero_mean_vectors, st.floats(-50, 50), st.floats(0.5, 10))
def test_layernorm_is_shift_and_scale_invariant_as_eps_vanishes(x, shift, scale):
    assume(np.abs(x).max() > 0.1)  # keep the variance far above epsilon
    base = layernorm(x, eps=1e-12)
    np.testing.assert_allclose(layernorm(scale * x + shift, eps=1e-12), base, atol=1e-4)


THEOREM1 = PrenormSpec("theorem1")


def test_zero_mean_vector_validation():
    prenormalize(np.array([-1.0, 0.0, 1.0]), THEOREM1)


def test_zero_sum_tolerance_scales_with_the_l1_norm():
    # Centering rows that ride on a large offset leaves a residual sum that
    # scales with the offset, far above 1e-12 * n * peak; it must pass.
    rows = 1e6 + np.random.default_rng(0).normal(size=(64, 512))
    centered = rows - rows.mean(axis=1, keepdims=True)
    residual = np.abs(centered.sum(axis=1)) / (512 * np.abs(centered).max(axis=1))
    assert residual.max() > 1e-12  # the old per-entry tolerance rejected these
    for row in centered:
        prenormalize(row, THEOREM1)
    with pytest.raises(ValueError, match="sum to zero"):
        prenormalize(np.array([1.0, 1.0]), THEOREM1)
    with pytest.raises(ValueError, match="sum to zero"):
        prenormalize(np.array([-1.0, 1.0 + 1e-5]), THEOREM1)
    with pytest.raises(ValueError):
        prenormalize(np.array([1.0, 1.0]), THEOREM1)
    with pytest.raises(ValueError, match="^entries must be finite$"):
        prenormalize(np.array([np.inf, -np.inf]), THEOREM1)


# ---------------------------------------------------------------------------
# The extremal inequality


def test_bound_is_attained_by_the_two_spike_vector():
    for p in (1.5, 2.0, 3.0):
        for S in (1.0, 2.0, 10.0):
            v = extremal_vector(S, 5)
            attained = float((np.abs(v) ** p).sum())
            assert math.isclose(attained, lemma1_bound(S, p), rel_tol=1e-12)


def test_bound_frozen_value():
    assert lemma1_bound(2.0, 2.0) == 2.0


@given(zero_mean_vectors, st.floats(1.0, 4.0))
def test_bound_holds_for_random_zero_mean_vectors(x, p):
    S = float(np.abs(x).sum())
    val = float((np.abs(x) ** p).sum())
    assert val <= lemma1_bound(S, p) * (1.0 + 1e-9) + 1e-300


def test_bound_is_strict_off_the_extremal_set():
    # a third non-zero coordinate forces slack
    for d in (1e-6, 0.1, 0.2):
        v = np.array([-1.0, d, 1.0 - d])
        val = float((np.abs(v) ** 2).sum())
        assert val < lemma1_bound(float(np.abs(v).sum()), 2.0)


def test_p_equal_one_is_equality_everywhere():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    x -= x.mean()
    S = float(np.abs(x).sum())
    assert math.isclose((np.abs(x) ** 1).sum(), lemma1_bound(S, 1.0), rel_tol=1e-12)


same_sign_pair = st.tuples(
    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.booleans()
).map(lambda t: (t[0] * (-1 if t[2] else 1), t[1] * (-1 if t[2] else 1)))


@given(same_sign_pair, st.floats(1.0 + 1e-3, 4.0))
def test_merge_step_increases_the_power_sum(pair, p):
    a, b = pair
    x = np.array([a, b, -(a + b)])
    y = merge_step(x, 0, 1)
    assert math.isclose(y.sum(), x.sum(), abs_tol=1e-9 * np.abs(x).max())
    assert math.isclose(np.abs(y).sum(), np.abs(x).sum(), rel_tol=1e-12)
    assert (np.abs(y) ** p).sum() > (np.abs(x) ** p).sum()


def test_merge_step_rejects_opposite_signs():
    with pytest.raises(ValueError):
        merge_step(np.array([1.0, -1.0]), 0, 1)


def test_merge_to_spikes_reaches_the_maximizer():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(6)
        x -= x.mean()
        y = merge_to_spikes(x)
        S = np.abs(x).sum()
        assert np.count_nonzero(y) <= 2
        np.testing.assert_allclose(np.sort(y)[[0, -1]], [-S / 2, S / 2], rtol=1e-9)


def test_oracle_agrees_with_closed_form():
    mx, arg = lemma1_oracle(4, 2.0, 2.0, n_starts=500, n_samples=50_000, seed=0)
    assert abs(mx - lemma1_bound(2.0, 2.0)) <= 1e-9 * lemma1_bound(2.0, 2.0)
    assert np.count_nonzero(np.abs(arg) > 1e-9) == 2


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        lemma1_oracle(20, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Pre-normalizers


def test_scale_frozen_value():
    assert theorem1_scale(2.0, 65504.0) == 0.002762810460640845


def test_scale_matches_simplified_half_precision_constant():
    got = theorem1_scale(2.0, 65504.0)
    simplified = math.sqrt(2.0) / 512.0  # treats the limit as 2**16
    assert abs(got - simplified) / simplified < 1e-3


def test_worst_case_lands_exactly_on_the_limit():
    for p in (1.5, 2.0, 3.0):
        spec = PrenormSpec("theorem1", p=p, max_value=65504.0)
        y, flag = prenormalize(extremal_vector(7.0, 6), spec)
        assert not flag
        assert math.isclose((np.abs(y) ** p).sum(), 65504.0, rel_tol=1e-9)


@given(zero_mean_vectors)
def test_no_zero_mean_vector_can_exceed_the_limit(x):
    spec = PrenormSpec("theorem1", p=2.0, max_value=65504.0)
    y, flag = prenormalize(np.asarray(x, float) - x.mean(), spec)
    if not flag:
        assert (np.abs(y) ** 2).sum() <= 65504.0 * (1.0 + 1e-9)


def test_theorem1_mode_requires_zero_mean_input():
    with pytest.raises(ValueError):
        prenormalize(np.array([1.0, 2.0]), PrenormSpec("theorem1"))


def test_mad_divides_by_mean_absolute_value():
    x = np.array([4.0, -2.0, 0.0, 6.0])  # mean |x| = 3
    y, flag = prenormalize(x, PrenormSpec("mad"))
    assert not flag
    np.testing.assert_allclose(y, x / 3.0, rtol=1e-15)
    assert math.isclose(np.abs(y).mean(), 1.0, rel_tol=1e-15)


def test_all_zero_input_is_flagged_and_passed_through():
    y, flag = prenormalize(np.zeros(5), PrenormSpec("mad"))
    assert flag and np.all(y == 0.0)


@pytest.mark.parametrize("mode", ["theorem1", "mad"])
@pytest.mark.parametrize("x", [[-5e-324, 5e-324], [0.0, 5e-324]])
def test_vectors_below_the_peak_floor_are_flagged_and_passed_through(mode, x):
    x = np.array(x)
    y, flag = prenormalize(x, PrenormSpec(mode))
    assert flag
    np.testing.assert_array_equal(y, x)


def _block_rows():
    """Zero-mean rows: gaussian, centered on a 1e6 offset, and below 1e-300."""
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 3.0, (12, 64)) * 10.0 ** rng.uniform(-3, 3, (12, 1))
    x[2:5] = 1e6 + rng.normal(size=(3, 64))
    x[7] = 1e-305 * rng.normal(size=64)
    x[9] = 0.0
    x -= x.mean(axis=1, keepdims=True)
    x[10, :2], x[10, 2:] = (-5e-324, 5e-324), 0.0
    return x


@pytest.mark.parametrize("mode", ["theorem1", "mad"])
def test_a_row_block_matches_the_per_row_calls_bit_for_bit(mode):
    x = _block_rows()
    spec = PrenormSpec(mode, p=3.0, max_value=32752.0)
    y, flags = prenormalize(x, spec)
    per_row = [prenormalize(row, spec) for row in x]
    assert y.shape == x.shape and flags.dtype == bool
    np.testing.assert_array_equal(y.view(np.uint64),
                                  np.stack([r for r, _ in per_row]).view(np.uint64))
    assert flags.tolist() == [f for _, f in per_row]
    assert flags.tolist() == [i in (7, 9, 10) for i in range(len(x))]
    # ... and both match the one-vector formula, sums taken per 1-d row.
    c = theorem1_scale(3.0, 32752.0)
    for i in range(len(x)):
        if not flags[i]:
            s1 = float(np.abs(x[i]).sum())
            denom = c * s1 if mode == "theorem1" else s1 / x.shape[1]
            np.testing.assert_array_equal(y[i], x[i] / denom)


def test_a_row_block_names_its_first_row_that_does_not_sum_to_zero():
    x = _block_rows()
    x[5, 0] += 1.0
    x[8, 0] += 1.0
    with pytest.raises(ValueError, match="^row 5: entries do not sum to zero$"):
        prenormalize(x, PrenormSpec("theorem1"))
    x[3, 1] = np.nan
    with pytest.raises(ValueError, match="^row 3: entries must be finite$"):
        prenormalize(x, PrenormSpec("theorem1"))
    prenormalize(x[:3], PrenormSpec("theorem1"))  # the rows above pass


def test_single_vector_calls_keep_their_shape_and_flag():
    y, flag = prenormalize(np.array([-2.0, 0.5, 1.5]), PrenormSpec("theorem1"))
    assert y.shape == (3,) and flag is False
    y, flag = prenormalize(np.zeros(4), PrenormSpec("mad"))
    assert y.shape == (4,) and flag is True
    with pytest.raises(ValueError, match="^entries do not sum to zero$"):
        prenormalize(np.array([1.0, 1.0]), PrenormSpec("theorem1"))


def test_spec_validation():
    with pytest.raises(ValueError):
        PrenormSpec("median")
    with pytest.raises(ValueError):
        PrenormSpec("theorem1", p=0.5)
    for kw in ({"p": math.nan}, {"max_value": math.nan}):
        with pytest.raises(ValueError):
            PrenormSpec("theorem1", **kw)
    PrenormSpec("theorem1", p=math.inf)  # the L-infinity limit stays accepted


# ---------------------------------------------------------------------------
# Low-precision pipeline


def test_stabilized_layernorm_frozen_example():
    row = np.array([100.0, -100.0, 300.0, -300.0])
    rec = QuantRecorder(FP16)
    out = stabilized_layernorm_rows(row[None], PrenormSpec("theorem1", p=2.0), rec)
    np.testing.assert_array_equal(
        out[0], [0.447265625, -0.447265625, 1.341796875, -1.341796875]
    )
    assert rec.stats.overflow == 0
    np.testing.assert_allclose(out[0], layernorm(row), atol=2e-3)


def test_large_rows_overflow_naively_but_not_stabilized():
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 500.0, (32, 64))
    naive = QuantRecorder(FP16, rows=32)
    stabilized_layernorm_rows(rows, None, naive)
    assert np.all(naive.row_overflow > 0)
    assert naive.stats.overflow > 0
    for mode in ("theorem1", "mad"):
        rec = QuantRecorder(FP16, rows=32)
        out = stabilized_layernorm_rows(rows, PrenormSpec(mode), rec)
        assert rec.stats.overflow == 0 and np.all(rec.row_overflow == 0)
        assert np.abs(out - layernorm(rows)).max() < 1e-2


def test_per_row_counts_sum_to_total_overflow():
    rng = np.random.default_rng(2)
    rows = rng.normal(0.0, 400.0, (16, 32))
    rec = QuantRecorder(FP16, rows=16)
    stabilized_layernorm_rows(rows, None, rec)
    assert int(rec.row_overflow.sum()) == rec.stats.overflow


CEILING_FORMATS = [parse_format(s) for s in ("fp16", "fp32", "custom:7,8", "custom:3,4")]


def _theorem1_overflow(row, fmt, max_value) -> int:
    """Overflowed roundings of one row through the theorem-1 kernel at ``max_value``."""
    rec = QuantRecorder(fmt)
    stabilized_layernorm_rows(row[None], PrenormSpec("theorem1", max_value=max_value), rec)
    return rec.stats.overflow


def test_the_ceiling_frozen_values_and_a_format_too_narrow_for_it():
    assert theorem1_ceiling(FP16, 512) == 65121.402868977595
    assert theorem1_ceiling(FP16, 2) == 65376.21852126328
    assert theorem1_ceiling(parse_format("custom:3,4"), 512) == 115.43256594403546
    with pytest.raises(ValueError, match="custom_m1e2 has no theorem-1 ceiling"):
        theorem1_ceiling(parse_format("custom:1,2"), 2)


@pytest.mark.parametrize("spec", ["fp16", "custom:7,8"])
@pytest.mark.parametrize("n", [2, 8, 512])
def test_a_two_spike_row_overflows_at_max_finite_but_not_at_the_ceiling(spec, n):
    # fp16: spikes of sqrt(32752) round to 181, whose square rounds to
    # 32768, and two of those sum past 65504.
    fmt = parse_format(spec)
    row = np.zeros(n)
    row[0], row[-1] = -1.0, 1.0
    assert _theorem1_overflow(row, fmt, fmt.max_finite) > 0
    assert _theorem1_overflow(row, fmt, theorem1_ceiling(fmt, n)) == 0


@given(fmt=st.sampled_from(CEILING_FORMATS), n=st.integers(2, 512),
       spikes=st.sampled_from([1, 2]), noise=st.floats(0.0, 1e-2),
       height=st.floats(1.0, 1e4), log10_scale=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_no_near_extremal_row_overflows_at_the_ceiling(fmt, n, spikes, noise, height,
                                                       log10_scale, seed):
    # Two opposite unit spikes over small noise, or one spike `height`
    # sigmas tall on a gaussian: the rows that come closest to the bound.
    rng = np.random.default_rng(seed)
    j, k = rng.choice(n, size=2, replace=False)
    if spikes == 2:
        row = noise * rng.standard_normal(n)
        row[j] -= 1.0
        row[k] += 1.0
    else:
        row = rng.standard_normal(n)
        row[j] += height
    row *= 10.0 ** log10_scale
    assert _theorem1_overflow(row, fmt, theorem1_ceiling(fmt, n)) == 0


def test_theorem1_kernel_peaks_below_four_and_a_quarter_inputs(traced_peak):
    # The kernel rounds its own temporaries in place, so at most y, y**2 and
    # the first tree level are alive at once, under three inputs' worth.
    rows = np.random.default_rng(3).normal(0.0, 500.0, (1024, 512))
    before = rows.copy()
    spec = PrenormSpec("theorem1", max_value=FP16.max_finite)
    rec = QuantRecorder(FP16, rows=1024)
    assert traced_peak(lambda: stabilized_layernorm_rows(rows, spec, rec)) <= 4.25 * rows.nbytes
    np.testing.assert_array_equal(rows, before)  # the caller's rows stay as they were


def test_pipeline_is_deterministic():
    rng = np.random.default_rng(9)
    rows = rng.normal(0.0, 50.0, (8, 24))
    a = stabilized_layernorm_rows(rows, PrenormSpec("mad"), QuantRecorder(FP16))
    b = stabilized_layernorm_rows(rows, PrenormSpec("mad"), QuantRecorder(FP16))
    np.testing.assert_array_equal(a, b)


@given(st.integers(0, 10_000))
def test_moderate_rows_stay_accurate(seed):
    rng = np.random.default_rng(seed)
    row = rng.normal(0.0, 10.0, 32)
    rec = QuantRecorder(FP16)
    out = stabilized_layernorm_rows(row[None], PrenormSpec("theorem1"), rec)
    assert rec.stats.overflow == 0
    assert np.abs(out[0] - layernorm(row)).max() < 2e-2


# ---------------------------------------------------------------------------
# Monte-Carlo bounds for the mean-absolute-value normalizer


def test_uniform_mc_matches_closed_form():
    b = mad_monte_carlo("uniform", 5.0, 100_000, seed=7)
    assert abs(b.mean_abs - 2.5) / 2.5 < 0.01  # E|x| = L/2
    assert b.max_abs_normalized <= 2.05
    assert b.tail_fraction <= 1e-3


def test_gaussian_mc_matches_closed_form():
    sigma = 3.0
    b = mad_monte_carlo("gaussian", sigma, 100_000, seed=7)
    expect = math.sqrt(2.0 / math.pi) * sigma
    assert abs(b.mean_abs - expect) / expect < 0.01
    assert b.tail_threshold == 5.01
    assert b.tail_fraction <= 2e-4


def test_mc_is_reproducible_and_guarded():
    a = mad_monte_carlo("uniform", 1.0, 10_000, seed=3)
    b = mad_monte_carlo("uniform", 1.0, 10_000, seed=3)
    assert a == b
    with pytest.raises(ValueError):
        mad_monte_carlo("uniform", 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        mad_monte_carlo("laplace", 1.0, 10_000, seed=0)
