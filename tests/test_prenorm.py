"""Pre-normalizer math against brute-force search and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lowprec.floatsim import FP16
from lowprec.prenorm import (
    BoundStats,
    LayerNormSpec,
    PrenormSpec,
    ZeroMeanVector,
    extremal_vector,
    layernorm,
    lemma1_bound,
    lemma1_oracle,
    lp_norm,
    mad_monte_carlo,
    merge_step,
    merge_to_spikes,
    prenormalize,
    stabilized_layernorm,
    stabilized_layernorm_rows,
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
    spec = LayerNormSpec(epsilon=1e-12)
    base = layernorm(x, spec)
    np.testing.assert_allclose(layernorm(scale * x + shift, spec), base, atol=1e-4)


def test_lp_norm_values():
    assert lp_norm([3.0, 4.0], 2) == 5.0
    assert lp_norm([1.0, -2.0, 3.0], 1) == 6.0
    with pytest.raises(ValueError):
        lp_norm([1.0], 0.5)


def test_zero_mean_vector_validation():
    ZeroMeanVector(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ZeroMeanVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ZeroMeanVector(np.array([np.inf, -np.inf]))


# ---------------------------------------------------------------------------
# The extremal inequality


def test_bound_is_attained_by_the_two_spike_vector():
    for p in (1.5, 2.0, 3.0):
        for S in (1.0, 2.0, 10.0):
            v = extremal_vector(S, 5).values
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
    y, flag = prenormalize(ZeroMeanVector(np.asarray(x, float) - x.mean()), spec)
    if not flag:
        assert (np.abs(y) ** 2).sum() <= 65504.0 * (1.0 + 1e-9)


def test_safety_fraction_shrinks_the_limit():
    spec = PrenormSpec("theorem1", p=2.0, max_value=65504.0, safety=0.5)
    y, _ = prenormalize(extremal_vector(3.0, 4), spec)
    assert math.isclose((np.abs(y) ** 2).sum(), 65504.0 / 2.0, rel_tol=1e-9)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        PrenormSpec("median")
    with pytest.raises(ValueError):
        PrenormSpec("theorem1", p=0.5)
    with pytest.raises(ValueError):
        PrenormSpec("theorem1", safety=0.0)


# ---------------------------------------------------------------------------
# Low-precision pipeline


def test_stabilized_layernorm_frozen_example():
    row = np.array([100.0, -100.0, 300.0, -300.0])
    out, stats = stabilized_layernorm(row, PrenormSpec("theorem1", p=2.0), None, FP16)
    np.testing.assert_array_equal(
        out, [0.447265625, -0.447265625, 1.341796875, -1.341796875]
    )
    assert stats.overflow == 0
    np.testing.assert_allclose(out, layernorm(row), atol=2e-3)


def test_large_rows_overflow_naively_but_not_stabilized():
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 500.0, (32, 64))
    _, per_row_naive, stats_naive = stabilized_layernorm_rows(rows, None, None, FP16)
    assert np.all(per_row_naive > 0)
    assert stats_naive.overflow > 0
    for mode in ("theorem1", "mad"):
        out, per_row, stats = stabilized_layernorm_rows(
            rows, PrenormSpec(mode), None, FP16
        )
        assert stats.overflow == 0 and np.all(per_row == 0)
        assert np.abs(out - layernorm(rows)).max() < 1e-2


def test_per_row_counts_sum_to_total_overflow():
    rng = np.random.default_rng(2)
    rows = rng.normal(0.0, 400.0, (16, 32))
    _, per_row, stats = stabilized_layernorm_rows(rows, None, None, FP16)
    assert int(per_row.sum()) == stats.overflow


def test_pipeline_is_deterministic():
    rng = np.random.default_rng(9)
    rows = rng.normal(0.0, 50.0, (8, 24))
    a = stabilized_layernorm_rows(rows, PrenormSpec("mad"), None, FP16)
    b = stabilized_layernorm_rows(rows, PrenormSpec("mad"), None, FP16)
    np.testing.assert_array_equal(a[0], b[0])


@given(st.integers(0, 10_000))
def test_moderate_rows_stay_accurate(seed):
    rng = np.random.default_rng(seed)
    row = rng.normal(0.0, 10.0, 32)
    out, stats = stabilized_layernorm(row, PrenormSpec("theorem1"), None, FP16)
    assert stats.overflow == 0
    assert np.abs(out - layernorm(row)).max() < 2e-2


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
