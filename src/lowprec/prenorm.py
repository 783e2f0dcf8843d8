"""Layer normalization and pre-normalizers that keep it inside a low-precision range.

Two pre-normalizers are provided. The worst-case-optimal one divides a
zero-mean vector by ``0.5 * (2/M)**(1/p)`` times its L1 norm, which makes the
largest attainable sum of p-th powers exactly M (the format's max finite
value). The practical one divides by the mean absolute value (MAD), which
maps common activation distributions into a small band around [-2, 2]
(uniform) or [-5, 5] (Gaussian). Brute-force oracles for the underlying
extremal inequality live here too, so the closed forms never have to be
trusted on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowprec.floatsim import FloatFormat, OverflowStats, QuantRecorder, QuantizeStatus
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401

# Peak |x| below which a vector is degenerate: ZeroMeanVector's tolerance
# floor, and where prenormalize's denominator could underflow.
_DEGENERATE_PEAK = 1e-300


@dataclass(frozen=True)
class LayerNormSpec:
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class PrenormSpec:
    """Pre-normalizer choice.

    mode "theorem1" uses the worst-case-optimal L1 scaling for norm order
    ``p`` and range limit ``max_value``; mode "mad" divides by the mean
    absolute value. ``safety`` shrinks the effective limit (0.5 targets
    M/2 so running partial sums have headroom); ``n`` is only advisory
    metadata for the MAD constant, the actual vector length is used.
    """

    mode: str
    p: float = 2.0
    max_value: float = 65504.0
    n: int | None = None
    safety: float = 1.0

    def __post_init__(self):
        if self.mode not in ("theorem1", "mad"):
            raise ValueError(f"unknown prenorm mode {self.mode!r}")
        if self.p < 1:
            raise ValueError("norm order p must be >= 1")
        if self.max_value <= 0:
            raise ValueError("max_value must be positive")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0 < self.safety <= 1):
            raise ValueError("safety fraction must be in (0, 1]")


@dataclass(frozen=True)
class ZeroMeanVector:
    """A vector whose entries sum to zero (within float64 slack)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("expected a non-empty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("entries must be finite")
        peak = np.max(np.abs(v))
        if abs(float(v.sum())) > 1e-12 * v.size * max(peak, _DEGENERATE_PEAK):
            raise ValueError("entries do not sum to zero")
        object.__setattr__(self, "values", v)


def layernorm(x, spec: LayerNormSpec | None = None, axis: int = -1) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) along ``axis``, population variance."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("layernorm of an empty input")
    eps = (spec or LayerNormSpec()).epsilon
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def lp_norm(x, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("lp_norm of an empty vector")
    if p == 1:
        return float(np.abs(x).sum())
    return float((np.abs(x) ** p).sum() ** (1.0 / p))


def lemma1_bound(S: float, p: float) -> float:
    """Largest possible sum of |x_i|**p over zero-mean vectors of L1 norm S."""
    if S < 0 or p < 1:
        raise ValueError("need S >= 0 and p >= 1")
    return 2.0 ** (1.0 - p) * S ** p


def extremal_vector(S: float, n: int) -> ZeroMeanVector:
    """The two-spike maximizer (-S/2, 0, ..., 0, S/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if S < 0:
        raise ValueError("need S >= 0")
    v = np.zeros(n)
    v[0] = -S / 2.0
    v[-1] = S / 2.0
    return ZeroMeanVector(v)


def theorem1_scale(p: float, M: float) -> float:
    """Coefficient c in the optimal pre-normalizer denominator c * sum|x_i|."""
    if p < 1 or M <= 0:
        raise ValueError("need p >= 1 and M > 0")
    return 0.5 * (2.0 / M) ** (1.0 / p)


def prenormalize(x, spec: PrenormSpec) -> tuple[np.ndarray, bool]:
    """Scale ``x`` so the subsequent L_p-norm computation cannot overflow.

    Returns (scaled vector, degenerate flag). The flag is True when the
    peak |x| is below 1e-300, the all-zero input included: such a vector is
    returned unchanged, because its denominator would underflow to zero or
    a subnormal (the layernorm epsilon already covers that case).
    """
    if isinstance(x, ZeroMeanVector):
        v = x.values
    else:
        v = np.asarray(x, dtype=np.float64)
        if spec.mode == "theorem1":
            v = ZeroMeanVector(v).values  # the optimality argument needs zero mean
    if v.size == 0:
        raise ValueError("prenormalize of an empty vector")
    a = np.abs(v)
    if a.max() < _DEGENERATE_PEAK:
        return v.copy(), True
    s1 = float(a.sum())
    if spec.mode == "theorem1":
        denom = theorem1_scale(spec.p, spec.safety * spec.max_value) * s1
    else:
        denom = s1 / v.size
    return v / denom, False


# ---------------------------------------------------------------------------
# Brute-force oracles for the extremal inequality


def merge_step(x, j: int, k: int) -> np.ndarray:
    """One replacement step: (x_j, x_k) -> (0, x_j + x_k).

    Keeps the mean and the L1 norm when x_j and x_k share a sign, and for
    p > 1 strictly increases sum |x_i|**p.
    """
    x = np.asarray(x, dtype=np.float64)
    if x[j] == 0.0 or x[k] == 0.0 or np.sign(x[j]) != np.sign(x[k]):
        raise ValueError("merge_step needs a same-sign non-zero pair")
    y = x.copy()
    y[k] = y[j] + y[k]
    y[j] = 0.0
    return y


def merge_to_spikes(x) -> np.ndarray:
    """Apply merge steps until each sign holds at most one non-zero entry."""
    y = np.asarray(x, dtype=np.float64).copy()
    for sign in (1.0, -1.0):
        idx = [i for i in range(y.size) if np.sign(y[i]) == sign]
        while len(idx) > 1:
            y = merge_step(y, idx[0], idx[1])
            idx = idx[1:]
    return y


def _constraint_samples(n: int, S: float, count: int, rng) -> np.ndarray:
    """Random zero-mean rows with L1 norm S, mixing smooth and spiky draws."""
    z = rng.standard_normal((count, n))
    third = count // 3
    if third:
        z[third:2 * third] = rng.standard_cauchy((third, n))
        z[2 * third:] = rng.uniform(-1.0, 1.0, (count - 2 * third, n))
    z = z[np.all(np.isfinite(z), axis=1)]
    z -= z.mean(axis=1, keepdims=True)
    l1 = np.abs(z).sum(axis=1, keepdims=True)
    good = l1[:, 0] > 0
    return z[good] * (S / l1[good])


def lemma1_oracle(n: int, S: float, p: float,
                  n_starts: int = 10_000, n_samples: int = 1_000_000,
                  seed: int = 0) -> tuple[float, np.ndarray]:
    """Empirical maximum of sum |x_i|**p over {sum x = 0, sum |x| = S}.

    Searches by (a) running the merge procedure to its two-spike endpoint
    from many random starts and (b) dense random sampling of the
    constraint set. Returns (max found, argmax found). Independent of the
    closed-form bound, which it exists to check.
    """
    if n < 2 or n > 8:
        raise ValueError("oracle is exhaustive-search priced; need 2 <= n <= 8")
    if S < 0 or p < 1:
        raise ValueError("need S >= 0 and p >= 1")
    rng = np.random.default_rng(seed)
    best_val = -math.inf
    best_vec = None

    starts = _constraint_samples(n, S, n_starts, rng)
    for row in starts:
        merged = merge_to_spikes(row)
        val = float((np.abs(merged) ** p).sum())
        if val > best_val:
            best_val, best_vec = val, merged

    samples = _constraint_samples(n, S, n_samples, rng)
    vals = (np.abs(samples) ** p).sum(axis=1)
    i = int(np.argmax(vals))
    if float(vals[i]) > best_val:
        best_val, best_vec = float(vals[i]), samples[i]

    if best_vec is None:  # S == 0 collapses the constraint set to {0}
        best_val, best_vec = 0.0, np.zeros(n)
    return best_val, best_vec


# ---------------------------------------------------------------------------
# Low-precision layernorm pipeline


def stabilized_layernorm_rows(rows, pspec: PrenormSpec | None,
                              lspec: LayerNormSpec | None,
                              fmt: FloatFormat):
    """Row-wise layernorm computed in simulated ``fmt`` arithmetic.

    Per row: subtract the mean, apply the pre-normalizer (both in float64,
    the pre-normalizer being the thing under test), quantize, then run the
    variance/sqrt/divide chain with every elementary result re-quantized.
    The sum of squares reduces pairwise (a balanced tree, the shape a SIMD
    lane reduction takes), so rounding error grows with log n rather than n
    while every partial sum still has to fit the format.

    Returns (outputs, per-row overflow counts, merged quantize stats).
    """
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if x.size == 0:
        raise ValueError("empty input")
    n = x.shape[1]
    eps = (lspec or LayerNormSpec()).epsilon

    centered = x - x.mean(axis=1, keepdims=True)
    if pspec is None:
        y = centered
    else:
        y = np.empty_like(centered)
        for i in range(x.shape[0]):
            y[i], _ = prenormalize(centered[i], pspec)

    rec = QuantRecorder(fmt)
    yq = rec.q(y)

    sq = rec.q(yq * yq)
    acc = sq
    while acc.shape[1] > 1:
        even = acc.shape[1] // 2 * 2
        pairs = rec.q(acc[:, 0:even:2] + acc[:, 1:even:2])
        if even != acc.shape[1]:  # odd leftover rides along unchanged
            pairs = np.concatenate([pairs, acc[:, even:]], axis=1)
        acc = pairs
    var = rec.q(acc[:, 0] / n)
    var_eps = rec.q(var + eps)
    denom = rec.q(np.sqrt(var_eps))
    out = rec.q(yq / denom[:, None])

    per_row = np.zeros(x.shape[0], dtype=np.int64)
    for codes in rec.codes:
        per_row += np.count_nonzero(
            codes.reshape(x.shape[0], -1) == QuantizeStatus.OVERFLOW, axis=1)
    return out, per_row, rec.stats


def stabilized_layernorm(x, pspec: PrenormSpec | None,
                         lspec: LayerNormSpec | None,
                         fmt: FloatFormat) -> tuple[np.ndarray, OverflowStats]:
    """Single-vector wrapper around :func:`stabilized_layernorm_rows`."""
    out, _, stats = stabilized_layernorm_rows(np.asarray(x, float)[None, :],
                                              pspec, lspec, fmt)
    return out[0], stats


# ---------------------------------------------------------------------------
# Monte-Carlo check of the MAD normalizer on reference distributions


@dataclass(frozen=True)
class BoundStats:
    distribution: str
    scale: float
    samples: int
    seed: int
    mean_abs: float
    max_abs_normalized: float
    tail_threshold: float
    tail_fraction: float


def mad_monte_carlo(distribution: str, scale: float, samples: int, seed: int,
                    tail_threshold: float | None = None) -> BoundStats:
    """Sample x, divide by empirical mean |x|, report how bounded it stays.

    distribution "uniform" draws unif[-scale, scale] (mean |x| -> scale/2,
    normalized support -> [-2, 2]); "gaussian" draws N(0, scale) (mean |x|
    -> sqrt(2/pi)*scale, normalized values stay in [-5.01, 5.01] with
    99.99% probability). Deterministic given the seed.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples for stable tail estimates")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        x = rng.uniform(-scale, scale, samples)
        threshold = 2.05 if tail_threshold is None else tail_threshold
    elif distribution == "gaussian":
        x = rng.normal(0.0, scale, samples)
        threshold = 5.01 if tail_threshold is None else tail_threshold
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    mean_abs = float(np.abs(x).mean())
    f = x / mean_abs
    return BoundStats(
        distribution=distribution,
        scale=scale,
        samples=samples,
        seed=seed,
        mean_abs=mean_abs,
        max_abs_normalized=float(np.abs(f).max()),
        tail_threshold=threshold,
        tail_fraction=float(np.count_nonzero(np.abs(f) > threshold)) / samples,
    )
