"""Layer normalization and pre-normalizers that keep it inside a low-precision range.

Two pre-normalizers are provided. The worst-case-optimal one divides a
finite vector x by ``0.5 * (2/M)**(1/p) * (sum|x| + |sum x|)``, which bounds
its sum of p-th powers by M, reached by zero-sum two-spike vectors. For a
kernel that rounds into a format, :func:`theorem1_ceiling` derives M from
the format and the row width, below the format's max finite value by enough
that the rounded sum of squares provably fits. The practical one divides by
the mean absolute value (MAD), which maps common activation distributions
into a small band around [-2, 2] (uniform) or [-5, 5] (Gaussian).
Brute-force oracles for the underlying extremal inequality live here too, so
the closed forms never have to be trusted on faith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lowprec.floatsim import FloatFormat, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401

# Peak |x| below which a vector is degenerate, where prenormalize's
# denominator could underflow.
_DEGENERATE_PEAK = 1e-300


# Added to the variance under the square root by every layernorm here.
LAYERNORM_EPS = 1e-5


@dataclass(frozen=True)
class PrenormSpec:
    """Pre-normalizer choice.

    mode "theorem1" uses the worst-case-optimal scaling for norm order
    ``p``, which bounds the sum of p-th powers of any finite row by
    ``max_value``, a bound it requires; a caller that rounds the result
    into a format passes ``theorem1_ceiling(fmt, n)``, the bound that keeps
    the rounded sum of squares of a width-n row inside ``fmt``. Mode "mad"
    divides by the mean absolute value and ignores ``max_value``.
    """

    mode: str
    p: float = 2.0
    max_value: float | None = None

    def __post_init__(self):
        if self.mode not in ("theorem1", "mad"):
            raise ValueError(f"unknown prenorm mode {self.mode!r}")
        if not self.p >= 1:  # written so that nan fails too
            raise ValueError("norm order p must be >= 1")
        if self.mode == "theorem1" and self.max_value is None:
            raise ValueError("theorem1 needs max_value, e.g. theorem1_ceiling(fmt, n)")
        if self.max_value is not None and not self.max_value > 0:
            raise ValueError("max_value must be positive")


def layernorm(x, axis: int = -1, eps: float = LAYERNORM_EPS) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) along ``axis``, population variance."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("layernorm of an empty input")
    with np.errstate(over="ignore"):  # rows past float64's range saturate as they may
        mu = x.mean(axis=axis, keepdims=True)
        var = x.var(axis=axis, keepdims=True)
        return (x - mu) / np.sqrt(var + eps)


def lemma1_bound(S: float, p: float) -> float:
    """Largest possible sum of |x_i|**p over zero-mean vectors of L1 norm S."""
    if S < 0 or p < 1:
        raise ValueError("need S >= 0 and p >= 1")
    return 2.0 ** (1.0 - p) * S ** p


def extremal_vector(S: float, n: int) -> np.ndarray:
    """The two-spike maximizer (-S/2, 0, ..., 0, S/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if S < 0:
        raise ValueError("need S >= 0")
    v = np.zeros(n)
    v[0] = -S / 2.0
    v[-1] = S / 2.0
    return v


def theorem1_scale(p: float, M: float) -> float:
    """Coefficient c in the optimal pre-normalizer denominator c * (sum|x_i| + |sum x_i|).

    The sum is 2 max(P, N), P and N the positive and negative masses, and
    sum |x_i|**p <= P**p + N**p <= 2 max(P, N)**p, so a scaled row reaches
    at most M, and a zero-sum two-spike row reaches it.
    """
    if p < 1 or M <= 0:
        raise ValueError("need p >= 1 and M > 0")
    return 0.5 * (2.0 / M) ** (1.0 / p)


def theorem1_ceiling(fmt: FloatFormat, n: int) -> float:
    """The theorem-1 ``max_value`` M for rows of width ``n`` rounded into ``fmt``.

    M = max_finite * (1+u)**-(3+L) - n * eta * (min_normal + 1/2), with
    u = 2**-(m+1) for m mantissa bits, L = ceil(log2 n) and
    eta = min_normal * 2**-m the subnormal spacing. Raises ValueError when
    that is not positive, a format too narrow for width-n rows.

    Proof, for p = 2. Theorem 1 gives sum z_i**2 <= M for the pre-normalized
    float64 z of any finite row. :func:`stabilized_layernorm_rows` rounds
    y_i = fl(z_i), then s_i = fl(y_i**2), then adds the s_i in a pairwise
    tree of L levels, rounding every sum. Round-to-nearest gives
    fl(a o b) = (a o b)(1 + d), |d| <= u, for a normal result, and an
    absolute error of at most eta/2 for a subnormal one, as long as nothing
    overflows. So:

    - If z_i is normal, y_i**2 <= (1+u)**2 z_i**2. If it is subnormal, y_i
      and z_i are both at most min_normal in size and at most eta/2 apart,
      so y_i**2 - z_i**2 <= eta * min_normal. Either way
      y_i**2 <= (1+u)**2 z_i**2 + eta * min_normal.
    - s_i <= (1+u) y_i**2 + eta/2
      <= (1+u)**3 z_i**2 + (1+u) eta * min_normal + eta/2.
    - A sum of two non-negative floats is exact when it is subnormal, so
      each level multiplies by at most (1+u); an odd leftover skips a level
      and gains less. A node k levels up is at most (1+u)**k times the sum
      of its leaves.

    Every value up to the root is therefore at most
    (1+u)**(3+L) * sum z_i**2 + (1+u)**L * n * ((1+u) eta * min_normal + eta/2),
    which is at most max_finite for every sum z_i**2 <= M. By induction over
    the steps nothing overflows, so the model held at each one. The steps
    after the root divide it by n, add the epsilon and take the root; the
    outputs y_i / sigma are at most sqrt(n) in exact arithmetic.

    float64 carries z. The two row sums, their sum, the scale, the divide
    and the divisions below raise sum z_i**2 to at most M (1 + g),
    g < (4n + L + 12) * 2**-53. While g <= u, each value above is still at
    most max_finite before its own rounding, whose (1+u) is not yet spent,
    so the bound stands. That holds for m <= 29 and n <= 2**20, fp16 and
    fp32 included. For p != 2 the kernel still sums squares, which this
    bound does not cover.
    """
    m = fmt.mantissa_bits
    u = math.ldexp(1.0, -(m + 1))
    levels = (n - 1).bit_length()  # ceil(log2 n), the tree's depth
    ceiling = fmt.max_finite
    for _ in range(3 + levels):  # not (1 + u) ** k: libm pow may vary by host
        ceiling /= 1.0 + u
    ceiling -= n * math.ldexp(fmt.min_normal, -m) * (fmt.min_normal + 0.5)
    if not ceiling > 0:
        raise ValueError(f"{fmt.name} has no theorem-1 ceiling for rows of width {n}")
    return ceiling


def prenormalize(x, spec: PrenormSpec) -> tuple[np.ndarray, bool | np.ndarray]:
    """Scale ``x`` so the subsequent L_p-norm computation cannot overflow.

    ``x`` is one vector or a (rows, n) block whose rows are scaled
    independently, bit for bit as if each were passed alone. Returns
    (scaled, degenerate flag), the flag a bool for a vector and a per-row
    bool array for a block. A row is degenerate when its peak |x| is below
    1e-300, the all-zero row included: it is returned unchanged, because
    its denominator would underflow to zero or a subnormal (the layernorm
    epsilon already covers that case). In theorem1 mode the first row that
    is not finite raises ValueError.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("prenormalize needs a non-empty vector or (rows, n) block")
    rows = v[None, :] if v.ndim == 1 else np.ascontiguousarray(v)
    if spec.mode == "theorem1":
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:  # a one-row block gets the bare message, a taller one names the row
            why = "entries must be finite"
            raise ValueError(why if len(rows) == 1 else f"row {bad[0]}: {why}")
    y, degenerate = _scale_rows(rows, spec)
    if v.ndim == 1:
        return y[0], bool(degenerate[0])
    return y, degenerate


def _scale_rows(rows: np.ndarray, spec: PrenormSpec) -> tuple[np.ndarray, np.ndarray]:
    """:func:`prenormalize` of a (rows, n) block, without the finiteness check.

    A finite row whose denominator overflows float64 is first multiplied by
    2**-b, b the bit length of 2n, so that its sums fit. The scaling is
    exact, but for entries it makes subnormal, which lie so far below the
    row's peak that their quotients are zero either way; so the quotients
    are those of a float with a wider exponent range, and no other row
    moves.
    """
    a = np.abs(rows)
    peak = a.max(axis=1)
    degenerate = peak < _DEGENERATE_PEAK
    with np.errstate(over="ignore"):  # an inf denominator is redone below
        denom = _denominator(rows, a, spec)
    denom[degenerate] = 1.0  # x / 1 returns the row unchanged
    y = np.divide(rows, denom[:, None], out=a)
    wide = np.isinf(denom) & np.isfinite(peak)
    if wide.any():
        scaled = np.ldexp(rows[wide], -(2 * rows.shape[1]).bit_length())
        y[wide] = scaled / _denominator(scaled, np.abs(scaled), spec)[:, None]
    return y, degenerate


def _denominator(rows: np.ndarray, a: np.ndarray, spec: PrenormSpec) -> np.ndarray:
    """Per-row pre-normalizer denominator of ``rows``, ``a`` being ``|rows|``."""
    s1 = a.sum(axis=1)
    if spec.mode == "theorem1":
        return theorem1_scale(spec.p, spec.max_value) * (s1 + np.abs(rows.sum(axis=1)))
    return s1 / rows.shape[1]


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
                              rec: QuantRecorder) -> np.ndarray:
    """Row-wise layernorm computed in the simulated arithmetic of ``rec.fmt``.

    :func:`prenormalized_rows` on a copy of ``rows``, then
    :func:`layernorm_kernel`, both rounding into ``rec``, whose
    ``row_overflow`` counts row i at ``rec.first_row + i``. Returns the
    outputs; the caller's rows stay as they were.
    """
    # the copy is an argument only, so it dies before the kernel runs
    return layernorm_kernel(prenormalized_rows(
        np.array(rows, dtype=np.float64, order="C", ndmin=2), pspec, rec), rec)


def prenormalized_rows(x: np.ndarray, pspec: PrenormSpec | None,
                       rec: QuantRecorder) -> np.ndarray:
    """The kernel's input: the rows of ``x`` centered, pre-normalized and rounded.

    Per row: subtract the mean, apply the pre-normalizer (both in float64,
    the pre-normalizer being the thing under test; theorem1 raises ValueError
    naming, as ``rec.first_row + i``, the first row i that is not finite
    once centered), then round into ``rec``. ``x`` is a C-contiguous
    (rows, n) float64 array the caller owns; it is centered in place, so a
    caller that holds no other copy of its rows holds one block less.
    Returns ``x`` itself without a pre-normalizer; with one, a new array,
    and ``x`` is left centered, bit for bit ``x - x.mean(axis=1,
    keepdims=True)``, for a caller to round for the plain LayerNorm.
    """
    if x.size == 0:
        raise ValueError("empty input")
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite rows
        x -= x.mean(axis=1, keepdims=True)
        if pspec is not None and pspec.mode == "theorem1":
            bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
            if bad.size:
                raise ValueError(f"row {rec.first_row + int(bad[0])}: entries "
                                 "overflow float64 once scaled")
        yq = x if pspec is None else _scale_rows(x, pspec)[0]
    return rec.q(yq, out=yq)


def layernorm_kernel(yq: np.ndarray, rec: QuantRecorder) -> np.ndarray:
    """The variance/sqrt/divide chain on a (rows, n) block already in ``rec.fmt``.

    Every elementary result is rounded into ``rec``. The sum of squares
    reduces pairwise (a balanced tree, the shape a SIMD lane reduction
    takes), so rounding error grows with log n rather than n while every
    partial sum still has to fit the format. ``yq`` is C-contiguous float64,
    owned by the caller, and overwritten with the returned outputs.
    """
    n = yq.shape[1]
    # Every array rounded below is this function's own, so each is rounded
    # in place and no stage holds a second copy of its values. In a format
    # as wide as float64, a square or sum can overflow before its rounding,
    # which counts the inf; saturated rows divide to inf or nan.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        acc = yq * yq
        rec.q(acc, out=acc)
        while acc.shape[1] > 1:
            even = acc.shape[1] // 2 * 2
            pairs = acc[:, 0:even:2] + acc[:, 1:even:2]
            rec.q(pairs, out=pairs)
            if even != acc.shape[1]:  # odd leftover rides along unchanged
                pairs = np.concatenate([pairs, acc[:, even:]], axis=1)
            acc = pairs
        var = rec.q(acc[:, 0] / n)
        var_eps = rec.q(var + LAYERNORM_EPS)
        denom = rec.q(np.sqrt(var_eps))
        np.divide(yq, denom[:, None], out=yq)
    return rec.q(yq, out=yq)


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


def mad_monte_carlo(distribution: str, scale: float, samples: int,
                    seed: int) -> BoundStats:
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
        threshold = 2.05
    elif distribution == "gaussian":
        x = rng.normal(0.0, scale, samples)
        threshold = 5.01
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
