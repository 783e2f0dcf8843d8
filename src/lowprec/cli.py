"""Command line front end for the low-precision toolkit.

Subcommands: ``verify-theory`` (analytic-invariant suite with a JSON
report), ``audit-layernorm`` (overflow audit over a stream),
``audit-softmax`` (argmax and mass audit over a stream), ``profile-conv``
(dynamic-range profiles plus a MAC table), ``rewrite-graph`` (run passes,
emit metrics, optionally verify outputs) and ``gen-stream`` (synthetic
chunked streams).

Exit codes: 0 when every check passes, 1 when an invariant is violated,
2 for usage or file errors. Outputs are deterministic for fixed arguments
and seeds: files are written atomically, JSON keys are sorted, floats go
through repr.

A JSON config file (``--config``) may pre-set any long flag by its
destination name (``format``, ``prenorm``, ``p``, ``safety``, ``seed``,
``chunks``, ``out_dir``, ...); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import prenorm
from .convsub import (
    SUBSAMPLERS,
    frontend_share,
    init_weights,
    mac_count,
    profile_dynamic_range,
)
# quantize_array: the benchmark tracer (perfbench/spans.py) wraps it at this name.
from .floatsim import FP16, FloatFormat, parse_format, quantize_array
from .graphir import (
    Graph,
    GraphError,
    GraphRewriteError,
    MHAParams,
    apply_passes,
    build_mha_bsf,
    check_equivalence,
    mha_weights,
    movement_profile,
)
from .prenorm import LayerNormSpec, PrenormSpec, stabilized_layernorm_rows
from .softmax_lut import ExpLUT, SoftmaxRescaleSpec, softmax_lut, softmax_reference
from .streams import (
    StreamFormatError,
    atomic_write,
    read_stream,
    read_tensors,
    write_stream,
)

SQRT512 = math.sqrt(512.0)


# ---------------------------------------------------------------------------
# Small deterministic writers


def _write_json(path: Path, payload) -> None:
    with atomic_write(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with atomic_write(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _stats_dict(stats) -> dict:
    return {"total": stats.total, "exact": stats.exact,
            "rounded": stats.rounded, "underflow": stats.underflow,
            "overflow": stats.overflow}


def _load_rows(path: str) -> np.ndarray:
    """Stream chunks concatenated into one (rows, width) matrix."""
    chunks = [np.atleast_2d(c) for c in read_stream(path)]
    widths = {c.shape[-1] for c in chunks}
    if len(widths) != 1:
        raise StreamFormatError(f"{path}: chunks have mixed widths {sorted(widths)}")
    return np.concatenate([c.reshape(-1, c.shape[-1]) for c in chunks])


# ---------------------------------------------------------------------------
# verify-theory


def _check(name: str, observed: float, bound: float, ok: bool, **extra) -> dict:
    row = {"name": name, "observed": float(observed), "bound": float(bound),
           "margin": float(bound - observed), "pass": bool(ok)}
    row.update(extra)
    return row


def theory_report(n_max: int = 4, vectors: int = 20000,
                  samples: int = 1_000_000, seed: int = 0) -> list[dict]:
    """Run every analytic invariant and return one report row per check.

    ``n_max`` caps the exhaustive-oracle dimension, ``vectors`` is the
    random-vector budget shared across the bound sweeps, ``samples`` the
    Monte-Carlo budget per distribution.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    p_grid = (1.5, 2.0, 3.0)
    s_grid = (1.0, 2.0, 10.0)

    # Power-sum bound attained by the two-spike vector, exactly.
    worst = 0.0
    for p in p_grid:
        for S in s_grid:
            v = prenorm.extremal_vector(S, 8).values
            got = np.sum(np.abs(v) ** p)
            want = prenorm.lemma1_bound(S, p)
            worst = max(worst, abs(got - want) / want)
    rows.append(_check("power_bound_attained_by_two_spikes", worst, 1e-9,
                       worst <= 1e-9))

    # Power-sum bound dominates random zero-mean vectors.
    n_grid = (2, 3, 4, 8, 16, 64, 512)
    per_cell = max(1, vectors // (len(n_grid) * len(p_grid)))
    worst = 0.0
    for n in n_grid:
        x = rng.normal(size=(per_cell, n))
        x -= x.mean(axis=1, keepdims=True)
        S = np.abs(x).sum(axis=1)
        keep = S > 0
        for p in p_grid:
            bound = 2.0 ** (1.0 - p) * S[keep] ** p
            ratio = np.sum(np.abs(x[keep]) ** p, axis=1) / bound
            worst = max(worst, float(ratio.max()))
    rows.append(_check("power_bound_dominates_random_vectors", worst,
                       1.0 + 1e-9, worst <= 1.0 + 1e-9))

    # Brute-force oracle agrees with the closed form.
    worst = 0.0
    for n in range(2, max(2, n_max) + 1):
        for p in p_grid:
            for S in s_grid:
                got, _ = prenorm.lemma1_oracle(n, S, p, n_starts=500,
                                               n_samples=20000, seed=seed)
                want = prenorm.lemma1_bound(S, p)
                worst = max(worst, abs(got - want) / want)
    rows.append(_check("oracle_matches_closed_form", worst, 1e-9,
                       worst <= 1e-9, n_max=int(n_max)))

    # Optimal pre-normalizer: worst case lands exactly on the ceiling...
    m_grid = (1024.0, 65504.0)
    worst = 0.0
    for p in p_grid:
        for M in m_grid:
            spec = PrenormSpec(mode="theorem1", p=p, max_value=M)
            y, _ = prenorm.prenormalize(prenorm.extremal_vector(4.0, 8).values, spec)
            got = np.sum(np.abs(y) ** p)
            worst = max(worst, abs(got - M) / M)
    rows.append(_check("prenormalized_worst_case_reaches_ceiling", worst,
                       1e-6, worst <= 1e-6))

    # ... and no random zero-mean vector exceeds it.
    per_cell = max(1, vectors // (len(n_grid) * len(p_grid) * len(m_grid)))
    worst = 0.0
    for n in n_grid:
        x = rng.normal(size=(per_cell, n)) * 10.0 ** rng.uniform(-2, 2, (per_cell, 1))
        x -= x.mean(axis=1, keepdims=True)
        for p in p_grid + (1.0, 4.0):
            for M in m_grid:
                spec = PrenormSpec(mode="theorem1", p=p, max_value=M)
                for row in x:
                    if np.abs(row).sum() == 0.0:
                        continue
                    y, _ = prenorm.prenormalize(row, spec)
                    worst = max(worst, float(np.sum(np.abs(y) ** p) / M))
    rows.append(_check("prenormalized_power_never_exceeds_ceiling", worst,
                       1.0 + 1e-9, worst <= 1.0 + 1e-9))

    # The half-precision L2 scale constant simplifies to sqrt(2)/512.
    simplified = math.sqrt(2.0) / 512.0
    got = prenorm.theorem1_scale(2.0, 65504.0)
    rel = abs(got - simplified) / simplified
    rows.append(_check("l2_scale_matches_simplified_constant", rel, 1e-3,
                       rel <= 1e-3, scale=got, simplified=simplified))

    # Mean-absolute-deviation normalizer on the reference distributions.
    u = prenorm.mad_monte_carlo("uniform", 4.0, samples, seed)
    rel = abs(u.mean_abs - 2.0) / 2.0
    rows.append(_check("mad_uniform_mean_abs", rel, 0.01, rel <= 0.01))
    rows.append(_check("mad_uniform_output_range", u.max_abs_normalized,
                       2.05, u.max_abs_normalized <= 2.05))
    g = prenorm.mad_monte_carlo("gaussian", 3.0, samples, seed)
    want = math.sqrt(2.0 / math.pi) * 3.0
    rel = abs(g.mean_abs - want) / want
    rows.append(_check("mad_gaussian_mean_abs", rel, 0.01, rel <= 0.01))
    rows.append(_check("mad_gaussian_tail_beyond_5p01", g.tail_fraction,
                       2e-4, g.tail_fraction <= 2e-4))

    # Merging same-sign mass strictly increases the power sum.
    worst = math.inf
    for _ in range(200):
        n = int(rng.integers(3, 9))
        x = rng.normal(size=n)
        x -= x.mean()
        p = float(rng.choice(p_grid))
        sign = 1.0 if np.sum(x > 0) >= 2 else -1.0
        idx = np.flatnonzero(np.sign(x) == sign)[:2]
        if len(idx) < 2:
            continue
        before = np.sum(np.abs(x) ** p)
        after = np.sum(np.abs(prenorm.merge_step(x, idx[0], idx[1])) ** p)
        worst = min(worst, float(after - before))
    rows.append({"name": "merge_step_strictly_increases_power",
                 "observed": worst, "bound": 0.0, "margin": worst,
                 "pass": worst > 0.0})

    # Table exponential stays within its relative-error budget.
    lut = ExpLUT()
    grid = np.linspace(lut.domain_lo, lut.domain_hi, 200001)
    rel = float(np.max(np.abs(lut(grid) - np.exp(grid)) / np.exp(grid)))
    rows.append(_check("exp_table_relative_error", rel, 1e-3, rel <= 1e-3))

    return rows


def cmd_verify_theory(args) -> int:
    rows = theory_report(n_max=args.n_max, vectors=args.vectors,
                         samples=args.samples, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "theory_report.json"
    _write_json(report, {"checks": rows, "seed": args.seed})
    failed = [r for r in rows if not r["pass"]]
    for r in rows:
        verdict = "PASS" if r["pass"] else "FAIL"
        print(f"{verdict} {r['name']} (observed={r['observed']:.6g}, "
              f"bound={r['bound']:.6g})")
    print(f"report: {report}")
    if failed:
        print(f"{len(failed)} of {len(rows)} checks violated", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# audit-layernorm


def cmd_audit_layernorm(args) -> int:
    fmt = parse_format(args.format)
    rows = _load_rows(args.stream)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.prenorm == "none":
        pspec = None
    else:
        pspec = PrenormSpec(mode=args.prenorm, p=args.p,
                            max_value=fmt.max_finite, safety=args.safety)
    variants = []
    for mult_name, mult in (("1", 1.0), ("sqrt512", SQRT512)):
        for pre_name, pre in (("none", None), (args.prenorm, pspec)):
            variants.append((f"prenorm={pre_name},mult={mult_name}", pre, mult))
    seen, table = set(), []
    violated = False
    for name, pre, mult in variants:
        if name in seen:
            continue
        seen.add(name)
        _, per_row, stats = stabilized_layernorm_rows(rows * mult, pre,
                                                      LayerNormSpec(), fmt)
        bad = int(np.count_nonzero(per_row > 0))
        if pre is not None and bad:
            violated = True  # the bound promised this could not happen
        table.append({
            "config": name,
            "invocations": int(len(per_row)),
            "overflow_invocations": bad,
            "overflow_fraction": bad / len(per_row),
            "quantize": _stats_dict(stats),
        })

    # Histogram of per-row peak input magnitude, integer log2 bins.
    hist_path = out_dir / "layernorm_hist.csv"
    peaks = {m: np.abs(rows * s).max(axis=1)
             for m, s in (("1", 1.0), ("sqrt512", SQRT512))}
    logs = {m: np.floor(np.log2(np.clip(v, 1e-30, None))).astype(int)
            for m, v in peaks.items()}
    lo = min(v.min() for v in logs.values())
    hi = max(v.max() for v in logs.values())
    csv_rows = [
        [str(b)] + [str(int(np.count_nonzero(logs[m] == b)))
                    for m in ("1", "sqrt512")]
        for b in range(lo, hi + 1)
    ]
    _write_csv(hist_path, "log2_bin,count_mult1,count_multsqrt512", csv_rows)

    report_path = out_dir / "layernorm_audit.json"
    _write_json(report_path, {
        "format": fmt.name,
        "stream": args.stream,
        "rows": table,
        "histogram_csv": hist_path.name,
    })
    for r in table:
        print(f"{r['config']}: {r['overflow_invocations']}/{r['invocations']} "
              f"rows overflowed (fraction {r['overflow_fraction']:.4f})")
    print(f"report: {report_path}")
    print(f"histogram: {hist_path}")
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# audit-softmax


def _sum_tolerance(fmt: FloatFormat) -> float:
    if fmt.name == "fp16":
        return 1e-3
    if fmt.name == "fp32":
        return 1e-6
    u = 2.0 ** -(fmt.mantissa_bits + 1)
    return 2.0 * u + u * u


def cmd_audit_softmax(args) -> int:
    fmt = parse_format(args.format)
    rows = _load_rows(args.stream)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    out, stats = softmax_lut(rows, fmt=fmt)
    ref = softmax_reference(rows)
    q, _ = quantize_array(rows, fmt)
    srt = np.sort(q, axis=1)
    # a width-1 row's single entry is its own unique max
    runner_up = srt[:, -2] if srt.shape[1] > 1 else -np.inf
    unique = np.isfinite(srt[:, -1]) & (srt[:, -1] > runner_up)
    agree = float(np.mean(np.argmax(out[unique], axis=1)
                          == np.argmax(ref[unique], axis=1))) if unique.any() else 1.0
    sum_dev = float(np.abs(out.sum(axis=1) - 1.0).max())
    tol = _sum_tolerance(fmt)
    rescaled = int(np.count_nonzero(q.max(axis=1) > SoftmaxRescaleSpec().threshold))
    ok = agree == 1.0 and sum_dev <= tol

    report_path = out_dir / "softmax_audit.json"
    _write_json(report_path, {
        "format": fmt.name,
        "stream": args.stream,
        "rows": int(rows.shape[0]),
        "unique_max_rows": int(np.count_nonzero(unique)),
        "argmax_agreement": agree,
        "worst_sum_abs_dev": sum_dev,
        "sum_tolerance": tol,
        "rescaled_rows": rescaled,
        "quantize": _stats_dict(stats),
        "pass": ok,
    })
    print(f"rows={rows.shape[0]} unique_max={int(np.count_nonzero(unique))} "
          f"argmax_agreement={agree:.6f} worst_sum_dev={sum_dev:.3e} "
          f"rescaled={rescaled}")
    print(f"report: {report_path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# profile-conv


_MAC_ASSUMPTIONS = [
    "one MAC = one multiply-accumulate; a conv output position costs "
    "kh*kw*in_channels/groups MACs per output channel",
    "encoder cost per layer: 4*S*d^2 projections + 2*S^2*d attention "
    "products + 2*S*d*ff feed-forward, 12 layers, d=512, ff=2048; "
    "normalization, softmax and activations are not counted",
    "share = frontend/(frontend+encoder) at the same input; published "
    "whole-model percentages also count the decoder and output head, so "
    "they run lower than this two-part share",
]


def cmd_profile_conv(args) -> int:
    names = [n.strip() for n in args.conv.split(",") if n.strip()]
    for name in names:
        if name not in SUBSAMPLERS:
            raise ValueError(f"unknown subsampling config {name!r} "
                             f"(have {sorted(SUBSAMPLERS)})")
    fmt = None if args.format == "none" else parse_format(args.format)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if Path(args.stream).stat().st_size == 0:
        chunks = []
    else:
        chunks = [np.atleast_2d(c) for c in read_stream(args.stream)]
    input_hw = tuple(chunks[0].shape[-2:]) if chunks else (80, 1000)

    for name in names:
        config = SUBSAMPLERS[name]
        peaks_path = out_dir / f"conv_peaks_{name}.csv"
        if chunks:
            profile = profile_dynamic_range(chunks, config,
                                            init_weights(config, args.seed), fmt)
            _write_csv(peaks_path, "chunk,peak",
                       [[str(i), repr(p)] for i, p in
                        enumerate(profile.per_chunk_peak)])
            _write_json(out_dir / f"conv_hist_{name}.json",
                        profile.to_json_dict())
            print(f"{name}: {len(profile.per_chunk_peak)} chunks, "
                  f"peak {max(profile.per_chunk_peak):.6g} -> {peaks_path}")
        else:
            _write_csv(peaks_path, "chunk,peak", [])
            print(f"{name}: empty stream, no profile -> {peaks_path}")

    mac_rows = []
    for name in names:
        config = SUBSAMPLERS[name]
        share = frontend_share(config, input_hw)
        mc = mac_count(config, input_hw)
        share["per_layer_macs"] = list(mc.per_layer)
        mac_rows.append(share)
    _write_json(out_dir / "mac_table.json",
                {"assumptions": _MAC_ASSUMPTIONS, "rows": mac_rows})
    print(f"MAC table at input {list(input_hw)}:")
    for r in mac_rows:
        print(f"  {r['config']}: frontend {r['frontend_macs']} MACs, "
              f"encoder {r['encoder_macs']} MACs (S={r['seq_len']}), "
              f"share {r['share']:.4f}")
    for line in _MAC_ASSUMPTIONS:
        print(f"  note: {line}")
    print(f"mac table: {out_dir / 'mac_table.json'}")
    return 0


# ---------------------------------------------------------------------------
# rewrite-graph


def cmd_rewrite_graph(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weights: dict = {}
    if args.graph == "mha":
        params = MHAParams(batch=args.batch, heads=args.heads,
                           features=args.features, seq=args.seq)
        g = build_mha_bsf(params)
        weights = mha_weights(params, seed=args.seed)
        n_chunks = args.chunks if args.chunks else params.heads
    else:
        g = Graph.load(args.graph)
        n_chunks = args.chunks if args.chunks else 1
    if args.weights:
        weights = dict(read_tensors(args.weights))

    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    rewritten = apply_passes(g, passes, n_chunks=n_chunks,
                             chunk_axis=args.chunk_axis)

    graph_path = out_dir / "graph_out.json"
    rewritten.save(graph_path)
    metrics = {
        "graph": args.graph,
        "passes": passes,
        "chunks": n_chunks,
        "chunk_axis": args.chunk_axis,
        "before": {"movement": movement_profile(g), "ops": g.op_counts()},
        "after": {"movement": movement_profile(rewritten),
                  "ops": rewritten.op_counts()},
    }
    before_score = metrics["before"]["movement"]["memory_copy_score"]
    after_score = metrics["after"]["movement"]["memory_copy_score"]
    print(f"memory_copy_score {before_score} -> {after_score}")
    status = 0
    if args.check:
        try:
            diff = check_equivalence(g, rewritten, weights,
                                     n_instances=args.check_instances,
                                     seed=args.seed)
            metrics["check"] = {"instances": args.check_instances,
                                "max_abs_diff": diff, "pass": True}
            print(f"equivalence: max |diff| {diff:.3e} over "
                  f"{args.check_instances} instances")
        except GraphRewriteError as exc:
            metrics["check"] = {"instances": args.check_instances,
                                "max_abs_diff": None, "pass": False,
                                "error": str(exc)}
            print(f"equivalence FAILED: {exc}", file=sys.stderr)
            status = 1
    _write_json(out_dir / "rewrite_metrics.json", metrics)
    print(f"graph: {graph_path}")
    print(f"metrics: {out_dir / 'rewrite_metrics.json'}")
    return status


# ---------------------------------------------------------------------------
# gen-stream


def cmd_gen_stream(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows, width = args.rows, args.width
    if args.dist == "gaussian":
        x = rng.normal(0.0, args.scale, (rows, width))
    elif args.dist == "uniform":
        x = rng.uniform(-args.scale, args.scale, (rows, width))
    else:  # extremal: two opposite spikes, everything else zero
        x = np.zeros((rows, width))
        for i in range(rows):
            j, k = rng.choice(width, size=2, replace=False)
            x[i, j] = -args.scale / 2.0
            x[i, k] = args.scale / 2.0
    step = max(1, args.chunk_rows)
    chunks = [x[i:i + step] for i in range(0, rows, step)]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_stream(args.out, chunks)
    print(f"wrote {rows} x {width} {args.dist} rows "
          f"(scale {args.scale:g}, {len(chunks)} chunks) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


_DEFAULTS = {
    "format": "fp16", "prenorm": "theorem1", "p": 2.0, "safety": 1.0,
    "seed": 0, "chunks": 0, "out_dir": ".", "conv": "conv2d6,dws2d6",
    "n_max": 4, "vectors": 20000, "samples": 1_000_000,
    "passes": "layout,chunk,einsum", "chunk_axis": "heads",
    "check_instances": 20, "batch": 1, "heads": 8, "features": 512,
    "seq": 64, "dist": "gaussian", "rows": 256, "width": 512,
    "scale": 500.0, "chunk_rows": 32, "weights": "",
}


def _resolve(args) -> None:
    """Fill unset flags from the config file, then from the defaults."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    defaults = dict(_DEFAULTS)
    if args.command == "profile-conv":
        defaults["format"] = "none"  # ranges are the point; don't clip them
    for key, hard in defaults.items():
        if hasattr(args, key) and getattr(args, key) is None:
            value = cfg.get(key, hard)
            setattr(args, key, type(hard)(value) if value is not None else hard)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowprec",
        description="Numerical-stabilization toolkit for low-precision "
                    "inference: audits, theory checks and graph rewrites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file pre-setting any flag")
        p.add_argument("--out-dir", dest="out_dir", help="report directory")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--format",
                       help="fp16, fp32 or custom:<mantissa>,<exponent>")

    p = sub.add_parser("verify-theory", help="run the analytic checks")
    common(p)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="largest oracle dimension (default 4)")
    p.add_argument("--vectors", type=int,
                   help="random-vector budget (default 20000)")
    p.add_argument("--samples", type=int,
                   help="Monte-Carlo samples per distribution (default 1e6)")
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("audit-layernorm", help="overflow audit over a stream")
    common(p)
    p.add_argument("stream", help="chunked stream file")
    p.add_argument("--prenorm", choices=("none", "mad", "theorem1"),
                   help="pre-normalizer under audit (default theorem1)")
    p.add_argument("--p", type=float, help="norm exponent (default 2)")
    p.add_argument("--safety", type=float,
                   help="extra headroom divisor on the ceiling (default 1)")
    p.set_defaults(func=cmd_audit_layernorm)

    p = sub.add_parser("audit-softmax", help="argmax/mass audit over a stream")
    common(p)
    p.add_argument("stream", help="chunked stream file")
    p.set_defaults(func=cmd_audit_softmax)

    p = sub.add_parser("profile-conv", help="dynamic range + MAC table")
    common(p)
    p.add_argument("stream", help="chunked stream file (may be empty)")
    p.add_argument("--conv",
                   help="comma-separated config names "
                        "(conv2d6, dws2d6, conv2d6x22, dws2d6x22)")
    p.set_defaults(func=cmd_profile_conv)

    p = sub.add_parser("rewrite-graph", help="run graph rewrite passes")
    common(p)
    p.add_argument("graph", help='"mha" or a graph JSON path')
    p.add_argument("--passes", help="comma list of layout,chunk,einsum "
                                    "(default all; empty string for none)")
    p.add_argument("--chunks", type=int,
                   help="chunk count (default: one per head)")
    p.add_argument("--chunk-axis", dest="chunk_axis",
                   choices=("heads", "query"), help="chunking axis")
    p.add_argument("--check", action="store_true",
                   help="verify outputs against the input graph")
    p.add_argument("--check-instances", dest="check_instances", type=int,
                   help="random instances for --check (default 20)")
    p.add_argument("--weights", help="named-tensor file with graph weights")
    p.add_argument("--batch", type=int, help="builtin mha batch (default 1)")
    p.add_argument("--heads", type=int, help="builtin mha heads (default 8)")
    p.add_argument("--features", type=int,
                   help="builtin mha features (default 512)")
    p.add_argument("--seq", type=int,
                   help="builtin mha sequence length (default 64)")
    p.set_defaults(func=cmd_rewrite_graph)

    p = sub.add_parser("gen-stream", help="generate a synthetic stream")
    common(p)
    p.add_argument("out", help="output stream path (.csv for text)")
    p.add_argument("--dist", choices=("gaussian", "uniform", "extremal"),
                   help="row distribution (default gaussian)")
    p.add_argument("--rows", type=int, help="total rows (default 256)")
    p.add_argument("--width", type=int, help="row width (default 512)")
    p.add_argument("--scale", type=float,
                   help="sigma / half-range / total spike mass (default 500)")
    p.add_argument("--chunk-rows", dest="chunk_rows", type=int,
                   help="rows per chunk (default 32)")
    p.set_defaults(func=cmd_gen_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _resolve(args)
        return args.func(args)
    except (StreamFormatError, GraphError, GraphRewriteError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
