"""Command line front end for the low-precision toolkit.

Subcommands: ``verify-theory`` (analytic-invariant suite with a JSON
report), ``audit-layernorm`` (overflow audit over a stream),
``audit-softmax`` (argmax and mass audit over a stream), ``profile-conv``
(dynamic-range profiles plus a MAC table), ``rewrite-graph`` (run passes,
emit metrics, optionally verify outputs) and ``gen-stream`` (synthetic
chunked streams).

Exit codes: 0 when every check passes, 1 when an invariant is violated,
2 for usage or file errors, 3 for an unexpected error (its traceback is
printed). Outputs are deterministic for fixed arguments and seeds: files
are written atomically, JSON keys are sorted, floats go through repr.

Every value is set on the command line; each flag is declared once, with its
default, in :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import prenorm
from .convsub import (
    SUBSAMPLERS,
    LazyWeights,
    frontend_share,
    mac_count,
    profile_dynamic_range,
)
# init_weights: no command calls it (profile-conv draws LazyWeights); it stays
# only because the benchmark tracer (perfbench/spans.py) wraps this name.
from .convsub import init_weights  # noqa: F401
# quantize_array: the benchmark tracer (perfbench/spans.py) wraps it at this name.
from .floatsim import (FloatFormat, QuantRecorder, log2_bins, parse_format,
                       quantize_array)
from .graphir import (
    Graph,
    GraphError,
    GraphRewriteError,
    MHAParams,
    apply_passes,
    build_mha_bsf,
    check_equivalence,
    check_weights,
    mha_weights,
    movement_profile,
)
# stabilized_layernorm_rows: no command calls it (audit-layernorm runs its two
# halves); it stays only because the benchmark tracer (perfbench/spans.py) wraps this name.
from .prenorm import (PrenormSpec, layernorm_kernel, prenormalized_rows,  # noqa: F401
                      stabilized_layernorm_rows, theorem1_ceiling)
from .softmax_lut import ExpLUT, hot_rows, softmax_lut, softmax_reference
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


# Bytes of float64 rows per audit block. The audits walk a stream one block at
# a time, so their temporaries follow this size and not the stream's.
_BLOCK_BYTES = 1 << 19


def _row_blocks(path: str) -> tuple[int, int, Iterator[tuple[int, np.ndarray]]]:
    """The stream's row count and width, and its rows as (first row, block)
    pairs.

    A block holds about ``_BLOCK_BYTES`` of (rows, width) rows: a view of
    one large chunk, or several small chunks joined, since every call on a
    block pays a fixed cost. Blocks are float64 whatever the stream's
    dtype, so a float16 or float32 row is scaled as its float64 widening
    would be, not overflowed or rounded in its own dtype first. A row with
    an inf or nan entry raises StreamFormatError naming it, when its block
    is reached.
    """
    chunks = [np.atleast_2d(c) for c in read_stream(path)]
    widths = {c.shape[-1] for c in chunks}
    if len(widths) != 1:
        raise StreamFormatError(f"{path}: chunks have mixed widths {sorted(widths)}")
    if not any(c.size for c in chunks):  # no rows, or rows of width 0
        raise StreamFormatError(f"{path}: the stream holds no entries")
    chunks = [c.reshape(-1, c.shape[-1]) for c in chunks]
    width = widths.pop()
    step = max(1, _BLOCK_BYTES // (8 * width))

    def block(first, parts):
        rows = (parts[0].astype(np.float64, copy=False) if len(parts) == 1
                else np.concatenate(parts, dtype=np.float64))
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:  # nothing to audit, and no log2 bin for the row
            raise StreamFormatError(f"{path}: row {first + bad[0]}: "
                                    "entries must be finite")
        return first, rows

    def blocks():
        first, parts, held = 0, [], 0
        for c in chunks:
            while len(c):
                parts.append(c[:step - held])
                held += len(parts[-1])
                c = c[len(parts[-1]):]
                if held == step:
                    yield block(first, parts)
                    first, parts, held = first + held, [], 0
        if parts:
            yield block(first, parts)

    return sum(len(c) for c in chunks), width, blocks()


# ---------------------------------------------------------------------------
# verify-theory


def _check(name: str, observed: float, bound: float, ok: bool, **extra) -> dict:
    row = {"name": name, "observed": float(observed), "bound": float(bound),
           "margin": float(bound - observed), "pass": bool(ok)}
    row.update(extra)
    return row


def theory_report(n_max: int, vectors: int, samples: int, seed: int) -> list[dict]:
    """Run every analytic invariant and return one report row per check.

    ``n_max`` caps the exhaustive-oracle dimension, ``vectors`` is the
    random-vector budget shared across the bound sweeps, ``samples`` the
    Monte-Carlo budget per distribution.
    """
    if not 2 <= n_max <= 8:  # 8: lemma1_oracle's exhaustive search
        raise ValueError(f"--n-max must be between 2 and 8, got {n_max}")
    if samples < 10_000:  # mad_monte_carlo's tail estimates
        raise ValueError(f"--samples must be at least 10000, got {samples}")
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    p_grid = (1.5, 2.0, 3.0)
    s_grid = (1.0, 2.0, 10.0)

    # Power-sum bound attained by the two-spike vector, exactly.
    worst = 0.0
    for p in p_grid:
        for S in s_grid:
            v = prenorm.extremal_vector(S, 8)
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
    for n in range(2, n_max + 1):
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
            y, _ = prenorm.prenormalize(prenorm.extremal_vector(4.0, 8), spec)
            got = np.sum(np.abs(y) ** p)
            worst = max(worst, abs(got - M) / M)
    rows.append(_check("prenormalized_worst_case_reaches_ceiling", worst,
                       1e-6, worst <= 1e-6))

    # ... and no random row exceeds it: centered, as drawn, and moved off
    # zero by its first entry.
    per_cell = max(1, vectors // (len(n_grid) * len(p_grid) * len(m_grid)))
    worst = 0.0
    for n in n_grid:
        x = rng.normal(size=(per_cell, n)) * 10.0 ** rng.uniform(-2, 2, (per_cell, 1))
        x = np.concatenate([x - x.mean(axis=1, keepdims=True), x, x + x[:, :1]])
        for p in p_grid + (1.0, 4.0):
            for M in m_grid:
                spec = PrenormSpec(mode="theorem1", p=p, max_value=M)
                y, _ = prenorm.prenormalize(x, spec)  # all-zero rows add 0
                worst = max(worst, float((np.sum(np.abs(y) ** p, axis=1) / M).max()))
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
    if not args.p >= 1:  # whatever --prenorm is; written so that nan fails too
        raise ValueError(f"--p: norm order p must be >= 1, got {args.p}")
    fmt = parse_format(args.format)
    n_rows, width, blocks = _row_blocks(args.stream)
    out_dir = Path(args.out_dir)

    if args.prenorm == "none":
        pspec = None
    elif args.prenorm == "mad":
        pspec = PrenormSpec(mode="mad", p=args.p)
    else:
        pspec = PrenormSpec(mode="theorem1", p=args.p,
                            max_value=theorem1_ceiling(fmt, width))
    variants = {"none": None, args.prenorm: pspec}  # one entry for --prenorm none
    mults = {"1": 1.0, "sqrt512": SQRT512}
    recs = {(m, pre_name): QuantRecorder(fmt, rows=n_rows)
            for m in mults for pre_name in variants}
    peaks = {m: np.empty(n_rows) for m in mults}  # per-row peak |input|
    for start, block in blocks:
        for rec in recs.values():
            rec.first_row = start
        # max|block| * mult is each row's max|block * mult|, since rounding
        # a product by a positive constant is monotone
        peak = np.abs(block).max(axis=1)
        pre = []  # (block, recorder) per distinct pre-normalized block
        for m, mult in mults.items():
            peaks[m][start:start + len(block)] = _times(peak, mult)
            x, rec = _times(block, mult), recs[m, "none"]
            try:  # centers x in place; with a pre-normalizer, rounds a new block
                y = prenormalized_rows(x, pspec, recs[m, args.prenorm])
            except ValueError as exc:  # theorem1: a row it cannot center
                raise StreamFormatError(f"{args.stream}: {exc}") from None
            if y is not x:
                # The pre-normalizer divides mult out, so the blocks often
                # match (as uint64, so NaNs and signed zeros match exactly);
                # a match is dropped before a kernel runs beside it.
                if not (pre and np.array_equal(pre[0][0].view(np.uint64), y.view(np.uint64))):
                    pre.append((y, recs[m, args.prenorm]))
                rec.q(x, out=x)  # the centered x, for the plain LayerNorm
            del y
            layernorm_kernel(x, rec)
            del x  # so that the next multiplier's block takes its place
        if len(pre) == 1:  # one kernel run, whose counts both configs add
            shared = QuantRecorder(fmt, rows=len(block))
            layernorm_kernel(pre.pop()[0], shared)
            for m in mults:
                recs[m, args.prenorm].add(shared)
        while pre:  # two distinct blocks; none with --prenorm none
            layernorm_kernel(*pre.pop())

    table, violated = [], False
    for (m, pre_name), rec in recs.items():
        bad = int(np.count_nonzero(rec.row_overflow))
        if variants[pre_name] is not None and bad:
            violated = True  # the bound promised this could not happen
        table.append({
            "config": f"prenorm={pre_name},mult={m}",
            "invocations": n_rows,
            "overflow_invocations": bad,
            "overflow_fraction": bad / n_rows,
            "quantize": dataclasses.asdict(rec.stats),
        })
        if pre_name == "theorem1":
            table[-1]["max_value"] = pspec.max_value

    # Histogram of per-row peak input magnitude, integer log2 bins.
    hist_path = out_dir / "layernorm_hist.csv"
    logs = {m: log2_bins(v) for m, v in peaks.items()}
    lo = min(v.min() for v in logs.values())
    hi = max(v.max() for v in logs.values())
    csv_rows = [
        [str(b)] + [str(int(np.count_nonzero(logs[m] == b))) for m in mults]
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


def _times(block: np.ndarray, mult: float) -> np.ndarray:
    """A new array ``block * mult``; a finite row can overflow to inf here."""
    with np.errstate(over="ignore"):
        return block * mult


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
    n_rows, _, blocks = _row_blocks(args.stream)
    out_dir = Path(args.out_dir)

    rec = QuantRecorder(fmt)
    n_unique = n_agree = rescaled = 0
    sum_devs = []
    for _, rows in blocks:
        q = rec.q(rows)  # the block in the format, rounded and counted once
        out = softmax_lut(q, rec)
        agree = np.argmax(out, axis=1) == np.argmax(softmax_reference(rows), axis=1)
        sum_devs.append(np.abs(out.sum(axis=1) - 1.0).max())
        del out
        # The same values again, uncounted: the benchmark tracer sees floatsim
        # work only at this wrapped name until it wraps QuantRecorder.q
        # (ROADMAP, "Benchmark upkeep"); then this pass goes.
        q, _ = quantize_array(rows, fmt)
        peak = q.max(axis=1)
        # a row in the format holds no nan, so its max is unique when finite
        # and met once; a width-1 row's single entry is its own unique max
        unique = np.isfinite(peak) & (np.count_nonzero(q == peak[:, None], axis=1) == 1)
        n_unique += int(np.count_nonzero(unique))
        n_agree += int(np.count_nonzero(agree & unique))
        rescaled += int(np.count_nonzero(hot_rows(peak)))
    agree = n_agree / n_unique if n_unique else 1.0
    sum_dev = float(np.max(sum_devs))  # np.max, unlike max(), keeps a nan
    tol = _sum_tolerance(fmt)
    ok = agree == 1.0 and sum_dev <= tol

    report_path = out_dir / "softmax_audit.json"
    _write_json(report_path, {
        "format": fmt.name,
        "stream": args.stream,
        "rows": n_rows,
        "unique_max_rows": n_unique,
        "argmax_agreement": agree,
        "worst_sum_abs_dev": sum_dev,
        "sum_tolerance": tol,
        "rescaled_rows": rescaled,
        "quantize": dataclasses.asdict(rec.stats),
        "pass": ok,
    })
    print(f"rows={n_rows} unique_max={n_unique} "
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
    if not names:
        raise ValueError(f"--conv {args.conv!r} names no subsampling config")
    for name in names:
        if name not in SUBSAMPLERS:
            raise ValueError(f"unknown subsampling config {name!r} "
                             f"(have {sorted(SUBSAMPLERS)})")
    fmt = None if args.format == "none" else parse_format(args.format)
    out_dir = Path(args.out_dir)

    chunks = [np.atleast_2d(c) for c in read_stream(args.stream)]
    # every chunk against every config before the first profile runs, so a
    # refused stream leaves no reports behind
    for j, chunk in enumerate(chunks):
        where = f"{args.stream}: chunk {j}"
        bad = np.flatnonzero(~np.isfinite(chunk))
        if bad.size:
            at = tuple(int(i) for i in np.unravel_index(bad[0], chunk.shape))
            raise StreamFormatError(f"{where}: entry {at} is {chunk.flat[bad[0]]}: "
                                    "entries must be finite")
        for name in names:
            cin = SUBSAMPLERS[name].layers[0].in_channels
            if chunk.ndim > 3 or chunk.ndim == 3 and chunk.shape[0] != cin:
                raise StreamFormatError(f"{where}: {name}: expected (H, W) or "
                                        f"({cin}, H, W) input, got {chunk.shape}")
            try:
                mac_count(SUBSAMPLERS[name], chunk.shape[-2:])
            except ValueError as exc:  # smaller than a kernel
                raise StreamFormatError(f"{where}: {name}: {exc}") from None
    input_hw = tuple(chunks[0].shape[-2:])

    mac_rows = []
    for name in names:
        config = SUBSAMPLERS[name]
        peaks_path = out_dir / f"conv_peaks_{name}.csv"
        profile = profile_dynamic_range(chunks, config,
                                        LazyWeights(config, args.seed), fmt)
        _write_csv(peaks_path, "chunk,peak",
                   [[str(i), repr(p)] for i, p in enumerate(profile.per_chunk_peak)])
        _write_json(out_dir / f"conv_hist_{name}.json", profile.to_json_dict())
        print(f"{name}: {len(profile.per_chunk_peak)} chunks, "
              f"peak {max(profile.per_chunk_peak):.6g} -> {peaks_path}")
        share = frontend_share(config, input_hw)
        share["per_layer_macs"] = list(mac_count(config, input_hw).per_layer)
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
    weights = read_tensors(args.weights) if args.weights else {}
    if args.graph == "mha":
        params = MHAParams(batch=args.batch, heads=args.heads,
                           features=args.features, seq=args.seq)
        g = build_mha_bsf(params)
        if not args.weights:
            weights = mha_weights(params, seed=args.seed)
        n_chunks = args.chunks if args.chunks else params.heads
    else:
        g = Graph.load(args.graph)
        n_chunks = args.chunks if args.chunks else 1
    if args.check and args.weights:  # before any pass runs
        try:
            check_weights(g, weights)
        except GraphError as exc:
            raise GraphError(f"{args.weights}: {exc}") from None

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
    if args.dist == "extremal" and width < 2:
        raise ValueError("--dist extremal needs --width >= 2 (two spikes per row)")
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
    chunks = [x[i:i + args.chunk_rows] for i in range(0, rows, args.chunk_rows)]
    write_stream(args.out, chunks)
    print(f"wrote {rows} x {width} {args.dist} rows "
          f"(scale {args.scale:g}, {len(chunks)} chunks) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing


def _positive_int(text: str) -> int:
    """argparse type for a count: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _finite_nonnegative(text: str) -> float:
    """argparse type for a magnitude: a finite number of at least 0."""
    try:
        if 0.0 <= float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lowprec", description=(
        "Numerical-stabilization toolkit for low-precision inference: audits, "
        "theory checks and graph rewrites."))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        """A subcommand with the ``shared`` flags it reads."""
        p = sub.add_parser(name, help=help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        if "out_dir" in shared:
            p.add_argument("--out-dir", default=".", help="report directory")
        if "seed" in shared:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        if "format" in shared:
            p.add_argument("--format", default="fp16",
                           help="fp16, fp32 or custom:<mantissa>,<exponent>")
        return p

    p = command("verify-theory", cmd_verify_theory, "run the analytic checks",
                "out_dir", "seed")
    p.add_argument("--n-max", type=int, default=4, help="largest oracle dimension")
    p.add_argument("--vectors", type=_positive_int, default=20000,
                   help="random-vector budget")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="Monte-Carlo samples per distribution")

    p = command("audit-layernorm", cmd_audit_layernorm,
                "overflow audit over a stream", "out_dir", "format")
    p.add_argument("stream", help="chunked stream file")
    p.add_argument("--prenorm", choices=("none", "mad", "theorem1"), default="theorem1",
                   help="pre-normalizer under audit")
    p.add_argument("--p", type=float, default=2.0, help="norm exponent")

    p = command("audit-softmax", cmd_audit_softmax,
                "argmax/mass audit over a stream", "out_dir", "format")
    p.add_argument("stream", help="chunked stream file")

    p = command("profile-conv", cmd_profile_conv, "dynamic range + MAC table",
                "out_dir", "seed")
    p.add_argument("stream", help="chunked stream file")
    # ranges are the point; don't clip them
    p.add_argument("--format", default="none",
                   help="none (exact float64), fp16, fp32 or "
                        "custom:<mantissa>,<exponent>")
    p.add_argument("--conv", default="conv2d6,dws2d6",
                   help=f"comma-separated config names ({', '.join(SUBSAMPLERS)})")

    p = command("rewrite-graph", cmd_rewrite_graph, "run graph rewrite passes",
                "out_dir", "seed")
    p.add_argument("graph", help='"mha" or a graph JSON path')
    p.add_argument("--passes", default="layout,chunk,einsum",
                   help="comma list of layout,chunk,einsum (empty string for none)")
    p.add_argument("--chunks", type=int, default=0,
                   help="chunk count; 0 is one per head for mha, 1 for a graph file")
    p.add_argument("--chunk-axis", choices=("heads", "query"), default="heads",
                   help="chunking axis")
    p.add_argument("--check", action="store_true",
                   help="verify outputs against the input graph")
    p.add_argument("--check-instances", type=_positive_int, default=20,
                   help="random instances for --check")
    p.add_argument("--weights", help="named-tensor file with graph weights")
    p.add_argument("--batch", type=int, default=1, help="builtin mha batch")
    p.add_argument("--heads", type=int, default=8, help="builtin mha heads")
    p.add_argument("--features", type=int, default=512, help="builtin mha features")
    p.add_argument("--seq", type=int, default=64, help="builtin mha sequence length")

    p = command("gen-stream", cmd_gen_stream, "generate a synthetic stream", "seed")
    p.add_argument("out", help="output stream path")
    p.add_argument("--dist", choices=("gaussian", "uniform", "extremal"),
                   default="gaussian", help="row distribution")
    p.add_argument("--rows", type=_positive_int, default=256, help="total rows")
    p.add_argument("--width", type=_positive_int, default=512, help="row width")
    p.add_argument("--scale", type=_finite_nonnegative, default=500.0,
                   help="sigma / half-range / total spike mass")
    p.add_argument("--chunk-rows", type=_positive_int, default=32,
                   help="rows per chunk")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (StreamFormatError, GraphError, GraphRewriteError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a violated invariant
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
