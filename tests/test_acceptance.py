"""One test per acceptance criterion, each emitting a pass/fail line.

These are the slow, end-to-end checks; the per-module suites hold the
fine-grained cases. Budgets are wall-clock seconds on a desktop-class
machine.
"""

import json
import math
import time

import numpy as np

from lowprec import cli
from lowprec.convsub import (
    CONV2D6,
    DWS2D6,
    ConvLayerSpec,
    conv2d_forward,
    init_weights,
    mac_count,
    profile_dynamic_range,
)
from lowprec.floatsim import FP16, QuantRecorder
from lowprec.graphir import (
    MHAParams,
    apply_passes,
    build_mha_bsf,
    check_equivalence,
    mha_weights,
    movement_profile,
)
from lowprec.prenorm import (
    PrenormSpec,
    extremal_vector,
    layernorm,
    lemma1_bound,
    lemma1_oracle,
    mad_monte_carlo,
    prenormalize,
    stabilized_layernorm_rows,
    theorem1_scale,
)
from lowprec.softmax_lut import ExpLUT, softmax_lut, softmax_reference
from lowprec.streams import read_stream
from oracles import naive_conv


def test_criterion_1_prenormalizer_bound_sweep(acceptance):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n_grid = (2, 3, 4, 8, 16, 32, 64, 128, 256, 512)
    p_grid = (1.0, 1.5, 2.0, 4.0)
    m_grid = (1024.0, 65504.0)
    per_cell = 100000 // (len(n_grid) * len(p_grid) * len(m_grid)) + 1
    total, worst = 0, 0.0
    for n in n_grid:
        x = rng.normal(size=(per_cell * len(p_grid) * len(m_grid), n))
        x *= 10.0 ** rng.uniform(-2, 2, (x.shape[0], 1))
        x -= x.mean(axis=1, keepdims=True)
        i = 0
        for p in p_grid:
            for M in m_grid:
                spec = PrenormSpec(mode="theorem1", p=p, max_value=M)
                for row in x[i:i + per_cell]:
                    if np.abs(row).sum() == 0.0:
                        continue
                    y, _ = prenormalize(row, spec)
                    worst = max(worst, float(np.sum(np.abs(y) ** p) / M))
                    total += 1
                i += per_cell
    attain = 0.0
    for p in p_grid:
        for M in m_grid:
            spec = PrenormSpec(mode="theorem1", p=p, max_value=M)
            y, _ = prenormalize(extremal_vector(7.0, 16), spec)
            attain = max(attain, abs(float(np.sum(np.abs(y) ** p)) - M) / M)
    dt = time.monotonic() - t0
    ok = total >= 100000 and worst <= 1.0 + 1e-9 and attain <= 1e-6 and dt < 60.0
    acceptance(ok, f"criterion 1: {total} vectors, worst power ratio "
                   f"{worst:.12f} (cap 1+1e-9), extremal gap {attain:.2e} "
                   f"(cap 1e-6), {dt:.1f}s (budget 60s)")


def test_criterion_2_oracle_agrees_with_closed_form(acceptance):
    t0 = time.monotonic()
    worst_rel, worst_arg = 0.0, 0.0
    for n in range(2, 7):
        for p in (1.5, 2.0, 3.0):
            for S in (1.0, 2.0, 10.0):
                got, arg = lemma1_oracle(n, S, p, n_starts=2000,
                                         n_samples=50000, seed=11)
                want = lemma1_bound(S, p)
                worst_rel = max(worst_rel, abs(got - want) / want)
                ideal = np.zeros(n)
                ideal[-2:] = S / 2.0
                dev = np.abs(np.sort(np.abs(arg)) - ideal).max() / max(1.0, S)
                worst_arg = max(worst_arg, dev)
    dt = time.monotonic() - t0
    ok = worst_rel <= 1e-9 and worst_arg <= 1e-6 and dt < 120.0
    acceptance(ok, f"criterion 2: oracle vs closed form rel {worst_rel:.2e} "
                   f"(cap 1e-9), two-spike deviation {worst_arg:.2e} "
                   f"(cap 1e-6), {dt:.1f}s (budget 120s)")


def test_criterion_3_simplified_half_precision_constant(acceptance):
    simplified = math.sqrt(2.0) / 512.0
    rel = abs(theorem1_scale(2.0, 65504.0) - simplified) / simplified
    acceptance(rel <= 1e-3,
               f"criterion 3: L2 scale vs sqrt(2)/512 rel {rel:.2e} (cap 1e-3)")


def test_criterion_4_mad_monte_carlo(acceptance):
    t0 = time.monotonic()
    u = mad_monte_carlo("uniform", 4.0, 1_000_000, seed=0)
    u_mean_rel = abs(u.mean_abs - 2.0) / 2.0
    g = mad_monte_carlo("gaussian", 3.0, 1_000_000, seed=0)
    g_want = math.sqrt(2.0 / math.pi) * 3.0
    g_mean_rel = abs(g.mean_abs - g_want) / g_want
    dt = time.monotonic() - t0
    ok = (u_mean_rel <= 0.01 and u.max_abs_normalized <= 2.05
          and g_mean_rel <= 0.01 and g.tail_fraction <= 2e-4 and dt < 30.0)
    acceptance(ok, f"criterion 4: uniform mean rel {u_mean_rel:.2e} "
                   f"max {u.max_abs_normalized:.3f} (cap 2.05); gaussian mean "
                   f"rel {g_mean_rel:.2e} tail {g.tail_fraction:.1e} "
                   f"(cap 2e-4); {dt:.1f}s (budget 30s)")


def test_criterion_5_stabilized_layernorm_stream(acceptance, tmp_path):
    stream = tmp_path / "adv.stream"
    assert cli.main(["gen-stream", str(stream), "--seed", "0"]) == 0
    rows = np.concatenate(read_stream(stream))
    assert rows.shape == (256, 512)

    naive = QuantRecorder(FP16, rows=len(rows))
    stabilized_layernorm_rows(rows, None, naive)
    naive_frac = float(np.mean(naive.row_overflow > 0))
    ref = layernorm(rows)
    results = {}
    for name, spec in (("theorem1", PrenormSpec(mode="theorem1", p=2.0,
                                                max_value=FP16.max_finite)),
                       ("mad", PrenormSpec(mode="mad"))):
        rec = QuantRecorder(FP16, rows=len(rows))
        out = stabilized_layernorm_rows(rows, spec, rec)
        results[name] = (float(np.mean(rec.row_overflow > 0)),
                         float(np.abs(out - ref).max()),
                         rec.stats.overflow)
    ok = naive_frac >= 0.5 and all(
        frac == 0.0 and err <= 1e-2 and ovf == 0
        for frac, err, ovf in results.values()
    )
    detail = ", ".join(f"{k}: err {v[1]:.2e}" for k, v in results.items())
    acceptance(ok, f"criterion 5: naive overflow fraction {naive_frac:.2f} "
                   f"(need >=0.5), stabilized fraction 0 required, {detail} "
                   f"(cap 1e-2)")


def test_criterion_6_softmax_argmax_and_mass(acceptance):
    rng = np.random.default_rng(0)
    scales = 10.0 ** rng.uniform(0, 5.5, 10000)
    x = rng.normal(0.0, 1.0, (10000, 64)) * scales[:, None]
    rec = QuantRecorder(FP16)
    q = rec.q(x)
    out = softmax_lut(q, rec)
    ref = softmax_reference(x)
    srt = np.sort(q, axis=1)
    unique = np.isfinite(srt[:, -1]) & (srt[:, -1] > srt[:, -2])
    assert unique.sum() >= 5000  # precondition: ties would be uncountable
    agree = float(np.mean(np.argmax(out[unique], axis=1)
                          == np.argmax(ref[unique], axis=1)))
    sum_dev = float(np.abs(out.sum(axis=1) - 1.0).max())
    lut = ExpLUT()
    grid = np.linspace(lut.domain_lo, lut.domain_hi, 200001)
    lut_rel = float(np.max(np.abs(lut(grid) - np.exp(grid)) / np.exp(grid)))
    ok = agree == 1.0 and sum_dev <= 1e-3 and lut_rel <= 1e-3
    acceptance(ok, f"criterion 6: argmax agreement {agree:.4f} on "
                   f"{int(unique.sum())} unique-max rows (need 1.0), worst "
                   f"|sum-1| {sum_dev:.2e} (cap 1e-3), table rel err "
                   f"{lut_rel:.2e} (cap 1e-3)")


def test_criterion_7_graph_rewrites(acceptance):
    rng = np.random.default_rng(4)
    worst, clean = 0.0, True
    for _ in range(100):
        h = int(rng.choice((1, 2, 4, 8)))
        p = MHAParams(batch=int(rng.integers(1, 3)), heads=h,
                      features=h * int(rng.integers(2, 9)),
                      seq=int(rng.integers(2, 33)))
        g = build_mha_bsf(p)
        w = mha_weights(p, seed=int(rng.integers(0, 1000)))
        gc = apply_passes(g, ["layout", "chunk", "einsum"], n_chunks=h)
        prof = movement_profile(gc)
        clean &= (prof["interior_transposes"] == 0
                  and prof["interior_reshapes"] == 0
                  and gc.op_counts().get("batched_matmul", 0) == 0)
        worst = max(worst, check_equivalence(g, gc, w, n_instances=1,
                                             seed=int(rng.integers(0, 1000))))
    t0 = time.monotonic()
    p = MHAParams(batch=1, heads=8, features=512, seq=64)
    g = build_mha_bsf(p)
    gc = apply_passes(g, ["layout", "chunk", "einsum"], n_chunks=8)
    big = check_equivalence(g, gc, mha_weights(p, 0), n_instances=10, seed=0)
    dt = time.monotonic() - t0
    ok = worst <= 1e-9 and clean and big <= 1e-9 and dt < 10.0
    acceptance(ok, f"criterion 7: 100 instances worst |diff| {worst:.2e} "
                   f"(cap 1e-9), movement clean {clean}, full-size check "
                   f"{big:.2e} in {dt:.1f}s (budget 10s)")


def test_criterion_8_convolution_macs_and_multiplier(acceptance, tmp_path):
    rng = np.random.default_rng(8)
    worst, macs_exact = 0.0, True
    for _ in range(50):
        groups = int(rng.choice((1, 2, 4)))
        cin = groups * int(rng.integers(1, 4))
        cout = groups * int(rng.integers(1, 4))
        layer = ConvLayerSpec(cin, cout,
                              (int(rng.integers(1, 4)), int(rng.integers(1, 4))),
                              (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                              groups)
        h = int(rng.integers(layer.kernel[0], layer.kernel[0] + 6))
        wdt = int(rng.integers(layer.kernel[1], layer.kernel[1] + 6))
        x = rng.normal(size=(cin, h, wdt))
        weight = rng.normal(size=(cout, cin // groups, *layer.kernel))
        bias = rng.normal(size=cout)
        got = conv2d_forward(x, weight, bias, layer)
        want, mults = naive_conv(x, weight, bias, layer)
        worst = max(worst, float(np.abs(got - want).max()))
        macs_exact &= mults == layer.macs(h, wdt)

    dominated = all(
        mac_count(DWS2D6, hw).total < mac_count(CONV2D6, hw).total
        for hw in ((80, 1000), (80, 200), (40, 60), (64, 128), (17, 23))
    )

    chunks = [rng.normal(size=(40, 30)) for _ in range(3)]
    ratios = []
    for base, boosted in (("conv2d6", "conv2d6x22"), ("dws2d6", "dws2d6x22")):
        from lowprec.convsub import SUBSAMPLERS
        pb = profile_dynamic_range(chunks, SUBSAMPLERS[base],
                                   init_weights(SUBSAMPLERS[base], 0))
        px = profile_dynamic_range(chunks, SUBSAMPLERS[boosted],
                                   init_weights(SUBSAMPLERS[boosted], 0))
        ratios.extend(x / b for b, x in zip(pb.per_chunk_peak,
                                            px.per_chunk_peak))
    mult_rel = max(abs(r - math.sqrt(512.0)) / math.sqrt(512.0)
                   for r in ratios)

    ok = worst <= 1e-10 and macs_exact and dominated and mult_rel < 1e-12
    acceptance(ok, f"criterion 8: oracle max |diff| {worst:.2e} (cap 1e-10), "
                   f"MAC counts exact {macs_exact}, separable always cheaper "
                   f"{dominated}, multiplier ratio rel err {mult_rel:.2e} "
                   f"(cap 1e-12)")
    # The published whole-model budget shares are model-wide numbers; the
    # two-part share below is printed for orientation, never asserted.
    for cfg in (CONV2D6, DWS2D6):
        mc = mac_count(cfg, (80, 1000))
        print(f"  note: {cfg.name} frontend {mc.total} MACs at (80, 1000)")


def test_criterion_9_cli_determinism(acceptance, tmp_path):
    streams = {}
    for name, argv in (
        ("adv", ["--rows", "48", "--width", "64", "--scale", "500"]),
        ("sm", ["--rows", "64", "--width", "48", "--scale", "3000"]),
        ("mel", ["--rows", "60", "--width", "40", "--scale", "2",
                 "--chunk-rows", "30"]),
    ):
        streams[name] = tmp_path / f"{name}.stream"
        assert cli.main(["gen-stream", str(streams[name]), "--seed", "1",
                         *argv]) == 0

    commands = {
        "gen": ["gen-stream", "OUTFILE", "--rows", "12", "--width", "8",
                "--seed", "5"],
        "theory": ["verify-theory", "--n-max", "2", "--vectors", "1000",
                   "--samples", "20000"],
        "layernorm": ["audit-layernorm", str(streams["adv"])],
        "softmax": ["audit-softmax", str(streams["sm"])],
        "conv": ["profile-conv", str(streams["mel"])],
        "graph": ["rewrite-graph", "mha", "--features", "64", "--seq", "8",
                  "--check"],
    }
    identical = True
    for key, argv in commands.items():
        payloads = []
        for attempt in ("r1", "r2"):
            out = tmp_path / key / attempt
            out.mkdir(parents=True)
            if key == "gen":
                run_argv = [argv[0], str(out / "s.stream"), *argv[2:]]
            else:
                run_argv = [*argv, "--out-dir", str(out)]
            assert cli.main(run_argv) == 0
            payloads.append({f.name: f.read_bytes()
                             for f in sorted(out.iterdir())})
        identical &= payloads[0] == payloads[1]
    acceptance(identical, f"criterion 9: {len(commands)} commands rerun "
                          f"byte-identical: {identical}")


def test_criterion_10_theorem1_survives_rounding_on_extremal_streams(acceptance,
                                                                      tmp_path):
    widths, formats = (2, 3, 8, 64, 512), ("fp16", "fp32", "custom:7,8", "custom:3,4")
    exits, stabilized, naive_fp16 = set(), 0, []
    for width in widths:
        stream = tmp_path / f"ext{width}.stream"
        assert cli.main(["gen-stream", str(stream), "--dist", "extremal",
                         "--rows", "64", "--width", str(width)]) == 0
        for fmt in formats:
            out = tmp_path / f"{width}-{fmt}"
            exits.add(cli.main(["audit-layernorm", str(stream), "--format", fmt,
                                "--out-dir", str(out)]))
            report = json.loads((out / "layernorm_audit.json").read_text())
            rows = {r["config"]: r["overflow_invocations"] for r in report["rows"]}
            stabilized += rows["prenorm=theorem1,mult=1"]
            stabilized += rows["prenorm=theorem1,mult=sqrt512"]
            if fmt == "fp16":
                naive_fp16.append(rows["prenorm=none,mult=1"])
    ok = exits == {0} and stabilized == 0 and naive_fp16 == [64] * len(widths)
    acceptance(ok, f"criterion 10: extremal streams at widths {list(widths)} x "
                   f"{len(formats)} formats, exit codes {sorted(exits)} (need [0]), "
                   f"{stabilized} stabilized overflowed rows (need 0), naive fp16 "
                   f"overflowed rows {naive_fp16} of 64 each (need all)")
