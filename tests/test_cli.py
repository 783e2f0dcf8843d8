"""End-to-end command line runs, in process via cli.main."""

import argparse
import json
import math
import warnings

import numpy as np
import pytest

from lowprec import cli, prenorm
from lowprec.convsub import ConvLayerSpec, SubsamplingConfig, init_weights, subsampler_graph
from lowprec.floatsim import FP16, parse_format
from lowprec.graphir import GraphRewriteError, Graph, build_mha_bsf, MHAParams
from lowprec.graphir import apply_passes, mha_weights
from lowprec.prenorm import theorem1_ceiling
from lowprec.softmax_lut import RESCALE_THRESHOLD
from lowprec.streams import read_stream, write_stream, write_tensors
from oracles import frexp_quantize, softmax_audit_counts


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def adversarial(tmp_path):
    """Small stream whose naive FP16 variance overflows in every row."""
    path = tmp_path / "adv.stream"
    assert run("gen-stream", str(path), "--rows", "48", "--width", "64",
               "--scale", "500", "--seed", "3") == 0
    return path


def test_gen_stream_is_deterministic_and_well_formed(tmp_path):
    a, b = tmp_path / "a.stream", tmp_path / "b.stream"
    for p in (a, b):
        assert run("gen-stream", str(p), "--rows", "20", "--width", "16",
                   "--chunk-rows", "8", "--seed", "7") == 0
    assert a.read_bytes() == b.read_bytes()
    chunks = read_stream(a)
    assert [c.shape for c in chunks] == [(8, 16), (8, 16), (4, 16)]


def test_gen_stream_extremal_rows_are_two_spikes(tmp_path):
    path = tmp_path / "x.stream"
    assert run("gen-stream", str(path), "--dist", "extremal", "--rows", "10",
               "--width", "32", "--scale", "6", "--seed", "0") == 0
    rows = np.concatenate(read_stream(path))
    for row in rows:
        nz = row[row != 0.0]
        assert sorted(nz) == [-3.0, 3.0]


def test_verify_theory_passes_and_reruns_byte_identical(tmp_path):
    args = ("verify-theory", "--n-max", "2", "--vectors", "2000",
            "--samples", "20000", "--seed", "1")
    assert run(*args, "--out-dir", str(tmp_path / "r1")) == 0
    assert run(*args, "--out-dir", str(tmp_path / "r2")) == 0
    r1 = (tmp_path / "r1" / "theory_report.json").read_bytes()
    r2 = (tmp_path / "r2" / "theory_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert all(row["pass"] for row in report["checks"])
    names = {row["name"] for row in report["checks"]}
    assert "l2_scale_matches_simplified_constant" in names
    const_row = next(r for r in report["checks"]
                     if r["name"] == "l2_scale_matches_simplified_constant")
    assert const_row["simplified"] == pytest.approx(math.sqrt(2) / 512)


def test_verify_theory_flags_a_corrupted_constant(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("lowprec.prenorm.theorem1_scale",
                        lambda p, M: 1.1 * 0.5 * (2.0 / M) ** (1.0 / p))
    rc = run("verify-theory", "--n-max", "2", "--vectors", "500",
             "--samples", "20000", "--out-dir", str(tmp_path))
    assert rc == 1
    report = json.loads((tmp_path / "theory_report.json").read_text())
    failed = {r["name"] for r in report["checks"] if not r["pass"]}
    assert "l2_scale_matches_simplified_constant" in failed
    assert "FAIL" in capsys.readouterr().out


def test_verify_theory_bounds_rows_off_zero_mean(tmp_path, monkeypatch):
    # the zero-mean-only denominator c * sum|x| bounds every centered row,
    # so only the rows verify-theory draws off zero mean can expose it
    def zero_mean_only(rows, a, spec):
        return prenorm.theorem1_scale(spec.p, spec.max_value) * a.sum(axis=1)

    monkeypatch.setattr(prenorm, "_denominator", zero_mean_only)
    assert run("verify-theory", "--n-max", "2", "--vectors", "500",
               "--samples", "20000", "--out-dir", str(tmp_path)) == 1
    report = json.loads((tmp_path / "theory_report.json").read_text())
    assert len(report["checks"]) == 12
    assert [r["name"] for r in report["checks"] if not r["pass"]] == [
        "prenormalized_power_never_exceeds_ceiling"]


def test_audit_layernorm_stabilizer_kills_the_overflow(adversarial, tmp_path):
    out = tmp_path / "audit"
    assert run("audit-layernorm", str(adversarial), "--prenorm", "theorem1",
               "--out-dir", str(out)) == 0
    report = json.loads((out / "layernorm_audit.json").read_text())
    rows = {r["config"]: r for r in report["rows"]}
    assert rows["prenorm=none,mult=1"]["overflow_fraction"] > 0.5
    assert rows["prenorm=theorem1,mult=1"]["overflow_fraction"] == 0.0
    assert rows["prenorm=theorem1,mult=sqrt512"]["overflow_fraction"] == 0.0
    for r in report["rows"]:
        assert r["overflow_fraction"] == r["overflow_invocations"] / r["invocations"]
        assert r.get("max_value") == (theorem1_ceiling(FP16, 64)
                                      if "theorem1" in r["config"] else None)
    hist = (out / "layernorm_hist.csv").read_text().splitlines()
    assert hist[0] == "log2_bin,count_mult1,count_multsqrt512"
    counts = np.array([[int(v) for v in line.split(",")[1:]]
                       for line in hist[1:]])
    assert list(counts.sum(axis=0)) == [48, 48]


def test_audit_layernorm_quiet_stream_never_overflows(tmp_path):
    path = tmp_path / "quiet.stream"
    run("gen-stream", str(path), "--rows", "8", "--width", "32",
        "--scale", "0.001", "--seed", "0")
    out = tmp_path / "audit"
    assert run("audit-layernorm", str(path), "--prenorm", "mad",
               "--out-dir", str(out)) == 0
    report = json.loads((out / "layernorm_audit.json").read_text())
    assert all(r["overflow_fraction"] == 0.0 for r in report["rows"])


def test_audit_layernorm_reruns_byte_identical(adversarial, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("audit-layernorm", str(adversarial),
                   "--out-dir", str(out)) == 0
        outs.append((out / "layernorm_audit.json").read_bytes()
                    + (out / "layernorm_hist.csv").read_bytes())
    assert outs[0] == outs[1]


def test_audit_softmax_clean_stream(tmp_path):
    path = tmp_path / "sm.stream"
    run("gen-stream", str(path), "--rows", "64", "--width", "48",
        "--scale", "3000", "--seed", "5")
    out = tmp_path / "audit"
    assert run("audit-softmax", str(path), "--out-dir", str(out)) == 0
    report = json.loads((out / "softmax_audit.json").read_text())
    assert report["argmax_agreement"] == 1.0
    assert report["worst_sum_abs_dev"] <= report["sum_tolerance"]
    assert report["rescaled_rows"] > 0
    assert report["pass"] is True


def test_audit_softmax_flags_broken_normalization(tmp_path, monkeypatch):
    path = tmp_path / "sm.stream"
    run("gen-stream", str(path), "--rows", "8", "--width", "8", "--seed", "0")

    real = cli.softmax_lut

    def lopsided(x, rec=None):
        return real(x, rec) * 1.5  # mass no longer sums to 1

    monkeypatch.setattr(cli, "softmax_lut", lopsided)
    assert run("audit-softmax", str(path), "--out-dir", str(tmp_path)) == 1


def test_audit_softmax_width_one_rows(tmp_path):
    path = tmp_path / "w1.stream"
    run("gen-stream", str(path), "--rows", "6", "--width", "1",
        "--scale", "5000", "--seed", "1")
    out = tmp_path / "audit"
    assert run("audit-softmax", str(path), "--out-dir", str(out)) == 0
    report = json.loads((out / "softmax_audit.json").read_text())
    assert report["unique_max_rows"] == 6 and report["pass"] is True


_SOFTMAX_EDGES = {
    "fp16 ties": ("fp16", [
        [1, 2, 3, 4, 5, 6],  # an ordinary unique max
        [5, 5, 1, 0, -2, 3],  # tied in float64
        [1000.1, 1000.2, 0, 1, 2, 3],  # distinct in float64, tied once rounded
        [0.0, -0.0, -1, -2, -3, -4],  # signed zeros are equal
        [70000, 1, 2, 3, 4, 5],  # the max rounds to +inf
        [5000, 1, 2, 3, 4, 0],  # a hot unique max: rescaled
        [-1e5] * 6,  # every entry rounds to -inf
        [-1e5, 3, 1, 0, -1, 2],  # one -inf entry beside a unique max
    ]),
    "fp16 width 1": ("fp16", [[3.0], [-1e5], [7e4], [5000.0], [0.0], [-0.0]]),
    "custom:3,4": ("custom:3,4", [
        [10, 1, 0, 0, 0, 0],
        [97, 99, 1, 0, 0, 0],  # both round to 96
        [300, 1, 2, 0, 0, 0],  # past the format's 240: +inf
        [-1000] * 6,  # all -inf in the format
        [-1000, 5, 1, 0, 0, 0],
    ]),
    "custom:3,4 width 1": ("custom:3,4", [[3.0], [-1000.0], [1000.0], [0.5]]),
}


@pytest.mark.parametrize("case", sorted(_SOFTMAX_EDGES))
def test_audit_softmax_unique_max_rule_at_its_edges(tmp_path, case):
    fmt, rows = _SOFTMAX_EDGES[case]
    rows = np.array(rows, dtype=np.float64)
    if fmt == "fp16":  # numpy's own cast, not lowprec's quantizer
        with np.errstate(over="ignore"):
            rounded = rows.astype(np.float16).astype(np.float64)
    else:
        rounded, _ = frexp_quantize(rows, parse_format(fmt))
    path, out = tmp_path / "edges.stream", tmp_path / "audit"
    write_stream(path, [rows])
    run("audit-softmax", str(path), "--format", fmt, "--out-dir", str(out))
    report = json.loads((out / "softmax_audit.json").read_text())
    want = softmax_audit_counts(rows, rounded, RESCALE_THRESHOLD)
    assert {k: report[k] for k in want} == want


@pytest.mark.parametrize("argv", [
    ("audit-layernorm", "--prenorm", "theorem1"),  # naive fp16 rows: inf / inf
    ("audit-softmax", "--format", "custom:3,4"),   # saturated rows: inf - inf
])
def test_audits_on_saturating_rows_print_no_numpy_warnings(tmp_path, argv):
    path = tmp_path / "hot.stream"
    run("gen-stream", str(path), "--rows", "16", "--width", "64",
        "--scale", "5000", "--seed", "2")
    quiet, strict = tmp_path / "quiet", tmp_path / "strict"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv[0], str(path), *argv[1:], "--out-dir", str(quiet))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv[0], str(path), *argv[1:], "--out-dir", str(strict)) == code
    for report in quiet.iterdir():
        assert (strict / report.name).read_bytes() == report.read_bytes()


def test_audit_softmax_on_a_row_spanning_past_float64_prints_no_numpy_warning(tmp_path):
    path = tmp_path / "wide.stream"
    write_stream(path, [np.array([[1e308, -1e308]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("audit-softmax", str(path), "--out-dir", str(tmp_path / "audit")) == 0


@pytest.mark.parametrize("second", [
    {"id": "s2", "op": "scale", "inputs": ["s1"], "attrs": {"factor": 1e308}},
    {"id": "s2", "op": "add", "inputs": ["s1", "s1"]},
])
def test_float64_graph_nodes_that_overflow_print_no_numpy_warning(tmp_path, second):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "huge", "inputs": ["x"], "outputs": ["y"], "nodes": [
        {"id": "x", "op": "input", "inputs": [], "attrs": {"shape": [1, 2, 1, 3]}},
        {"id": "s1", "op": "scale", "inputs": ["x"], "attrs": {"factor": 1e308}},
        second,
        {"id": "y", "op": "output", "inputs": ["s2"]}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("rewrite-graph", str(path), "--passes", "", "--check",
                   "--check-instances", "2", "--out-dir", str(tmp_path / "out")) == 0


def test_profile_conv_emits_peaks_hist_and_mac_table(tmp_path):
    path = tmp_path / "mel.stream"
    run("gen-stream", str(path), "--rows", "120", "--width", "80",
        "--scale", "2", "--chunk-rows", "40", "--seed", "2")
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--conv",
               "conv2d6,conv2d6x22,dws2d6", "--out-dir", str(out)) == 0

    def peaks(name):
        lines = (out / f"conv_peaks_{name}.csv").read_text().splitlines()[1:]
        return np.array([float(line.split(",")[1]) for line in lines])

    base, boosted = peaks("conv2d6"), peaks("conv2d6x22")
    assert len(base) == 3
    np.testing.assert_allclose(boosted / base, math.sqrt(512.0), rtol=1e-12)

    table = json.loads((out / "mac_table.json").read_text())
    rows = {r["config"]: r for r in table["rows"]}
    assert rows["dws2d6"]["frontend_macs"] < rows["conv2d6"]["frontend_macs"]
    assert rows["conv2d6"]["share"] > rows["dws2d6"]["share"]
    assert table["assumptions"]
    hist = json.loads((out / "conv_hist_conv2d6.json").read_text())
    assert sum(hist["histogram"]["counts"]) == hist["chunks"] == 3


def test_profile_conv_empty_stream_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.stream"
    path.write_bytes(b"")
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}: empty stream\n"
    assert not out.exists()


def test_profile_conv_unknown_config(tmp_path, capsys):
    path = tmp_path / "s.stream"
    run("gen-stream", str(path), "--rows", "4", "--width", "8")
    assert run("profile-conv", str(path), "--conv", "bogus") == 2
    assert "unknown subsampling config" in capsys.readouterr().err


def test_rewrite_graph_full_pipeline_with_check(tmp_path):
    out = tmp_path / "rg"
    assert run("rewrite-graph", "mha", "--features", "64", "--seq", "16",
               "--check", "--out-dir", str(out)) == 0
    metrics = json.loads((out / "rewrite_metrics.json").read_text())
    after = metrics["after"]["movement"]
    assert after["memory_copy_score"] == 0
    assert after["interior_transposes"] == 0
    assert after["interior_reshapes"] == 0
    assert metrics["after"]["ops"].get("batched_matmul", 0) == 0
    assert metrics["check"]["pass"] is True
    assert metrics["check"]["max_abs_diff"] < 1e-9
    Graph.load(out / "graph_out.json")  # parses and validates


def test_rewrite_graph_empty_pass_list_is_identity(tmp_path):
    out = tmp_path / "rg"
    assert run("rewrite-graph", "mha", "--features", "64", "--seq", "8",
               "--passes", "", "--out-dir", str(out)) == 0
    loaded = Graph.load(out / "graph_out.json")
    built = build_mha_bsf(MHAParams(batch=1, heads=8, features=64, seq=8))
    assert loaded.to_json_dict() == built.to_json_dict()


def test_rewrite_graph_check_catches_a_bad_pass(tmp_path, monkeypatch):
    real = cli.apply_passes

    def sabotaged(g, names, **kw):
        out = real(g, names, **kw)
        nodes = [n if n.op != "scale"
                 else type(n)(n.id, n.op, n.inputs, {"factor": 1.0})
                 for n in out.nodes]
        return type(out)(out.name, nodes, list(out.inputs),
                         list(out.outputs), dict(out.meta))

    monkeypatch.setattr(cli, "apply_passes", sabotaged)
    out = tmp_path / "rg"
    rc = run("rewrite-graph", "mha", "--features", "64", "--seq", "8",
             "--check", "--out-dir", str(out))
    assert rc == 1
    metrics = json.loads((out / "rewrite_metrics.json").read_text())
    assert metrics["check"]["pass"] is False


def test_rewrite_graph_check_fails_a_graph_whose_output_is_nan(tmp_path, capsys):
    # a NaN weight; a NaN scale factor is a malformed graph file (exit 2)
    p = MHAParams(batch=1, heads=2, features=16, seq=4)
    graph, weights = tmp_path / "g.json", tmp_path / "w.bin"
    graph.write_text(json.dumps(build_mha_bsf(p).to_json_dict()))
    tensors = mha_weights(p, seed=0)
    tensors["wo"][0, 0] = math.nan
    write_tensors(weights, tensors)
    out = tmp_path / "rg"
    assert run("rewrite-graph", str(graph), "--check", "--weights", str(weights),
               "--out-dir", str(out)) == 1
    check = json.loads((out / "rewrite_metrics.json").read_text())["check"]
    assert check["pass"] is False and check["max_abs_diff"] is None
    assert "non-finite deviation" in check["error"]
    assert "graphs differ" in capsys.readouterr().err


def test_rewrite_graph_reload_and_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("rewrite-graph", "mha", "--features", "64", "--seq", "8",
               "--passes", "layout", "--out-dir", str(out1)) == 0
    assert run("rewrite-graph", str(out1 / "graph_out.json"),
               "--passes", "layout", "--out-dir", str(out2)) == 0
    a = (out1 / "graph_out.json").read_bytes()
    b = (out2 / "graph_out.json").read_bytes()
    assert a == b  # second layout run is a no-op


def test_usage_and_io_errors_exit_2(tmp_path, capsys):
    assert run() == 2
    assert run("no-such-command") == 2
    assert run("audit-softmax", str(tmp_path / "missing.stream")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("verify-theory", "--config", str(bad)) == 2
    assert run("audit-layernorm", str(tmp_path / "x.stream"),
               "--format", "fp7") == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["audit-softmax", "audit-layernorm"])
def test_text_file_given_as_a_stream_exits_2(tmp_path, capsys, command):
    path = tmp_path / "rows.csv"
    path.write_text("1,2,3\n4,5,6\n")
    assert run(command, str(path), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "rows.csv: record 0: bad header line" in err and "Traceback" not in err


# Each shape once read as int(d) of its entries, (1, 2), (2, 1), (1, 2) and
# (3, 1), so a payload of that many entries audited with exit 0.
@pytest.mark.parametrize("shape, entries", [("12", 2), ([2.7, 1], 2), ([True, 2], 2),
                                            (["3", "1"], 3)])
def test_stream_header_shape_that_is_not_a_list_of_ints_exits_2(tmp_path, capsys,
                                                                 shape, entries):
    path = tmp_path / "s.stream"
    meta = json.dumps({"chunk": 0, "dtype": "<f8", "shape": shape})
    path.write_bytes(meta.encode() + b"\n" + np.arange(float(entries)).tobytes())
    assert run("audit-softmax", str(path), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"s.stream: record 0: bad dtype '<f8' or shape {shape!r}" in err
    assert not (tmp_path / "out").exists()


def test_rewrite_graph_heads_0_exits_2(tmp_path, capsys):
    assert run("rewrite-graph", "mha", "--heads", "0", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "dimensions must be positive" in err and "heads=0" in err


def test_audit_layernorm_p_nan_exits_2(adversarial, tmp_path, capsys):
    for prenorm in ("none", "mad", "theorem1"):  # checked whether or not p is used
        out = tmp_path / prenorm
        assert run("audit-layernorm", str(adversarial), "--p", "nan",
                   "--prenorm", prenorm, "--out-dir", str(out)) == 2
        assert "norm order p" in capsys.readouterr().err
        assert not (out / "layernorm_audit.json").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_rewrite_graph_check_over_no_instances_exits_2(tmp_path, capsys, n):
    assert run("rewrite-graph", "mha", "--features", "64", "--seq", "8", "--check",
               "--check-instances", n, "--out-dir", str(tmp_path)) == 2
    assert "--check-instances" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (("--rows", "0"), "--rows"),
    (("--width", "0"), "--width"),
    (("--rows", "-2"), "--rows"),
    (("--dist", "extremal", "--width", "1"), "--width"),
    (("--chunk-rows", "0"), "--chunk-rows"),
    (("--chunk-rows", "-3"), "--chunk-rows"),
    (("--scale", "nan"), "--scale"),
    (("--dist", "uniform", "--scale", "inf"), "--scale"),
    (("--dist", "extremal", "--scale", "-1"), "--scale"),
    (("--dist", "uniform", "--scale", "-1"), "--scale"),
    (("--scale", "1e400"), "--scale"),
])
def test_gen_stream_degenerate_sizes_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "s.stream"
    assert run("gen-stream", str(out), *argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("--vectors", "-5", "--n-max", "2"), "--vectors"),
    (("--n-max", "-3"), "--n-max"),
])
def test_verify_theory_invalid_counts_exit_2(tmp_path, capsys, argv, flag):
    assert run("verify-theory", *argv, "--samples", "20000",
               "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("--n-max", "9"), "--n-max must be between 2 and 8, got 9"),
    (("--samples", "5000"), "--samples must be at least 10000, got 5000"),
])
def test_verify_theory_over_budget_flags_exit_2_before_any_check(
        tmp_path, capsys, monkeypatch, argv, message):
    calls = []
    for name in ("extremal_vector", "lemma1_oracle", "mad_monte_carlo"):
        monkeypatch.setattr(f"lowprec.prenorm.{name}", lambda *a, **k: calls.append(a))
    assert run("verify-theory", *argv, "--vectors", "200",
               "--out-dir", str(tmp_path)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_audit_layernorm_format_too_narrow_for_theorem1_exits_2(adversarial, tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    assert run("audit-layernorm", str(adversarial), "--format", "custom:1,2",
               "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "custom_m1e2 has no theorem-1 ceiling for rows of width 64" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ("rewrite-graph", "mha", "--heads", "0"),
    ("rewrite-graph", "mha", "--chunks", "-2"),
    ("audit-layernorm", "{stream}", "--p", "nan"),
])
def test_refused_runs_leave_no_out_dir(adversarial, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*[a.format(stream=adversarial) for a in argv], "--out-dir", str(out)) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_audit_layernorm_rows_on_a_large_dc_offset(tmp_path):
    # Centering 1e6 + N(0, 1) rows leaves a residual sum far above 1e-12 per
    # entry; theorem 1 must still bound those rows.
    path = tmp_path / "dc.stream"
    rows = 1e6 + np.random.default_rng(0).normal(size=(32, 64))
    write_stream(path, [rows[:16], rows[16:]])
    out = tmp_path / "audit"
    assert run("audit-layernorm", str(path), "--prenorm", "theorem1",
               "--out-dir", str(out)) == 0
    report = json.loads((out / "layernorm_audit.json").read_text())
    stabilized = [r for r in report["rows"] if "prenorm=theorem1" in r["config"]]
    assert len(stabilized) == 2
    assert all(r["overflow_invocations"] == 0 for r in stabilized)


@pytest.mark.parametrize("n", [2, 8, 512])
def test_audit_layernorm_bounds_offset_two_spike_rows_in_fp32(tmp_path, n):
    # Rows of 1e10 with two spikes of +-1e-3 keep a large centering residual;
    # scaled by their L1 norm alone, 95, 3 and 187 of the 200 overflowed the
    # fp32 ceiling at n = 2, 8 and 512.
    rng = np.random.default_rng(1)
    rows = np.full((200, n), 1e10)
    spikes = 1e-3 * rng.uniform(0.5, 1.5, (200, 2))
    rows[:, 0] -= spikes[:, 0]
    rows[:, -1] += spikes[:, 1]
    path, out = tmp_path / "spikes.stream", tmp_path / "audit"
    write_stream(path, [rows[:100], rows[100:]])
    assert run("audit-layernorm", str(path), "--format", "fp32",
               "--out-dir", str(out)) == 0
    report = json.loads((out / "layernorm_audit.json").read_text())
    assert [r["overflow_invocations"] for r in report["rows"]
            if "prenorm=theorem1" in r["config"]] == [0, 0]


_SMALL_CONV = SubsamplingConfig("small", (ConvLayerSpec(1, 4, (3, 3), (2, 2)),
                                          ConvLayerSpec(4, 4, (3, 3), (1, 1), groups=2)))


def small_conv_graph_file(tmp_path):
    """A two-layer conv front end's graph file and its weights."""
    path = tmp_path / "g.json"
    subsampler_graph(_SMALL_CONV, (1, 9, 9)).save(path)
    return path, init_weights(_SMALL_CONV, 0)


def small_graph_file(tmp_path, drop_input_shape=False):
    d = build_mha_bsf(MHAParams(batch=1, heads=2, features=16, seq=4)).to_json_dict()
    if drop_input_shape:
        del d["nodes"][0]["attrs"]["shape"]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    return path


def test_graph_missing_a_required_attr_exits_2(tmp_path, capsys):
    path = small_graph_file(tmp_path, drop_input_shape=True)
    assert run("rewrite-graph", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "x:" in err and "'shape'" in err and "Traceback" not in err


@pytest.mark.parametrize("passes, node, attr, value", [
    ([], "q_t", "perm", None),
    ([], "x", "shape", "ab"),
    ([], "q_lin", "out_features", "16"),
    ([], "scaled", "factor", "0.25"),
    ([], "attn", "axis", 1.5),
    (["layout", "chunk", "einsum"], "x_to_c", "perm", [0, "3", 2, 1]),
    (["layout", "chunk", "einsum"], "q_split", "axis", None),
    (["layout", "chunk", "einsum"], "q_split", "sections", 0),
    (["layout", "chunk", "einsum"], "q_split", "sections", True),
    (["layout", "chunk", "einsum"], "logits_c0", "equation", 7),
])
def test_graph_attr_of_the_wrong_type_exits_2(tmp_path, capsys, passes, node, attr, value):
    g = apply_passes(build_mha_bsf(MHAParams(batch=1, heads=2, features=16, seq=4)),
                     passes, n_chunks=2)
    d = g.to_json_dict()
    [n] = [n for n in d["nodes"] if n["id"] == node]
    n["attrs"][attr] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    assert run("rewrite-graph", str(path), "--passes", "", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{node}: attr {attr!r} must be" in err and "Traceback" not in err


_CONV = {"weight": "w", "bias": "b", "out_features": 4, "kernel": [3, 3], "stride": [1, 1]}


@pytest.mark.parametrize("shape, node, message", [
    ([2, 4], ("sp", "split", ["a"], {"axis": 2, "sections": 2}),
     "sp: axis 2 is outside [0, 2)"),
    ([2, 4], ("sp", "split", ["a"], {"axis": -1, "sections": 2}),
     "sp: axis -1 is outside [0, 2)"),
    ([2, 4], ("cat", "concat", ["a", "a"], {"axis": 2}), "cat: axis 2 is outside [0, 2)"),
    ([2, 4], ("e", "einsum", ["a"], {"equation": "ij->k"}),
     "e: einsum 'ij->k': an output letter is in no operand"),
    ([2, 4], ("s", "scale", [3], {"factor": 1.0}), "s: reference 3 is not a string"),
    ([-1, 4], None, "a: attr 'shape' must be a list of ints >= 1"),
    ([2, 4], (["s"], "scale", ["a"], {"factor": 1.0}),
     "scale node id ['s'] is not a string"),
    ([2, 4], ("e", "einsum", ["a", "a"], {"equation": "ij,kj"}),
     "e: einsum 'ij,kj': the output needs an explicit '->'"),
    ([2, 2], ("e", "einsum", ["a"], {"equation": "ij->ii"}),
     "e: einsum 'ij->ii': an output letter repeats"),
    ([], ("l", "linear", ["a"], {"weight": "w", "out_features": 2}),
     "l: linear wants input of rank >= 1"),
    ([3], ("m", "batched_matmul", ["a", "a"], {}), "m: cannot matmul (3,) @ (3,)"),
    ([], ("s", "softmax", ["a"], {}), "s: axis -1 is outside [0, 0)"),
    ([2, 4], ("n", "layernorm", ["a"], {"axis": 5}), "n: axis 5 is outside [-2, 2)"),
    ([2, 4], ("s", "softmax", ["a"], {"axis": 5}), "s: axis 5 is outside [-2, 2)"),
    ([2, 4], ("s", "softmax", ["a"], {"axis": 0}), "s: softmax only along the last axis"),
    ([2, 4], ("e", "einsum", ["a"], {"equation": "i1->i1"}),
     "e: einsum 'i1->i1': a subscript is not a letter"),
    ([2, 4], ("l", "linear", ["a"], {"weight": "w", "out_features": 0}),
     "l: attr 'out_features' must be a positive int, got 0"),
    ([2, 4], ("l", "linear", ["a"], {"weight": "w", "out_features": -3}),
     "l: attr 'out_features' must be a positive int, got -3"),
    ([2, 4], ("s", "scale", ["a"], {"factor": math.nan}),
     "s: attr 'factor' must be a finite number, got nan"),
    ([2, 4], ("c", "conv2d", ["a"], {**_CONV, "kernel": [1, 1]}),
     "c: conv2d wants (C, H, W) input, got (2, 4)"),
    ([1, 2, 40], ("c", "conv2d", ["a"], _CONV), "c: input 2x40 smaller than kernel 3x3"),
    ([3, 5, 5], ("c", "conv2d", ["a"], {**_CONV, "groups": 2}),
     "c: groups must divide both channel counts"),
    ([1, 5, 5], ("c", "conv2d", ["a"], {**_CONV, "kernel": [3]}),
     "c: attr 'kernel' must be a pair of ints >= 1, got [3]"),
    ([1, 5, 5], ("c", "conv2d", ["a"], {**_CONV, "stride": [0, 1]}),
     "c: attr 'stride' must be a pair of ints >= 1, got [0, 1]"),
    ([1, 5, 5], ("c", "conv2d", ["a"], {k: v for k, v in _CONV.items() if k != "bias"}),
     "c: op conv2d needs attr 'bias'"),
])
def test_malformed_graph_file_exits_2(tmp_path, capsys, shape, node, message):
    nodes = [{"id": "a", "op": "input", "inputs": [], "attrs": {"shape": shape}}]
    if node:
        nodes.append(dict(zip(("id", "op", "inputs", "attrs"), node)))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "g", "nodes": nodes, "inputs": ["a"],
                                "outputs": []}))
    assert run("rewrite-graph", str(path), "--passes", "", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("shape", [[2, 4, 16], [2, 4, 1, 16, 1]])
def test_layout_pass_names_an_input_of_the_wrong_rank(tmp_path, capsys, shape):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"name": "g", "inputs": ["a"], "outputs": ["y"], "nodes": [
        {"id": "a", "op": "input", "inputs": [], "attrs": {"shape": shape}},
        {"id": "y", "op": "output", "inputs": ["a"], "attrs": {}},
    ]}))
    assert run("rewrite-graph", str(path), "--passes", "layout",
               "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"a: expected (bz, S, 1, f) input, got {tuple(shape)}" in err
    assert "Traceback" not in err


def test_unexpected_exception_prints_its_traceback_and_exits_3(tmp_path, monkeypatch,
                                                                capsys):
    def broken(args):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(cli, "cmd_gen_stream", broken)
    assert run("gen-stream", str(tmp_path / "s.stream")) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError: a bug" in err


@pytest.mark.parametrize("text, message", [
    (json.dumps({"name": "g", "inputs": ["a"], "outputs": [], "nodes": [
        {"id": "a", "op": "input", "inputs": [], "attrs": {"shape": [2, 4]}},
        {"id": "e", "op": "einsum", "inputs": ["a"], "attrs": {"equation": "ij->k"}},
    ]}), "e: einsum 'ij->k': an output letter is in no operand"),
    ('{"name": "g", "nodes": [}', "Expecting value"),
    ("[1, 2]", "malformed graph JSON"),
])
def test_graph_file_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert run("rewrite-graph", str(path), "--passes", "", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize("key", ["inputs", "outputs"])
def test_graph_input_or_output_entry_that_is_not_a_string_exits_2(tmp_path, capsys, key):
    d = {"name": "g", "inputs": ["a"], "outputs": [],
         "nodes": [{"id": "a", "op": "input", "inputs": [], "attrs": {"shape": [2]}}]}
    d[key].append(["a"])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    assert run("rewrite-graph", str(path), "--passes", "", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"graph {key[:-1]} ['a'] is not a string" in err and "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ("custom:3,12", "2 to 11 exponent bits"),
    ("custom:53,11", "max_finite is past the float64 range"),
])
def test_custom_format_outside_float64_exits_2(adversarial, tmp_path, capsys, spec, message):
    assert run("audit-layernorm", str(adversarial), "--format", spec,
               "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"format {spec!r} is not representable" in err and message in err
    assert "Traceback" not in err


def test_rewrite_graph_check_without_weights_exits_2(tmp_path, capsys):
    path = small_graph_file(tmp_path)
    assert run("rewrite-graph", str(path), "--check", "--check-instances", "1",
               "--out-dir", str(tmp_path)) == 2
    assert "q_lin: weight tensor 'wq'" in capsys.readouterr().err


def test_rewrite_graph_weights_file_missing_a_tensor_exits_2(tmp_path, capsys):
    path = small_graph_file(tmp_path)
    weights = mha_weights(MHAParams(batch=1, heads=2, features=16, seq=4), 0)
    del weights["bq"]
    wpath = tmp_path / "w.bin"
    write_tensors(wpath, weights)
    assert run("rewrite-graph", str(path), "--check", "--check-instances", "1",
               "--weights", str(wpath), "--out-dir", str(tmp_path)) == 2
    assert "q_lin: bias tensor 'bq'" in capsys.readouterr().err


@pytest.mark.parametrize("name, tensor, why", [
    ("wq", np.eye(3),
     "w.bin: q_lin: weight tensor 'wq' has shape (3, 3), the node reads (16, 16)"),
    ("bo", np.ones(3), "w.bin: out_lin: bias tensor 'bo' has shape (3,), the node reads (16,)"),
    ("wk", None, "w.bin: k_lin: weight tensor 'wk' is not in the weights"),
    # a tensor name that is not a string is the graph file's fault
    ("wq", "listed", "g.json: q_lin: attr 'weight' must be a tensor name, got ['wq']"),
    ("bq", "listed", "g.json: q_lin: attr 'bias' must be a tensor name, got ['bq']"),
    ("layer1.weight", np.ones((4, 4, 3, 3)), "w.bin: conv1: weight tensor "
     "'layer1.weight' has shape (4, 4, 3, 3), the node reads (4, 2, 3, 3)"),
])
def test_rewrite_graph_check_names_the_weights_file_tensor_and_node(tmp_path, capsys,
                                                                     name, tensor, why):
    if name.startswith("layer"):
        path, weights = small_conv_graph_file(tmp_path)
    else:
        path = small_graph_file(tmp_path)
        weights = mha_weights(MHAParams(batch=1, heads=2, features=16, seq=4), 0)
    if tensor is None:
        del weights[name]
    elif isinstance(tensor, str):
        d = json.loads(path.read_text())
        [attrs] = [n["attrs"] for n in d["nodes"] if name in n["attrs"].values()]
        attrs.update({k: [v] for k, v in attrs.items() if v == name})
        path.write_text(json.dumps(d))
    else:
        weights[name] = tensor
    wpath = tmp_path / "w.bin"
    write_tensors(wpath, weights)
    out = tmp_path / "out"
    assert run("rewrite-graph", str(path), "--check", "--weights", str(wpath),
               "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}/{why}\n"
    assert not out.exists()  # refused before the rewrite ran


def test_rewrite_graph_missing_bias_of_a_second_reader_exits_2(tmp_path, capsys):
    """Two linears read one weight; the second one's bias is not in the file."""
    path, wpath = tmp_path / "g.json", tmp_path / "w.bin"
    lin = {"weight": "w", "out_features": 4}
    path.write_text(json.dumps({"name": "g", "inputs": ["x"], "outputs": ["y"], "nodes": [
        {"id": "x", "op": "input", "inputs": [], "attrs": {"shape": [2, 4]}},
        {"id": "l1", "op": "linear", "inputs": ["x"], "attrs": {**lin, "bias": "b"}},
        {"id": "l2", "op": "linear", "inputs": ["l1"], "attrs": {**lin, "bias": "b2"}},
        {"id": "y", "op": "output", "inputs": ["l2"], "attrs": {}},
    ]}))
    write_tensors(wpath, {"w": np.eye(4), "b": np.ones(4)})
    assert run("rewrite-graph", str(path), "--passes", "", "--check", "--weights",
               str(wpath), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "l2: bias tensor 'b2' is not in the weights" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "rewrite_metrics.json").exists()


def test_rewrite_graph_mha_reads_weights_instead_of_generating_them(tmp_path, monkeypatch):
    params = MHAParams(batch=1, heads=2, features=16, seq=4)
    wpath = tmp_path / "w.bin"
    write_tensors(wpath, mha_weights(params, 3))
    argv = ["rewrite-graph", "mha", "--batch", "1", "--heads", "2", "--features", "16",
            "--seq", "4", "--seed", "3", "--check", "--check-instances", "2"]
    assert run(*argv, "--out-dir", str(tmp_path / "gen")) == 0

    def unused(*args, **kwargs):
        raise AssertionError("weights generated although --weights was given")

    monkeypatch.setattr(cli, "mha_weights", unused)
    # a missing weights file is reported before any weights are generated
    assert run(*argv, "--weights", str(tmp_path / "none.bin"),
               "--out-dir", str(tmp_path / "none")) == 2
    assert run(*argv, "--weights", str(wpath), "--out-dir", str(tmp_path / "read")) == 0
    for name in ("graph_out.json", "rewrite_metrics.json"):
        assert ((tmp_path / "read" / name).read_bytes()
                == (tmp_path / "gen" / name).read_bytes())


def test_stream_header_larger_than_the_file_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.stream"
    path.write_bytes(b'{"chunk":0,"dtype":"<f8","shape":[100000000000]}\n'
                     + np.zeros(8).tobytes())
    assert run("audit-softmax", str(path), "--out-dir", str(tmp_path)) == 2
    assert "huge.stream: record 0: truncated" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "verify-theory" in capsys.readouterr().out


@pytest.mark.parametrize("spread", [1e-4, 1e-6])
def test_audit_layernorm_accepts_tiny_spread_on_a_large_dc_offset(tmp_path, spread):
    # Centering leaves a residual sum of about n * u * 1e6, far above 1e-6 of
    # these rows' L1 norm; rows the pipeline centered itself are not rejected.
    path = tmp_path / "dc.stream"
    write_stream(path, [1e6 + spread * np.random.default_rng(0).normal(size=(8, 512))])
    out = tmp_path / "audit"
    assert run("audit-layernorm", str(path), "--prenorm", "theorem1",
               "--out-dir", str(out)) == 0
    report = json.loads((out / "layernorm_audit.json").read_text())
    stabilized = [r for r in report["rows"] if "prenorm=theorem1" in r["config"]]
    assert len(stabilized) == 2
    assert all(r["overflow_invocations"] == 0 for r in stabilized)


def test_audit_layernorm_bins_a_zero_row_of_a_float16_stream(tmp_path):
    rows = np.random.default_rng(4).normal(0.0, 1.0, (8, 16)).astype(np.float16)
    rows[3] = 0.0
    path, out = tmp_path / "f16.stream", tmp_path / "out"
    write_stream(path, [rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("audit-layernorm", str(path), "--prenorm", "none",
                   "--out-dir", str(out)) == 0
    lines = (out / "layernorm_hist.csv").read_text().splitlines()
    assert lines[1].split(",") == ["-100", "1", "1"]  # the zero row, at either scale
    assert int(lines[-1].split(",")[0]) <= 5


@pytest.mark.parametrize("prenorm", ["theorem1", "none"])
def test_audit_layernorm_stream_with_inf_exits_2(tmp_path, capsys, prenorm):
    path = tmp_path / "inf.stream"
    rows = np.random.default_rng(0).normal(size=(4, 8))
    rows[2, 3] = np.inf
    write_stream(path, [rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("audit-layernorm", str(path), "--prenorm", prenorm,
                   "--out-dir", str(tmp_path)) == 2
    assert "inf.stream: row 2: entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dtype", [np.float64, np.float16])
@pytest.mark.parametrize("command", ["audit-softmax", "audit-layernorm"])
def test_audits_refuse_a_non_finite_entry_naming_its_row(tmp_path, capsys, command,
                                                         dtype, value):
    path = tmp_path / "rows.stream"
    rows = np.random.default_rng(0).normal(size=(4, 8)).astype(dtype)
    rows[2, 3] = value
    write_stream(path, [np.ones((3, 8), dtype), rows])
    out = tmp_path / "audit"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic
        assert run(command, str(path), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}: row 5: entries must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit-softmax", "audit-layernorm"])
def test_audits_refuse_chunks_of_mixed_widths(tmp_path, capsys, command):
    path = tmp_path / "rows.stream"
    write_stream(path, [np.ones((2, 8)), np.ones((2, 4))])
    out = tmp_path / "audit"
    assert run(command, str(path), "--out-dir", str(out)) == 2
    assert capsys.readouterr().err == f"error: {path}: chunks have mixed widths [4, 8]\n"
    assert not out.exists()


@pytest.mark.parametrize("chunk, conv, why", [
    (np.ones((2, 40)), "conv2d6", "conv2d6: input 2x40 smaller than kernel 3x3"),
    (np.ones((10, 40)), "dws2d6,conv2d6",  # 4x19 after layer 0: no 5x5 fits
     "dws2d6: input 4x19 smaller than kernel 5x5"),
    (np.ones((2, 3, 40)), "conv2d6",
     "conv2d6: expected (H, W) or (1, H, W) input, got (2, 3, 40)"),
    (np.ones((1, 1, 30, 40)), "dws2d6",
     "dws2d6: expected (H, W) or (1, H, W) input, got (1, 1, 30, 40)"),
])
def test_profile_conv_chunk_a_config_cannot_take_exits_2(tmp_path, capsys, chunk, conv,
                                                         why):
    path = tmp_path / "frames.stream"
    write_stream(path, [np.ones((30, 40)), chunk])
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--conv", conv, "--out-dir", str(out)) == 2
    assert f"error: {path}: chunk 1: {why}\n" == capsys.readouterr().err
    assert not out.exists()  # refused before the first config ran


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("dtype", [np.float64, np.float16])
def test_profile_conv_non_finite_entry_exits_2_naming_its_position(tmp_path, capsys,
                                                                   value, dtype):
    path = tmp_path / "frames.stream"
    frames = np.random.default_rng(0).normal(size=(80, 40)).astype(dtype)
    frames[17, 33] = value
    write_stream(path, [np.ones((30, 40), dtype), frames])
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--conv", "conv2d6", "--out-dir", str(out)) == 2
    assert (f"error: {path}: chunk 1: entry (17, 33) is {value}: entries must be finite\n"
            == capsys.readouterr().err)
    assert not out.exists()


def test_profile_conv_counts_finite_entries_that_overflow_the_format(tmp_path):
    path = tmp_path / "frames.stream"
    frames = np.random.default_rng(0).normal(size=(30, 40))
    frames[5, 5] = 1e6  # finite, past fp16's 65504
    write_stream(path, [frames])
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--conv", "dws2d6", "--format", "fp16",
               "--out-dir", str(out)) == 0
    hist = json.loads((out / "conv_hist_dws2d6.json").read_text())
    assert hist["quantize"]["overflow"] > 0
    assert hist["per_layer_peak"][0] == math.inf


@pytest.mark.parametrize("argv, flag, value", [
    (("gen-stream", "{tmp}/a.stream"), "--dist", "bogus"),
    (("gen-stream", "{tmp}/a.stream"), "--rows", "3.7"),
    (("rewrite-graph", "mha", "--out-dir", "{tmp}"), "--chunk-axis", "keys"),
])
def test_flag_values_outside_their_type_or_choices_exit_2(tmp_path, argv, flag, value):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(*argv, flag, value) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("verify-theory", "--out-dir", "{tmp}", "--format", "fp16"),
    ("rewrite-graph", "mha", "--out-dir", "{tmp}", "--format", "fp16"),
    ("gen-stream", "{tmp}/a.stream", "--format", "fp16"),
    ("audit-layernorm", "{tmp}/s.stream", "--out-dir", "{tmp}", "--seed", "1"),
    ("audit-softmax", "{tmp}/s.stream", "--out-dir", "{tmp}", "--seed", "1"),
    ("gen-stream", "{tmp}/a.stream", "--out-dir", "{tmp}"),
])
def test_flags_a_command_does_not_read_are_not_declared(tmp_path, capsys, argv):
    assert run(*[a.format(tmp=tmp_path) for a in argv]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class ReadLog(argparse.Namespace):
    """A namespace that records which attributes are read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


def test_every_declared_option_is_read_by_its_command(tmp_path):
    stream, mel = tmp_path / "s.stream", tmp_path / "mel.stream"
    assert run("gen-stream", str(stream), "--rows", "4", "--width", "8") == 0
    assert run("gen-stream", str(mel), "--rows", "20", "--width", "40",
               "--chunk-rows", "20") == 0
    out = ("--out-dir", str(tmp_path / "out"))
    tiny = {
        "verify-theory": ("--n-max", "2", "--vectors", "200", "--samples", "20000", *out),
        "audit-layernorm": (str(stream), *out),
        "audit-softmax": (str(stream), *out),
        "profile-conv": (str(mel), "--conv", "conv2d6", *out),
        "rewrite-graph": ("mha", "--heads", "2", "--features", "16", "--seq", "4",
                          "--check", "--check-instances", "1", *out),
        "gen-stream": (str(tmp_path / "g.stream"), "--rows", "2", "--width", "4"),
    }
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subs.choices) == sorted(tiny)
    for command, argv in tiny.items():
        args = parser.parse_args([command, *argv], namespace=ReadLog())
        args.__dict__["_reads"] = set()  # parsing reads every dest
        assert args.func(args) == 0, command
        options = {a.dest for a in subs.choices[command]._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        unread = options - args.__dict__["_reads"]
        assert not unread, f"{command} declares options it never reads: {unread}"


@pytest.mark.parametrize("command", ["audit-softmax", "audit-layernorm"])
def test_complex_stream_exits_2_naming_the_file(tmp_path, capsys, command):
    path = tmp_path / "cplx.stream"
    write_stream(path, [np.full((4, 8), 1.0 + 2.0j)])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning would raise here
        assert run(command, str(path), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "cplx.stream: record 0: bad dtype '<c16'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit-softmax", "audit-layernorm"])
@pytest.mark.parametrize("shape", [(0, 8), (4, 0)])
def test_stream_without_entries_exits_2_naming_the_file(tmp_path, capsys, command, shape):
    path = tmp_path / "none.stream"
    write_stream(path, [np.zeros(shape), np.zeros(shape)])
    out = tmp_path / "out"
    assert run(command, str(path), "--out-dir", str(out)) == 2
    assert "error: " + str(path) + ": the stream holds no entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("conv", [",", "", " , "])
def test_profile_conv_without_a_config_exits_2(tmp_path, capsys, conv):
    path = tmp_path / "s.stream"
    run("gen-stream", str(path), "--rows", "4", "--width", "8")
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--conv", conv, "--out-dir", str(out)) == 2
    assert f"--conv {conv!r} names no subsampling config" in capsys.readouterr().err
    assert not out.exists()

