"""End-to-end command line runs, in process via cli.main."""

import json
import math

import numpy as np
import pytest

from lowprec import cli
from lowprec.graphir import GraphRewriteError, canonical_json, Graph, build_mha_bsf, MHAParams
from lowprec.streams import read_stream


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

    def lopsided(x, **kw):
        out, stats = real(x, **kw)
        return out * 1.5, stats  # mass no longer sums to 1

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


def test_profile_conv_empty_stream_still_emits_mac_table(tmp_path):
    path = tmp_path / "empty.stream"
    path.write_bytes(b"")
    out = tmp_path / "prof"
    assert run("profile-conv", str(path), "--out-dir", str(out)) == 0
    assert (out / "conv_peaks_conv2d6.csv").read_text() == "chunk,peak\n"
    table = json.loads((out / "mac_table.json").read_text())
    assert table["rows"][0]["input_hw"] == [80, 1000]


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
    assert canonical_json(loaded) == canonical_json(built)


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


def test_rewrite_graph_reload_and_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("rewrite-graph", "mha", "--features", "64", "--seq", "8",
               "--passes", "layout", "--out-dir", str(out1)) == 0
    assert run("rewrite-graph", str(out1 / "graph_out.json"),
               "--passes", "layout", "--out-dir", str(out2)) == 0
    a = (out1 / "graph_out.json").read_bytes()
    b = (out2 / "graph_out.json").read_bytes()
    assert a == b  # second layout run is a no-op


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rows": 6, "width": 10, "seed": 9}))
    a = tmp_path / "a.stream"
    assert run("gen-stream", str(a), "--config", str(cfg)) == 0
    assert np.concatenate(read_stream(a)).shape == (6, 10)
    b = tmp_path / "b.stream"
    assert run("gen-stream", str(b), "--config", str(cfg),
               "--width", "4") == 0
    assert np.concatenate(read_stream(b)).shape == (6, 4)


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


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "verify-theory" in capsys.readouterr().out
