"""The stability audits walk a stream in row blocks.

Blocks change neither a report byte nor an exit code, whatever the
chunking; the audits hold the stream plus a few blocks, not copies of the
stream; a refused row is named by its stream row; and a LayerNorm kernel
run that two configs share counts for both.
"""

import json
import math
import warnings

import numpy as np
import pytest

from lowprec import cli, prenorm
from lowprec.floatsim import QuantRecorder, log2_bins, parse_format
from lowprec.streams import read_stream, write_stream

REPORTS = ("layernorm_audit.json", "layernorm_hist.csv", "softmax_audit.json")
AUDITS = [("audit-layernorm", fmt, "--prenorm", pre)
          for fmt in ("fp16", "custom:3,4") for pre in ("theorem1", "mad", "none")]
AUDITS += [("audit-softmax", fmt) for fmt in ("fp16", "custom:3,4")]


def _rows():
    """1500 rows of width 77: two blocks at the module's block size.

    The first block is quiet. The second is hot, and one of its rows is all
    -1e5, past fp16: its max subtraction is -inf - -inf, so the table
    softmax's worst sum deviation is nan in both formats, in a block after
    a finite one.
    """
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, (1500, 77))
    x[900:] *= 500.0
    x[900::7] *= 10.0
    x[1200] = -1e5
    return x


def _chunkings(x):
    ragged = np.split(x, [1, 1, 500, 503, 1000])  # a 1-row and a 0-row chunk
    return {
        "one": [x],
        "256": [x[i:i + 256] for i in range(0, len(x), 256)],
        "ragged": ragged,
        "n-d": [x[0], x[1:501].reshape(20, 25, 77), x[501:].reshape(999, 1, 77)],
    }


def _reports(path, out):
    """Exit code and report bytes of every audit in AUDITS on ``path``."""
    got = {}
    for command, fmt, *flags in AUDITS:
        for f in out.glob("*"):
            f.unlink()
        rc = cli.main([command, str(path), "--format", fmt, *flags, "--out-dir", str(out)])
        got[command, fmt, *flags] = (rc, {n: (out / n).read_bytes()
                                          for n in REPORTS if (out / n).exists()})
    return got


def test_reports_do_not_depend_on_chunking_or_block_size(tmp_path, monkeypatch):
    x = _rows()
    path, out = tmp_path / "s.stream", tmp_path / "out"
    write_stream(path, [x])
    want = _reports(path, out)
    for fmt in ("fp16", "custom:3,4"):
        rc, files = want["audit-softmax", fmt]
        assert rc == 1 and math.isnan(json.loads(files["softmax_audit.json"])
                                      ["worst_sum_abs_dev"])
    assert len(list(cli._row_blocks(str(path))[2])) == 2
    for block_rows in (cli._BLOCK_BYTES // (8 * 77), 64):
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_rows * 8 * 77)
        for name, chunks in _chunkings(x).items():
            write_stream(path, chunks)
            assert _reports(path, out) == want, (block_rows, name)


def test_blocks_are_views_of_large_chunks_and_join_small_ones(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 10 * 8 * 4)  # 10 rows of width 4
    x = np.arange(4 * 47.0).reshape(47, 4)
    path = tmp_path / "s.stream"
    write_stream(path, [x[:25], x[25:28], x[28:30], x[30:47].astype(np.float32)])
    n, width, blocks = cli._row_blocks(str(path))
    blocks = list(blocks)
    assert (n, width) == (47, 4)
    assert [(start, len(b)) for start, b in blocks] == [(0, 10), (10, 10), (20, 10),
                                                         (30, 10), (40, 7)]
    assert all(b.dtype == np.float64 for _, b in blocks)
    np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), x)
    # the first two blocks are slices of the 25-row chunk, not copies
    assert blocks[0][1].base is not None and blocks[0][1].base is blocks[1][1].base


@pytest.mark.parametrize("command", ["audit-layernorm", "audit-softmax"])
def test_audits_hold_the_stream_plus_a_few_blocks(tmp_path, traced_peak, command):
    x = np.random.default_rng(0).normal(0.0, 500.0, (1024, 512))  # 4 MiB
    path = tmp_path / "s.stream"
    write_stream(path, [x[i:i + 32] for i in range(0, 1024, 32)])
    peak = traced_peak(lambda: cli.main([command, str(path), "--out-dir", str(tmp_path)]))
    # the whole stream once, its blocks joined, and the kernels' temporaries
    assert peak <= x.nbytes + 10 * cli._BLOCK_BYTES


def test_row_peaks_times_the_multiplier_are_the_peaks_of_the_product(tmp_path):
    # audit-layernorm takes max|block * mult| per row as max|block| * mult,
    # since rounding a product by a positive constant is monotone
    block = np.random.default_rng(12).normal(0.0, 500.0, (8, 512))
    block[0], block[1] = 0.0, -0.0
    block[2, ::2] = -0.0
    block[2, 1::2] = 0.0
    block[3, 7] = 1e307  # inf once multiplied by sqrt(512)
    block[4] = -1e307
    hist = []
    for mult in (1.0, cli.SQRT512):
        with np.errstate(over="ignore"):
            want = np.abs(block * mult).max(axis=1)
        got = cli._times(np.abs(block).max(axis=1), mult)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        hist.append(log2_bins(want))
    assert np.isinf(want[3:5]).all() and (want[:3].view(np.uint64) == 0).all()
    path, out = tmp_path / "s.stream", tmp_path / "out"
    write_stream(path, [block])
    assert cli.main(["audit-layernorm", str(path), "--prenorm", "none",
                     "--out-dir", str(out)]) == 0
    lo, hi = min(map(min, hist)), max(map(max, hist))
    want_csv = ["log2_bin,count_mult1,count_multsqrt512"] + [
        ",".join([str(b)] + [str(int(np.count_nonzero(h == b))) for h in hist])
        for b in range(lo, hi + 1)]
    assert (out / "layernorm_hist.csv").read_text().splitlines() == want_csv


@pytest.mark.parametrize("bad, why", [
    (1e307, "entries overflow float64 once scaled"),  # finite, but not times sqrt(512)
    (np.inf, "entries must be finite"),
])
@pytest.mark.parametrize("block_rows", [None, 4])  # the bad row in block 0 or 1
def test_a_refused_row_is_named_by_file_and_stream_row(
        tmp_path, capsys, monkeypatch, block_rows, bad, why):
    if block_rows:
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_rows * 8 * 8)
    x = np.random.default_rng(1).normal(size=(8, 8))
    x[5, :2] = bad, -bad
    path = tmp_path / "big.stream"
    write_stream(path, [x[:4], x[4:]])  # the row sits in the second chunk
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["audit-layernorm", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: row 5: {why}" in err
    assert "Warning" not in err and not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_row_whose_denominator_overflows_once_multiplied_is_still_normalized(
        tmp_path, monkeypatch):
    # times sqrt(512) the row [5e306, -5e306] stays finite, but its theorem-1
    # denominator overflows; scaled first, it pre-normalizes to the same
    # +-peak as at mult 1 instead of to zeros
    kernel_inputs, real = [], cli.prenormalized_rows

    def spy(x, pspec, rec):
        y = real(x, pspec, rec)
        kernel_inputs.append(y.copy())
        return y

    monkeypatch.setattr(cli, "prenormalized_rows", spy)
    path = tmp_path / "huge.stream"
    write_stream(path, [np.array([[5e306, -5e306], [1.0, -3.0]])])
    assert cli.main(["audit-layernorm", str(path), "--out-dir", str(tmp_path)]) == 0
    mult1, sqrt512 = kernel_inputs[-2:]
    assert (mult1[0] != 0).all() and mult1[0, 0] == -mult1[0, 1]
    np.testing.assert_array_equal(sqrt512, mult1)


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
@pytest.mark.parametrize("fmt, pre", [("fp32", "none"), ("fp16", "theorem1"),
                                      ("custom:7,8", "mad")])
def test_a_narrow_stream_audits_as_its_float64_widening(tmp_path, dtype, fmt, pre):
    """Times sqrt(512), an N(0, 5000) entry passes float16's 65504, and a
    float32 product rounds twice, unless the blocks are float64."""
    x = np.random.default_rng(4).normal(0.0, 5000.0, (8, 64))
    x = (x - x.mean(axis=1, keepdims=True)).astype(dtype)
    got = {}
    for name, values in (("narrow", x), ("wide", x.astype(np.float64))):
        path, out = tmp_path / f"{name}.stream", tmp_path / name
        write_stream(path, [values])
        rc = cli.main(["audit-layernorm", str(path), "--format", fmt, "--prenorm", pre,
                       "--out-dir", str(out)])
        got[name] = (rc, json.loads((out / "layernorm_audit.json").read_text())["rows"],
                     (out / "layernorm_hist.csv").read_bytes())
    assert got["narrow"] == got["wide"]


@pytest.mark.parametrize("pre", ["mad", "theorem1"])
@pytest.mark.parametrize("fmt, kernel_runs", [
    ("fp16", 6),  # 2 blocks x (none at each mult, one run both pre-normalized configs share)
    ("custom:52,11", 8),  # the two mults round to different kernel inputs
])
def test_a_shared_kernel_run_counts_for_both_configs(tmp_path, monkeypatch, fmt,
                                                     kernel_runs, pre):
    path, out = tmp_path / "s.stream", tmp_path / "out"
    assert cli.main(["gen-stream", str(path)]) == 0  # 256 x 512 rows: two blocks
    kernel, runs = prenorm.layernorm_kernel, []

    def counted(yq, rec):
        runs.append(len(yq))
        return kernel(yq, rec)

    for module in (cli, prenorm):
        monkeypatch.setattr(module, "layernorm_kernel", counted)
    assert cli.main(["audit-layernorm", str(path), "--format", fmt, "--prenorm", pre,
                     "--out-dir", str(out)]) == 0
    assert len(runs) == kernel_runs
    monkeypatch.undo()

    # the report built with one stabilized_layernorm_rows call per config
    f, x = parse_format(fmt), np.concatenate(read_stream(path))
    spec = prenorm.PrenormSpec(pre, max_value=prenorm.theorem1_ceiling(f, x.shape[1]))
    want = []
    for m, mult in (("1", 1.0), ("sqrt512", cli.SQRT512)):
        for name, pspec in (("none", None), (pre, spec)):
            rec = QuantRecorder(f, rows=len(x))
            prenorm.stabilized_layernorm_rows(x * mult, pspec, rec)
            bad = int(np.count_nonzero(rec.row_overflow))
            want.append({"config": f"prenorm={name},mult={m}", "invocations": len(x),
                         "overflow_invocations": bad, "overflow_fraction": bad / len(x),
                         "quantize": vars(rec.stats)})
            if name == "theorem1":
                want[-1]["max_value"] = spec.max_value
    assert json.loads((out / "layernorm_audit.json").read_text())["rows"] == want
