"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps,
and its workloads (perfbench/workloads.py) still expect what the program reports."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from lowprec import cli
from lowprec.streams import write_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tmp_path):
    spans = _load("spans")
    points = [(m, attr) for m, attr, _, _ in spans.WRAP_POINTS]
    originals = [getattr(m, attr) for m, attr in points]
    stream = tmp_path / "s.stream"
    assert cli.main(["gen-stream", str(stream), "--rows", "8", "--width", "16",
                     "--scale", "5000"]) == 0

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, attr) is not orig
                   for (m, attr), orig in zip(points, originals))
        rc = tracer.run_job("j", lambda: cli.main(
            ["audit-softmax", str(stream), "--out-dir", str(tmp_path)]))
    finally:
        tracer.uninstall()

    assert rc == 0
    assert all(getattr(m, attr) is orig for (m, attr), orig in zip(points, originals))
    metrics = tracer.breakdowns()["j"]
    assert metrics["softmax_lut.calls"] == 1
    assert metrics["softmax_lut.elems"] == 8 * 16
    assert metrics["floatsim.calls"] >= 1
    assert metrics["streams.read_bytes"] == stream.stat().st_size


def test_tracer_sees_every_conv_of_the_front_end_graphs(tmp_path):
    # each config's chunk runs as one graph execution, whose conv2d nodes
    # call conv2d_forward through the module name the tracer wraps
    spans = _load("spans")
    stream = tmp_path / "frames.stream"
    write_stream(stream, [np.random.default_rng(0).normal(size=(20, 40))])
    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = tracer.run_job("j", lambda: cli.main(
            ["profile-conv", str(stream), "--conv", "conv2d6,dws2d6", "--out-dir", str(out)]))
    finally:
        tracer.uninstall()

    assert rc == 0
    metrics = tracer.breakdowns()["j"]
    rows = json.loads((out / "mac_table.json").read_text())["rows"]
    assert metrics["convsub.conv_calls"] == 5
    assert metrics["convsub.macs"] == sum(r["frontend_macs"] for r in rows)
    assert metrics["graphir.exec_calls"] == 2


def test_verify_theory_reports_the_check_count_the_benchmark_expects():
    workloads = _load("workloads")
    args = cli.build_parser().parse_args(
        ["verify-theory", *workloads.SIZES["toy"]["theory_args"]])
    rows = cli.theory_report(n_max=args.n_max, vectors=args.vectors,
                             samples=args.samples, seed=args.seed)
    assert len(rows) == workloads.THEORY_CHECKS == 12
