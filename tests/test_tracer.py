"""The benchmark tracer (perfbench/spans.py) still finds every name it wraps."""

import importlib.util
import sys
from pathlib import Path

from lowprec import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tmp_path):
    spans = _load_spans()
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
