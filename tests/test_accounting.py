"""Quantize-and-account counts pinned to literal values.

Each figure was computed once from seeded inputs and written down here, so
the shared recorder is checked against fixed counts rather than against
itself.
"""

import ast
from pathlib import Path

import numpy as np

import lowprec
from lowprec.convsub import SUBSAMPLERS, init_weights, subsampler_graph
from lowprec.floatsim import FP16, OverflowStats, QuantRecorder
from lowprec.graphir import (
    Graph,
    MHAParams,
    apply_passes,
    build_mha_bsf,
    execute_traced,
    mha_weights,
)
from lowprec.prenorm import PrenormSpec, stabilized_layernorm_rows
from lowprec.softmax_lut import softmax_lut


def test_layernorm_counts_and_per_row_overflow():
    scales = np.array([[10.0], [500.0], [5000.0], [30.0], [200.0], [50.0]])
    x = np.random.default_rng(11).normal(size=(6, 16)) * scales
    rec = QuantRecorder(FP16, rows=6)
    stabilized_layernorm_rows(x, None, rec)
    assert rec.row_overflow.tolist() == [0, 26, 34, 0, 13, 0]
    assert rec.stats == OverflowStats(396, 69, 254, 0, 73)
    spec = PrenormSpec("theorem1", max_value=FP16.max_finite)
    rec = QuantRecorder(FP16, rows=6)
    stabilized_layernorm_rows(x, spec, rec)
    assert rec.row_overflow.tolist() == [0] * 6
    assert rec.stats == OverflowStats(396, 44, 352, 0, 0)


def test_adding_a_recorder_counts_as_rounding_into_this_one():
    x = np.array([[1.0, 7e4], [0.1, 2.0], [1e5, -1e5]])  # rows 0 and 2 overflow
    direct, part, summed = (QuantRecorder(FP16, rows=r) for r in (6, 3, 6))
    direct.first_row = summed.first_row = 2
    direct.q(x)
    part.q(x)
    summed.add(part)
    assert summed.stats == direct.stats and summed.stats.overflow == 3
    assert summed.row_overflow.tolist() == direct.row_overflow.tolist() == [0, 0, 1, 0, 2, 0]


def test_softmax_counts_only_hot_rows_in_the_rescale():
    x = np.random.default_rng(12).normal(0.0, 3000.0, (5, 8))
    assert (x.max(axis=1) > 4096.0).tolist() == [True, True, False, False, True]
    rec = QuantRecorder(FP16)
    softmax_lut(rec.q(x), rec)
    # 40 inputs, 2 x 24 hot-row rescale entries, 3 x 40 stage outputs, 5 totals
    assert rec.stats == OverflowStats(213, 132, 81, 0, 0)


def test_subsampler_counts():
    config = SUBSAMPLERS["dws2d6x22"]
    x = np.random.default_rng(13).normal(0.0, 3000.0, (1, 13, 20))
    trace = execute_traced(subsampler_graph(config, x.shape), {"x": x},
                           init_weights(config, 13), FP16, peaks=True)
    peaks = tuple(trace.node_peaks[k] for k in ("relu0", "relu1", "relu2", "mult"))
    assert trace.total_overflow == OverflowStats(30980, 510, 30433, 0, 37)
    assert peaks == (19168.0, 10128.0, 5524.0, np.inf)


def test_a_graph_softmax_counts_its_stages_not_its_input():
    # the scale overflows one value; the softmax gets it rounded and counted,
    # and counts only its own 21 stage values: ratio, product, shift, table
    # (4 each), the total, and the quotient
    g = Graph.from_json_dict({"name": "g", "inputs": ["x"], "outputs": ["y"], "nodes": [
        {"id": "x", "op": "input", "inputs": [], "attrs": {"shape": [1, 4]}},
        {"id": "s", "op": "scale", "inputs": ["x"], "attrs": {"factor": 1e5}},
        {"id": "sm", "op": "softmax", "inputs": ["s"], "attrs": {}},
        {"id": "y", "op": "output", "inputs": ["sm"], "attrs": {}},
    ]})
    trace = execute_traced(g, {"x": np.array([[1.0, 0.1, 0.2, 0.3]])}, fmt=FP16)
    assert trace.node_stats["s"] == OverflowStats(4, 0, 3, 0, 1)
    assert trace.node_stats["sm"] == OverflowStats(21, 21, 0, 0, 0)
    assert trace.total_overflow.overflow == 1
    assert trace.outputs["y"].tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_graph_node_counts():
    p = MHAParams(batch=1, heads=2, features=8, seq=4)
    g = apply_passes(build_mha_bsf(p), ["layout", "chunk"], n_chunks=2)
    feed = {"x": np.random.default_rng(14).normal(0.0, 90.0, (1, 4, 1, 8))}
    trace = execute_traced(g, feed, mha_weights(p, 14), FP16)
    # a softmax node counts its own stages, not its rounded input again
    assert trace.node_stats == {
        "x": OverflowStats(32, 0, 32, 0, 0),
        "q_lin": OverflowStats(32, 0, 32, 0, 0),
        "k_lin": OverflowStats(32, 0, 32, 0, 0),
        "v_lin": OverflowStats(32, 0, 32, 0, 0),
        "logits_c0": OverflowStats(16, 0, 14, 0, 2),
        "scaled_c0": OverflowStats(16, 14, 0, 0, 2),
        # 6 overcounts: the 2 -inf scaled_c0 already counted come back as
        # overflows at the ratio, product and shift (ROADMAP item 1); mending
        # that moves this pin to 2 fewer per stage
        "attn_c0": OverflowStats(84, 65, 13, 0, 6),
        "ctx_c0": OverflowStats(16, 16, 0, 0, 0),
        "logits_c1": OverflowStats(16, 0, 16, 0, 0),
        "scaled_c1": OverflowStats(16, 16, 0, 0, 0),
        "attn_c1": OverflowStats(68, 55, 13, 0, 0),
        "ctx_c1": OverflowStats(16, 16, 0, 0, 0),
        "out_lin": OverflowStats(32, 0, 32, 0, 0),
    }


def test_only_floatsim_calls_quantize_array():
    # every other module rounds through a QuantRecorder, so that each value
    # is rounded and counted once, in one place. One uncounted pass stays in
    # audit-softmax, the benchmark tracer's only view of floatsim until it
    # wraps QuantRecorder.q (ROADMAP, "Benchmark upkeep"); then this list
    # empties.
    held = ["cli.py:cmd_audit_softmax"]
    calls = []
    for path in sorted(Path(lowprec.__file__).parent.glob("*.py")):
        if path.name == "floatsim.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) \
                            == "quantize_array":
                        calls.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert calls == held
