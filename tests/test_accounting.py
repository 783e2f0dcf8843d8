"""Quantize-and-account counts pinned to literal values.

Each figure was computed once from seeded inputs and written down here, so
the shared recorder is checked against fixed counts rather than against
itself.
"""

import numpy as np

from lowprec.convsub import SUBSAMPLERS, init_weights, subsample_forward
from lowprec.floatsim import FP16, OverflowStats
from lowprec.graphir import (
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
    _, per_row, stats = stabilized_layernorm_rows(x, None, None, FP16)
    assert per_row.tolist() == [0, 26, 34, 0, 13, 0]
    assert stats == OverflowStats(396, 69, 254, 0, 73)
    spec = PrenormSpec("theorem1", max_value=FP16.max_finite)
    _, per_row, stats = stabilized_layernorm_rows(x, spec, None, FP16)
    assert per_row.tolist() == [0] * 6
    assert stats == OverflowStats(396, 44, 352, 0, 0)


def test_softmax_counts_only_hot_rows_in_the_rescale():
    x = np.random.default_rng(12).normal(0.0, 3000.0, (5, 8))
    assert (x.max(axis=1) > 4096.0).tolist() == [True, True, False, False, True]
    _, stats = softmax_lut(x, fmt=FP16)
    # 40 inputs, 2 x 24 hot-row rescale entries, 3 x 40 stage outputs, 5 totals
    assert stats == OverflowStats(213, 132, 81, 0, 0)


def test_subsampler_counts():
    config = SUBSAMPLERS["dws2d6x22"]
    x = np.random.default_rng(13).normal(0.0, 3000.0, (13, 20))
    _, stats, peaks = subsample_forward(x, config, init_weights(config, 13), FP16)
    assert stats == OverflowStats(30980, 510, 30433, 0, 37)
    assert peaks == (19168.0, 10128.0, 5524.0, np.inf)


def test_graph_node_counts():
    p = MHAParams(batch=1, heads=2, features=8, seq=4)
    g = apply_passes(build_mha_bsf(p), ["layout", "chunk"], n_chunks=2)
    feed = {"x": np.random.default_rng(14).normal(0.0, 90.0, (1, 4, 1, 8))}
    trace = execute_traced(g, feed, mha_weights(p, 14), FP16)
    softmax_ids = {n.id for n in g.nodes if n.op == "softmax"}
    got = {k: v for k, v in trace.node_stats.items() if k not in softmax_ids}
    assert got == {
        "x": OverflowStats(32, 0, 32, 0, 0),
        "q_lin": OverflowStats(32, 0, 32, 0, 0),
        "k_lin": OverflowStats(32, 0, 32, 0, 0),
        "v_lin": OverflowStats(32, 0, 32, 0, 0),
        "logits_c0": OverflowStats(16, 0, 14, 0, 2),
        "scaled_c0": OverflowStats(16, 14, 0, 0, 2),
        "ctx_c0": OverflowStats(16, 16, 0, 0, 0),
        "logits_c1": OverflowStats(16, 0, 16, 0, 0),
        "scaled_c1": OverflowStats(16, 16, 0, 0, 0),
        "ctx_c1": OverflowStats(16, 16, 0, 0, 0),
        "out_lin": OverflowStats(32, 0, 32, 0, 0),
    }
