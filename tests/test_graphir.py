"""Graph IR executor and rewrite passes against a straight-line oracle."""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lowprec import graphir, parallel
from lowprec.convsub import (
    ConvLayerSpec,
    SubsamplingConfig,
    conv2d_forward,
    init_weights,
    subsampler_graph,
)
from lowprec.floatsim import FP16, OverflowStats, QuantRecorder, quantize_array
from lowprec.graphir import (
    Graph,
    GraphError,
    GraphRewriteError,
    MHAParams,
    Node,
    apply_passes,
    build_mha_bsf,
    check_equivalence,
    execute_traced,
    infer_shapes,
    mha_reference,
    mha_weights,
    movement_profile,
    pass_chunk,
    pass_einsum,
    pass_layout,
    validate,
)
from lowprec.prenorm import stabilized_layernorm_rows
from lowprec.softmax_lut import softmax_lut

P = MHAParams(batch=2, heads=4, features=32, seq=6)


@pytest.fixture()
def mha():
    return build_mha_bsf(P), mha_weights(P, seed=0)


def _run(g, weights, x):
    return execute_traced(g, {"x": x[:, :, None, :]}, weights).outputs["y"][:, :, 0, :]


def test_reference_form_matches_the_oracle(mha):
    g, w = mha
    x = np.random.default_rng(1).normal(size=(P.batch, P.seq, P.features))
    assert np.abs(_run(g, w, x) - mha_reference(x, w, P)).max() < 1e-12


@pytest.mark.parametrize("passes,chunks,axis", [
    (["layout"], 1, "heads"),
    (["einsum"], 1, "heads"),
    (["chunk"], 2, "heads"),
    (["chunk", "einsum"], 4, "heads"),
    (["layout", "chunk"], 4, "heads"),
    (["layout", "chunk"], 2, "heads"),
    (["layout", "chunk"], 3, "query"),
    (["layout", "chunk", "einsum"], 4, "heads"),
])
def test_every_pipeline_is_numerically_equivalent(mha, passes, chunks, axis):
    g, w = mha
    rewritten = apply_passes(g, passes, n_chunks=chunks, chunk_axis=axis)
    x = np.random.default_rng(2).normal(size=(P.batch, P.seq, P.features))
    assert np.abs(_run(rewritten, w, x) - mha_reference(x, w, P)).max() < 1e-12


def test_movement_profile_of_the_reference_form(mha):
    g, _ = mha
    prof = movement_profile(g)
    assert prof["interior_transposes"] == 4
    assert prof["interior_reshapes"] == 4
    assert prof["boundary_transposes"] == 0
    assert prof["memory_copy_score"] == 8
    assert prof["batched_matmuls"] == 2


def test_layout_pass_removes_interior_transposes(mha):
    g, _ = mha
    prof = movement_profile(pass_layout(g))
    assert prof["interior_transposes"] == 0
    assert prof["boundary_transposes"] == 2  # one adapter per graph edge
    assert prof["interior_reshapes"] == 4
    assert prof["batched_matmuls"] == 0 and prof["einsums"] == 2
    assert prof["memory_copy_score"] == 4


def test_single_head_chunks_remove_all_interior_movement(mha):
    g, _ = mha
    gc = pass_chunk(pass_layout(g), P.heads)
    prof = movement_profile(gc)
    assert prof["memory_copy_score"] == 0
    assert prof["interior_reshapes"] == 0 and prof["interior_transposes"] == 0
    assert prof["splits"] == 3 and prof["concats"] == 1
    assert prof["einsums"] == 2 * P.heads


def test_multi_head_chunks_keep_branch_reshapes(mha):
    g, _ = mha
    prof = movement_profile(pass_chunk(pass_layout(g), 2))
    assert prof["splits"] == 3 and prof["concats"] == 1
    assert prof["interior_reshapes"] == 8  # 3 per branch in, 1 per branch out
    assert prof["einsums"] == 4


def test_passes_are_idempotent(mha):
    g, _ = mha
    for build in (
        pass_layout,
        lambda h: pass_chunk(h, 2),
        pass_einsum,
        lambda h: pass_chunk(pass_layout(h), 4),
    ):
        once = build(g)
        assert build(once).to_json_dict() == once.to_json_dict()


def test_layout_refuses_to_run_after_chunk(mha):
    g, _ = mha
    chunked = pass_chunk(g, 2)
    with pytest.raises(GraphRewriteError, match="before the chunk pass"):
        pass_layout(chunked)


def _lone_score_product(g):
    nodes = g.nodes[:[n.id for n in g.nodes].index("logits") + 1]
    return Graph("qk", nodes + [Node("y", "output", ("logits",))], ["x"], ["y"])


def _extra_matmul(g):
    extra = Node("extra", "batched_matmul", ("q_t", "k_t"))
    return Graph("mm", g.nodes[:-1] + [extra, Node("z", "output", ("extra",)),
                                       g.nodes[-1]], ["x"], ["y", "z"], g.meta)


@pytest.mark.parametrize("build, message", [
    (_lone_score_product, "exactly one score product, found 0"),
    (_extra_matmul, "extra: matmul is not a product of the attention core"),
])
def test_layout_finds_exactly_one_attention_block(mha, build, message):
    with pytest.raises(GraphRewriteError, match=message):
        pass_layout(build(mha[0]))


def test_layout_refuses_ops_whose_axes_assume_sequence_last(mha):
    with pytest.raises(GraphRewriteError,
                       match="logits: op einsum not supported by the layout pass"):
        pass_layout(pass_einsum(mha[0]))
    conv = Graph("c", [
        Node("x", "input", (), {"shape": [2, 5, 1, 8]}),
        Node("c", "conv1x1", ("x",), {"weight": "w", "out_features": 4}),
        Node("y", "output", ("c",)),
    ], ["x"], ["y"])
    with pytest.raises(GraphRewriteError, match="c: op conv1x1 not supported"):
        pass_layout(conv)


def test_chunk_validates_divisibility(mha):
    g, _ = mha
    with pytest.raises(GraphRewriteError, match="divide"):
        pass_chunk(pass_layout(g), 3)
    with pytest.raises(GraphRewriteError, match="divide"):
        pass_chunk(pass_layout(g), 4, axis="query")  # seq is 6
    with pytest.raises(GraphRewriteError, match="unknown chunk axis"):
        pass_chunk(g, 2, axis="keys")
    with pytest.raises(GraphRewriteError, match="layout"):
        pass_chunk(g, 2, axis="query")  # query mode needs the new layout
    with pytest.raises(GraphRewriteError, match="unknown pass"):
        apply_passes(g, ["fuse"])


def test_equivalence_checker_accepts_rewrites_and_catches_tampering(mha):
    g, w = mha
    gc = apply_passes(g, ["layout", "chunk"], n_chunks=4)
    worst = check_equivalence(g, gc, w, n_instances=25, seed=3)
    assert worst < 1e-12
    bad = Graph(
        gc.name,
        [Node(n.id, n.op, n.inputs, {**n.attrs, "factor": 0.5})
         if n.op == "scale" else n for n in gc.nodes],
        list(gc.inputs), list(gc.outputs), dict(gc.meta),
    )
    with pytest.raises(GraphRewriteError, match="differ"):
        check_equivalence(g, bad, w, n_instances=5, seed=3)


@pytest.mark.parametrize("n", [0, -3])
def test_equivalence_over_no_instances_is_refused(mha, n):
    g, w = mha
    with pytest.raises(ValueError, match="at least 1 check instance"):
        check_equivalence(g, g, w, n_instances=n)


def _sequential_check(g1, g2, weights, n_instances, seed):
    """The equivalence check as one plain loop, instance after instance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        feeds = {i: rng.normal(0.0, 1.0, tuple(g1.node(i).attrs["shape"]))
                 for i in g1.inputs}
        o1 = execute_traced(g1, feeds, weights).outputs
        o2 = execute_traced(g2, feeds, weights).outputs
        for name in g1.outputs:
            worst = max(worst, float(np.abs(o1[name] - o2[name]).max()))
    if worst > 1e-9:
        raise GraphRewriteError(
            f"graphs differ: max abs deviation {worst:.3e} exceeds 1.0e-09")
    return worst


def _error(fn):
    try:
        fn()
    except (GraphError, GraphRewriteError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("n", [1, 2, 3, 10])
@pytest.mark.parametrize("passes,chunks,axis", [
    (["layout", "chunk", "einsum"], 4, "heads"),
    (["layout", "chunk"], 2, "heads"),
    (["layout", "chunk"], 3, "query"),
    (["chunk", "einsum"], 4, "heads"),
    (["einsum"], 1, "heads"),
])
def test_parallel_check_has_the_bits_of_a_sequential_loop(mha, cpus, n, passes,
                                                          chunks, axis):
    g, w = mha
    rewritten = apply_passes(g, passes, n_chunks=chunks, chunk_axis=axis)
    got = check_equivalence(g, rewritten, w, n_instances=n, seed=11)
    assert got.hex() == _sequential_check(g, rewritten, w, n, 11).hex()


def test_parallel_check_raises_what_a_sequential_loop_raises(mha, cpus):
    g, w = mha
    gc = apply_passes(g, ["layout", "chunk"], n_chunks=4)
    bad = replace(gc, nodes=[replace(n, attrs={**n.attrs, "factor": 0.5})
                             if n.op == "scale" else n for n in gc.nodes])
    want = _error(lambda: _sequential_check(g, bad, w, 10, 3))
    assert want[1].startswith("graphs differ")
    assert _error(lambda: check_equivalence(g, bad, w, n_instances=10, seed=3)) == want
    short = {k: v for k, v in w.items() if k != "wo"}
    want = _error(lambda: _sequential_check(g, gc, short, 10, 3))
    assert want == (GraphError, "out_lin: weight tensor 'wo' is not in the weights")
    assert _error(lambda: check_equivalence(g, gc, short, n_instances=10, seed=3)) == want


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_check_holds_at_most_one_instance_per_thread(mha, monkeypatch, threads):
    g, w = mha
    gc = apply_passes(g, ["layout", "chunk"], n_chunks=4)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: threads)
    drawn, done, in_flight = [], [], []
    real_rng, real_exec = np.random.default_rng, graphir.execute_traced

    class CountingRng:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def normal(self, *args):
            drawn.append(1)
            in_flight.append(len(drawn) - len(done))
            return self.rng.normal(*args)

    def slow_exec(graph, feeds, weights):
        time.sleep(0.002)  # lets the other threads run ahead if they may
        out = real_exec(graph, feeds, weights)
        if graph is gc:  # an instance's second execution
            done.append(1)
        return out

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    monkeypatch.setattr(graphir, "execute_traced", slow_exec)
    check_equivalence(g, gc, w, n_instances=12)
    assert len(done) == 12 and max(in_flight) <= threads, in_flight


def _two_scales(f1, f2):
    nodes = [Node("x", "input", attrs={"shape": [3, 5]}),
             Node("s1", "scale", ("x",), {"factor": f1}),
             Node("s2", "scale", ("s1",), {"factor": f2}),
             Node("y", "output", ("s2",))]
    return Graph("scales", nodes, ["x"], ["y"])


@pytest.mark.filterwarnings("error")  # float64 overflow to inf warns nothing
def test_equal_infinities_agree():
    huge = _two_scales(1e308, 1e308)  # every entry overflows to +-inf
    assert check_equivalence(huge, huge, {}, n_instances=3).hex() == (0.0).hex()


@pytest.mark.filterwarnings("error")  # float64 overflow to inf warns nothing
@pytest.mark.parametrize("f1,f2,g1,g2", [
    (1.0, 1.0, math.nan, 1.0),       # a NaN rewrite of a finite graph
    (math.nan, 1.0, math.nan, 1.0),  # NaN never agrees, even with NaN
    (1e308, 1e308, 1.0, 1.0),        # infinity against a finite value
    (1e308, 1e308, 1e308, -1e308),   # infinities of opposite sign
])
def test_a_non_finite_deviation_fails_the_check(f1, f2, g1, g2):
    with pytest.raises(GraphRewriteError, match="graphs differ: output 'y' has "
                       "a non-finite deviation"):
        check_equivalence(_two_scales(f1, f2), _two_scales(g1, g2), {}, n_instances=3)


def test_a_rewrite_with_a_nan_scale_fails_the_check(mha):
    g, w = mha
    gc = apply_passes(g, ["layout", "chunk", "einsum"], n_chunks=4)
    nan = replace(gc, nodes=[replace(n, attrs={**n.attrs, "factor": math.nan})
                             if n.op == "scale" else n for n in gc.nodes])
    with pytest.raises(GraphRewriteError, match="graphs differ"):
        check_equivalence(g, nan, w, n_instances=5, seed=3)


def test_execution_drops_each_intermediate_after_its_last_consumer(traced_peak):
    p = MHAParams(heads=8, features=512, seq=64)
    g = apply_passes(build_mha_bsf(p), ["layout", "chunk", "einsum"], n_chunks=8)
    w = mha_weights(p, seed=0)
    x = np.random.default_rng(1).normal(0.0, 1.0, (1, 64, 1, 512))
    # 10.3x, and 43x in fp16, while every intermediate and rounded weight was kept
    assert traced_peak(lambda: execute_traced(g, {"x": x}, w)) <= 5 * x.nbytes
    largest = max(v.nbytes for v in w.values())  # one rounded weight at a time
    assert traced_peak(lambda: execute_traced(g, {"x": x}, w, FP16)) <= largest + 6 * x.nbytes


def _two_linears(weight2, bias2):
    """x -> linear(w, b) -> linear(weight2, bias2) -> y."""
    return Graph("two", [
        Node("x", "input", attrs={"shape": [2, 3, 4]}),
        Node("l1", "linear", ("x",), {"weight": "w", "bias": "b", "out_features": 4}),
        Node("l2", "linear", ("l1",), {"weight": weight2, "bias": bias2,
                                       "out_features": 4}),
        Node("y", "output", ("l2",)),
    ], ["x"], ["y"])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fmt", [None, FP16], ids=["float64", "fp16"])
def test_a_tensor_read_by_two_nodes_runs_as_two_copies_of_it(fmt):
    rng = np.random.default_rng(5)
    w, b = rng.normal(0.0, 100.0, (4, 4)), rng.normal(0.0, 100.0, 4)
    x = rng.normal(0.0, 100.0, (2, 3, 4))  # the second linear overflows fp16
    shared = execute_traced(_two_linears("w", "b"), {"x": x}, {"w": w, "b": b}, fmt)
    copies = execute_traced(_two_linears("w2", "b2"), {"x": x},
                            {"w": w, "b": b, "w2": w.copy(), "b2": b.copy()}, fmt)
    assert shared.outputs["y"].tobytes() == copies.outputs["y"].tobytes()
    assert shared.node_stats == copies.node_stats
    if fmt is not None:
        assert shared.node_stats["l2"].overflow > 0


@pytest.mark.parametrize("sigma", [1e5, 3e4])  # saturating at the linear, the matmul
@pytest.mark.parametrize("rewrite", [[], ["layout", "chunk", "einsum"]])
def test_a_saturating_feed_runs_in_fp16_without_a_numpy_warning(sigma, rewrite):
    p = MHAParams(heads=2, features=16, seq=4)
    g = apply_passes(build_mha_bsf(p), rewrite, n_chunks=2)
    w = mha_weights(p, seed=0)
    x = {"x": np.random.default_rng(0).normal(0.0, sigma, (1, 4, 1, 16))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = execute_traced(g, x, w, FP16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = execute_traced(g, x, w, FP16)
    assert strict.outputs["y"].tobytes() == quiet.outputs["y"].tobytes()
    assert strict.node_stats == quiet.node_stats
    assert strict.total_overflow.overflow > 0


@pytest.mark.parametrize("fmt", [None, FP16], ids=["float64", "fp16"])
def test_a_missing_bias_on_a_later_node_is_named(fmt):
    rng = np.random.default_rng(5)
    w, b = rng.normal(size=(4, 4)), rng.normal(size=4)
    with pytest.raises(GraphError, match="^l2: bias tensor 'b2' is not in the weights$"):
        execute_traced(_two_linears("w", "b2"), {"x": rng.normal(size=(2, 3, 4))},
                       {"w": w, "b": b}, fmt)


def _relu_beside_an_output(factor, n=4):
    """x -> scale s -> output y, and s -> relu r -> output z."""
    return Graph("g", [
        Node("x", "input", attrs={"shape": [n]}),
        Node("s", "scale", ("x",), {"factor": factor}),
        Node("y", "output", ("s",)),
        Node("r", "relu", ("s",)),
        Node("z", "output", ("r",)),
    ], ["x"], ["y", "z"])


@pytest.mark.parametrize("fmt", [None, FP16], ids=["float64", "fp16"])
def test_a_relu_leaves_a_value_another_node_reads_as_it_was(fmt):
    x = np.array([-1.0, 2.0, -3.0, 4.0])
    trace = execute_traced(_relu_beside_an_output(2.0), {"x": x}, fmt=fmt, peaks=True)
    assert trace.outputs["y"].tolist() == [-2.0, 4.0, -6.0, 8.0]
    assert trace.outputs["z"].tolist() == [0.0, 4.0, 0.0, 8.0]
    assert trace.node_peaks == {"x": 4.0, "s": 8.0, "r": 8.0}
    assert x.tolist() == [-1.0, 2.0, -3.0, 4.0]


@pytest.mark.parametrize("equation", ["ij->ij", "ij->ji"])
def test_a_relu_leaves_the_operand_of_a_one_operand_einsum_as_it_was(equation):
    # numpy returns such an einsum as a view of its operand, here the feed
    g = Graph("g", [Node("x", "input", attrs={"shape": [2, 2]}),
                    Node("e", "einsum", ("x",), {"equation": equation}),
                    Node("r", "relu", ("e",)), Node("y", "output", ("r",))], ["x"], ["y"])
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    got = execute_traced(g, {"x": x}).outputs["y"]
    assert got.tolist() == np.maximum(np.einsum(equation, x), 0.0).tolist()
    assert x.tolist() == [[-1.0, 2.0], [3.0, -4.0]]


@pytest.mark.parametrize("fmt", [None, FP16], ids=["float64", "fp16"])
@pytest.mark.parametrize("fill, peak", [(-0.0, 0.0), (-7.0, 7.0), (math.nan, math.nan)])
def test_node_peaks_are_the_max_magnitude_of_each_value(fmt, fill, peak):
    x = np.full(40000, -0.0)  # two blocks of the pass
    x[-1] = fill
    trace = execute_traced(_relu_beside_an_output(1.0, x.size), {"x": x}, fmt=fmt, peaks=True)
    for node, out in (("x", "y"), ("s", "y"), ("r", "z")):  # str tells nan and -0.0 apart
        assert str(trace.node_peaks[node]) == str(float(np.abs(trace.outputs[out]).max()))
    assert str(trace.node_peaks["s"]) == str(peak)


class _Reads(dict):
    """A weights mapping that records the name of each lookup."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def test_conv2d_nodes_read_their_weights_as_they_run():
    config = SubsamplingConfig("small", (ConvLayerSpec(1, 4, (3, 3), (2, 2)),
                                         ConvLayerSpec(4, 4, (3, 3), (1, 1), groups=2)))
    weights = init_weights(config, 0)
    x = np.random.default_rng(0).normal(size=(1, 11, 9))
    g = subsampler_graph(config, x.shape)
    seen = _Reads(weights)
    got = execute_traced(g, {"x": x}, seen).outputs["y"]
    assert seen.reads == ["layer0.bias", "layer0.weight", "layer1.bias", "layer1.weight"]
    want = x
    for i, layer in enumerate(config.layers):
        want = np.maximum(conv2d_forward(want, weights[f"layer{i}.weight"],
                                         weights[f"layer{i}.bias"], layer), 0.0)
    assert got.tobytes() == want.tobytes()
    del seen["layer1.weight"]
    with pytest.raises(GraphError, match="^conv1: weight tensor 'layer1.weight' is not in"):
        execute_traced(g, {"x": x}, seen)


def test_shape_inference(mha):
    g, _ = mha
    shapes = infer_shapes(g)
    bz, h, S, d = P.batch, P.heads, P.seq, P.head_dim
    assert shapes["x"] == (bz, S, 1, P.features)
    assert shapes["q_t"] == (bz, h, S, d)
    assert shapes["k_t"] == (bz, h, d, S)
    assert shapes["logits"] == (bz, h, S, S)
    assert shapes["y"] == (bz, S, 1, P.features)
    gc = pass_chunk(pass_layout(g), h)
    cs = infer_shapes(gc)
    assert cs["q_split:0"] == (bz, d, 1, S)
    assert cs["logits_c0"] == (bz, 1, S, S)


def test_json_and_file_round_trip(mha, tmp_path):
    g, _ = mha
    assert Graph.from_json_dict(g.to_json_dict()).to_json_dict() == g.to_json_dict()
    path = tmp_path / "mha.json"
    g.save(path)
    assert Graph.load(path).to_json_dict() == g.to_json_dict()


def test_graph_softmax_shares_the_table_path():
    g = Graph("sm", [
        Node("x", "input", (), {"shape": [2, 3, 8]}),
        Node("s", "softmax", ("x",), {"axis": -1}),
        Node("y", "output", ("s",)),
    ], ["x"], ["y"])
    x = np.random.default_rng(4).normal(0.0, 3000.0, (2, 3, 8))
    got = execute_traced(g, {"x": x}, fmt=FP16).outputs["y"]
    want = softmax_lut(np.asarray(np.float16(x), dtype=np.float64), QuantRecorder(FP16))
    assert got.tobytes() == want.tobytes()


def test_layernorm_axis_is_relocated_by_the_layout_pass():
    g = Graph("ln", [
        Node("x", "input", (), {"shape": [2, 5, 1, 8], "layout": "BSF"}),
        Node("n", "layernorm", ("x",), {"axis": -1}),
        Node("y", "output", ("n",)),
    ], ["x"], ["y"])
    moved = pass_layout(g)
    assert moved.node("n").attrs["axis"] == 1
    x = np.random.default_rng(5).normal(size=(2, 5, 1, 8))
    np.testing.assert_allclose(execute_traced(moved, {"x": x}).outputs["y"],
                               execute_traced(g, {"x": x}).outputs["y"], atol=1e-12)


def test_graph_layernorm_runs_the_audited_kernel():
    # Under a format the node runs prenorm's kernel: its counts are the
    # kernel's on the rounded input, and its output is not rounded again.
    x = np.random.default_rng(6).normal(0.0, 500.0, (64, 512))
    g = Graph("ln", [
        Node("x", "input", (), {"shape": [64, 512]}),
        Node("n", "layernorm", ("x",), {"axis": -1}),
        Node("y", "output", ("n",)),
    ], ["x"], ["y"])
    trace = execute_traced(g, {"x": x}, fmt=FP16)
    rec = QuantRecorder(FP16)
    want = stabilized_layernorm_rows(quantize_array(x, FP16)[0], None, rec)
    assert trace.node_stats["n"] == rec.stats and rec.stats.overflow > 50_000
    assert trace.outputs["y"].tobytes() == want.tobytes()
    # along a moved axis the node reduces the same rows
    g4 = Graph("ln4", [
        Node("x", "input", (), {"shape": [2, 5, 1, 8], "layout": "BSF"}),
        Node("n", "layernorm", ("x",), {"axis": -1}),
        Node("y", "output", ("n",)),
    ], ["x"], ["y"])
    x4 = np.random.default_rng(7).normal(0.0, 300.0, (2, 5, 1, 8))
    a = execute_traced(g4, {"x": x4}, fmt=FP16)
    b = execute_traced(pass_layout(g4), {"x": x4}, fmt=FP16)
    assert a.outputs["y"].tobytes() == b.outputs["y"].tobytes()
    assert a.node_stats["n"] == b.node_stats["n"]


def _add_graph():
    return Graph("add", [
        Node("x", "input", (), {"shape": [1, 4]}),
        Node("y", "input", (), {"shape": [1, 4]}),
        Node("a", "add", ("x", "y")),
        Node("out", "output", ("a",)),
    ], ["x", "y"], ["out"])


def test_add_node_matches_numpy():
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    got = execute_traced(_add_graph(), {"x": x, "y": y}).outputs["out"]
    assert got.tobytes() == (x + y).tobytes()


def test_add_node_rounds_and_counts_its_sum_in_fp16():
    x = np.array([[1.0, 2.0, 60000.0, 1.0]])
    y = np.array([[0.5, 1e-3, 60000.0, -1.0]])  # 1e-3 is not on the fp16 grid
    with np.errstate(over="ignore"):
        want = (np.float16(x) + np.float16(y)).astype(np.float64)
    trace = execute_traced(_add_graph(), {"x": x, "y": y}, fmt=FP16)
    assert trace.outputs["out"].tobytes() == want.tobytes()  # [1.5, 2, inf, 0]
    assert trace.node_stats["a"] == OverflowStats(4, 2, 1, 0, 1)
    assert trace.node_stats["y"] == OverflowStats(4, 3, 1, 0, 0)


def test_split_concat_identity():
    g = Graph("sc", [
        Node("x", "input", (), {"shape": [2, 8, 3]}),
        Node("sp", "split", ("x",), {"axis": 1, "sections": 4}),
        Node("cat", "concat", tuple(f"sp:{i}" for i in range(4)), {"axis": 1}),
        Node("y", "output", ("cat",)),
    ], ["x"], ["y"])
    x = np.random.default_rng(6).normal(size=(2, 8, 3))
    np.testing.assert_array_equal(execute_traced(g, {"x": x}).outputs["y"], x)


def test_traced_execution_accounting(mha):
    g, w = mha
    gc = pass_chunk(pass_layout(g), 4)
    x = np.random.default_rng(7).normal(size=(P.batch, P.seq, 1, P.features))
    tr = execute_traced(gc, {"x": x}, w, fmt=FP16)
    assert tr.total_overflow.total > 0
    arith_ids = {n.id for n in gc.nodes
                 if n.op in ("conv1x1", "einsum", "scale", "add")}
    assert arith_ids <= set(tr.node_stats)
    softmax_ids = {n.id for n in gc.nodes if n.op == "softmax"}
    assert len(softmax_ids) == 4 and softmax_ids <= set(tr.node_stats)
    assert all(tr.node_stats[i].total > 0 for i in softmax_ids)
    movement_ids = {n.id for n in gc.nodes
                    if n.op in ("reshape", "transpose", "split", "concat")}
    assert not (movement_ids & set(tr.node_stats))
    assert tr.movement_bytes > 0
    exact = execute_traced(gc, {"x": x}, w)
    assert exact.total_overflow.total == 0
    assert np.abs(tr.outputs["y"] - exact.outputs["y"]).max() < 0.1


@pytest.mark.parametrize("ref, sections, message", [
    ("sp", 1, "multi-output"),     # a one-piece split still needs its port
    ("a:0", 2, "missing port"),   # only a split has ports
    ("sp:x", 2, "missing port"),
])
def test_references_address_split_ports_explicitly(ref, sections, message):
    with pytest.raises(GraphError, match=message):
        validate(Graph("g", [
            Node("a", "input", (), {"shape": [2, 2]}),
            Node("sp", "split", ("a",), {"axis": 0, "sections": sections}),
            Node("s", "scale", (ref,), {"factor": 1.0}),
        ], ["a"], []))


def test_structural_validation_catches_bad_graphs():
    base = {"shape": [2, 2]}
    with pytest.raises(GraphError, match="duplicate"):
        validate(Graph("g", [Node("a", "input", (), base),
                             Node("a", "input", (), base)], ["a"], []))
    with pytest.raises(GraphError, match="not defined yet"):
        validate(Graph("g", [Node("s", "scale", ("ghost",), {"factor": 1.0})],
                       [], []))
    with pytest.raises(GraphError, match="wants 2 inputs"):
        validate(Graph("g", [Node("a", "input", (), base),
                             Node("m", "add", ("a",))], ["a"], []))
    with pytest.raises(GraphError, match="multi-output"):
        validate(Graph("g", [
            Node("a", "input", (), base),
            Node("sp", "split", ("a",), {"axis": 0, "sections": 2}),
            Node("s", "scale", ("sp",), {"factor": 1.0}),
        ], ["a"], []))
    with pytest.raises(GraphError, match="missing port"):
        validate(Graph("g", [
            Node("a", "input", (), base),
            Node("sp", "split", ("a",), {"axis": 0, "sections": 2}),
            Node("s", "scale", ("sp:2",), {"factor": 1.0}),
        ], ["a"], []))
    with pytest.raises(GraphError, match="changes size"):
        validate(Graph("g", [Node("a", "input", (), base),
                             Node("r", "reshape", ("a",), {"shape": [5]})],
                       ["a"], []))
    with pytest.raises(GraphError, match="permutation"):
        validate(Graph("g", [Node("a", "input", (), base),
                             Node("t", "transpose", ("a",), {"perm": [0, 0]})],
                       ["a"], []))
    with pytest.raises(GraphError, match="dim 'j' is both"):
        validate(Graph("g", [
            Node("a", "input", (), {"shape": [2, 3]}),
            Node("e", "einsum", ("a", "a"), {"equation": "ij,ji->ii"}),
        ], ["a"], []))
    with pytest.raises(GraphError, match="t: op transpose needs attr 'perm'"):
        validate(Graph("g", [Node("a", "input", (), base),
                             Node("t", "transpose", ("a",))], ["a"], []))
    with pytest.raises(GraphError, match="'ghost' listed as graph input"):
        validate(Graph("g", [Node("a", "input", (), base)], ["a", "ghost"], []))
    with pytest.raises(GraphError, match="malformed graph JSON"):
        Graph.from_json_dict({"name": "g", "nodes": [{"id": "a"}],
                              "inputs": [], "outputs": []})


def test_executor_rejects_bad_feeds(mha):
    g, w = mha
    with pytest.raises(GraphError, match="missing feed"):
        execute_traced(g, {}, w)
    with pytest.raises(GraphError, match="does not match"):
        execute_traced(g, {"x": np.zeros((1, 2, 3))}, w)


def test_params_validation():
    with pytest.raises(ValueError):
        MHAParams(heads=3, features=32, seq=16)
    with pytest.raises(ValueError):
        MHAParams(batch=0, heads=8, features=512, seq=16)
    with pytest.raises(ValueError, match="heads=0"):
        MHAParams(heads=0, features=512, seq=16)  # positivity before features % heads
    assert MHAParams(heads=8, features=512, seq=16).head_dim == 64
    assert MHAParams(heads=8, features=512, seq=16).batch == 1
    with pytest.raises(TypeError):  # the sizes have no default: the CLI gives them
        MHAParams(heads=8, features=512)
    with pytest.raises(TypeError):  # keywords only, so the fields cannot be mixed up
        MHAParams(1, 8, 512, 16)
