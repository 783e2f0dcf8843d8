"""Graph IR executor and rewrite passes against a straight-line oracle."""

import numpy as np
import pytest

from lowprec.floatsim import FP16
from lowprec.graphir import (
    Graph,
    GraphError,
    GraphRewriteError,
    MHAParams,
    Node,
    apply_passes,
    build_mha_bsf,
    canonical_json,
    check_equivalence,
    execute,
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
from lowprec.softmax_lut import softmax_lut

P = MHAParams(batch=2, heads=4, features=32, seq=6)


@pytest.fixture()
def mha():
    return build_mha_bsf(P), mha_weights(P, seed=0)


def _run(g, weights, x):
    return execute(g, {"x": x[:, :, None, :]}, weights)["y"][:, :, 0, :]


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
        assert canonical_json(build(once)) == canonical_json(once)


def test_layout_refuses_to_run_after_chunk(mha):
    g, _ = mha
    chunked = pass_chunk(g, 2)
    with pytest.raises(GraphRewriteError, match="before the chunk pass"):
        pass_layout(chunked)


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
    assert canonical_json(Graph.from_json_dict(g.to_json_dict())) == canonical_json(g)
    path = tmp_path / "mha.json"
    g.save(path)
    assert canonical_json(Graph.load(path)) == canonical_json(g)


def test_canonical_form_ignores_node_names():
    def build(prefix):
        return Graph("g", [
            Node(prefix + "in", "input", (), {"shape": [2, 3]}),
            Node(prefix + "s", "scale", (prefix + "in",), {"factor": 2.0}),
            Node(prefix + "out", "output", (prefix + "s",)),
        ], [prefix + "in"], [prefix + "out"])
    assert canonical_json(build("a")) == canonical_json(build("zzz"))


def test_graph_softmax_shares_the_table_path():
    g = Graph("sm", [
        Node("x", "input", (), {"shape": [2, 3, 8]}),
        Node("s", "softmax", ("x",), {"axis": -1}),
        Node("y", "output", ("s",)),
    ], ["x"], ["y"])
    x = np.random.default_rng(4).normal(0.0, 3000.0, (2, 3, 8))
    got = execute(g, {"x": x}, fmt=FP16)["y"]
    want = softmax_lut(np.asarray(np.float16(x), dtype=np.float64), fmt=FP16)[0]
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
    np.testing.assert_allclose(execute(moved, {"x": x})["y"],
                               execute(g, {"x": x})["y"], atol=1e-12)


def test_split_concat_identity():
    g = Graph("sc", [
        Node("x", "input", (), {"shape": [2, 8, 3]}),
        Node("sp", "split", ("x",), {"axis": 1, "sections": 4}),
        Node("cat", "concat", tuple(f"sp:{i}" for i in range(4)), {"axis": 1}),
        Node("y", "output", ("cat",)),
    ], ["x"], ["y"])
    x = np.random.default_rng(6).normal(size=(2, 8, 3))
    np.testing.assert_array_equal(execute(g, {"x": x})["y"], x)


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


def test_executor_rejects_bad_feeds(mha):
    g, w = mha
    with pytest.raises(GraphError, match="missing feed"):
        execute(g, {}, w)
    with pytest.raises(GraphError, match="does not match"):
        execute(g, {"x": np.zeros((1, 2, 3))}, w)


def test_params_validation():
    with pytest.raises(ValueError):
        MHAParams(heads=3, features=32)
    with pytest.raises(ValueError):
        MHAParams(batch=0)
    assert MHAParams().head_dim == 64
