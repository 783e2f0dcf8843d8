"""Rewritten graphs, compared node for node with a recorded fixture.

The equivalence tests check what a rewritten graph computes; these check
what it is. ``graph_out.json`` bytes depend on node ids, node order and
attrs, so every graph the passes write (and every refusal message) is
pinned in ``data/rewritten_graphs.json``. After an intended change to the
written graphs, re-record the fixture with

    PYTHONPATH=src python tests/test_rewrite_pins.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from lowprec.graphir import GraphRewriteError, MHAParams, Node, apply_passes, build_mha_bsf

FIXTURE = Path(__file__).parent / "data" / "rewritten_graphs.json"

PASSES = ("layout,chunk,einsum", "layout,chunk", "chunk", "chunk,einsum",
          "einsum", "layout", "")


def _ln_residual(p: MHAParams):
    """The builtin block behind a LayerNorm, with a residual add at the end."""
    g = build_mha_bsf(p)
    nodes = [g.nodes[0], Node("ln", "layernorm", ("x",), {"axis": -1})]
    for n in g.nodes[1:]:
        if n.op == "output":
            nodes.append(Node("res", "add", ("out_lin", "x")))
            n = replace(n, inputs=("res",))
        nodes.append(replace(n, inputs=tuple("ln" if r == "x" else r
                                             for r in n.inputs)))
    return replace(g, nodes=nodes)


def _output_attrs(p: MHAParams):
    """The builtin block whose output node carries an attr."""
    g = build_mha_bsf(p)
    return replace(g, nodes=g.nodes[:-1] + [replace(g.nodes[-1], attrs={"note": "y"})])


def _graphs():
    for batch in (1, 2):
        for heads in (1, 2, 4, 8):
            p = MHAParams(batch=batch, heads=heads, features=16, seq=8)
            yield f"mha-b{batch}-h{heads}", build_mha_bsf(p)
    p = MHAParams(batch=1, heads=4, features=16, seq=8)
    yield "ln-residual-h4", _ln_residual(p)
    yield "output-attrs-h2", _output_attrs(MHAParams(batch=2, heads=2, features=16, seq=8))


def _cases():
    for gname, g in _graphs():
        for passes in PASSES:
            settings = [(1, "heads")]  # one chunk is no chunking, on either axis
            if "chunk" in passes:
                settings += [(c, a) for c in (2, 4, 8) for a in ("heads", "query")]
            for chunks, axis in settings:
                yield f"{gname}/{passes or 'none'}/c{chunks}/{axis}", g, passes, chunks, axis


CASES = {case: args for case, *args in _cases()}


def _rewrite(g, passes, chunks, axis):
    try:
        out = apply_passes(g, [p for p in passes.split(",") if p],
                           n_chunks=chunks, chunk_axis=axis)
    except GraphRewriteError as exc:
        return {"error": str(exc)}
    return out.to_json_dict()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_the_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_rewritten_graph_matches_the_fixture(pinned, case):
    assert _rewrite(*CASES[case]) == pinned[case]


if __name__ == "__main__":  # one case per line, so a diff shows which moved
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(
        json.dumps(case) + ":" + json.dumps(_rewrite(*args), sort_keys=True,
                                            separators=(",", ":"))
        for case, args in CASES.items()) + "\n}\n")
