"""A small tensor-graph IR and rewrite passes for attention blocks.

The IR is a flat list of single-output nodes (split is the exception, its
consumers address ports as "id:k"). Graphs are executable with float64 or
simulated low-precision arithmetic, serializable to JSON, and cheap to
analyze structurally.

Three passes target accelerator-friendly shapes:

* layout: moves an attention block from sequence-last tensors (bz, S, 1, f)
  to channel-second tensors (bz, C, 1, S). Linears become 1x1 convolutions
  with the same weight matrices, the four interior head-splitting
  transposes disappear, and the only transposes left are a single adapter
  at the input and one at the output.
* chunk: splits the attention core into independent branches (per head
  group, or along the query axis) joined by a concat, the shape wanted for
  cache-resident execution. With one head per branch the head-split
  reshapes vanish as well.
* einsum: rewrites batched matrix multiplications as einsum nodes.

The passes compose in the order layout, chunk, einsum and each is
idempotent. Rewrites never touch weights, so equivalence against the
original graph is checkable numerically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from lowprec.floatsim import FloatFormat, OverflowStats, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array
from lowprec.prenorm import layernorm as _layernorm_ref
from lowprec.softmax_lut import softmax_lut, softmax_reference

ARITHMETIC_OPS = {"linear", "conv1x1", "batched_matmul", "einsum", "scale",
                  "softmax", "layernorm", "add"}
MOVEMENT_OPS = {"reshape", "transpose", "split", "concat"}
ALL_OPS = ARITHMETIC_OPS | MOVEMENT_OPS | {"input", "output"}


class GraphError(Exception):
    """Structurally invalid graph."""


class GraphRewriteError(Exception):
    """A pass was applied to a graph it does not understand."""


@dataclass(frozen=True)
class Node:
    id: str
    op: str
    inputs: tuple[str, ...] = ()
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise GraphError(f"unknown op {self.op!r} on node {self.id!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass
class Graph:
    name: str
    nodes: list[Node]
    inputs: list[str]
    outputs: list[str]
    meta: dict = field(default_factory=dict)

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def consumers(self, ref_base: str) -> list[Node]:
        return [n for n in self.nodes
                if any(r.split(":")[0] == ref_base for r in n.inputs)]

    def op_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for n in self.nodes:
            out[n.op] = out.get(n.op, 0) + 1
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "meta": self.meta,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "nodes": [
                {"id": n.id, "op": n.op, "inputs": list(n.inputs),
                 "attrs": n.attrs}
                for n in self.nodes
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graph":
        g = cls(
            name=d["name"],
            nodes=[Node(n["id"], n["op"], tuple(n["inputs"]),
                        dict(n.get("attrs", {}))) for n in d["nodes"]],
            inputs=list(d["inputs"]),
            outputs=list(d["outputs"]),
            meta=dict(d.get("meta", {})),
        )
        validate(g)
        return g

    def save(self, path) -> None:
        from lowprec.streams import atomic_write
        with atomic_write(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Graph":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def canonical_json(g: Graph) -> str:
    """Graph JSON with ids renamed by topological position; rewrite-stable."""
    rename = {}
    for i, n in enumerate(g.nodes):
        rename[n.id] = f"n{i}"

    def ref(r: str) -> str:
        base, _, port = r.partition(":")
        return rename[base] + (":" + port if port else "")

    d = g.to_json_dict()
    d["name"] = ""
    d["inputs"] = [rename[i] for i in d["inputs"]]
    d["outputs"] = [rename[o] for o in d["outputs"]]
    for n in d["nodes"]:
        n["id"] = rename[n["id"]]
        n["inputs"] = [ref(r) for r in n["inputs"]]
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Validation and shape inference

_ARITY = {"output": 1, "linear": 1, "conv1x1": 1, "reshape": 1,
          "transpose": 1, "split": 1, "scale": 1, "softmax": 1,
          "layernorm": 1, "batched_matmul": 2, "add": 2, "einsum": None,
          "concat": None, "input": 0}


def validate(g: Graph) -> None:
    """Check ids, references, arity, and acyclicity (topological order)."""
    seen: set[str] = set()
    ports: dict[str, int] = {}
    for n in g.nodes:
        if n.id in seen:
            raise GraphError(f"duplicate node id {n.id!r}")
        want = _ARITY[n.op]
        if want is not None and len(n.inputs) != want:
            raise GraphError(f"{n.id}: op {n.op} wants {want} inputs, "
                             f"got {len(n.inputs)}")
        if n.op in ("einsum", "concat") and not n.inputs:
            raise GraphError(f"{n.id}: {n.op} needs at least one input")
        for r in n.inputs:
            base, _, port = r.partition(":")
            if base not in seen:
                raise GraphError(f"{n.id}: reference {r!r} not defined yet "
                                 "(missing or out of order)")
            if port:
                if ports.get(base, 1) <= int(port):
                    raise GraphError(f"{n.id}: {r!r} addresses a missing port")
            elif ports.get(base, 1) != 1:
                raise GraphError(f"{n.id}: {base!r} is multi-output, "
                                 "use an explicit port")
        seen.add(n.id)
        if n.op == "split":
            ports[n.id] = int(n.attrs["sections"])
    for i in g.inputs:
        if g.node(i).op != "input":
            raise GraphError(f"{i!r} listed as graph input but is not an input op")
    for o in g.outputs:
        if g.node(o).op != "output":
            raise GraphError(f"{o!r} listed as graph output but is not an output op")
    for n in g.nodes:
        if n.op == "input" and n.id not in g.inputs:
            raise GraphError(f"input node {n.id!r} missing from graph inputs")
    infer_shapes(g)


def _einsum_shape(equation: str, shapes: list[tuple]) -> tuple:
    lhs, _, rhs = equation.partition("->")
    terms = lhs.split(",")
    if len(terms) != len(shapes):
        raise GraphError(f"einsum {equation!r}: got {len(shapes)} operands")
    dims: dict[str, int] = {}
    for term, shp in zip(terms, shapes):
        if len(term) != len(shp):
            raise GraphError(f"einsum {equation!r}: rank mismatch for {shp}")
        for ch, n in zip(term, shp):
            if dims.setdefault(ch, n) != n:
                raise GraphError(f"einsum {equation!r}: dim {ch!r} is both "
                                 f"{dims[ch]} and {n}")
    return tuple(dims[c] for c in rhs)


def infer_shapes(g: Graph) -> dict[str, tuple]:
    """Output shape for every reference (ports included), weights not needed."""
    shapes: dict[str, tuple] = {}

    def of(ref: str) -> tuple:
        return shapes[ref]

    for n in g.nodes:
        a = n.attrs
        if n.op == "input":
            shapes[n.id] = tuple(a["shape"])
        elif n.op == "output":
            shapes[n.id] = of(n.inputs[0])
        elif n.op == "linear":
            s = of(n.inputs[0])
            shapes[n.id] = s[:-1] + (int(a["out_features"]),)
        elif n.op == "conv1x1":
            s = of(n.inputs[0])
            if len(s) != 4:
                raise GraphError(f"{n.id}: conv1x1 wants rank-4 input, got {s}")
            shapes[n.id] = (s[0], int(a["out_features"]), s[2], s[3])
        elif n.op == "reshape":
            s = of(n.inputs[0])
            t = tuple(a["shape"])
            if math.prod(s) != math.prod(t):
                raise GraphError(f"{n.id}: reshape {s} -> {t} changes size")
            shapes[n.id] = t
        elif n.op == "transpose":
            s = of(n.inputs[0])
            perm = tuple(a["perm"])
            if sorted(perm) != list(range(len(s))):
                raise GraphError(f"{n.id}: bad permutation {perm} for rank {len(s)}")
            shapes[n.id] = tuple(s[p] for p in perm)
        elif n.op == "split":
            s = of(n.inputs[0])
            ax, k = int(a["axis"]), int(a["sections"])
            if s[ax] % k:
                raise GraphError(f"{n.id}: axis {ax} size {s[ax]} not "
                                 f"divisible into {k}")
            piece = s[:ax] + (s[ax] // k,) + s[ax + 1:]
            for p in range(k):
                shapes[f"{n.id}:{p}"] = piece
            shapes[n.id] = piece  # port 0 alias
        elif n.op == "concat":
            parts = [of(r) for r in n.inputs]
            ax = int(a["axis"])
            base = list(parts[0])
            for p in parts[1:]:
                if len(p) != len(base) or any(
                    p[i] != base[i] for i in range(len(base)) if i != ax
                ):
                    raise GraphError(f"{n.id}: concat shapes disagree: {parts}")
            base[ax] = sum(p[ax] for p in parts)
            shapes[n.id] = tuple(base)
        elif n.op == "batched_matmul":
            s1, s2 = of(n.inputs[0]), of(n.inputs[1])
            if len(s1) != len(s2) or s1[:-2] != s2[:-2] or s1[-1] != s2[-2]:
                raise GraphError(f"{n.id}: cannot matmul {s1} @ {s2}")
            shapes[n.id] = s1[:-1] + (s2[-1],)
        elif n.op == "einsum":
            shapes[n.id] = _einsum_shape(a["equation"], [of(r) for r in n.inputs])
        elif n.op == "add":
            s1, s2 = of(n.inputs[0]), of(n.inputs[1])
            if s1 != s2:
                raise GraphError(f"{n.id}: add shapes differ: {s1} vs {s2}")
            shapes[n.id] = s1
        elif n.op in ("scale", "softmax", "layernorm"):
            shapes[n.id] = of(n.inputs[0])
    return shapes


# ---------------------------------------------------------------------------
# Structural metrics


def _boundary_ids(g: Graph) -> set[str]:
    """Movement nodes touching the graph edge (layout adapters)."""
    input_ids = {n.id for n in g.nodes if n.op == "input"}
    output_srcs: dict[str, list[Node]] = {}
    for n in g.nodes:
        for r in n.inputs:
            output_srcs.setdefault(r.split(":")[0], []).append(n)
    out = set()
    for n in g.nodes:
        if n.op not in ("reshape", "transpose"):
            continue
        if n.inputs[0].split(":")[0] in input_ids:
            out.add(n.id)
        elif all(c.op == "output" for c in output_srcs.get(n.id, [])):
            out.add(n.id)
    return out


def movement_profile(g: Graph) -> dict[str, int]:
    """Counts the rewrites aim to change; the score is what a copy costs."""
    boundary = _boundary_ids(g)
    interior_t = interior_r = boundary_t = boundary_r = 0
    for n in g.nodes:
        if n.op == "transpose":
            if n.id in boundary:
                boundary_t += 1
            else:
                interior_t += 1
        elif n.op == "reshape":
            if n.id in boundary:
                boundary_r += 1
            else:
                interior_r += 1
    counts = g.op_counts()
    return {
        "interior_transposes": interior_t,
        "interior_reshapes": interior_r,
        "boundary_transposes": boundary_t,
        "boundary_reshapes": boundary_r,
        "splits": counts.get("split", 0),
        "concats": counts.get("concat", 0),
        "batched_matmuls": counts.get("batched_matmul", 0),
        "einsums": counts.get("einsum", 0),
        "memory_copy_score": interior_t + interior_r,
    }


# ---------------------------------------------------------------------------
# Execution


@dataclass
class ExecTrace:
    outputs: dict[str, np.ndarray]
    node_stats: dict[str, OverflowStats]
    node_bytes: dict[str, int]
    movement_bytes: int = 0

    @property
    def total_overflow(self) -> OverflowStats:
        s = OverflowStats()
        for st in self.node_stats.values():
            s = s + st
        return s


def _apply(node: Node, args: list[np.ndarray], weights: dict,
           rec: QuantRecorder):
    a = node.attrs
    if node.op == "linear":
        w = np.asarray(weights[a["weight"]], dtype=np.float64)
        out = args[0] @ w.T
        if a.get("bias"):
            out = out + np.asarray(weights[a["bias"]], dtype=np.float64)
        return out
    if node.op == "conv1x1":
        w = np.asarray(weights[a["weight"]], dtype=np.float64)
        out = np.einsum("oc,bcus->bous", w, args[0])
        if a.get("bias"):
            b = np.asarray(weights[a["bias"]], dtype=np.float64)
            out = out + b[None, :, None, None]
        return out
    if node.op == "batched_matmul":
        return np.matmul(args[0], args[1])
    if node.op == "einsum":
        return np.einsum(a["equation"], *args)
    if node.op == "scale":
        return args[0] * float(a["factor"])
    if node.op == "softmax":
        ax = int(a.get("axis", -1))
        if ax not in (-1, args[0].ndim - 1):
            raise GraphError(f"{node.id}: softmax only along the last axis")
        if rec.fmt is None:
            return softmax_reference(args[0])
        out, stats = softmax_lut(args[0], fmt=rec.fmt)
        rec.stats = rec.stats + stats  # the table path quantizes internally
        return out
    if node.op == "layernorm":
        return _layernorm_ref(args[0], axis=int(a.get("axis", -1)))
    if node.op == "add":
        return args[0] + args[1]
    if node.op == "reshape":
        return args[0].reshape(tuple(a["shape"]))
    if node.op == "transpose":
        return np.transpose(args[0], tuple(a["perm"]))
    if node.op == "concat":
        return np.concatenate(args, axis=int(a["axis"]))
    raise GraphError(f"cannot execute op {node.op!r}")  # pragma: no cover


def execute_traced(g: Graph, feeds: dict[str, np.ndarray],
                   weights: dict[str, np.ndarray] | None = None,
                   fmt: FloatFormat | None = None) -> ExecTrace:
    """Run the graph; quantize arithmetic results when a format is given.

    Movement ops shuffle already-quantized values, so they never re-quantize
    (re-counting saturated entries would double-book them). Softmax runs
    through the table/rescale path in format mode, where ``node_stats``
    holds that path's own quantize counts, and the float64 reference
    otherwise.
    """
    weights = weights or {}
    if fmt is not None:
        weights = {k: quantize_array(v, fmt)[0] for k, v in weights.items()}
    values: dict[str, np.ndarray] = {}
    node_stats: dict[str, OverflowStats] = {}
    node_bytes: dict[str, int] = {}
    movement = 0

    for n in g.nodes:
        rec = QuantRecorder(fmt)
        if n.op == "input":
            if n.id not in feeds:
                raise GraphError(f"missing feed for input {n.id!r}")
            arr = np.asarray(feeds[n.id], dtype=np.float64)
            if arr.shape != tuple(n.attrs["shape"]):
                raise GraphError(f"{n.id}: feed shape {arr.shape} does not "
                                 f"match {tuple(n.attrs['shape'])}")
            values[n.id] = rec.q(arr)
        elif n.op == "output":
            values[n.id] = values[n.inputs[0]]
        elif n.op == "split":
            arr = values[n.inputs[0]]
            parts = np.split(arr, int(n.attrs["sections"]),
                             axis=int(n.attrs["axis"]))
            for p, part in enumerate(parts):
                values[f"{n.id}:{p}"] = part
            values[n.id] = parts[0]
            movement += arr.nbytes
            node_bytes[n.id] = arr.nbytes
        else:
            args = [values[r] for r in n.inputs]
            out = _apply(n, args, weights, rec)
            if n.op in ARITHMETIC_OPS and n.op != "softmax":
                out = rec.q(out)
            values[n.id] = out
            node_bytes[n.id] = out.nbytes
            if n.op in MOVEMENT_OPS:
                movement += out.nbytes
        if fmt is not None and (n.op == "input" or n.op in ARITHMETIC_OPS):
            node_stats[n.id] = rec.stats
    return ExecTrace(
        outputs={o: values[o] for o in g.outputs},
        node_stats=node_stats,
        node_bytes=node_bytes,
        movement_bytes=movement,
    )


def execute(g: Graph, feeds: dict, weights: dict | None = None,
            fmt: FloatFormat | None = None) -> dict[str, np.ndarray]:
    return execute_traced(g, feeds, weights, fmt).outputs


def check_equivalence(g1: Graph, g2: Graph, weights: dict,
                      n_instances: int = 100, seed: int = 0,
                      tol: float = 1e-9, scale: float = 1.0) -> float:
    """Max |difference| between two graphs over random float64 instances.

    Raises GraphRewriteError when the graphs disagree beyond ``tol``; input
    and output names must match.
    """
    in1 = {i: tuple(g1.node(i).attrs["shape"]) for i in g1.inputs}
    in2 = {i: tuple(g2.node(i).attrs["shape"]) for i in g2.inputs}
    if set(in1) != set(in2) or set(g1.outputs) != set(g2.outputs):
        raise GraphRewriteError("graphs expose different interfaces")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        feeds = {i: rng.normal(0.0, scale, in1[i]) for i in in1}
        o1 = execute(g1, feeds, weights)
        o2 = execute(g2, feeds, weights)
        for name in g1.outputs:
            a, b = o1[name], o2[name]
            if a.shape != b.shape:
                raise GraphRewriteError(
                    f"output {name!r}: shapes {a.shape} vs {b.shape}"
                )
            worst = max(worst, float(np.abs(a - b).max()))
    if worst > tol:
        raise GraphRewriteError(
            f"graphs differ: max abs deviation {worst:.3e} exceeds {tol:.1e}"
        )
    return worst


# ---------------------------------------------------------------------------
# Attention block builders


@dataclass(frozen=True)
class MHAParams:
    batch: int = 1
    heads: int = 8
    features: int = 512
    seq: int = 16

    def __post_init__(self):
        if self.features % self.heads:
            raise ValueError("features must divide evenly across heads")
        if min(self.batch, self.heads, self.features, self.seq) < 1:
            raise ValueError("all dimensions must be positive")

    @property
    def head_dim(self) -> int:
        return self.features // self.heads


def mha_weights(p: MHAParams, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(p.features)
    out = {}
    for name in ("wq", "wk", "wv", "wo"):
        out[name] = rng.normal(0.0, std, (p.features, p.features))
        out["b" + name[1]] = rng.normal(0.0, std, p.features)
    return out


def build_mha_bsf(p: MHAParams, name: str = "mha") -> Graph:
    """Reference attention block on (bz, S, 1, f) tensors.

    The singleton third axis makes the sequence-last and channel-second
    carriers the same rank, so layout adapters are single transposes.
    """
    bz, h, f, S, d = p.batch, p.heads, p.features, p.seq, p.head_dim
    nodes = [Node("x", "input", attrs={"shape": [bz, S, 1, f], "layout": "BSF"})]

    def lin(nid, src, w, b):
        nodes.append(Node(nid, "linear", (src,),
                          {"weight": w, "bias": b, "out_features": f}))

    for stem, w, b in (("q", "wq", "bq"), ("k", "wk", "bk"), ("v", "wv", "bv")):
        lin(f"{stem}_lin", "x", w, b)
        nodes.append(Node(f"{stem}_heads", "reshape", (f"{stem}_lin",),
                          {"shape": [bz, S, h, d]}))
    nodes += [
        Node("q_t", "transpose", ("q_heads",), {"perm": [0, 2, 1, 3]}),
        Node("k_t", "transpose", ("k_heads",), {"perm": [0, 2, 3, 1]}),
        Node("v_t", "transpose", ("v_heads",), {"perm": [0, 2, 1, 3]}),
        Node("logits", "batched_matmul", ("q_t", "k_t")),
        Node("scaled", "scale", ("logits",), {"factor": 1.0 / math.sqrt(d)}),
        Node("attn", "softmax", ("scaled",), {"axis": -1}),
        Node("ctx", "batched_matmul", ("attn", "v_t")),
        Node("ctx_t", "transpose", ("ctx",), {"perm": [0, 2, 1, 3]}),
        Node("ctx_merge", "reshape", ("ctx_t",), {"shape": [bz, S, 1, f]}),
        Node("out_lin", "linear", ("ctx_merge",),
             {"weight": "wo", "bias": "bo", "out_features": f}),
        Node("y", "output", ("out_lin",)),
    ]
    g = Graph(name, nodes, ["x"], ["y"], meta={"layout": "BSF",
                                               "mha": {"heads": h}})
    validate(g)
    return g


def mha_reference(x: np.ndarray, weights: dict, p: MHAParams) -> np.ndarray:
    """Straight-line numpy attention, the independent oracle for the graphs.

    Takes and returns (bz, S, f).
    """
    bz, S, f, h, d = p.batch, p.seq, p.features, p.heads, p.head_dim
    q = (x @ weights["wq"].T + weights["bq"]).reshape(bz, S, h, d)
    k = (x @ weights["wk"].T + weights["bk"]).reshape(bz, S, h, d)
    v = (x @ weights["wv"].T + weights["bv"]).reshape(bz, S, h, d)
    logits = np.einsum("bihd,bjhd->bhij", q, k) / math.sqrt(d)
    attn = softmax_reference(logits)
    ctx = np.einsum("bhij,bjhd->bihd", attn, v).reshape(bz, S, f)
    return ctx @ weights["wo"].T + weights["bo"]


# ---------------------------------------------------------------------------
# Passes


def _edge(edge_map: dict[str, str], ref: str) -> str:
    base, _, port = ref.partition(":")
    mapped = edge_map[base]
    return mapped + (":" + port if port else "")


def pass_layout(g: Graph) -> Graph:
    """Sequence-last attention -> channel-second attention.

    Inputs and outputs keep their (bz, S, 1, f) contract; a transpose
    adapter sits at each boundary. Head-split reshapes move to the channel
    axis, interior transposes drop out, and each batched matmul becomes the
    einsum that contracts the same indices in the new layout.
    """
    if g.meta.get("layout") == "BC1S":
        return g
    if any(n.op == "split" for n in g.nodes):
        raise GraphRewriteError(
            "layout pass must run before the chunk pass (found split nodes)"
        )
    shapes = infer_shapes(g)
    producer = {n.id: n for n in g.nodes}
    new_nodes: list[Node] = []
    edge_map: dict[str, str] = {}
    role: dict[str, str] = {}  # semantic tag of the rewritten tensor

    for n in g.nodes:
        if n.op == "input":
            bz, S, u, f = shapes[n.id]
            if u != 1:
                raise GraphRewriteError(f"{n.id}: expected (bz, S, 1, f) input")
            new_nodes.append(n)
            adapter = f"{n.id}_to_c"
            new_nodes.append(Node(adapter, "transpose", (n.id,),
                                  {"perm": [0, 3, 2, 1]}))
            edge_map[n.id] = adapter
        elif n.op == "output":
            src = _edge(edge_map, n.inputs[0])
            adapter = f"{n.id}_to_s"
            new_nodes.append(Node(adapter, "transpose", (src,),
                                  {"perm": [0, 3, 2, 1]}))
            new_nodes.append(Node(n.id, "output", (adapter,)))
            edge_map[n.id] = n.id
        elif n.op == "linear":
            new_nodes.append(Node(n.id, "conv1x1",
                                  (_edge(edge_map, n.inputs[0]),),
                                  dict(n.attrs)))
            edge_map[n.id] = n.id
        elif n.op == "reshape":
            s_in, s_out = shapes[n.inputs[0].split(":")[0]], shapes[n.id]
            if (len(s_in) == 4 and len(s_out) == 4 and s_in[2] == 1
                    and s_in[:2] == s_out[:2]
                    and s_out[2] * s_out[3] == s_in[3]):
                bz, S, h, d = s_out  # split into heads
                role[n.id] = "heads"
                if h == 1:  # single head: shapes already agree, drop the copy
                    edge_map[n.id] = _edge(edge_map, n.inputs[0])
                else:
                    new_nodes.append(Node(n.id, "reshape",
                                          (_edge(edge_map, n.inputs[0]),),
                                          {"shape": [bz * h, d, 1, S]}))
                    edge_map[n.id] = n.id
            elif (len(s_in) == 4 and len(s_out) == 4 and s_out[2] == 1
                    and s_in[:2] == s_out[:2]
                    and s_in[2] * s_in[3] == s_out[3]):
                bz, S, _, f = s_out  # merge heads back
                if s_in[2] == 1:  # single head: already (bz, f, 1, S)
                    edge_map[n.id] = _edge(edge_map, n.inputs[0])
                else:
                    new_nodes.append(Node(n.id, "reshape",
                                          (_edge(edge_map, n.inputs[0]),),
                                          {"shape": [bz, f, 1, S]}))
                    edge_map[n.id] = n.id
            else:
                raise GraphRewriteError(
                    f"{n.id}: reshape {s_in} -> {s_out} is not a head "
                    "split/merge, layout pass cannot relocate it"
                )
        elif n.op == "transpose":
            src = n.inputs[0].split(":")[0]
            if producer[src].op == "reshape" or producer[src].op in ARITHMETIC_OPS:
                # head-routing transposes are no-ops in the new layout
                edge_map[n.id] = edge_map[src]
                role[n.id] = role.get(src, "")
            else:
                raise GraphRewriteError(f"{n.id}: unexpected transpose")
        elif n.op == "batched_matmul":
            a_ref, b_ref = n.inputs
            a_role = role.get(a_ref.split(":")[0], "")
            b_role = role.get(b_ref.split(":")[0], "")
            if a_role == "heads" and b_role == "heads":
                eq = "bcui,bcuj->buij"  # query rows against key rows
                role[n.id] = "logits"
            elif a_role == "attn" and b_role == "heads":
                eq = "buij,bcuj->bcui"  # attention rows against value rows
                role[n.id] = "heads"
            else:
                raise GraphRewriteError(
                    f"{n.id}: matmul operands have roles "
                    f"{a_role or '?'}/{b_role or '?'}, not an attention core"
                )
            new_nodes.append(Node(n.id, "einsum",
                                  (_edge(edge_map, a_ref),
                                   _edge(edge_map, b_ref)),
                                  {"equation": eq}))
            edge_map[n.id] = n.id
        elif n.op in ("scale", "softmax", "add", "einsum", "concat", "conv1x1"):
            new_nodes.append(Node(n.id, n.op,
                                  tuple(_edge(edge_map, r) for r in n.inputs),
                                  dict(n.attrs)))
            if n.op == "softmax":
                role[n.id] = "attn"
            else:
                role[n.id] = role.get(n.inputs[0].split(":")[0], "")
            edge_map[n.id] = n.id
        elif n.op == "layernorm":
            attrs = dict(n.attrs)
            attrs["axis"] = 1  # features live on the channel axis now
            new_nodes.append(Node(n.id, "layernorm",
                                  (_edge(edge_map, n.inputs[0]),), attrs))
            edge_map[n.id] = n.id
        else:
            raise GraphRewriteError(f"{n.id}: op {n.op} not supported by "
                                    "the layout pass")

    out = Graph(g.name, new_nodes, list(g.inputs), list(g.outputs),
                meta={**g.meta, "layout": "BC1S"})
    validate(out)
    return out


def _find_single(g: Graph, pred, what: str) -> Node:
    hits = [n for n in g.nodes if pred(n)]
    if len(hits) != 1:
        raise GraphRewriteError(f"expected exactly one {what}, found {len(hits)}")
    return hits[0]


def _replace_ref(nodes: list[Node], old: str, new: str) -> list[Node]:
    out = []
    for n in nodes:
        if old in n.inputs:
            out.append(replace(n, inputs=tuple(new if r == old else r
                                               for r in n.inputs)))
        else:
            out.append(n)
    return out


def pass_chunk(g: Graph, n_chunks: int, axis: str = "heads") -> Graph:
    """Split the attention core into ``n_chunks`` parallel branches.

    axis "heads" divides the head groups (both layouts); axis "query"
    divides the query positions (channel-second layout only), keys and
    values stay whole. Applying the pass to an already-chunked graph is a
    no-op.
    """
    if n_chunks < 1:
        raise GraphRewriteError("need a positive chunk count")
    if n_chunks == 1 or g.meta.get("chunked"):
        return g
    if axis not in ("heads", "query"):
        raise GraphRewriteError(f"unknown chunk axis {axis!r}")
    heads = g.meta.get("mha", {}).get("heads")
    if heads is None:
        raise GraphRewriteError("graph does not describe an attention block")
    if g.meta.get("layout") == "BC1S":
        out = _chunk_bc1s(g, n_chunks, axis, heads)
    else:
        if axis == "query":
            raise GraphRewriteError("query chunking needs the channel-second "
                                    "layout; run the layout pass first")
        out = _chunk_bsf(g, n_chunks, heads)
    out.meta = {**g.meta, "chunked": {"n_chunks": n_chunks, "axis": axis}}
    validate(out)
    return out


def _attention_core(g: Graph):
    """The scale/softmax pair between the two attention products."""
    qk = _find_single(
        g, lambda n: n.op in ("batched_matmul", "einsum")
        and any(c.op == "scale" for c in g.consumers(n.id)), "score product")
    scale = _find_single(
        g, lambda n: n.op == "scale" and qk.id in n.inputs, "scale")
    smax = _find_single(
        g, lambda n: n.op == "softmax" and scale.id in n.inputs, "softmax")
    av = _find_single(
        g, lambda n: n.op in ("batched_matmul", "einsum")
        and smax.id in n.inputs, "context product")
    return qk, scale, smax, av


def _chunk_core(g: Graph, core, n_chunks: int, axis: int, splits: dict,
                refs, anchor: str, removed=(), post=None) -> Graph:
    """Replace the attention core with ``n_chunks`` branches and a concat.

    ``splits`` maps a tag to the tensor split into ``<tag>_split`` along
    ``axis``. ``refs(c)`` returns the nodes placed before branch ``c`` and
    its (q, k, v) operands; ``post(c, ref)`` returns the nodes placed after
    the branch's context product and the ref to join. Each branch repeats
    the core's four nodes with their op and attrs. The subgraph goes in
    front of the first consumer of ``anchor``, which then reads the join.
    """
    qk, scale, smax, av = core
    removed = {qk.id, scale.id, smax.id, av.id, *removed}
    nodes = [n for n in g.nodes if n.id not in removed]
    insert = [Node(f"{tag}_split", "split", (src,),
                   {"axis": axis, "sections": n_chunks})
              for tag, src in splits.items()]
    branch_out = []
    for c in range(n_chunks):
        pre, (q, k, v) = refs(c)
        insert += pre + [
            Node(f"{qk.id}_c{c}", qk.op, (q, k), dict(qk.attrs)),
            Node(f"{scale.id}_c{c}", scale.op, (f"{qk.id}_c{c}",),
                 dict(scale.attrs)),
            Node(f"{smax.id}_c{c}", smax.op, (f"{scale.id}_c{c}",),
                 dict(smax.attrs)),
            Node(f"{av.id}_c{c}", av.op, (f"{smax.id}_c{c}", v),
                 dict(av.attrs)),
        ]
        tail, out_ref = post(c, f"{av.id}_c{c}") if post else ([], f"{av.id}_c{c}")
        insert += tail
        branch_out.append(out_ref)
    insert.append(Node(f"{av.id}_join", "concat", tuple(branch_out),
                       {"axis": axis}))

    idx = next(i for i, n in enumerate(nodes)
               if any(r.split(":")[0] == anchor for r in n.inputs))
    nodes = nodes[:idx] + insert + nodes[idx:]
    nodes = _replace_ref(nodes, anchor, f"{av.id}_join")
    return Graph(g.name, nodes, list(g.inputs), list(g.outputs), dict(g.meta))


def _split_refs(c: int):
    return [], (f"q_split:{c}", f"k_split:{c}", f"v_split:{c}")


def _chunk_bsf(g: Graph, n_chunks: int, heads: int) -> Graph:
    if heads % n_chunks:
        raise GraphRewriteError(f"{n_chunks} chunks do not divide {heads} heads")
    core = qk, _, _, av = _attention_core(g)
    splits = {"q": qk.inputs[0], "k": qk.inputs[1], "v": av.inputs[1]}
    return _chunk_core(g, core, n_chunks, 1, splits, _split_refs, av.id)


def _chunk_bc1s(g: Graph, n_chunks: int, axis: str, heads: int) -> Graph:
    core = qk, _, _, av = _attention_core(g)
    if axis == "query":
        return _chunk_bc1s_query(g, n_chunks, core)
    if heads % n_chunks:
        raise GraphRewriteError(f"{n_chunks} chunks do not divide {heads} heads")
    hpc = heads // n_chunks

    shapes = infer_shapes(g)
    producer = {n.id: n for n in g.nodes}

    def head_reshape(ref: str) -> Node:
        node = producer[ref.split(":")[0]]
        if node.op != "reshape":
            raise GraphRewriteError(
                f"{node.id}: expected the head-split reshape feeding the core"
            )
        return node

    q_r, k_r = (head_reshape(r) for r in qk.inputs)
    v_r = head_reshape(av.inputs[1])
    merge = _find_single(
        g, lambda n: n.op == "reshape" and av.id in n.inputs, "head merge")
    bzh, d, _, S = shapes[q_r.id]
    bz = bzh // heads
    splits = {"q": q_r.inputs[0], "k": k_r.inputs[0], "v": v_r.inputs[0]}
    removed = (q_r.id, k_r.id, v_r.id, merge.id)
    if hpc == 1:  # one head per branch: the split pieces are already heads
        return _chunk_core(g, core, n_chunks, 1, splits, _split_refs, merge.id,
                           removed)

    def refs(c):  # several heads per branch still need their reshapes
        pre = [Node(f"{tag}_r_c{c}", "reshape", (f"{tag}_split:{c}",),
                    {"shape": [bz * hpc, d, 1, S]}) for tag in "qkv"]
        return pre, tuple(n.id for n in pre)

    def post(c, ref):
        rid = f"{av.id}_merge_c{c}"
        return [Node(rid, "reshape", (ref,), {"shape": [bz, hpc * d, 1, S]})], rid

    return _chunk_core(g, core, n_chunks, 1, splits, refs, merge.id, removed,
                       post)


def _chunk_bc1s_query(g: Graph, n_chunks: int, core) -> Graph:
    qk, _, _, av = core
    q_ref = qk.inputs[0]
    S = infer_shapes(g)[q_ref][-1]
    if S % n_chunks:
        raise GraphRewriteError(f"{n_chunks} chunks do not divide {S} query "
                                "positions")
    return _chunk_core(g, core, n_chunks, 3, {"q": q_ref},
                       lambda c: ([], (f"q_split:{c}", qk.inputs[1], av.inputs[1])),
                       av.id)


def pass_einsum(g: Graph) -> Graph:
    """Batched matmuls become einsum nodes of matching rank."""
    letters = "abcdefgh"
    shapes = infer_shapes(g)
    nodes = []
    changed = False
    for n in g.nodes:
        if n.op != "batched_matmul":
            nodes.append(n)
            continue
        rank = len(shapes[n.inputs[0]])
        batch = letters[:rank - 2]
        eq = f"{batch}ij,{batch}jk->{batch}ik"
        nodes.append(Node(n.id, "einsum", n.inputs, {"equation": eq}))
        changed = True
    if not changed:
        return g
    out = Graph(g.name, nodes, list(g.inputs), list(g.outputs), dict(g.meta))
    validate(out)
    return out


def apply_passes(g: Graph, names, n_chunks: int = 1,
                 chunk_axis: str = "heads") -> Graph:
    for name in names:
        if name == "layout":
            g = pass_layout(g)
        elif name == "chunk":
            g = pass_chunk(g, n_chunks, chunk_axis)
        elif name == "einsum":
            g = pass_einsum(g)
        else:
            raise GraphRewriteError(f"unknown pass {name!r}")
    return g
