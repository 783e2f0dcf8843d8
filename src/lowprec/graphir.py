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
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from lowprec.floatsim import FloatFormat, OverflowStats, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401
from lowprec.parallel import map_in_order
from lowprec.prenorm import layernorm as _layernorm_ref
from lowprec.prenorm import stabilized_layernorm_rows
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
        try:
            g = cls(
                name=d["name"],
                nodes=[Node(n["id"], n["op"], tuple(n["inputs"]),
                            dict(n.get("attrs", {}))) for n in d["nodes"]],
                inputs=list(d["inputs"]),
                outputs=list(d["outputs"]),
                meta=dict(d.get("meta", {})),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise GraphError(f"malformed graph JSON: {exc!r}") from None
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
            try:  # JSON and text decoding errors are ValueErrors
                return cls.from_json_dict(json.load(fh))
            except (GraphError, ValueError) as exc:
                raise GraphError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Validation and shape inference

_ARITY = {"output": 1, "linear": 1, "conv1x1": 1, "reshape": 1,
          "transpose": 1, "split": 1, "scale": 1, "softmax": 1,
          "layernorm": 1, "batched_matmul": 2, "add": 2, "einsum": None,
          "concat": None, "input": 0}

_REQUIRED_ATTRS = {"input": ("shape",), "reshape": ("shape",), "transpose": ("perm",),
                   "split": ("axis", "sections"), "concat": ("axis",),
                   "scale": ("factor",), "einsum": ("equation",),
                   "linear": ("weight", "out_features"),
                   "conv1x1": ("weight", "out_features")}


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_int, v))


# attr -> (what it must be, check); applies to every op that carries the attr.
_ATTR_TYPES = {
    "shape": ("a list of ints >= 1", lambda v: _is_int_list(v) and min(v, default=1) > 0),
    "perm": ("a list of ints", _is_int_list),
    "axis": ("an int", _is_int),
    "sections": ("a positive int", lambda v: _is_int(v) and v > 0),
    "out_features": ("an int", _is_int),
    "factor": ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "equation": ("a string", lambda v: isinstance(v, str)),
    "weight": ("a tensor name", lambda v: isinstance(v, str)),
    "bias": ("a tensor name", lambda v: isinstance(v, str)),
}


def validate(g: Graph) -> None:
    """Check ids, references, arity, attr types, and acyclicity (topological order)."""
    seen: set[str] = set()
    ports: dict[str, int] = {}
    for n in g.nodes:
        if not isinstance(n.id, str):
            raise GraphError(f"{n.op} node id {n.id!r} is not a string")
        if n.id in seen:
            raise GraphError(f"duplicate node id {n.id!r}")
        want = _ARITY[n.op]
        if want is not None and len(n.inputs) != want:
            raise GraphError(f"{n.id}: op {n.op} wants {want} inputs, "
                             f"got {len(n.inputs)}")
        if n.op in ("einsum", "concat") and not n.inputs:
            raise GraphError(f"{n.id}: {n.op} needs at least one input")
        for attr in _REQUIRED_ATTRS.get(n.op, ()):
            if attr not in n.attrs:
                raise GraphError(f"{n.id}: op {n.op} needs attr {attr!r}")
        for attr, value in n.attrs.items():
            want, ok = _ATTR_TYPES.get(attr, (None, None))
            if want and not ok(value):
                raise GraphError(f"{n.id}: attr {attr!r} must be {want}, got {value!r}")
        for r in n.inputs:
            if not isinstance(r, str):
                raise GraphError(f"{n.id}: reference {r!r} is not a string")
            base, _, port = r.partition(":")
            if base not in seen:
                raise GraphError(f"{n.id}: reference {r!r} not defined yet "
                                 "(missing or out of order)")
            if port:
                if not port.isdigit() or ports.get(base, 0) <= int(port):
                    raise GraphError(f"{n.id}: {r!r} addresses a missing port")
            elif base in ports:
                raise GraphError(f"{n.id}: {base!r} is multi-output, "
                                 "use an explicit port")
        seen.add(n.id)
        if n.op == "split":
            ports[n.id] = int(n.attrs["sections"])
    for kind, refs in (("input", g.inputs), ("output", g.outputs)):
        for r in refs:
            if not isinstance(r, str):
                raise GraphError(f"graph {kind} {r!r} is not a string")
    ops = {n.id: n.op for n in g.nodes}
    for i in g.inputs:
        if ops.get(i) != "input":
            raise GraphError(f"{i!r} listed as graph input but is not an input op")
    for o in g.outputs:
        if ops.get(o) != "output":
            raise GraphError(f"{o!r} listed as graph output but is not an output op")
    for n in g.nodes:
        if n.op == "input" and n.id not in g.inputs:
            raise GraphError(f"input node {n.id!r} missing from graph inputs")
    infer_shapes(g)


def _einsum_shape(node: Node, shapes: list[tuple]) -> tuple:
    where = f"{node.id}: einsum {node.attrs['equation']!r}"
    lhs, arrow, rhs = node.attrs["equation"].partition("->")
    if not arrow:
        raise GraphError(f"{where}: the output needs an explicit '->'")
    terms = lhs.split(",")
    if len(terms) != len(shapes):
        raise GraphError(f"{where}: got {len(shapes)} operands")
    dims: dict[str, int] = {}
    for term, shp in zip(terms, shapes):
        if len(term) != len(shp):
            raise GraphError(f"{where}: rank mismatch for {shp}")
        for ch, n in zip(term, shp):
            if dims.setdefault(ch, n) != n:
                raise GraphError(f"{where}: dim {ch!r} is both {dims[ch]} and {n}")
    if not set(rhs) <= set(dims):
        raise GraphError(f"{where}: an output letter is in no operand")
    if len(set(rhs)) != len(rhs):
        raise GraphError(f"{where}: an output letter repeats")
    return tuple(dims[c] for c in rhs)


def _axis(n: Node, shape: tuple) -> int:
    ax = int(n.attrs["axis"])
    if not 0 <= ax < len(shape):
        raise GraphError(f"{n.id}: axis {ax} is outside [0, {len(shape)})")
    return ax


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
            if not s:
                raise GraphError(f"{n.id}: linear wants input of rank >= 1")
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
            ax, k = _axis(n, s), int(a["sections"])
            if s[ax] % k:
                raise GraphError(f"{n.id}: axis {ax} size {s[ax]} not "
                                 f"divisible into {k}")
            piece = s[:ax] + (s[ax] // k,) + s[ax + 1:]
            for p in range(k):
                shapes[f"{n.id}:{p}"] = piece
        elif n.op == "concat":
            parts = [of(r) for r in n.inputs]
            ax = _axis(n, parts[0])
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
            shapes[n.id] = _einsum_shape(n, [of(r) for r in n.inputs])
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
    return {n.id for n in g.nodes if n.op in ("reshape", "transpose") and (
        n.inputs[0].split(":")[0] in input_ids
        or all(c.op == "output" for c in g.consumers(n.id)))}


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
    movement_bytes: int = 0

    @property
    def total_overflow(self) -> OverflowStats:
        return sum(self.node_stats.values(), OverflowStats())


def check_weights(g: Graph, weights: dict) -> None:
    """Raise GraphError, naming the node and tensor, when ``weights`` lacks
    a tensor that a linear or conv1x1 node reads, or holds it in a shape
    the node cannot read."""
    shapes = infer_shapes(g)
    for n in g.nodes:
        if n.op not in ("linear", "conv1x1"):
            continue
        s, out = shapes[n.inputs[0]], int(n.attrs["out_features"])
        want = {"weight": (out, s[-1] if n.op == "linear" else s[1]), "bias": (out,)}
        for attr in ("weight", "bias") if n.attrs.get("bias") else ("weight",):
            name = n.attrs[attr]
            if name not in weights:
                raise GraphError(f"{n.id}: {attr} tensor {name!r} is not in the weights")
            if np.shape(weights[name]) != want[attr]:
                raise GraphError(f"{n.id}: {attr} tensor {name!r} has shape "
                                 f"{np.shape(weights[name])}, the node reads {want[attr]}")


def _apply(node: Node, args: list[np.ndarray], weights: dict,
           rec: QuantRecorder):
    a = node.attrs

    def tensor(attr):  # a weight as float64, in the format but not counted
        return QuantRecorder(rec.fmt).q(weights[a[attr]])

    if node.op == "linear":
        out = args[0] @ tensor("weight").T
        if a.get("bias"):
            out += tensor("bias")
        return out
    if node.op == "conv1x1":
        out = np.einsum("oc,bcus->bous", tensor("weight"), args[0])
        if a.get("bias"):
            out += tensor("bias")[None, :, None, None]
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
        return softmax_lut(args[0], rec)
    if node.op == "layernorm":
        ax = int(a.get("axis", -1))
        if rec.fmt is None:
            return _layernorm_ref(args[0], axis=ax)
        x = np.moveaxis(args[0], ax, -1)  # the audited kernel reduces rows
        out = stabilized_layernorm_rows(x.reshape(-1, x.shape[-1]), None, rec)
        return np.moveaxis(out.reshape(x.shape), -1, ax)
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
    """Run the graph, in the arithmetic of ``fmt`` when one is given.

    Each node rounds what it computes into its own recorder (the rule is
    ``QuantRecorder``'s), whose counts are its ``node_stats``; input nodes
    round their feeds, and movement ops round nothing. In format mode
    softmax runs the table/rescale path and layernorm the audited kernel
    along its axis; in float64 both run the reference.
    Each intermediate is dropped after its last consumer; a split's ports
    are views, so they keep their parent's buffer until the last of them
    is consumed. In format mode a weight is rounded, uncounted, where a
    node reads it, so a tensor read by several nodes is rounded once per
    read; the rounded copy lives only while that node runs. Weights are
    checked first (``check_weights``).
    """
    weights = weights or {}
    check_weights(g, weights)
    last_use = {r: i for i, n in enumerate(g.nodes) for r in n.inputs}
    keep = set(g.outputs)
    values: dict[str, np.ndarray] = {}
    node_stats: dict[str, OverflowStats] = {}
    movement = 0

    for i, n in enumerate(g.nodes):
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
            movement += arr.nbytes
        else:
            out = _apply(n, [values[r] for r in n.inputs], weights, rec)
            if n.op in ARITHMETIC_OPS and n.op not in ("softmax", "layernorm"):
                out = rec.q(out)
            values[n.id] = out
            if n.op in MOVEMENT_OPS:
                movement += out.nbytes
        if fmt is not None and (n.op == "input" or n.op in ARITHMETIC_OPS):
            node_stats[n.id] = rec.stats
        for r in n.inputs:
            if last_use[r] == i and r not in keep:
                values.pop(r, None)  # a node may read one value twice
    return ExecTrace(
        outputs={o: values[o] for o in g.outputs},
        node_stats=node_stats,
        movement_bytes=movement,
    )


def _max_deviation(names, o1: dict, o2: dict) -> float:
    """Max |difference| over one instance's outputs, or GraphRewriteError.

    Identical values agree, equal infinities included; a position where
    the outputs differ by a non-finite amount (a NaN on either side, or
    infinity against anything else) fails at once.
    """
    worst = 0.0
    for name in names:
        a, b = o1[name], o2[name]
        if a.shape != b.shape:
            raise GraphRewriteError(
                f"output {name!r}: shapes {a.shape} vs {b.shape}"
            )
        with np.errstate(invalid="ignore"):  # inf - inf
            dev = np.abs(a - b)
        top = dev.max()
        if not np.isfinite(top):  # equal infinities leave a nan that agrees
            top = dev[a != b].max(initial=0.0)
            if not np.isfinite(top):
                raise GraphRewriteError(
                    f"graphs differ: output {name!r} has a non-finite deviation"
                )
        worst = max(worst, float(top))
    return worst


def check_equivalence(g1: Graph, g2: Graph, weights: dict,
                      n_instances: int, seed: int = 0) -> float:
    """Max |difference| between two graphs over random float64 instances.

    Feeds are unit-variance gaussians. Raises GraphRewriteError when the
    graphs disagree beyond 1e-9 or by a non-finite amount at any position
    (values that are identical, equal infinities included, agree); input
    and output names must match. ``n_instances`` must be at least 1: a
    check over nothing proves nothing.

    The instances run on every usable CPU (``parallel.map_in_order``),
    with feeds drawn in instance order, so the returned float and the error
    raised (the first failing instance's) do not depend on the CPU count.
    """
    if n_instances < 1:
        raise ValueError(f"need at least 1 check instance, got {n_instances}")
    in1 = {i: tuple(g1.node(i).attrs["shape"]) for i in g1.inputs}
    in2 = {i: tuple(g2.node(i).attrs["shape"]) for i in g2.inputs}
    if set(in1) != set(in2) or set(g1.outputs) != set(g2.outputs):
        raise GraphRewriteError("graphs expose different interfaces")

    rng = np.random.default_rng(seed)
    feeds = ({i: rng.normal(0.0, 1.0, in1[i]) for i in in1} for _ in range(n_instances))

    def deviation(f):
        # execute_traced is looked up at call time, so a wrapper on the
        # module name (the benchmark tracer) sees every execution
        return _max_deviation(g1.outputs, execute_traced(g1, f, weights).outputs,
                              execute_traced(g2, f, weights).outputs)

    worst = max(map_in_order(deviation, feeds, n_instances))
    if worst > 1e-9:
        raise GraphRewriteError(
            f"graphs differ: max abs deviation {worst:.3e} exceeds 1.0e-09"
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
        if min(self.batch, self.heads, self.features, self.seq) < 1:
            raise ValueError(f"all dimensions must be positive, got {self}")
        if self.features % self.heads:
            raise ValueError("features must divide evenly across heads")

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


def build_mha_bsf(p: MHAParams) -> Graph:
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
    g = Graph("mha", nodes, ["x"], ["y"], meta={"layout": "BSF", "mha": {"heads": h}})
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
    axis, interior transposes drop out, and the score and context products
    of the one attention block become the einsums that contract the same
    indices in the new layout.
    """
    if g.meta.get("layout") == "BC1S":
        return g
    if any(n.op == "split" for n in g.nodes):
        raise GraphRewriteError(
            "layout pass must run before the chunk pass (found split nodes)"
        )
    shapes = infer_shapes(g)
    equations = {}
    if any(n.op == "batched_matmul" for n in g.nodes):
        qk, _, _, av = _attention_core(g)
        equations = {qk.id: "bcui,bcuj->buij",   # query rows against key rows
                     av.id: "buij,bcuj->bcui"}   # attention rows against value rows
    new_nodes: list[Node] = []
    edge_map: dict[str, str] = {}

    for n in g.nodes:
        op, ins, attrs = n.op, tuple(_edge(edge_map, r) for r in n.inputs), dict(n.attrs)
        if n.op == "input":
            shape = shapes[n.id]
            if len(shape) != 4 or shape[2] != 1:
                raise GraphRewriteError(f"{n.id}: expected (bz, S, 1, f) input, "
                                        f"got {shape}")
        elif n.op == "output":  # the adapter back to (bz, S, 1, f) goes first
            new_nodes.append(Node(f"{n.id}_to_s", "transpose", ins,
                                  {"perm": [0, 3, 2, 1]}))
            ins, attrs = (f"{n.id}_to_s",), {}
        elif n.op == "linear":
            op = "conv1x1"
        elif n.op == "reshape":
            s_in, s_out = shapes[n.inputs[0].split(":")[0]], shapes[n.id]
            if not (len(s_in) == len(s_out) == 4 and s_in[:2] == s_out[:2]
                    and 1 in (s_in[2], s_out[2])):
                raise GraphRewriteError(
                    f"{n.id}: reshape {s_in} -> {s_out} is not a head "
                    "split/merge, layout pass cannot relocate it"
                )
            bz, S, h, d = s_out
            # one head: shapes already agree, drop the copy; a head merge
            # has h = 1 and becomes (bz, f, 1, S)
            op = None if s_in == s_out else "reshape"
            attrs = {"shape": [bz * h, d, 1, S]}
        elif n.op == "transpose":
            src = g.node(n.inputs[0].split(":")[0])
            if src.op != "reshape" and src.op not in ARITHMETIC_OPS:
                raise GraphRewriteError(f"{n.id}: unexpected transpose")
            op = None  # head-routing transposes are no-ops in the new layout
        elif n.op == "batched_matmul":
            if n.id not in equations:
                raise GraphRewriteError(f"{n.id}: matmul is not a product of "
                                        "the attention core")
            op, attrs = "einsum", {"equation": equations[n.id]}
        elif n.op == "layernorm":
            attrs["axis"] = 1  # features live on the channel axis now
        elif n.op not in ("scale", "softmax", "add"):
            raise GraphRewriteError(f"{n.id}: op {n.op} not supported by "
                                    "the layout pass")
        if op is None:  # a copy the new layout does not need
            edge_map[n.id] = ins[0]
            continue
        new_nodes.append(Node(n.id, op, ins, attrs))
        edge_map[n.id] = n.id
        if n.op == "input":  # the adapter to (bz, f, 1, S) follows
            edge_map[n.id] = f"{n.id}_to_c"
            new_nodes.append(Node(f"{n.id}_to_c", "transpose", (n.id,),
                                  {"perm": [0, 3, 2, 1]}))

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
    channel_second = g.meta.get("layout") == "BC1S"
    if axis == "query" and not channel_second:
        raise GraphRewriteError("query chunking needs the channel-second "
                                "layout; run the layout pass first")
    core = qk, _, _, av = _attention_core(g)
    shapes = infer_shapes(g)
    qkv = (qk.inputs[0], qk.inputs[1], av.inputs[1])
    if axis == "query":
        if shapes[qkv[0]][-1] % n_chunks:
            raise GraphRewriteError(f"{n_chunks} chunks do not divide "
                                    f"{shapes[qkv[0]][-1]} query positions")
        out = _chunk_core(g, core, n_chunks, 3, qkv, "q", None, av.id)
    elif heads % n_chunks:
        raise GraphRewriteError(f"{n_chunks} chunks do not divide {heads} heads")
    elif not channel_second:
        out = _chunk_core(g, core, n_chunks, 1, qkv, "qkv", None, av.id)
    else:  # split the inputs of the head reshapes feeding the core
        reshapes = [g.node(r.split(":")[0]) for r in qkv]
        for node in reshapes:
            if node.op != "reshape":
                raise GraphRewriteError(
                    f"{node.id}: expected the head-split reshape feeding the core"
                )
        merge = _find_single(
            g, lambda n: n.op == "reshape" and av.id in n.inputs, "head merge")
        hpc = heads // n_chunks
        bzh, d, _, S = shapes[reshapes[0].id]
        bz = bzh // heads
        # with one head per branch the split pieces are already heads
        head_shapes = None if hpc == 1 else ([bz * hpc, d, 1, S], [bz, hpc * d, 1, S])
        out = _chunk_core(g, core, n_chunks, 1, [r.inputs[0] for r in reshapes],
                          "qkv", head_shapes, merge.id,
                          removed=(*(r.id for r in reshapes), merge.id))
    out.meta = {**g.meta, "chunked": {"n_chunks": n_chunks, "axis": axis}}
    validate(out)
    return out


def _attention_core(g: Graph):
    """Score product, scale, softmax and context product of the one attention block."""
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


def _chunk_core(g: Graph, core, n_chunks: int, axis: int, qkv, split: str,
                head_shapes, anchor: str, removed=()) -> Graph:
    """Replace the attention core with ``n_chunks`` branches and a concat.

    ``qkv`` holds the refs the branches read as query, key and value. Each
    one whose tag ("q", "k" or "v") is in ``split`` goes through a split
    node ``<tag>_split`` along ``axis`` and branch ``c`` reads its port
    ``c``; the others are read whole by every branch. ``head_shapes`` is
    ``None`` when the branch operands are already in head form; otherwise
    it is a (head, merge) pair of shapes: each branch reshapes its q, k and
    v to the head shape (``<tag>_r_c<c>``) and its context product to the
    merge shape (``<ctx>_merge_c<c>``). Each branch repeats the core's four
    nodes with their op and attrs, and the concat ``<ctx>_join`` joins the
    branches along ``axis``. The nodes in ``removed`` go along with the
    core. The subgraph goes in front of the first consumer of ``anchor``,
    which then reads the join.
    """
    qk, scale, smax, av = core
    removed = {qk.id, scale.id, smax.id, av.id, *removed}
    nodes = [n for n in g.nodes if n.id not in removed]
    insert = [Node(f"{tag}_split", "split", (src,),
                   {"axis": axis, "sections": n_chunks})
              for tag, src in zip("qkv", qkv) if tag in split]
    branch_out = []
    for c in range(n_chunks):
        q, k, v = (f"{tag}_split:{c}" if tag in split else src
                   for tag, src in zip("qkv", qkv))
        if head_shapes:
            pre = [Node(f"{tag}_r_c{c}", "reshape", (ref,), {"shape": list(head_shapes[0])})
                   for tag, ref in zip("qkv", (q, k, v))]
            insert += pre
            q, k, v = (n.id for n in pre)
        insert += [
            Node(f"{qk.id}_c{c}", qk.op, (q, k), dict(qk.attrs)),
            Node(f"{scale.id}_c{c}", scale.op, (f"{qk.id}_c{c}",),
                 dict(scale.attrs)),
            Node(f"{smax.id}_c{c}", smax.op, (f"{scale.id}_c{c}",),
                 dict(smax.attrs)),
            Node(f"{av.id}_c{c}", av.op, (f"{smax.id}_c{c}", v),
                 dict(av.attrs)),
        ]
        out_ref = f"{av.id}_c{c}"
        if head_shapes:
            insert.append(Node(f"{av.id}_merge_c{c}", "reshape", (out_ref,),
                               {"shape": list(head_shapes[1])}))
            out_ref = insert[-1].id
        branch_out.append(out_ref)
    insert.append(Node(f"{av.id}_join", "concat", tuple(branch_out),
                       {"axis": axis}))

    idx = next(i for i, n in enumerate(nodes)
               if any(r.split(":")[0] == anchor for r in n.inputs))
    nodes = nodes[:idx] + insert + nodes[idx:]
    nodes = _replace_ref(nodes, anchor, f"{av.id}_join")
    return Graph(g.name, nodes, list(g.inputs), list(g.outputs), dict(g.meta))


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
