"""A small tensor-graph IR, its executor, and rewrite passes for attention blocks.

The IR is a flat list of single-output nodes (split is the exception, its
consumers address ports as "id:k"). Graphs are executable with float64 or
simulated low-precision arithmetic, serializable to JSON, and cheap to
analyze structurally. ``execute_traced`` is the one executor that rounds
intermediates, for attention blocks and conv front ends alike.

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
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

# convsub builds its front ends as graphs of this module; its names are
# looked up at call time, so the import cycle is harmless
from lowprec import convsub
from lowprec.floatsim import _BLOCK, FloatFormat, OverflowStats, QuantRecorder
# Bound here so the benchmark tracer (perfbench/spans.py) can wrap it.
from lowprec.floatsim import quantize_array  # noqa: F401
from lowprec.parallel import map_in_order
from lowprec.prenorm import layernorm as _layernorm_ref
from lowprec.prenorm import stabilized_layernorm_rows
from lowprec.softmax_lut import softmax_lut, softmax_reference

ARITHMETIC_OPS = {"linear", "conv1x1", "conv2d", "batched_matmul", "einsum",
                  "scale", "softmax", "layernorm", "add"}
MOVEMENT_OPS = {"reshape", "transpose", "split", "concat"}
# relu is exact: it rounds and counts nothing
ALL_OPS = ARITHMETIC_OPS | MOVEMENT_OPS | {"input", "output", "relu"}
WEIGHTED_OPS = ("linear", "conv1x1", "conv2d")


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
        return dict(Counter(n.op for n in self.nodes))

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

_ARITY = {"output": 1, "linear": 1, "conv1x1": 1, "conv2d": 1, "relu": 1,
          "reshape": 1, "transpose": 1, "split": 1, "scale": 1, "softmax": 1,
          "layernorm": 1, "batched_matmul": 2, "add": 2, "einsum": None,
          "concat": None, "input": 0}

_REQUIRED_ATTRS = {"input": ("shape",), "reshape": ("shape",), "transpose": ("perm",),
                   "split": ("axis", "sections"), "concat": ("axis",),
                   "scale": ("factor",), "einsum": ("equation",),
                   "linear": ("weight", "out_features"),
                   "conv1x1": ("weight", "out_features"),
                   "conv2d": ("weight", "bias", "out_features", "kernel", "stride")}


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_int, v))


_POSITIVE = ("a positive int", lambda v: _is_int(v) and v > 0)
_PAIR = ("a pair of ints >= 1", lambda v: _is_int_list(v) and len(v) == 2 and min(v) > 0)

# attr -> (what it must be, check); applies to every op that carries the attr.
_ATTR_TYPES = {
    "shape": ("a list of ints >= 1", lambda v: _is_int_list(v) and min(v, default=1) > 0),
    "perm": ("a list of ints", _is_int_list),
    "axis": ("an int", _is_int),
    "sections": _POSITIVE,
    "out_features": _POSITIVE,
    "groups": _POSITIVE,
    "kernel": _PAIR,
    "stride": _PAIR,
    "factor": ("a finite number", lambda v: isinstance(v, numbers.Real)
               and not isinstance(v, bool) and math.isfinite(v)),
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
    if not all(c.isascii() and c.isalpha() for c in lhs.replace(",", "") + rhs):
        raise GraphError(f"{where}: a subscript is not a letter")
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


def _axis(n: Node, shape: tuple, negative: bool = False) -> int:
    """The node's axis (default -1) in [0, rank), or [-rank, rank) if ``negative``."""
    ax, lo = int(n.attrs.get("axis", -1)), -len(shape) if negative else 0
    if not lo <= ax < len(shape):
        raise GraphError(f"{n.id}: axis {ax} is outside [{lo}, {len(shape)})")
    return ax % len(shape)


def _conv_layer(n: Node, s: tuple):
    """The ``convsub.ConvLayerSpec`` a conv2d node runs on a (C, H, W) input ``s``."""
    if len(s) != 3:
        raise GraphError(f"{n.id}: conv2d wants (C, H, W) input, got {s}")
    try:
        layer = convsub.ConvLayerSpec(s[0], n.attrs["out_features"], tuple(n.attrs["kernel"]),
                                      tuple(n.attrs["stride"]), n.attrs.get("groups", 1))
        layer.out_hw(s[1], s[2])  # the input holds a kernel
    except ValueError as exc:
        raise GraphError(f"{n.id}: {exc}") from None
    return layer


def infer_shapes(g: Graph) -> dict[str, tuple]:
    """Output shape for every reference (ports included), weights not needed."""
    shapes: dict[str, tuple] = {}
    for n in g.nodes:
        a, ins = n.attrs, [shapes[r] for r in n.inputs]
        s = ins[0] if ins else None
        if n.op == "input":
            shapes[n.id] = tuple(a["shape"])
        elif n.op in ("output", "scale", "relu"):
            shapes[n.id] = s
        elif n.op == "linear":
            if not s:
                raise GraphError(f"{n.id}: linear wants input of rank >= 1")
            shapes[n.id] = s[:-1] + (a["out_features"],)
        elif n.op == "conv1x1":
            if len(s) != 4:
                raise GraphError(f"{n.id}: conv1x1 wants rank-4 input, got {s}")
            shapes[n.id] = (s[0], a["out_features"], s[2], s[3])
        elif n.op == "conv2d":
            shapes[n.id] = (a["out_features"], *_conv_layer(n, s).out_hw(s[1], s[2]))
        elif n.op == "reshape":
            t = tuple(a["shape"])
            if math.prod(s) != math.prod(t):
                raise GraphError(f"{n.id}: reshape {s} -> {t} changes size")
            shapes[n.id] = t
        elif n.op == "transpose":
            perm = tuple(a["perm"])
            if sorted(perm) != list(range(len(s))):
                raise GraphError(f"{n.id}: bad permutation {perm} for rank {len(s)}")
            shapes[n.id] = tuple(s[p] for p in perm)
        elif n.op == "split":
            ax, k = _axis(n, s), a["sections"]
            if s[ax] % k:
                raise GraphError(f"{n.id}: axis {ax} size {s[ax]} not "
                                 f"divisible into {k}")
            shapes.update((f"{n.id}:{p}", s[:ax] + (s[ax] // k,) + s[ax + 1:])
                          for p in range(k))
        elif n.op == "concat":
            ax = _axis(n, s)
            if any(len(p) != len(s) or p[:ax] + p[ax + 1:] != s[:ax] + s[ax + 1:]
                   for p in ins):
                raise GraphError(f"{n.id}: concat shapes disagree: {ins}")
            shapes[n.id] = s[:ax] + (sum(p[ax] for p in ins),) + s[ax + 1:]
        elif n.op == "batched_matmul":
            s2 = ins[1]
            if len(s) < 2 or len(s) != len(s2) or s[:-2] != s2[:-2] or s[-1] != s2[-2]:
                raise GraphError(f"{n.id}: cannot matmul {s} @ {s2}")
            shapes[n.id] = s[:-1] + (s2[-1],)
        elif n.op == "einsum":
            shapes[n.id] = _einsum_shape(n, ins)
        elif n.op == "add":
            if s != ins[1]:
                raise GraphError(f"{n.id}: add shapes differ: {s} vs {ins[1]}")
            shapes[n.id] = s
        elif n.op in ("softmax", "layernorm"):  # layernorm on any axis
            if _axis(n, s, negative=True) != len(s) - 1 and n.op == "softmax":
                raise GraphError(f"{n.id}: softmax only along the last axis")
            shapes[n.id] = s
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

    def moves(op: str, at_edge: bool) -> int:
        return sum(n.op == op and (n.id in boundary) == at_edge for n in g.nodes)

    interior_t, interior_r = moves("transpose", False), moves("reshape", False)
    counts = g.op_counts()
    return {
        "interior_transposes": interior_t,
        "interior_reshapes": interior_r,
        "boundary_transposes": moves("transpose", True),
        "boundary_reshapes": moves("reshape", True),
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
    node_peaks: dict[str, float]
    movement_bytes: int = 0

    @property
    def total_overflow(self) -> OverflowStats:
        return sum(self.node_stats.values(), OverflowStats())


def _weight_shapes(n: Node, s: tuple) -> dict[str, tuple]:
    """attr -> shape of each tensor a weighted node reads on an input of shape ``s``."""
    out = n.attrs["out_features"]
    if n.op == "conv2d":
        w = (out, s[0] // n.attrs.get("groups", 1), *n.attrs["kernel"])
    else:
        w = (out, s[-1] if n.op == "linear" else s[1])
    return {"weight": w, "bias": (out,)} if n.attrs.get("bias") else {"weight": w}


def _tensor(n: Node, attr: str, weights, want: tuple) -> np.ndarray:
    """The tensor ``n`` names in ``attr``, or GraphError if missing or not of shape ``want``."""
    name = n.attrs[attr]
    try:
        t = weights[name]
    except KeyError:
        raise GraphError(f"{n.id}: {attr} tensor {name!r} is not in the weights") from None
    if np.shape(t) != want:
        raise GraphError(f"{n.id}: {attr} tensor {name!r} has shape "
                         f"{np.shape(t)}, the node reads {want}")
    return t


def check_weights(g: Graph, weights: dict) -> None:
    """``_tensor``'s check of every tensor a weighted node reads, up front."""
    shapes = infer_shapes(g)
    for n in g.nodes:
        if n.op in WEIGHTED_OPS:
            for attr, want in _weight_shapes(n, shapes[n.inputs[0]]).items():
                _tensor(n, attr, weights, want)


def _apply(node: Node, args: list, weights, rec: QuantRecorder):
    """An arithmetic or movement node's value; a conv2d pops its input off ``args``."""
    a = node.attrs
    if node.op in WEIGHTED_OPS:  # each tensor checked as the node reads it
        want = _weight_shapes(node, args[0].shape)

    def tensor(attr):  # a weight as float64, in the format but not counted
        t = _tensor(node, attr, weights, want[attr])
        return rec.q(t) if rec.fmt is None else QuantRecorder(rec.fmt).q(t)

    # The product is made before the rounded weight copy, so that, rounded in
    # place and kept, it does not sit above the copy's freed block in the heap.
    if node.op == "linear":
        out = np.empty(args[0].shape[:-1] + want["weight"][:1])
        np.matmul(args[0], tensor("weight").T, out=out)
        if a.get("bias"):
            out += tensor("bias")
        return out
    if node.op == "conv1x1":
        out = np.empty((args[0].shape[0], want["weight"][0], *args[0].shape[2:]))
        np.einsum("oc,bcus->bous", tensor("weight"), args[0], out=out)
        if a.get("bias"):
            out += tensor("bias")[None, :, None, None]
        return out
    if node.op == "conv2d":
        # unrounded weights; one not held yet is looked up once the columns exist
        layer = _conv_layer(node, args[0].shape)
        bias = _tensor(node, "bias", weights, want["bias"])
        read = partial(_tensor, node, "weight", weights, want["weight"])
        return convsub.conv2d_forward(args.pop(), read() if a["weight"] in weights else read,
                                      bias, layer)
    if node.op == "batched_matmul":
        return np.matmul(args[0], args[1])
    if node.op == "einsum":
        out = np.einsum(a["equation"], *args)  # one operand may come back as a view of it
        return out.copy() if np.may_share_memory(out, args[0]) else out
    if node.op == "scale":
        with np.errstate(over="ignore"):  # past float64's range the result is inf
            return args[0] * float(a["factor"])
    if node.op == "softmax":
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
        with np.errstate(over="ignore"):  # as for scale
            return args[0] + args[1]
    if node.op == "reshape":
        return args[0].reshape(tuple(a["shape"]))
    if node.op == "transpose":
        return np.transpose(args[0], tuple(a["perm"]))
    if node.op == "concat":
        return np.concatenate(args, axis=int(a["axis"]))
    raise GraphError(f"cannot execute op {node.op!r}")  # pragma: no cover


def _feed(n: Node, feeds: dict) -> np.ndarray:
    if n.id not in feeds:
        raise GraphError(f"missing feed for input {n.id!r}")
    arr, want = np.asarray(feeds[n.id], dtype=np.float64), tuple(n.attrs["shape"])
    if arr.shape != want:
        raise GraphError(f"{n.id}: feed shape {arr.shape} does not match {want}")
    return arr


def _round(out, rec: QuantRecorder) -> np.ndarray:  # in place where the layout allows
    if isinstance(out, np.ndarray) and out.flags.c_contiguous:
        return rec.q(out, out=out)
    return rec.q(out)


def _range(x: np.ndarray) -> tuple[float, float]:
    """(min, max) of ``x`` (NaN if it holds one); each block is read again in cache for its max."""
    flat = np.ravel(x, order="K")  # a view unless x is scattered in memory
    lo, hi = np.inf, -np.inf
    for i in range(0, flat.size, _BLOCK):  # np.minimum and np.maximum keep a NaN
        b = flat[i:i + _BLOCK]
        lo, hi = np.minimum(lo, b.min()), np.maximum(hi, b.max())
    return float(lo), float(hi)


def execute_traced(g: Graph, feeds: dict[str, np.ndarray],
                   weights: dict[str, np.ndarray] | None = None,
                   fmt: FloatFormat | None = None, peaks: bool = False) -> ExecTrace:
    """Run a graph ``validate`` accepts, in the arithmetic of ``fmt`` if given.

    Each node rounds what it computes into its own recorder, whose counts
    are its ``node_stats``: input nodes their feeds, other arithmetic nodes
    their output, in place; movement ops and relu round nothing. In format
    mode softmax runs the table path and layernorm the audited kernel; in
    float64 both run the reference. With ``peaks``, ``node_peaks`` holds the
    peak |value| (NaN if there is one) of each input, arithmetic and relu
    node; a run that reads outputs alone skips those passes.

    A node's inputs leave ``values`` at their last use, before it runs, and
    no local keeps a value past its node, so a conv2d gets the only
    reference to its input. A relu runs in place on an input that an
    arithmetic node made and no other node reads. A weight is checked when
    its node reads it; a linear or conv1x1 in format mode rounds it,
    uncounted, for that node alone, and a conv2d reads it unrounded.
    """
    weights = {} if weights is None else weights
    last_use = {r: i for i, n in enumerate(g.nodes) for r in n.inputs}
    readers = Counter(r for n in g.nodes for r in set(n.inputs))
    sole = {n.id for n in g.nodes if n.op in ARITHMETIC_OPS and readers[n.id] == 1}
    values: dict[str, np.ndarray] = {}
    ranges: dict[str, tuple[float, float]] = {}  # (min, max) of each value computed
    node_stats: dict[str, OverflowStats] = {}
    node_peaks: dict[str, float] = {}
    movement = 0
    exact = QuantRecorder(None)  # float64 mode rounds and counts nothing

    for i, n in enumerate(g.nodes):
        args = [values[r] for r in n.inputs]
        for r in n.inputs:
            if last_use[r] == i and r not in g.outputs:
                values.pop(r, None)  # a node may read one value twice
        rec = exact if fmt is None else QuantRecorder(fmt)
        if n.op == "input":
            values[n.id] = rec.q(_feed(n, feeds))
        elif n.op == "output":
            values[n.id] = args[0]
        elif n.op == "split":
            values.update((f"{n.id}:{p}", part) for p, part in enumerate(
                np.split(args[0], int(n.attrs["sections"]), axis=int(n.attrs["axis"]))))
            movement += args[0].nbytes
        elif n.op == "relu":
            r = n.inputs[0]
            if peaks:  # from the input's (min, max): a NaN stays first, and wins
                lo, hi = ranges[r] if r in ranges else _range(args[0])
                ranges[n.id] = max(lo, 0.0), max(hi, 0.0)
            values[n.id] = np.maximum(args[0], 0.0, out=args[0] if r in sole else None)
        else:
            values[n.id] = _apply(n, args, weights, rec)
            if n.op in MOVEMENT_OPS:
                movement += values[n.id].nbytes
            elif n.op not in ("softmax", "layernorm"):  # these round their own stages
                values[n.id] = _round(values[n.id], rec)
        if peaks and (n.op in ("input", "relu") or n.op in ARITHMETIC_OPS):
            if n.id not in ranges:
                ranges[n.id] = _range(values[n.id])
            lo, hi = ranges[n.id]
            node_peaks[n.id] = abs(max(hi, -lo))  # a NaN hi stays first
        if fmt is not None and (n.op == "input" or n.op in ARITHMETIC_OPS):
            node_stats[n.id] = rec.stats
    return ExecTrace(
        outputs={o: values[o] for o in g.outputs},
        node_stats=node_stats,
        node_peaks=node_peaks,
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
        elif n.op not in ("scale", "relu", "softmax", "add"):
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
    return [replace(n, inputs=tuple(new if r == old else r for r in n.inputs))
            if old in n.inputs else n for n in nodes]


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
    if not any(n.op == "batched_matmul" for n in g.nodes):
        return g
    shapes = infer_shapes(g)

    def einsum(n: Node) -> Node:
        b = "abcdefgh"[:len(shapes[n.inputs[0]]) - 2]  # the batch axes
        return Node(n.id, "einsum", n.inputs, {"equation": f"{b}ij,{b}jk->{b}ik"})

    out = Graph(g.name, [einsum(n) if n.op == "batched_matmul" else n for n in g.nodes],
                list(g.inputs), list(g.outputs), dict(g.meta))
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
