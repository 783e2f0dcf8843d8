"""Outside-in tracing of lowprec layers for the benchmark.

The tracer replaces public functions at the names each module imports them
under with wrappers that record one span per call: name, layer, start, end,
parent span and job id, plus a few counts taken from the arguments and the
result. Nothing in ``src/`` is edited; ``uninstall`` puts the original
functions back. Spans stay in memory until ``write_spans`` at the end.

A layer's self time is the duration of its spans minus the durations of
their direct child spans. Each job also gets a root span of layer ``cli``,
so the layer self times plus ``cli.self_s`` add up to the job wall time.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from lowprec import cli, convsub, graphir, prenorm, softmax_lut, streams

_clock = time.perf_counter


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int | None
    job: object
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _elems(args, kwargs, result):
    return {"elems": int(np.size(args[0]))}


def _conv(args, kwargs, result):
    x, _, _, layer = args
    kh, kw = layer.kernel
    cig = layer.in_channels // layer.groups
    oh, ow = layer.out_hw(x.shape[1], x.shape[2])
    # Computed from shapes: the im2col buffer conv2d_forward materialises.
    return {"macs": oh * ow * layer.out_channels * kh * kw * cig,
            "im2col_bytes": layer.groups * cig * kh * kw * oh * ow * 8}


def _exec(args, kwargs, result):
    return {"nodes": len(args[0].nodes), "movement_bytes": result.movement_bytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, layer, count function or None). Each public function
# is wrapped at every module-level name the programs reach it through.
WRAP_POINTS = [
    *[(m, "quantize_array", "floatsim", _elems)
      for m in (prenorm, softmax_lut, convsub, graphir, cli)],
    (cli, "stabilized_layernorm_rows", "prenorm", None),
    (prenorm, "prenormalize", "prenorm", None),
    (prenorm, "lemma1_oracle", "prenorm", None),
    (prenorm, "mad_monte_carlo", "prenorm", None),
    (cli, "softmax_lut", "softmax_lut", _elems),
    (graphir, "softmax_lut", "softmax_lut", _elems),
    (cli, "init_weights", "convsub", None),
    (cli, "profile_dynamic_range", "convsub", None),
    (convsub, "conv2d_forward", "convsub", _conv),
    (cli, "apply_passes", "graphir", None),
    (graphir, "apply_passes", "graphir", None),
    (cli, "check_equivalence", "graphir", None),
    (graphir, "execute_traced", "graphir", _exec),
    (cli, "read_stream", "streams", _file_bytes),
    (cli, "read_tensors", "streams", _file_bytes),
    (streams, "write_stream", "streams", _file_bytes),
    (streams, "write_tensors", "streams", _file_bytes),
]


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self.job = None

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, _clock(), parent, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()

    def _wrap(self, module, attr, layer, count):
        orig = getattr(module, attr)
        name = f"{layer}.{orig.__name__}"

        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def install(self) -> None:
        for module, attr, layer, count in WRAP_POINTS:
            self._wrap(module, attr, layer, count)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def run_job(self, job_id, fn):
        """Run ``fn`` under a root ``cli.job`` span tagged with ``job_id``."""
        self.job = job_id
        span = self._open("cli.job", "cli")
        try:
            return fn()
        finally:
            self._close(span)
            self.job = None

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "job": s.job, **s.counts}) + "\n")

    def breakdowns(self) -> dict:
        """Per-layer metrics of every job, keyed by job id."""
        by_job: dict = {}
        for s in self.spans:
            by_job.setdefault(s.job, []).append(s)
        return {job: job_breakdown(job, spans) for job, spans in by_job.items()}


def job_breakdown(job_id, spans: list[Span]) -> dict:
    """Per-layer counts and self times of one job, keyed by metric name."""
    child = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_s = {}
    calls = {}
    for s in spans:
        self_s[s.layer] = self_s.get(s.layer, 0.0) + (s.end - s.start) - child[s.sid]
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def dur(name):
        return sum((s.end - s.start for s in spans if s.name == name), 0.0)

    def count(name):
        return calls.get(name, 0)

    def per(num, den):
        return num / den if den else 0.0

    root = [s for s in spans if s.name == "cli.job"]
    if len(root) != 1:
        raise RuntimeError(f"job {job_id!r} has {len(root)} root spans")
    fs_elems = total("floatsim.quantize_array", "elems")
    macs = total("convsub.conv2d_forward", "macs")
    nodes = total("graphir.execute_traced", "nodes")
    layer_s = {k: self_s.get(k, 0.0) for k in
               ("floatsim", "prenorm", "softmax_lut", "convsub", "graphir",
                "streams", "cli")}
    # Self time of execute_traced alone: node dispatch and numpy compute,
    # without the quantize and softmax spans nested inside it.
    exec_self = sum(((s.end - s.start) - child[s.sid] for s in spans
                     if s.name == "graphir.execute_traced"), 0.0)
    return {
        "floatsim.calls": count("floatsim.quantize_array"),
        "floatsim.elems": fs_elems,
        "floatsim.self_s": layer_s["floatsim"],
        "floatsim.ns_per_elem": per(layer_s["floatsim"] * 1e9, fs_elems),
        "prenorm.calls": sum(v for k, v in calls.items() if k.startswith("prenorm.")),
        "prenorm.prenormalize_calls": count("prenorm.prenormalize"),
        "prenorm.self_s": layer_s["prenorm"],
        "softmax_lut.calls": count("softmax_lut.softmax_lut"),
        "softmax_lut.elems": total("softmax_lut.softmax_lut", "elems"),
        "softmax_lut.self_s": layer_s["softmax_lut"],
        "convsub.conv_calls": count("convsub.conv2d_forward"),
        "convsub.macs": macs,
        "convsub.im2col_bytes": total("convsub.conv2d_forward", "im2col_bytes"),
        "convsub.self_s": layer_s["convsub"],
        "convsub.gmac_per_s": per(macs / 1e9, dur("convsub.conv2d_forward")),
        "graphir.pass_calls": count("graphir.apply_passes"),
        "graphir.pass_s": dur("graphir.apply_passes"),
        "graphir.exec_calls": count("graphir.execute_traced"),
        "graphir.nodes_executed": nodes,
        "graphir.movement_bytes": total("graphir.execute_traced", "movement_bytes"),
        "graphir.self_s": layer_s["graphir"],
        "graphir.us_per_node": per(exec_self * 1e6, nodes),
        "streams.read_bytes": (total("streams.read_stream", "bytes")
                               + total("streams.read_tensors", "bytes")),
        "streams.read_s": dur("streams.read_stream") + dur("streams.read_tensors"),
        "streams.write_bytes": (total("streams.write_stream", "bytes")
                                + total("streams.write_tensors", "bytes")),
        "streams.write_s": dur("streams.write_stream") + dur("streams.write_tensors"),
        "cli.self_s": layer_s["cli"],
        "trace.job_wall_s": root[0].end - root[0].start,
        # Zero up to rounding, since every span nests inside the job span.
        "trace.unattributed_s": (root[0].end - root[0].start) - sum(self_s.values()),
    }


def median_breakdown(breakdowns: list[dict]) -> dict:
    """Median over jobs of every metric; counts stay whole numbers."""
    out = {}
    for key, first in breakdowns[0].items():
        values = [b[key] for b in breakdowns]
        out[key] = (statistics.median_low(values) if isinstance(first, int)
                    else statistics.median(values))
    return out
