"""Loaders fed mutated input fail only with their own error type.

The CLI maps ``StreamFormatError`` and ``GraphError`` to exit 2; any other
exception out of a loader would be an unexpected error (exit 3). These
properties mutate valid stream, tensor and graph files and check that the
stream reader and ``Graph.from_json_dict`` either accept the result or
raise their own error.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

from lowprec.graphir import Graph, GraphError, MHAParams, apply_passes, build_mha_bsf
from lowprec.streams import StreamFormatError, _read_records

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """Every path into a nested JSON value, the root included."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _mutate(data, obj):
    """Replace or delete the value at a few drawn paths of ``obj``."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(JSON_VALUES)
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = value
        else:
            del parent[path[-1]]
    return obj


def _records():
    """(header, payload) pairs of a valid file holding two records."""
    arrays = [np.arange(6.0).reshape(2, 3), np.array([[1, -2]], dtype=np.int16)]
    return [({"chunk": i, "tensor": f"t{i}", "dtype": a.dtype.str,
              "shape": list(a.shape)}, a.tobytes()) for i, a in enumerate(arrays)]


@given(st.data())
def test_stream_reader_raises_only_stream_format_errors(data):
    records = _records()
    if data.draw(st.booleans()):  # headers with mutated keys and values
        headers = _mutate(data, [h for h, _ in records])
        if not isinstance(headers, list):
            headers = [headers]
        records = [(h, p) for h, (_, p) in zip(headers, records)]
    blob = bytearray(b"".join(json.dumps(h).encode() + b"\n" + p for h, p in records))
    for pos, byte in data.draw(st.lists(st.tuples(st.integers(0, max(len(blob) - 1, 0)),
                                                  st.integers(0, 255)), max_size=3)):
        blob[pos:pos + 1] = bytes([byte])
    blob = blob[:data.draw(st.integers(0, len(blob)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.stream"
        path.write_bytes(bytes(blob))
        for kind in ("chunk", "tensor"):
            try:
                list(_read_records(path, kind))
            except StreamFormatError:
                pass


GRAPH = apply_passes(build_mha_bsf(MHAParams(batch=1, heads=2, features=4, seq=2)),
                     ["layout", "chunk", "einsum"], n_chunks=2).to_json_dict()


@given(st.data())
def test_graph_loader_raises_only_graph_errors(data):
    d = _mutate(data, copy.deepcopy(GRAPH))
    try:
        Graph.from_json_dict(d)
    except GraphError:
        pass
