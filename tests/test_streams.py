"""Round trips and failure diagnostics for the stream/tensor file formats."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from lowprec.streams import (
    StreamFormatError,
    atomic_write,
    read_stream,
    read_tensors,
    write_stream,
    write_tensors,
)


def test_binary_round_trip(tmp_path):
    chunks = [
        np.arange(12.0).reshape(3, 4),
        np.ones((2, 4)) * 0.5,
        np.array([[65504.0, -65504.0, 1e-7, 0.0]]),
    ]
    path = tmp_path / "acts.bin"
    write_stream(path, chunks)
    back = read_stream(path)
    assert len(back) == 3
    for a, b in zip(chunks, back):
        np.testing.assert_array_equal(a, b)
        assert b.dtype == np.float64
    as_csv = tmp_path / "acts.csv"  # the suffix does not pick another layout
    write_stream(as_csv, chunks)
    assert as_csv.read_bytes() == path.read_bytes()


def test_binary_supports_higher_rank_chunks(tmp_path):
    chunks = [np.random.default_rng(0).normal(size=(2, 3, 5, 7))]
    path = tmp_path / "acts.bin"
    write_stream(path, chunks)
    np.testing.assert_array_equal(read_stream(path)[0], chunks[0])


def test_truncated_binary_payload(tmp_path):
    path = tmp_path / "acts.bin"
    write_stream(path, [np.ones((4, 4))])
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(StreamFormatError, match="truncated"):
        read_stream(path)


def test_payload_cut_after_the_size_check(tmp_path, monkeypatch):
    # the file shrinks between the size check and the read
    path = tmp_path / "acts.bin"
    write_stream(path, [np.ones((4, 4))])
    path.write_bytes(path.read_bytes()[:-16])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=1 << 20))
    with pytest.raises(StreamFormatError, match=r"acts\.bin: record 0: truncated"):
        read_stream(path)


def test_garbage_header(tmp_path):
    path = tmp_path / "acts.bin"
    path.write_bytes(b"{not json\n")
    with pytest.raises(StreamFormatError, match="bad header"):
        read_stream(path)
    path.write_bytes(b"\x80\x01\n")  # not even text
    with pytest.raises(StreamFormatError, match="record 0: bad header"):
        read_stream(path)
    path.write_bytes(b"5\n")  # valid JSON, but not a header object
    with pytest.raises(StreamFormatError, match="header missing"):
        read_tensors(path)


def test_missing_and_empty_files(tmp_path):
    with pytest.raises(StreamFormatError):
        read_stream(tmp_path / "nope.bin")
    with pytest.raises(StreamFormatError, match=r"nope\.bin: No such file"):
        read_tensors(tmp_path / "nope.bin")
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    with pytest.raises(StreamFormatError):
        read_stream(empty)


def test_out_of_order_chunks_are_rejected(tmp_path):
    path = tmp_path / "acts.bin"
    arr = np.zeros(2)
    header = b'{"chunk":5,"dtype":"<f8","shape":[2]}\n'
    path.write_bytes(header + arr.tobytes())
    with pytest.raises(StreamFormatError, match="labelled 5"):
        read_stream(path)


def test_writes_are_byte_deterministic(tmp_path):
    chunks = [np.linspace(0, 1, 7).reshape(1, 7)]
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_stream(a, chunks)
    write_stream(b, chunks)
    assert a.read_bytes() == b.read_bytes()


def test_rewrite_replaces_whole_file(tmp_path):
    path = tmp_path / "acts.bin"
    write_stream(path, [np.ones((8, 8))])
    write_stream(path, [np.zeros((1, 2))])
    back = read_stream(path)
    assert len(back) == 1 and back[0].shape == (1, 2)


def test_a_failed_write_leaves_neither_temp_file_nor_target(tmp_path):
    target = tmp_path / "out" / "report.json"
    with pytest.raises(RuntimeError, match="writer failed"):
        with atomic_write(target, "w") as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert list(target.parent.iterdir()) == []


def test_named_tensors_round_trip(tmp_path):
    tensors = {
        "conv0.weight": np.random.default_rng(1).normal(size=(4, 1, 3, 3)),
        "conv0.bias": np.zeros(4),
        "out.weight": np.eye(3),
    }
    path = tmp_path / "weights.bin"
    write_tensors(path, tensors)
    back = read_tensors(path)
    assert list(back) == list(tensors)  # order preserved
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])


def test_tensor_file_is_not_a_stream(tmp_path):
    path = tmp_path / "weights.bin"
    write_tensors(path, {"w": np.ones(3)})
    with pytest.raises(StreamFormatError, match="missing 'chunk'"):
        read_stream(path)


def test_header_claiming_more_than_the_file_holds(tmp_path):
    path = tmp_path / "huge.bin"
    path.write_bytes(b'{"chunk":0,"dtype":"<f8","shape":[100000000000]}\n'
                     + np.zeros(4).tobytes())
    with pytest.raises(StreamFormatError, match=r"huge\.bin: record 0: truncated"):
        read_stream(path)


@pytest.mark.parametrize("dtype, shape", [("|O", [2]), ("xyz", [2]),
                                          ("<f8", [-2]), ("<f8", "ab"),
                                          ("<f8", "12"), ("<f8", [2.7, 1]),
                                          ("<f8", [True, 2]), ("<f8", ["3", "1"])])
def test_bad_dtype_or_shape_names_the_record(tmp_path, dtype, shape):
    path = tmp_path / "acts.bin"
    arr = np.zeros(2)
    write_stream(path, [arr])
    meta = json.dumps({"chunk": 1, "dtype": dtype, "shape": shape})
    path.write_bytes(path.read_bytes() + meta.encode() + b"\n" + arr.tobytes())
    with pytest.raises(StreamFormatError, match="record 1: bad dtype"):
        read_stream(path)
