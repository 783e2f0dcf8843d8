"""Chunked activation streams and named-tensor files.

The binary layout is one JSON header line per record followed by the raw
row-major payload, repeated until end of file. Headers carry dtype and
shape, so files are self-describing and byte-stable for fixed inputs. All
writes go through a temp file and a rename so readers never observe partial
output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np


class StreamFormatError(Exception):
    """Malformed stream or tensor file; message carries file context."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _header(kind: str, index, array: np.ndarray) -> bytes:
    meta = {kind: index, "dtype": array.dtype.str, "shape": list(array.shape)}
    return (json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _read_records(path, kind: str):
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise StreamFormatError(f"{path}: {exc.strerror}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        index = 0
        while True:
            line = fh.readline()
            if not line:
                return
            try:
                meta = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StreamFormatError(
                    f"{path}: record {index}: bad header line: {exc}"
                ) from None
            for key in (kind, "dtype", "shape"):
                if not isinstance(meta, dict) or key not in meta:
                    raise StreamFormatError(
                        f"{path}: record {index}: header missing {key!r}"
                    )
            try:
                dtype = np.dtype(meta["dtype"])
                shape = tuple(int(d) for d in meta["shape"])
                ok = dtype.kind in "biuf" and min(shape, default=0) >= 0  # real numbers
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise StreamFormatError(
                    f"{path}: record {index}: bad dtype {meta['dtype']!r} "
                    f"or shape {meta['shape']!r}"
                )
            # checked before reading: a header may not claim more than the file holds
            nbytes = dtype.itemsize * math.prod(shape)
            left = size - fh.tell()
            if nbytes > left:
                raise StreamFormatError(
                    f"{path}: record {index}: truncated payload "
                    f"(wanted {nbytes} bytes, {left} left in the file)"
                )
            buf = np.empty(nbytes, dtype=np.uint8)  # read in place, no second copy
            if fh.readinto(buf) != nbytes:
                raise StreamFormatError(f"{path}: record {index}: truncated payload")
            yield meta[kind], buf.view(dtype).reshape(shape)
            index += 1


def write_stream(path, chunks) -> None:
    """Write a sequence of arrays as header+payload records."""
    with atomic_write(path) as fh:
        for i, chunk in enumerate(chunks):
            arr = np.ascontiguousarray(chunk)
            fh.write(_header("chunk", i, arr))
            fh.write(arr.tobytes())


def read_stream(path) -> list[np.ndarray]:
    """Read a chunked stream written by :func:`write_stream`."""
    path = Path(path)
    chunks = []
    for i, (index, arr) in enumerate(_read_records(path, "chunk")):
        if index != i:
            raise StreamFormatError(f"{path}: chunk {i} labelled {index}")
        chunks.append(arr)
    if not chunks:
        raise StreamFormatError(f"{path}: empty stream")
    return chunks


def write_tensors(path, tensors: dict) -> None:
    """Write named arrays (weights and the like) in the header+payload layout."""
    with atomic_write(path) as fh:
        for name, value in tensors.items():
            arr = np.ascontiguousarray(value)
            fh.write(_header("tensor", name, arr))
            fh.write(arr.tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    out = {}
    for name, arr in _read_records(path, "tensor"):
        out[str(name)] = arr
    return out
