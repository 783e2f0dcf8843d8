"""Audit reports, compared byte for byte with a recorded fixture.

The audit tests check what the reports say; these check every byte the
audits write. ``layernorm_audit.json``, ``layernorm_hist.csv`` and
``softmax_audit.json`` (and the exit code) are pinned in
``data/audit_reports.json`` for each pre-normalizer, format and stream
below. The audits make no BLAS call, so the bytes do not depend on the
host. After an intended change to the reports, re-record the fixture with

    PYTHONPATH=src python tests/test_audit_pins.py
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lowprec import cli
from lowprec.streams import write_stream

FIXTURE = Path(__file__).parent / "data" / "audit_reports.json"

FORMATS = ("fp16", "fp32", "custom:7,8", "custom:3,4")
PRENORMS = {"none": ["none"], "mad": ["mad"], "theorem1": ["theorem1"],
            "theorem1-p3": ["theorem1", "--p", "3"]}
REPORTS = ("layernorm_audit.json", "layernorm_hist.csv", "softmax_audit.json")


def _streams():
    """name -> (rows, width) chunks: gaussian with a 10x hot quarter, and two-spike rows."""
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 500.0, (16, 32))
    x[:4] *= 10.0
    spikes = np.zeros((16, 32))
    for i in range(16):
        j, k = rng.choice(32, size=2, replace=False)
        spikes[i, j], spikes[i, k] = -250.0, 250.0
    return {"gaussian": [x[:8], x[8:]], "extremal": [spikes[:8], spikes[8:]]}


def _cases():
    for stream in _streams():
        for fmt in FORMATS:
            for pre, flags in PRENORMS.items():
                yield (f"audit-layernorm/{stream}/{fmt}/{pre}",
                       ["audit-layernorm", f"{stream}.stream", "--format", fmt,
                        "--prenorm", *flags])
            yield (f"audit-softmax/{stream}/{fmt}",
                   ["audit-softmax", f"{stream}.stream", "--format", fmt])


CASES = dict(_cases())


def _audit(argv, workdir: Path) -> dict:
    """Exit code and report texts of one run, streams named relative to ``workdir``."""
    out = workdir / "out"
    for f in out.glob("*"):
        f.unlink()
    cwd = os.getcwd()
    os.chdir(workdir)  # the reports name the stream as given
    try:
        rc = cli.main([*argv, "--out-dir", "out"])
    finally:
        os.chdir(cwd)
    got = {"exit": rc}
    for name in REPORTS:
        if (out / name).exists():
            got[name] = (out / name).read_text()
    return got


def _write_streams(workdir: Path) -> None:
    for name, chunks in _streams().items():
        write_stream(workdir / f"{name}.stream", chunks)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("audits")
    _write_streams(path)
    return path


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_the_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_audit_reports_match_the_fixture(pinned, workdir, case):
    assert _audit(CASES[case], workdir) == pinned[case]


if __name__ == "__main__":  # one case per line, so a diff shows which moved
    with tempfile.TemporaryDirectory() as tmp:
        _write_streams(Path(tmp))
        lines = [json.dumps(case) + ":" + json.dumps(_audit(argv, Path(tmp)),
                                                     sort_keys=True)
                 for case, argv in CASES.items()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
