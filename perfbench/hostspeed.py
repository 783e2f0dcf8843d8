"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the same code runs up to 1.5-2x slower for seconds to
minutes at a time, on every core at once. Timing only the program cannot
tell such a phase from a slower program. The worker therefore times this
reference right after set-up, before the first job and after every job; it
uses numpy and the interpreter but no lowprec code, so a change to the
program does not change it. A job's host factor is the mean of the two
reference times around it over the nominal one, and the benchmark divides
the job's time by it: timings are reported at nominal host speed.

The reference mixes, in roughly equal parts, the kinds of work the
workloads do: interpreted Python calls, numpy calls on small arrays
(per-call overhead), numpy on 4 MiB arrays (memory traffic), a BLAS matrix
product, and page faults on fresh memory. The last comes from an anonymous
mapping of its own, so it does not depend on what the program left in the
allocator.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

# Median of reference() on the host the benchmark was tuned on (2-vCPU
# Xeon KVM guest, Python 3.11, numpy 2.4). It only sets the scale of the
# normalised timings; comparisons between two versions of the program
# measured on one host do not depend on it.
NOMINAL_S = 0.040

PAGE = mmap.PAGESIZE
_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(64, 512))
_LARGE = _rng.normal(size=(1024, 512))
_SQUARE = _rng.normal(size=(256, 256))


def _step(i: int) -> int:
    return (i * 3 + 1) & 7


def _interpreter() -> int:
    total = 0
    for i in range(65_000):
        total += _step(i)
    return total


def _small_arrays() -> float:
    total = 0.0
    for _ in range(25):
        y = np.abs(_SMALL) * 2.0
        total += float(np.where(y > 1.0, y, 0.0).sum())
    return total


def _large_arrays() -> float:
    y = np.maximum(_LARGE * 1.5 + 1.0, 0.0)
    return float(np.rint(y).sum())


def _matmul() -> float:
    y = _SQUARE
    for _ in range(12):
        y = _SQUARE @ y / 256.0
    return float(y[0, 0])


def _page_faults() -> int:
    with mmap.mmap(-1, 8 << 20) as buf:
        pages = np.frombuffer(buf, dtype=np.uint8)[::PAGE]
        pages[:] = 1
        total = int(pages.sum())
        del pages  # the mapping cannot close while a view exports it
    return total


def reference() -> float:
    """Run the reference once and return its wall time in seconds."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    _large_arrays()
    _matmul()
    _page_faults()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Host slowdown against nominal speed, from reference() wall times."""
    return statistics.median(samples) / NOMINAL_S


def bracket_factors(samples: list[float]) -> list[float]:
    """Per-job host factors from the reference times taken before the first
    job and after every job: job i lies between samples i and i + 1."""
    return [(a + b) / (2 * NOMINAL_S) for a, b in zip(samples, samples[1:])]
