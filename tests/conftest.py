import ctypes
import sys
import tracemalloc

import hypothesis
import pytest

from lowprec import parallel

hypothesis.settings.register_profile("repo", deadline=None, max_examples=200)
hypothesis.settings.load_profile("repo")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture()
def acceptance():
    """Record one pass/fail line per acceptance criterion, then assert it."""

    def emit(ok: bool, line: str) -> None:
        msg = ("PASS " if ok else "FAIL ") + line
        ACCEPTANCE_LINES.append(msg)
        print(msg)
        assert ok, line

    return emit


@pytest.fixture()
def traced_peak():
    """Peak bytes numpy and Python allocate while ``fn()`` runs."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(params=[1, 2, 8], ids=lambda c: f"{c}cpu")
def cpus(request, monkeypatch):
    """CPU count the threaded paths see; 8 oversubscribes a small machine's
    cores. Parametrize it indirectly to pick other counts."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    yield request.param
    sys.setswitchinterval(interval)


def _openblas_thread_calls():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # not on every platform
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@pytest.fixture()
def one_blas_thread():
    """BLAS runs each call on one thread, as the benchmark pins it. A
    multithreaded BLAS splits one call's product itself, differently from
    the same product in column panels, so bit comparisons of the two hold
    only at one thread."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    yield
    put(before)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
