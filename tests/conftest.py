import tracemalloc

import hypothesis
import pytest

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


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
