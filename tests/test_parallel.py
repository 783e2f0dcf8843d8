"""The task runner: results and errors as a sequential loop gives them,
whatever the thread count, and no other module hand-rolls threads."""

import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lowprec import parallel
from lowprec.parallel import ahead, map_in_order, once

SRC = Path(parallel.__file__).resolve().parent


class Draws:
    """An iterator over ``range(n)`` that records its draws and how many
    threads were inside ``__next__`` at once."""

    def __init__(self, n):
        self.tasks = iter(range(n))
        self.drawn, self.inside, self.most_inside = [], 0, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.inside += 1
        self.most_inside = max(self.most_inside, self.inside)
        time.sleep(0.0001)  # lets another thread in if it may
        try:
            task = next(self.tasks)
            self.drawn.append(task)
            return task
        finally:
            self.inside -= 1


def test_results_come_back_in_task_order(cpus):
    threads = set()

    def square(t):
        threads.add(threading.get_ident())
        time.sleep(0.001 * (t % 3))  # later tasks can finish first
        return t * t

    assert map_in_order(square, range(40), 40) == [t * t for t in range(40)]
    assert map_in_order(square, [], 0) == []
    threads.clear()
    assert map_in_order(square, range(2), 2) == [0, 1]
    assert len(threads) <= min(cpus, 2)


def test_an_iterator_is_drawn_in_order_by_one_thread_at_a_time(cpus):
    draws = Draws(60)
    assert map_in_order(lambda t: -t, draws, 60) == [-t for t in range(60)]
    assert draws.drawn == list(range(60)) and draws.most_inside == 1


def test_the_earliest_failing_task_wins(cpus):
    def task(t):
        if t == 3:
            time.sleep(0.05)  # task 5 raises first on two threads or more
            raise ValueError(3)
        if t == 5:
            raise ValueError(5)
        return t

    with pytest.raises(ValueError) as info:
        map_in_order(task, range(20), 20)
    assert info.value.args == (3,)


def test_a_failure_stops_the_draws(cpus):
    raised = threading.Event()

    def task(t):
        if t == 3:
            raised.set()
            raise ValueError(t)
        if t > 3:  # held until task 3 fails, then slower than its thread
            assert raised.wait(timeout=10)
            time.sleep(0.02)

    draws = Draws(100)
    with pytest.raises(ValueError):
        map_in_order(task, draws, 100)
    # tasks 0 to 3, and at most one later task on each other thread
    assert 4 <= len(draws.drawn) <= 3 + min(cpus, 100)


def test_an_interrupt_is_raised_after_every_helper_is_done(cpus):
    started, finished = [], []

    def task(t):
        started.append(t)
        if t == 2:
            raise KeyboardInterrupt
        time.sleep(0.01)
        finished.append(t)

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        map_in_order(task, range(30), 30)
    assert sorted(finished) == sorted(t for t in started if t != 2)
    assert threading.active_count() == before


def test_helpers_keep_the_callers_numpy_error_state(cpus):
    threads = set()

    def divide_mode(_):
        threads.add(threading.get_ident())
        time.sleep(0.005)
        return np.geterr()["divide"]

    with np.errstate(divide="raise"):
        modes = map_in_order(divide_mode, range(16), 16)
    assert modes == ["raise"] * 16
    assert (len(threads) > 1) == (cpus > 1)


def test_once_runs_its_function_on_one_thread_and_keeps_only_a_result(cpus):
    calls = []

    def make():
        calls.append(threading.get_ident())
        time.sleep(0.005)  # other tasks call in meanwhile and must wait
        if len(calls) == 1:
            raise ValueError("the first call fails")
        return object()

    shared = once(make)
    with pytest.raises(ValueError):
        shared()
    got = map_in_order(lambda _: shared(), range(40), 40)
    assert len(calls) == 2 and all(r is got[0] for r in got)


def test_ahead_computes_its_value_once_on_a_helper_thread(cpus):
    calls, started = [], threading.Event()

    def make():
        calls.append(threading.current_thread())
        started.set()
        time.sleep(0.01)  # tasks call in meanwhile and must wait
        return object()

    before = threading.active_count()
    shared = ahead(make)
    assert started.wait(timeout=10)  # running before the first call
    got = map_in_order(lambda _: shared(), range(40), 40)
    assert len(calls) == 1 and calls[0] is not threading.current_thread()
    assert all(r is got[0] for r in got) and shared() is got[0]
    assert not calls[0].is_alive() and threading.active_count() == before


def test_ahead_raises_its_failure_at_the_first_call_and_prints_no_traceback(monkeypatch):
    unhandled, calls = [], []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)

    def make():
        calls.append(threading.current_thread())
        if len(calls) == 1:
            raise ValueError("the draw fails")
        return 7

    shared = ahead(make)
    with pytest.raises(ValueError, match="the draw fails"):
        shared()
    assert not calls[0].is_alive() and unhandled == []
    assert shared() == 7 and calls[1] is threading.current_thread()  # run again, as once's


def test_ahead_runs_under_the_callers_numpy_error_state():
    with np.errstate(divide="raise"):
        shared = ahead(lambda: (threading.current_thread(), np.geterr()["divide"]))
    thread, mode = shared()
    assert mode == "raise" and thread is not threading.current_thread()
    assert not thread.is_alive()


def test_only_the_runner_starts_threads_or_takes_locks():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "parallel.py":
            continue
        text = path.read_text()
        for name in ("threading.Thread", "threading.Lock", "from threading"):
            assert name not in text, (path.name, name)
