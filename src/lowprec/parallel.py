"""One job's tasks on every CPU the process may use.

``map_in_order(fn, tasks, n_tasks)`` gives ``[fn(t) for t in tasks]``, with
the tasks run on the calling thread and on one helper thread per further
usable CPU. The caller fixes what each task computes, so no result bit
depends on the CPU count. numpy releases the GIL in BLAS calls and in
einsum, so the threads run at the same time. ``once(fn)`` lets the tasks
share one value that the first task to need it computes, and ``ahead(fn)``
one value that a helper thread starts computing at once.
"""

from __future__ import annotations

import contextvars
import os
import threading

_END = object()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def once(fn):
    """A function of no arguments that returns ``fn()``, calling ``fn`` on
    its first call only.

    Calls take one lock, so ``fn`` runs on one thread at a time, and a call
    made while it runs waits for its result. If ``fn`` raises, nothing is
    kept and the next call runs it again.
    """
    lock = threading.Lock()
    kept: list = []

    def call():
        with lock:
            if not kept:
                kept.append(fn())
            return kept[0]

    return call


def ahead(fn):
    """``once(fn)``, with ``fn`` started at once on a helper thread.

    The helper runs in a copy of the caller's context, so ``fn`` keeps the
    caller's numpy error state (see ``map_in_order``). The first call waits
    for the helper to end, then returns ``fn``'s value or raises what it
    raised, so no traceback is printed for the thread. As with ``once``, a
    failure keeps nothing, and a later call runs ``fn`` again, on its own
    thread.
    """
    got: list = []  # (value, exception) once the helper is done

    def run():
        try:
            got.append((fn(), None))
        except BaseException as exc:  # raised by the first call, on its thread
            got.append((None, exc))

    helper = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    helper.start()

    def call():
        helper.join()
        if not got:  # the helper's value or failure went to an earlier call
            return fn()
        value, exc = got.pop()
        if exc is not None:
            raise exc
        return value

    return once(call)


def map_in_order(fn, tasks, n_tasks: int) -> list:
    """``[fn(t) for t in tasks]`` on one thread per usable CPU, at most
    ``n_tasks`` threads in all.

    Each thread draws the next task under one lock, so an iterator is
    advanced in task order and by one thread at a time, and each thread
    holds one task at a time. A task that raises (or fails to be drawn)
    stops further draws, as does an interrupt on the calling thread. Once
    every thread has finished the task it holds, the exception of the
    earliest task that raised is raised here; so results and errors do not
    depend on the thread count. Helpers run in a copy of the caller's
    context, so they keep the caller's numpy error state: since numpy 2,
    ``np.errstate`` is a context variable, which a new thread does not
    inherit.
    """
    tasks = iter(tasks)
    lock = threading.Lock()
    results: list = []  # one slot per task drawn, in task order
    errors: dict = {}   # task index -> what drawing or running it raised
    stop = False

    def work():
        nonlocal stop
        while True:
            with lock:
                if stop:
                    return
                k = len(results)
                try:
                    task = next(tasks, _END)
                except BaseException as exc:  # re-raised below, as task k's
                    errors[k], stop = exc, True
                    return
                if task is _END:
                    stop = True
                    return
                results.append(None)
            try:
                results[k] = fn(task)
            except BaseException as exc:  # re-raised below, after the joins
                errors[k], stop = exc, True
                return

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(min(n_tasks, usable_cpus()) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:  # an interrupt lets each helper finish only the task it holds
        stop = True
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
