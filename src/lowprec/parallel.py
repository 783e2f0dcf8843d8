"""One job's tasks on every CPU the process may use.

``on_every_cpu`` runs a ``work`` function on the calling thread and on one
helper thread per further usable CPU. ``work`` takes tasks from a queue its
caller keeps until none is left, so the caller fixes what each task
computes, and no result bit depends on the CPU count. numpy releases the
GIL in BLAS calls and in einsum, so the threads run at the same time.
"""

from __future__ import annotations

import contextvars
import os
import threading


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def on_every_cpu(work, n_tasks: int, stop=None) -> None:
    """Run ``work()`` on the calling thread and on helper threads: one
    thread per usable CPU, at most ``n_tasks`` in all.

    Each helper runs in a copy of the caller's context, so it keeps the
    caller's numpy error state: since numpy 2, ``np.errstate`` is a context
    variable, which a new thread does not inherit. Once the caller's
    ``work`` returns or raises, ``stop()`` runs if given, so that after an
    interrupt the helpers take no further task, and every helper is
    joined. The first exception a helper raised is then raised here.
    """
    errors = []

    def helper(context):
        try:
            context.run(work)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=helper, args=(contextvars.copy_context(),))
               for _ in range(min(n_tasks, usable_cpus()) - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        if stop is not None:
            stop()
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
