"""Independent jobs on every usable core, results in job order.

:func:`map_in_order` is the one place the package starts processes.  It
runs ``fn`` over a sequence on forked workers, one per usable core and at
most one per item, and returns the results in item order.  With one item
or one usable core, and inside a worker, it calls ``fn`` inline instead,
so a single-core machine runs the same code as a plain loop.

Workers inherit ``fn`` and ``items`` through ``fork``; neither is pickled,
so a large in-memory ensemble costs nothing to hand over (``spawn`` would
pickle it or read it again).  The callers are single-threaded CLI stages,
which ``fork`` needs.  Worker ``k`` of
``n`` takes items ``k, k + n, k + 2n, ...`` and looks each one up itself,
so a sequence that loads its items on demand loads each one in the worker
that uses it.  Only results come back, pickled, one pipe per worker.

Errors surface as a serial loop raises them: the parent reads results in
item order, so the exception it re-raises is the first failing item's,
after every item before it has succeeded.  No worker outlives the call,
whether it returns, raises or is interrupted, and a worker whose parent
dies is killed with it.
"""

from __future__ import annotations

import os
import pickle

_in_worker = False  # set in each worker: a map inside one runs inline
_PR_SET_PDEATHSIG = 1


class WorkerTraceback(Exception):
    """Where a worker's error was raised: its traceback, as text."""

    def __str__(self):
        return self.args[0]


def usable_cores() -> int:
    """Cores this process may run on (1 where the OS cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, spread over worker processes."""
    n_items = len(items)
    n_workers = min(n_items, usable_cores())
    if n_workers < 2 or _in_worker:
        # looked up by index, as a worker does: no loop variable keeps the
        # last item (say, a bundle read on demand) alive while the next loads
        return [fn(items[index]) for index in range(n_items)]
    import multiprocessing  # imported here, so the inline path costs nothing

    context = multiprocessing.get_context("fork")
    workers = []
    finished = False
    try:
        for k in range(n_workers):
            reader, writer = context.Pipe(duplex=False)
            # a forked Process gets its arguments by inheritance, unpickled
            worker = context.Process(
                target=_work, args=(fn, items, k, n_workers, os.getpid(), writer), daemon=True
            )
            worker.start()
            writer.close()  # the worker holds the only write end
            workers.append((worker, reader))
        results = []
        for index in range(n_items):
            worker, reader = workers[index % n_workers]
            try:
                ok, value, where = reader.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"worker for item {index} exited with code {worker.exitcode}"
                ) from None
            if not ok:
                raise value from WorkerTraceback(where)
            results.append(value)
        finished = True
        return results
    finally:
        for worker, reader in workers:
            if not finished:
                worker.terminate()
            worker.join()
            reader.close()


def _work(fn, items, first: int, step: int, parent: int, writer):
    import ctypes
    import signal
    import traceback

    global _in_worker
    _in_worker = True
    # an interrupt is the parent's to handle: it terminates the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # not Linux: no parent-death signal
        pass
    if os.getppid() != parent:  # the parent died before the signal was set
        os._exit(1)
    for index in range(first, len(items), step):
        try:
            writer.send((True, fn(items[index]), None))
        except Exception as exc:
            writer.send((False, _portable(exc), traceback.format_exc()))
            return


def _portable(exc: Exception) -> Exception:
    """``exc``, or a stand-in with its text if the parent could not unpickle it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
