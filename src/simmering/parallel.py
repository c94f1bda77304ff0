"""Independent jobs on every usable core, results in job order, and one helper.

This module starts every process the package starts, all of one kind: a
:class:`Helper`, forked in ``Helper.__init__`` (the package's one
``fork``), which answers its caller's requests in order while the caller
goes on.  Requests and answers are messages after an 8-byte length, one
pipe each way, so an answer has no size limit.  A helper ignores
interrupts, dies with its parent, starts no process of its own, reports
an error as the answer to the request that raised it, and never outlives
:meth:`Helper.close`.  It ends by ``os._exit``: a normal exit would flush
a second time what the buffers of its inherited files (a run's member
file) held at the fork.  Alone, a helper takes the core that
:func:`helper_free` sees free, never inside a worker; its requests and
answers are a few bytes, and bulk data goes through an anonymous shared
``mmap`` made before the fork.

:func:`map_in_order` runs ``fn`` over a sequence on helpers, its
workers, one per usable core and at most one per item, and returns the
results in item order.  With one item or one usable core, and inside a
worker, it calls ``fn`` inline instead, so a single-core machine runs
the same code as a plain loop.  Workers inherit ``fn`` and ``items``
through ``fork``; neither is pickled, so a large in-memory ensemble
costs nothing to hand over (``spawn`` would pickle it or read it again).
The callers are single-threaded CLI stages, which ``fork`` needs.
Worker ``k`` of ``n`` is sent the indices ``k, k + n, k + 2n, ...`` and
looks each item up itself, so a sequence that loads its items on demand
loads each one in the worker that uses it.  Only results come back,
pickled.  A worker holds at most ``_IN_FLIGHT`` indices, sent before it
asks, so it runs its stride without waiting on a slower sibling (a
stage's jobs are far fewer).  No more: a worker blocked on an answer the
parent has not read reads no requests, and its unread requests (16
bytes each) must fit the smallest pipe (4 KiB) so that the parent's
``send`` never blocks.

Errors surface as a serial loop raises them: the parent reads results in
item order, so the exception it re-raises is the first failing item's,
after every item before it has succeeded.  No worker outlives the call,
whether it returns, raises or is interrupted.
"""

from __future__ import annotations

import os
import pickle

_in_worker = False  # set in each helper: a map inside one runs inline
_IN_FLIGHT = 128  # requests a map_in_order worker holds: 2 KiB of pipe
_PR_SET_PDEATHSIG = 1


class WorkerTraceback(Exception):
    """Where a worker's (or a helper's) error was raised: its traceback, as text."""

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

    def serve(request):
        return fn(items[int.from_bytes(request, "little")])

    def ask(index):
        if index < n_items:
            workers[index % n_workers].send(index.to_bytes(8, "little"))

    workers = []
    try:
        for _ in range(n_workers):
            workers.append(Helper(serve))
        ahead = _IN_FLIGHT * n_workers
        for index in range(ahead):
            ask(index)
        results = []
        for index in range(n_items):
            results.append(workers[index % n_workers]._receive(f"worker for item {index}"))
            ask(index + ahead)
        return results
    finally:
        for worker in workers:
            worker.close()


def helper_free() -> bool:
    """Whether a :class:`Helper` would have a core to itself: at least two
    usable cores, and this process is no worker (its siblings hold them)."""
    return usable_cores() >= 2 and not _in_worker


class Helper:
    """One forked process that answers requests in order while its caller goes on.

    In the helper, ``serve(request)`` answers each ``request`` (bytes)
    sent with :meth:`send`; :meth:`receive` returns the answers in request
    order, each None or the object ``serve`` returned.  An error out of
    ``serve`` ends the helper and is raised by the :meth:`receive` of its
    request, as :func:`map_in_order` raises a worker's.  ``serve`` and
    whatever it reads are inherited through ``fork``.  :meth:`close` stops
    the helper wherever it is and reaps it.
    """

    def __init__(self, serve):
        parent = os.getpid()
        requests, self._requests = os.pipe()
        self._answers, answers = os.pipe()
        self._pid = os.fork()
        if not self._pid:  # the helper; it never returns from here
            # it ends by os._exit, never by a normal exit: it inherits its
            # caller's open files (a run's member file among them), and a
            # normal exit would flush what their buffers held at the fork
            # a second time
            code = 1
            try:
                os.close(self._requests)
                os.close(self._answers)
                _enter_worker(parent)
                _help(serve, requests, answers)
                code = 0
            finally:
                os._exit(code)
        os.close(requests)
        os.close(answers)

    def send(self, request: bytes):
        try:
            _send(self._requests, request)
        except BrokenPipeError:  # the helper has stopped; receive says why
            pass

    def receive(self):
        return self._receive("helper")

    def _receive(self, name: str):
        """The next answer; an error names the helper ``name`` if it has died."""
        try:
            answer = _receive(self._answers)
        except EOFError:
            raise RuntimeError(f"{name} exited with code {self._reap()}") from None
        if not answer:
            return None
        ok, value, where = pickle.loads(answer)
        if not ok:
            raise value from WorkerTraceback(where)
        return value

    def close(self):
        import signal

        if self._pid:
            os.kill(self._pid, signal.SIGTERM)
            self._reap()
        os.close(self._requests)
        os.close(self._answers)

    def _reap(self) -> int:
        """Wait for the helper to end; its exit code (minus the signal that ended it)."""
        pid, self._pid = self._pid, 0
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else 0


def _help(serve, requests: int, answers: int):
    while True:
        request = _receive(requests)
        try:
            value = serve(request)
            # the common answer, None, is an empty message; a value that
            # cannot be pickled fails here, as the error of its request
            answer = b"" if value is None else pickle.dumps((True, value, None))
        except Exception as exc:
            _send(answers, pickle.dumps(_failure(exc)))
            return
        _send(answers, answer)


def _send(fd: int, message: bytes):
    """Write ``message`` to the pipe ``fd``, after its length."""
    data = memoryview(len(message).to_bytes(8, "little") + message)
    while data:
        data = data[os.write(fd, data) :]


def _receive(fd: int) -> bytearray:
    """The next message :func:`_send` wrote to the pipe ``fd``."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _read(fd: int, n: int) -> bytearray:
    data = bytearray(n)
    view = memoryview(data)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError
        view = view[got:]
    return data


def _enter_worker(parent: int):
    """The start of every forked process: its ``map_in_order`` calls run
    inline, an interrupt is left to the parent, which stops its children,
    and the process dies with its parent."""
    import ctypes
    import signal

    global _in_worker
    _in_worker = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # not Linux: no parent-death signal
        pass
    if os.getppid() != parent:  # the parent died before the signal was set
        os._exit(1)


def _failure(exc: Exception) -> tuple:
    """What a forked process sends for an error: ``(False, error, traceback text)``."""
    import traceback

    return False, _portable(exc), traceback.format_exc()


def _portable(exc: Exception) -> Exception:
    """``exc``, or a stand-in with its text if the parent could not unpickle it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
