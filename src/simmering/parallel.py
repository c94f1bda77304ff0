"""Independent jobs on every usable core, results in job order, and one helper.

This module starts every process the package starts.  :func:`map_in_order`
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

A :class:`Helper` is one forked process that answers a caller's requests
in order while the caller goes on: work that would otherwise run inline
on one core while a second idles.  The caller takes one only where
:func:`helper_free` sees a core for it, which is never inside a worker.
It starts as a worker does (interrupts ignored, killed with its parent,
no worker or helper of its own), reports an error as a worker does, and
never outlives :meth:`Helper.close`.  Requests and answers are a few
bytes each; bulk data goes through memory both processes see, an
anonymous shared ``mmap`` made before the fork.
"""

from __future__ import annotations

import os
import pickle

_in_worker = False  # set in each worker: a map inside one runs inline
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
        try:
            answer = _receive(self._answers)
        except EOFError:
            raise RuntimeError(f"helper exited with code {self._reap()}") from None
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
        except Exception as exc:
            _send(answers, pickle.dumps(_failure(exc)))
            return
        # the common answer, None, is an empty message
        _send(answers, b"" if value is None else pickle.dumps((True, value, None)))


def _send(fd: int, message: bytes):
    """Write ``message`` to the pipe ``fd``, after its length."""
    data = memoryview(len(message).to_bytes(4, "little") + message)
    while data:
        data = data[os.write(fd, data) :]


def _receive(fd: int) -> bytes:
    """The next message :func:`_send` wrote to the pipe ``fd``."""
    return _read(fd, int.from_bytes(_read(fd, 4), "little"))


def _read(fd: int, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = os.read(fd, n - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _work(fn, items, first: int, step: int, parent: int, writer):
    _enter_worker(parent)
    for index in range(first, len(items), step):
        try:
            writer.send((True, fn(items[index]), None))
        except Exception as exc:
            writer.send(_failure(exc))
            return


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
