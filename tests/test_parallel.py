"""map_in_order: results in item order, errors as a serial loop raises them,
and no worker left behind."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from collections.abc import Sequence

import pytest

from simmering import parallel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def square_and_pid(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("cores", [2, 3, 8])
def test_results_come_back_in_item_order_from_workers(use_cores, forks, cores):
    use_cores(cores)
    results = parallel.map_in_order(square_and_pid, range(7))
    assert [value for value, _ in results] == [x * x for x in range(7)]
    assert len(forks) == min(cores, 7)
    assert {pid for _, pid in results} == set(forks)
    assert multiprocessing.active_children() == []


def test_one_job_or_one_core_runs_inline(use_cores, forks):
    use_cores(4)
    assert parallel.map_in_order(square_and_pid, [3]) == [(9, os.getpid())]
    assert parallel.map_in_order(square_and_pid, []) == []
    use_cores(1)
    assert parallel.map_in_order(square_and_pid, range(5)) == [
        (x * x, os.getpid()) for x in range(5)
    ]
    assert forks == []


def test_a_map_inside_a_worker_runs_inline(use_cores):
    use_cores(2)

    def inner(x):
        return parallel.map_in_order(square_and_pid, [x, x + 1])

    outer = parallel.map_in_order(inner, [0, 10])
    for (a, a_pid), (b, b_pid) in outer:
        assert a_pid == b_pid != os.getpid()
    assert [(a, b) for (a, _), (b, _) in outer] == [(0, 1), (100, 121)]


class LoadedWhereLookedUp(Sequence):
    """Items that record which process looked them up."""

    def __len__(self):
        return 4

    def __getitem__(self, i):
        if not 0 <= i < 4:
            raise IndexError(i)
        return i, os.getpid()


def test_items_are_looked_up_in_the_worker(use_cores):
    use_cores(2)
    results = parallel.map_in_order(lambda item: (item, os.getpid()), LoadedWhereLookedUp())
    for (i, looked_up_in), ran_in in results:
        assert looked_up_in == ran_in != os.getpid()
    assert [i for (i, _), _ in results] == [0, 1, 2, 3]


def fail_on(bad):
    def fn(x):
        if x in bad:
            raise ArithmeticError(f"item {x} failed")
        return x

    return fn


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_first_failing_item_is_raised(use_cores, cores):
    use_cores(cores)
    # item 3 sits in a worker that may finish before item 1's
    with pytest.raises(ArithmeticError, match=r"^item 1 failed$") as info:
        parallel.map_in_order(fail_on({1, 3}), range(6))
    if cores > 1:
        assert isinstance(info.value.__cause__, parallel.WorkerTraceback)
        assert "item 1 failed" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_an_error_the_parent_cannot_unpickle_keeps_its_text(use_cores):
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(Unpicklable(1, 2)))

    def fn(x):
        if x == 2:
            raise Unpicklable(x, "two")
        return x

    use_cores(2)
    with pytest.raises(RuntimeError, match=r"^Unpicklable: 2/two$"):
        parallel.map_in_order(fn, range(4))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_an_error(use_cores):
    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    use_cores(2)
    with pytest.raises(RuntimeError, match="worker for item 1 exited with code 3"):
        parallel.map_in_order(fn, range(4))
    assert multiprocessing.active_children() == []


def test_a_failure_stops_workers_still_running(use_cores):
    def fn(x):
        if x == 0:
            raise ArithmeticError("first")
        time.sleep(60)

    use_cores(2)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="first"):
        parallel.map_in_order(fn, range(2))
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


WAITER = """
import os, sys, time
from simmering import parallel

def wait(i):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

parallel.map_in_order(wait, range(2))
"""


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or parallel.usable_cores() < 2,
    reason="needs Linux and two usable cores",
)
def test_workers_die_with_their_parent(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    parent = subprocess.Popen([sys.executable, "-c", WAITER, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(name) for name in os.listdir(tmp_path)]
        assert len(workers) == 2
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
    deadline = time.monotonic() + 10
    while any(running(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(running(pid) for pid in workers)
