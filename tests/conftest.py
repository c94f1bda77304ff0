"""Fixtures shared by the tests that run work on worker processes."""

import os

import pytest


@pytest.fixture
def use_cores(monkeypatch):
    """``use_cores(n)`` makes the process look as if it may run on ``n`` cores."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked while the test runs."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started
