"""Suite-wide guards."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped.

    The package forks its workers itself (``mfelab.workers.shared``); a
    worker left running or unreaped after a command is a leak.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process ({'running' if pid == 0 else f'pid {pid} unreaped'})")
