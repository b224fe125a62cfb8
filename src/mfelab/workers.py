"""Forked workers that share one table with the calling process.

``forked`` is the package's one process layer.  Its callers are the
spectrum scan's point groups (``linearization._scan_rows``), verify's
doubled-mesh continuation (``cli.cmd_verify``) and the upper root of a
fold pair (``radial_solver.find_fold_pair``).  A worker's result counts
only once the worker marks it done in the table.  Each caller then
computes in its own process, with the code a worker would have run,
whatever is not marked, so a worker that raised, one that died and a fork
that failed all end as the serial computation would, exception included.

While workers run, every OpenBLAS the process has mapped is held to one
thread, in the workers and the calling process alike.  A pinned worker
whose OpenBLAS kept its default count would spin those threads on its one
CPU, and its dense BLAS work would run slower than the serial run's.  The
tests compare the outputs of the forked and serial paths byte for byte.
"""

from __future__ import annotations

import mmap
import os
import signal
import warnings
from contextlib import contextmanager

import numpy as np

#: thread-count getter and setter of the OpenBLAS builds numpy and scipy
#: ship (64-bit and 32-bit integers), then of plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _worker_cpus(processes: int) -> list:
    """The CPUs of the forked workers when ``processes`` processes share a job.

    The job runs on W = min(processes, number of usable CPUs) processes:
    the caller and W - 1 forked workers (none where ``os.fork`` or
    ``os.sched_getaffinity`` does not exist).  Each worker gets a CPU of
    its own, other than the caller's: where the scheduler does not balance
    load across CPUs, a forked child would stay on its parent's CPU and
    the two would share it.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    allowed = sorted(os.sched_getaffinity(0))
    here = _current_cpu()
    others = [cpu for cpu in allowed if cpu != here]
    return others[: min(processes, len(allowed)) - 1]


def _openblas_threads() -> list:
    """(get, set) thread-count functions of every OpenBLAS the process has mapped.

    The libraries are found by name in /proc/self/maps and their functions
    by symbol; without the file the list is empty.  ``ctypes`` is imported
    here, so that only a command that may fork pays for it.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


@contextmanager
def forked(size: int, work, processes: int = 2):
    """Run ``work`` in forked workers while the with-block runs here.

    Yields ``(table, W)``.  ``table`` is a zero-filled float64 array of
    ``size`` entries in one anonymous shared mapping.  W - 1 workers are
    forked, W from ``_worker_cpus(processes)``; worker i (1 <= i < W),
    pinned to a CPU of its own, calls ``work(table, i, W)`` and leaves
    through ``os._exit``, so it flushes no inherited buffer, runs no exit
    hook and drops any exception.  The with-block is share 0.  Leaving it
    reaps the workers; when it raises, they are killed and reaped first.
    W is 1, and nothing forks, where ``_worker_cpus`` finds no spare CPU or
    the process maps no OpenBLAS whose threads can be set.  A fork that
    fails with ``OSError`` is skipped, and so is a pinning call that fails,
    since the CPU is only a placement hint.

    A Python >= 3.12 interpreter warns that a process with threads
    (OpenBLAS's) forks.  The warning comes after the child exists, so a
    filter that turned it into an error would lose the child, and it is
    silenced around the fork.
    """
    table = np.frombuffer(mmap.mmap(-1, 8 * size))
    cpus = _worker_cpus(processes)
    blas = _openblas_threads() if cpus else []
    if not blas:
        cpus = []
    counts = [get() for get, _ in blas]
    workers = 1 + len(cpus)
    pids = []  # the workers not yet reaped
    try:
        for _, set_ in blas:
            set_(1)
        for rank, cpu in enumerate(cpus, 1):
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                continue  # the caller computes this worker's share itself
            if pid == 0:
                try:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except OSError:
                        pass
                    work(table, rank, workers)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield table, workers
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
    finally:
        # workers are left here only when the with-block raised
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for (_, set_), count in zip(blas, counts):
            set_(count)
