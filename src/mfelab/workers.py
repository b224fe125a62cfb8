"""Forked workers that fill one shared table with the calling process.

``shared`` is the package's one process layer.  Its callers are the
continuation's cold-started points (a row per point,
``radial_solver.continue_branch``), the spectrum scan (a row per branch
point, ``linearization.nondegeneracy_scan``), verify's companion-mesh
continuation (one row, ``cli.cmd_verify``) and the two roots of a fold
pair (a row per root, ``radial_solver.find_fold_pair``).  A caller hands
it ``compute(i)``, the row of item i, and reads the whole table when its
with-block ends.  The helper owns the rest: which process computes which
row (each claims the next free one as it goes, so a slow process takes
fewer rows), a done flag per row, and the one failure rule, that every
row no process marked done is computed again in the calling process in
row order.  So a row that raised, a worker that died and a fork that
failed all end as the serial loop would, exception included.  Jobs nest
one level deep: a job opened inside another job's block or rows, in the
same process or in one of its workers, forks nothing.

While a job with workers runs, every OpenBLAS the process has mapped is
held to one thread, in the workers and the calling process alike.  A
pinned worker whose OpenBLAS kept its default count would spin those
threads on its one CPU, and its dense BLAS work would run slower than the
serial run's.  The tests compare the outputs of the forked and serial
paths byte for byte.
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


#: True while a ``shared`` job is open in this process, block and rows alike;
#: forked workers inherit it
_open = False


@contextmanager
def shared(compute, count: int, width: int):
    """Compute the rows ``compute(0)``, ..., ``compute(count - 1)`` in forked workers.

    Yields ``table``, a float64 array of shape (count, width) in one
    anonymous shared mapping, whose row i is ``compute(i)`` (``width``
    floats) once the with-block ends; the block is the caller's own work,
    run here while the workers run.  The job runs on W processes, W from
    ``_worker_cpus(count + 1)``.  Each worker, pinned to a CPU of its own,
    claims the lowest row no process has claimed until none is left, and
    leaves through ``os._exit``, so it flushes no inherited buffer, runs no
    exit hook and drops any exception.  The calling process, once the block
    ends, claims the highest unclaimed row in the same way, and then reaps
    the workers.  A claimed flag per row sits in the mapping; two processes
    that race for one row both compute it and write the same bytes.

    W is 1, and nothing forks, where ``_worker_cpus`` finds no spare CPU,
    the process maps no OpenBLAS whose threads can be set, or another job
    is open: from the start of its block to its last row, in this process
    or in the one a worker was forked from.  Then, as when every fork
    fails, every row is computed here after the block, in row order, as a
    plain loop would.  A fork that fails with ``OSError`` is skipped, and
    so is a pinning call that fails, since the CPU is only a placement
    hint.

    A row counts once its done flag, kept in the mapping beside the table,
    is set, which happens only after the row is whole.  Once the workers
    are reaped, every row not marked done is computed here in row order,
    and its exception propagates: a row that raised (the lowest one's
    exception is the serial loop's), the rows of a worker that died and
    those of a fork that failed all end as the serial loop would.  When the
    block raises, or an exception other than ``Exception`` escapes the
    caller's rows, the workers are killed and reaped and no row is
    computed.

    A Python >= 3.12 interpreter warns that a process with threads
    (OpenBLAS's) forks.  The warning comes after the child exists, so a
    filter that turned it into an error would lose the child, and it is
    silenced around the fork.
    """
    global _open
    mapped = np.frombuffer(mmap.mmap(-1, 8 * max(1, count * (width + 2))))
    claimed, done = mapped[:count], mapped[count : 2 * count]
    table = mapped[2 * count : count * (width + 2)].reshape(count, width)

    def run(end):
        # end 0 claims the lowest unclaimed row, end -1 the highest
        while (free := np.flatnonzero(claimed == 0.0)).size:
            i = int(free[end])
            claimed[i] = 1.0
            table[i] = compute(i)
            done[i] = 1.0

    cpus = [] if _open else _worker_cpus(count + 1)
    blas = _openblas_threads() if cpus else []
    if not blas:
        cpus = []
    threads = [get() for get, _ in blas]
    pids = []  # the workers not yet reaped
    outer, _open = _open, True
    try:
        for _, set_ in blas:
            set_(1)
        for cpu in cpus:
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                continue  # the rows go to the other processes
            if pid == 0:
                try:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except OSError:
                        pass
                    run(0)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield table
        try:
            if pids:  # else the rows run below, in row order
                run(-1)
        except Exception:
            pass  # computed again after the reap, where it raises
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
        for i in np.flatnonzero(done == 0.0):
            table[i] = compute(int(i))
    finally:
        # workers are left here only when the block or the caller's rows raised
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for (_, set_), n in zip(blas, threads):
            set_(n)
        _open = outer
