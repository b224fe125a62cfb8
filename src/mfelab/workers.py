"""Forked workers that compute a job's items beside the calling process.

``shared`` is the package's one process layer.  Its callers are the
continuation's cold-started points, a companion continuation's included
(an item per point, ``radial_solver.continue_branch``), the spectrum scan
(an item per branch point, ``linearization.nondegeneracy_scan``) and the
two roots of a fold pair (an item per root,
``radial_solver.find_fold_pair``); no command opens or nests a job of its
own.  A caller hands it ``compute(i)``, which returns item i as any
picklable object, and reads the list of items when its with-block ends.
The helper owns the rest: which process computes which item (each claims
the next free one as it goes, so a slow process takes fewer items), how a
worker's items come back (as pickle records in a file of its own), and the
one failure rule, that every item no process brought back is computed
again in the calling process in item order.  So an item that raised, a worker that died and a
fork that failed all end as the serial loop would, exception included.
Jobs nest one level deep: a job opened inside another job's block or
items, in the same process or in one of its workers, forks nothing.

The helper sets no BLAS thread count: the package's ``__init__`` loads
OpenBLAS at one thread, so a pinned worker has no BLAS threads to spin on
its one CPU.  The tests compare the outputs of the forked and serial
paths byte for byte.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np


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


#: True while a ``shared`` job is open in this process, block and items
#: alike; forked workers inherit it
_open = False


@contextmanager
def shared(compute, count: int):
    """Compute the items ``compute(0)``, ..., ``compute(count - 1)`` in forked workers.

    Yields ``items``, a list whose item i is whatever ``compute(i)``
    returned once the with-block ends; the block is the caller's own work,
    run here while the workers run.  The job runs on W processes, W from
    ``_worker_cpus(count + 1)``.  Each worker, pinned to a CPU of its own,
    claims the lowest item no process has claimed until none is left, and
    leaves through ``os._exit``, so it flushes no inherited buffer, runs no
    exit hook and drops any exception.  The calling process, once the block
    ends, claims the highest unclaimed item in the same way, and then reaps
    the workers.  A claimed flag per item sits in an anonymous shared
    mapping; two processes that race for one item both compute it and
    return equal values.

    W is 1, and nothing forks, where ``_worker_cpus`` finds no spare CPU or
    another job is open: from the start of its block to its last item, in
    this process or in the one a worker was forked from.  Then, as when
    every fork fails, every item is computed here after the block, in item
    order, as a plain loop would.  A fork that fails with ``OSError`` is skipped, and
    so is one whose file cannot be opened, or a pinning call that fails,
    since the CPU is only a placement hint.

    Each worker writes its items as ``pickle`` records ``(i, value)`` to an
    unlinked temporary file, opened here before the fork; the items this
    process computes are never pickled.  Once the workers are reaped, their
    records are read back up to the first one that cannot be read (a
    worker that died while writing leaves a record cut short), and every
    item no record brought back and this process did not compute is
    computed here in item order, its exception propagating: an item that
    raised (the lowest one's exception is the serial loop's), the items of
    a worker that died and those of a fork that failed all end as the
    serial loop would.  When the block raises, or an exception other than
    ``Exception`` escapes the caller's items, the workers are killed and
    reaped and no item is computed.

    A Python >= 3.12 interpreter warns that a process with threads (the
    OpenBLAS pool of a numpy imported before this package, say) forks.
    The warning comes after the child exists, so a filter that turned it
    into an error would lose the child, and it is silenced around the fork.
    """
    global _open
    claimed = np.frombuffer(mmap.mmap(-1, 8 * max(1, count)))
    items = [None] * count
    done = set()

    def run(end, out=None):
        # end 0 claims the lowest unclaimed item, end -1 the highest; a
        # worker writes each item to its file ``out``
        while (free := np.flatnonzero(claimed == 0.0)).size:
            i = int(free[end])
            claimed[i] = 1.0
            value = compute(i)
            if out is None:
                items[i] = value
                done.add(i)
            else:
                out.write(pickle.dumps((i, value), protocol=5))
                out.flush()

    cpus = [] if _open else _worker_cpus(count + 1)
    pids, files = [], []  # the workers not yet reaped, and every worker's file
    outer, _open = _open, True
    try:
        for cpu in cpus:
            try:
                out = tempfile.TemporaryFile()
            except OSError:
                continue  # the items go to the other processes
            files.append(out)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                continue
            if pid == 0:
                try:
                    try:
                        os.sched_setaffinity(0, {cpu})
                    except OSError:
                        pass
                    run(0, out)
                finally:
                    os._exit(0)
            pids.append(pid)
        yield items
        try:
            if pids:  # else the items run below, in item order
                run(-1)
        except Exception:
            pass  # computed again after the reap, where it raises
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()
        for out in files:
            out.seek(0)
            while True:
                try:
                    i, value = pickle.load(out)
                except (EOFError, pickle.UnpicklingError):
                    break  # the end of the file, or a record cut short
                items[i] = value
                done.add(i)
        for i in range(count):
            if i not in done:
                items[i] = compute(i)
    finally:
        # workers are left here only when the block or the caller's items raised
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for out in files:
            out.close()
        _open = outer
