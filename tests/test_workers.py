"""The process layer: forked workers, the items they hand back and the BLAS cap."""

import mmap
import os
import pickle
import tempfile
import time

import numpy as np
import pytest

from mfelab import workers


def _with_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def two_cpus(monkeypatch):
    _with_cpus(monkeypatch, 2)


@pytest.fixture
def openblas():
    blas = workers._openblas_threads()
    if not blas:
        pytest.skip("the process maps no OpenBLAS with settable threads")
    before = [get() for get, _ in blas]
    for _, set_ in blas:
        set_(2)  # a count a section must change and give back
    yield blas
    for (_, set_), count in zip(blas, before):
        set_(count)


def _counts(blas):
    return [get() for get, _ in blas]


def _squares(count):
    return [(i, i * i) for i in range(count)]


def _item(i):
    """None, a tuple or a numpy array, by item."""
    return [None, (i, i * i, f"item {i}"), np.full((2, i), i / 3.0)][i % 3]


def _assert_items(items, count):
    expected = [_item(i) for i in range(count)]
    assert len(items) == count
    for got, want in zip(items, expected):
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and np.array_equal(got, want)
        else:
            assert got == want


def _in_parent(calls, compute):
    """``compute`` that records in ``calls`` each item the calling process computes."""
    parent = os.getpid()

    def recorded(i):
        if os.getpid() == parent:
            calls.append(i)
        return compute(i)

    return recorded


def _wait_for(ready, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.001)


def test_openblas_held_to_one_thread_while_workers_run(two_cpus, openblas):
    # the items come back only when the block ends, so the worker reports
    # its pid and thread counts through a mapping of the test's own
    seen = np.frombuffer(mmap.mmap(-1, 8 * (1 + len(openblas))))

    def compute(i):
        seen[1:] = _counts(openblas)
        seen[0] = os.getpid()
        return i

    with workers.shared(compute, 1) as items:
        inside = _counts(openblas)
        _wait_for(lambda: seen[0])  # the worker claims the one item first
    assert items == [0]
    assert seen[0] != os.getpid()
    assert list(seen[1:]) == [1.0] * len(openblas)  # in the worker
    assert inside == [1] * len(openblas)
    assert _counts(openblas) == [2] * len(openblas)


def test_openblas_counts_restored_when_the_block_raises(two_cpus, openblas):
    with pytest.raises(RuntimeError, match="in the parent"):
        with workers.shared(lambda i: None, 1):
            raise RuntimeError("in the parent")
    assert _counts(openblas) == [2] * len(openblas)


def test_nothing_forks_without_a_spare_cpu(monkeypatch, openblas):
    _with_cpus(monkeypatch, 1)

    def fail(*_):
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fail)
    calls = []
    with workers.shared(_in_parent(calls, lambda i: (i, i * i)), 2) as items:
        assert _counts(openblas) == [2] * len(openblas)  # no cap without workers
        assert calls == []  # the caller's items run when the block ends
    assert calls == [0, 1]
    assert items == _squares(2)


def _no_pickling(monkeypatch):
    def fail(*_, **__):
        raise AssertionError("pickled")

    monkeypatch.setattr(pickle, "dumps", fail)
    monkeypatch.setattr(pickle, "load", fail)


def test_serial_and_nested_jobs_pickle_nothing(monkeypatch, openblas):
    _with_cpus(monkeypatch, 1)
    _no_pickling(monkeypatch)
    with workers.shared(_item, 4) as items:
        pass
    _assert_items(items, 4)
    _with_cpus(monkeypatch, 3)
    with workers.shared(_item, 0):
        with workers.shared(_item, 4) as items:  # nested: forks nothing
            pass
    _assert_items(items, 4)


def test_a_file_that_cannot_be_opened_is_a_failed_fork(monkeypatch, openblas):
    _with_cpus(monkeypatch, 3)

    def refuse(*_, **__):
        raise OSError("no room for a temporary file")

    def fail(*_):
        raise AssertionError("forked")

    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    monkeypatch.setattr(os, "fork", fail)
    calls = []
    with workers.shared(_in_parent(calls, _item), 5) as items:
        pass
    assert calls == list(range(5))
    _assert_items(items, 5)


def _in_workers(count, compute):
    """``compute`` that flags in a table shared with the workers each item a worker computes."""
    parent = os.getpid()
    flags = np.frombuffer(mmap.mmap(-1, 8 * count))

    def recorded(i):
        if os.getpid() != parent:
            flags[i] = 1.0
        return compute(i)

    return recorded, flags


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_rows_equal_a_plain_loop(monkeypatch, openblas, cpus, count):
    _with_cpus(monkeypatch, cpus)
    calls = []
    compute, in_workers = _in_workers(count, _in_parent(calls, _item))
    with workers.shared(compute, count) as items:
        assert calls == []  # the caller's items run when the block ends
    _assert_items(items, count)
    # the workers claim the lowest free items and the caller the highest, so
    # the workers' items are a prefix and the caller's a descending suffix;
    # only the item where they meet may be computed by both
    done_by_workers = [int(i) for i in np.flatnonzero(in_workers)]
    assert done_by_workers == list(range(len(done_by_workers)))
    if cpus == 1:
        assert calls == list(range(count))  # a plain loop, in item order
    else:
        assert calls == list(range(count - 1, count - 1 - len(calls), -1))
    assert len(done_by_workers) + len(calls) in (count, count + 1)


def test_rows_of_a_worker_that_died_are_recomputed(monkeypatch, openblas):
    _with_cpus(monkeypatch, 3)
    parent = os.getpid()

    def compute(i):
        if os.getpid() != parent:
            os._exit(7)  # after the worker claimed the item, before it wrote it back
        return (i, i * i)

    calls = []
    with workers.shared(_in_parent(calls, compute), 5) as items:
        pass
    assert items == _squares(5)
    # the caller claims the highest items, each dead worker had claimed the
    # lowest free one, and those come last, in item order
    assert any(calls == list(range(4, k - 1, -1)) + list(range(k)) for k in range(3))


def test_an_item_whose_record_was_cut_short_is_recomputed(monkeypatch, openblas):
    _with_cpus(monkeypatch, 2)
    parent, real = os.getpid(), pickle.dumps
    cut = np.frombuffer(mmap.mmap(-1, 8))  # set once the worker cut a record

    def dumps(obj, *args, **kwargs):
        record = real(obj, *args, **kwargs)
        if os.getpid() != parent:
            cut[0] = 1.0
            record = record[: len(record) // 2]
        return record

    def compute(i):
        if cut[0] and os.getpid() != parent:
            os._exit(7)  # died partway through writing its record
        return _item(i)

    monkeypatch.setattr(pickle, "dumps", dumps)
    calls = []
    with workers.shared(_in_parent(calls, compute), 3) as items:
        _wait_for(lambda: cut[0])  # the worker claims item 0 and cuts its record
    assert cut[0]
    _assert_items(items, 3)
    # no record brought item 0 back, and the worker died before item 1 came
    # back, so every item was computed here
    assert sorted(calls) == [0, 1, 2]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_lowest_raising_item_raises(monkeypatch, openblas, cpus):
    _with_cpus(monkeypatch, cpus)
    failures = {1: ValueError("at item 1"), 3: KeyError("at item 3")}

    def compute(i):
        if i in failures:
            raise failures[i]
        return (i, i * i)

    with pytest.raises(ValueError, match="at item 1"):
        with workers.shared(compute, 5):
            pass


def test_no_items_fork_nothing(two_cpus, monkeypatch):
    def fail(*_):
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fail)
    with workers.shared(fail, 0) as items:
        pass
    assert items == []


def test_a_raising_block_kills_the_workers_and_computes_nothing(monkeypatch, openblas):
    _with_cpus(monkeypatch, 3)
    parent = os.getpid()

    def compute(i):
        if os.getpid() != parent:
            time.sleep(30)
        return (i, i * i)

    calls = []
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="in the parent"):
        with workers.shared(_in_parent(calls, compute), 3):
            raise RuntimeError("in the parent")
    assert time.monotonic() - t0 < 10.0
    assert calls == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _counts(openblas) == [2] * len(openblas)
