"""The process layer: forked workers, their shared table and the BLAS cap."""

import os

import pytest

from mfelab import workers


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


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


def test_openblas_held_to_one_thread_while_workers_run(two_cpus, openblas):
    def work(table, rank, size):
        table[1:] = _counts(openblas)
        table[0] = 1.0

    with workers.forked(1 + len(openblas), work) as (table, size):
        assert size == 2
        inside = _counts(openblas)
    assert table[0] == 1.0
    assert list(table[1:]) == [1.0] * len(openblas)  # in the worker
    assert inside == [1] * len(openblas)
    assert _counts(openblas) == [2] * len(openblas)


def test_openblas_counts_restored_when_the_block_raises(two_cpus, openblas):
    with pytest.raises(RuntimeError, match="in the parent"):
        with workers.forked(1, lambda *_: None):
            raise RuntimeError("in the parent")
    assert _counts(openblas) == [2] * len(openblas)


def test_nothing_forks_without_a_spare_cpu(monkeypatch, openblas):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def fail(*_):
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fail)
    with workers.forked(1, fail) as (table, size):
        assert size == 1
        assert _counts(openblas) == [2] * len(openblas)  # no cap without workers
    assert table[0] == 0.0
