"""Tests for the executor: ordering, errors, backend selection."""

import os

import pytest

from repro.parallel import Executor, WorkerError, effective_n_jobs, get_executor


def _square(payload, task):
    return payload * task * task


def _fail_on_three(payload, task):
    if task == 3:
        raise RuntimeError("kaboom")
    return task


# In-process (one job) and the fork pool, under their long-standing ids.
ALL_BACKENDS = [
    pytest.param(Executor(1), id="ex0"),
    pytest.param(Executor(4), id="ex2"),
]


@pytest.mark.parametrize("ex", ALL_BACKENDS)
def test_map_preserves_submission_order(ex):
    assert ex.map(_square, range(20), payload=2) == [2 * i * i for i in range(20)]


@pytest.mark.parametrize("ex", ALL_BACKENDS)
def test_worker_error_carries_task_label(ex):
    labels = [f"SPECint2006/bench{i}" for i in range(6)]
    with pytest.raises(WorkerError) as err:
        ex.map(_fail_on_three, range(6), labels=labels)
    assert err.value.label == "SPECint2006/bench3"
    assert "kaboom" in str(err.value)
    assert "RuntimeError" in err.value.details


@pytest.mark.parametrize("ex", ALL_BACKENDS)
def test_on_result_streams_in_order(ex):
    seen = []
    ex.map(_square, range(8), payload=1, on_result=lambda i, r: seen.append((i, r)))
    assert seen == [(i, i * i) for i in range(8)]


@pytest.mark.parametrize("ex", ALL_BACKENDS)
def test_empty_task_list(ex):
    assert ex.map(_square, [], payload=1) == []


def test_map_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        Executor(1).map(_square, range(3), payload=1, labels=["only-one"])


def test_n_jobs_one_is_always_serial():
    for backend in ("auto", "serial", "process"):
        assert get_executor(backend, 1).n_jobs == 1


def test_backend_selection():
    assert get_executor("serial", 8).n_jobs == 1
    assert get_executor("process", 8).n_jobs == 8
    assert get_executor("auto", 8).n_jobs == 8


def test_unknown_backend_rejected():
    for backend in ("gpu", "thread"):
        with pytest.raises(ValueError):
            get_executor(backend, 2)


def test_effective_n_jobs():
    assert effective_n_jobs(3) == 3
    assert effective_n_jobs(None) >= 1
    assert effective_n_jobs(-1) == effective_n_jobs(None)
    with pytest.raises(ValueError):
        effective_n_jobs(0)
    with pytest.raises(ValueError):
        effective_n_jobs(-2)


def test_all_jobs_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert effective_n_jobs(-1) == 1
    assert get_executor("auto", -1).n_jobs == 1


def test_executor_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        Executor(n_jobs=0)


def test_process_results_match_serial():
    serial = Executor(1).map(_square, range(50), payload=3)
    forked = Executor(4).map(_square, range(50), payload=3)
    assert serial == forked
