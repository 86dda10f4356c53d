"""The ordered process pool: CPU count, order, and a worker that dies."""
import os
import pickle

import pytest

import octoplan.pool as pool_mod
from octoplan.errors import (InvalidRequest, InvalidSpec, OctoplanError,
                             PointOutOfDomain, WorkerFailed)
from octoplan.pool import ordered_map, usable_cpus


def square(x):
    return x * x


def die_on_two(x):
    """A job whose process ends abruptly on item 2, as an OOM kill would."""
    if x == 2:
        os._exit(3)
    return x


def out_of_domain_on_two(x):
    if x == 2:
        raise PointOutOfDomain([x, 9.0], [0, 0], [4, 4], index=x)
    return x


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert usable_cpus() == 3


@pytest.mark.parametrize("count, want", [(6, 6), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, count, want):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert usable_cpus() == want


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_keeps_input_order(monkeypatch, workers):
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    assert ordered_map(square, range(9), workers, 2) == \
        [x * x for x in range(9)]
    assert ordered_map(square, [], workers, 2) == []


def test_a_worker_count_that_is_not_an_integer_is_refused(monkeypatch):
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    for workers in (1.5, "2"):
        with pytest.raises(InvalidSpec, match="^workers must be an integer"):
            ordered_map(square, range(4), workers, 1)


def test_a_dead_worker_raises_worker_failed(monkeypatch):
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    with pytest.raises(WorkerFailed) as info:
        ordered_map(die_on_two, range(4), 2, 1)
    assert isinstance(info.value, OctoplanError)
    assert info.value.code == "worker_failed"


def test_a_job_error_reaches_the_caller_as_itself(monkeypatch):
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    with pytest.raises(PointOutOfDomain) as info:
        ordered_map(out_of_domain_on_two, range(4), 2, 1)
    assert str(info.value) == \
        "point [2.0, 9.0] (input row 2) outside domain [[0.0, 0.0], [4.0, 4.0]]"
    assert info.value.point == [2, 9.0] and info.value.index == 2


@pytest.mark.parametrize("err", [
    PointOutOfDomain([1.0, 2.0], [0, 0], [1, 1], index=7),
    InvalidRequest("bad_endpoint", "start is occupied"),
    WorkerFailed("gone")])
def test_errors_survive_pickling(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err) and str(back) == str(err)
    assert back.__dict__ == err.__dict__
