"""Worker counts and the forked map the colour pass renders its views with."""

import os
import signal

import pytest

from splatcloud.config import map_forked, resolve_workers

from conftest import assert_no_child_left


def test_auto_threads_follow_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(0) == 1
    assert resolve_workers(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers(0) == 8


def test_map_forked_is_capped_by_the_items(forks):
    # (threads, items, children forked): this process is always one worker
    for threads, items, forked in ((64, 3, 2), (2, 5, 1), (8, 1, 0), (1, 5, 0), (2, 0, 0)):
        forks.clear()
        got = []
        map_forked(lambda i: i, range(items), threads, got.append)
        assert sorted(got) == list(range(items))
        assert len(forks) == forked, (threads, items)
        assert_no_child_left()


def test_map_forked_deals_items_round_robin(forks):
    got = {}
    map_forked(lambda i: (i, os.getpid()), range(7), 3, lambda r: got.update([r]))
    assert sorted(got) == list(range(7))
    assert len(forks) == 2
    assert {got[i] for i in (0, 3, 6)} == {os.getpid()}
    assert {got[i] for i in (1, 4)} == {forks[0]}
    assert {got[i] for i in (2, 5)} == {forks[1]}
    assert_no_child_left()


def test_children_run_no_copied_finally(tmp_path):
    try:
        map_forked(lambda i: i, range(3), 3, lambda r: None)
    finally:
        (tmp_path / str(os.getpid())).touch()
    assert [p.name for p in tmp_path.iterdir()] == [str(os.getpid())]


def test_a_child_that_dies_without_its_results_is_an_error():
    def fn(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match="exited before sending all its results"):
        map_forked(fn, range(4), 2, lambda r: None)
    assert_no_child_left()


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


def test_a_child_error_that_cannot_be_pickled_arrives_as_text():
    def fn(i):
        if i == 1:
            raise Unpicklable("view 1 failed")
        return i

    with pytest.raises(RuntimeError, match="Unpicklable: view 1 failed"):
        map_forked(fn, range(2), 2, lambda r: None)
    assert_no_child_left()
