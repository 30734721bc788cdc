"""Worker counts, the thread map sampling runs on and the forked map the colour
pass renders its views with."""

import os
import signal
import threading
import time

import pytest

from splatcloud.workers import map_forked, map_threads, resolve_workers

from conftest import assert_no_child_left


def test_auto_threads_follow_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(0) == 1
    assert resolve_workers(3) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_workers(0) == 8


def test_map_forked_is_capped_by_the_items(forks):
    # (threads, items, children forked): one worker is this process, and two
    # or more are forked children
    for threads, items, forked in ((64, 3, 3), (2, 5, 2), (8, 1, 0), (1, 5, 0), (2, 0, 0)):
        forks.clear()
        got = []
        map_forked(lambda i: i, range(items), threads, got.append)
        assert sorted(got) == list(range(items))
        assert len(forks) == forked, (threads, items)
        assert_no_child_left()


def test_map_forked_deals_items_round_robin(forks):
    got, finished = {}, []
    map_forked(lambda i: (i, os.getpid()), range(7), 3, lambda r: got.update([r]),
               os.getpid, finished.append)
    assert sorted(got) == list(range(7))
    assert len(forks) == 3
    assert sorted(finished) == sorted(forks)  # one finish() from each child
    assert {got[i] for i in (0, 3, 6)} == {forks[0]}
    assert {got[i] for i in (1, 4)} == {forks[1]}
    assert {got[i] for i in (2, 5)} == {forks[2]}
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


def test_a_child_killed_before_its_finish_is_an_error():
    def finish():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="exited before sending all its results"):
        map_forked(lambda i: i, range(4), 2, lambda r: None, finish)
    assert_no_child_left()


def test_a_child_that_raises_system_exit_leaves_without_sending_it():
    # as one does when a SIGTERM meets the signal handler it inherited
    def fn(i):
        if i == 1:
            raise SystemExit(128 + signal.SIGTERM)
        return i

    with pytest.raises(RuntimeError, match="exited before sending all its results"):
        map_forked(fn, range(4), 2, lambda r: None)
    assert_no_child_left()


def test_a_child_never_waits_on_this_process_mid_pass():
    # finish() is larger than any pipe an unprivileged process can ask for
    # (1 MB by default), and the first worker's items run longer than the
    # second's: the second's finish() is passed on while the first still works
    payload = os.urandom(3 << 20)
    ended, finished = {}, []

    def fn(i):
        time.sleep(0.15 if i % 2 == 0 else 0.01)
        return i, time.monotonic()

    map_forked(fn, range(6), 2, lambda r: ended.update([r]), lambda: payload,
               lambda p: finished.append((p, time.monotonic())))
    assert [p for p, _ in finished] == [payload, payload]
    assert max(ended[i] for i in (1, 3, 5)) < max(ended[i] for i in (0, 2, 4))
    assert finished[0][1] < max(ended[i] for i in (0, 2, 4))
    assert_no_child_left()


def test_thread_pools_start_no_more_threads_than_usable_cpus(monkeypatch, thread_starts):
    # the calling thread is one of the two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert map_threads(lambda i: time.sleep(0.01) or i, list(range(8)), 64) == list(range(8))
    assert len(thread_starts) <= 1


def test_map_threads_keeps_item_order_when_item_times_are_uneven(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    delays = [0.03, 0.0, 0.02, 0.0, 0.01, 0.0, 0.03, 0.0, 0.02]

    def fn(i):
        time.sleep(delays[i])
        return i, threading.get_ident()

    results = map_threads(fn, range(len(delays)), 3)
    assert [i for i, _ in results] == list(range(len(delays)))
    assert threading.get_ident() in {thread for _, thread in results}  # the caller worked


class Stop(Exception):
    pass


@pytest.mark.parametrize("raises_on, error", [
    ("caller", Stop), ("caller", KeyboardInterrupt), ("helper", Stop)])
def test_an_item_that_raises_stops_later_items_from_starting(monkeypatch, thread_starts,
                                                             raises_on, error):
    # every item but the failing one runs long enough for the failure to be seen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []

    def fn(i):
        started.append(i)
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (raises_on == "caller"):
            raise error(f"item {i}")
        time.sleep(0.05)
        return i

    with pytest.raises(error, match="item"):
        map_threads(fn, range(20), 2)
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
    assert sorted(started) == list(range(len(started))) and len(started) <= 3


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
