"""Worker counts, and the thread and forked-process maps the stages run on."""

import os
import pickle
import select
import signal
import threading


def resolve_workers(threads: int) -> int:
    """Worker count for a ``--threads`` value: 0 means one per CPU this process may use."""
    if threads > 0:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def thread_workers(threads: int) -> int:
    """Threads for a ``--threads`` value: at most one per usable CPU, as more only take turns."""
    return min(resolve_workers(threads), resolve_workers(0))


def map_threads(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on this thread and its helper threads.

    The calling thread and ``thread_workers(threads) - 1`` helpers (none
    beyond one per item) each take the next item from one shared queue, so
    the caller works too, reusing its own heap rather than leaving a second
    helper to grow one. The results are in the order of ``items``. The first
    exception a worker raises (on this thread, ``KeyboardInterrupt`` and
    ``SystemExit`` too) stops every worker from taking another item, and is
    re-raised here once the helpers have finished the items they hold.
    """
    items = list(items)
    results = [None] * len(items)
    queue = iter(range(len(items)))
    lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def work():
        while True:
            with lock:
                index = None if stop.is_set() else next(queue, None)
            if index is None:
                return
            results[index] = fn(items[index])

    def helper():
        try:
            work()
        except BaseException as err:
            failures.append(err)
            stop.set()

    helpers = [threading.Thread(target=helper, daemon=True)
               for _ in range(min(thread_workers(threads), len(items)) - 1)]
    try:
        for thread in helpers:
            thread.start()
        work()
    finally:
        stop.set()  # the queue is empty unless this thread raised
        for thread in helpers:
            if thread.ident is not None:  # started
                thread.join()
    if failures:
        raise failures[0]
    return results


def fork_workers(threads: int, items: int) -> int:
    """Workers :func:`map_forked` runs ``items`` items on for a ``--threads`` value.

    At most one per item, and 1 where ``os.fork`` is missing or another
    thread runs, since a forked child gets a copy of every lock but only the
    calling thread. One worker is this process; 2 or more are forked
    children, and this process then runs no item.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(resolve_workers(threads), items))


def map_forked(fn, items, threads: int, on_result, finish=lambda: None,
               on_finish=lambda payload: None) -> None:
    """``on_result(fn(item))`` for every item, with ``fn`` run in worker processes.

    With one :func:`fork_workers` worker the items run here, one after
    another, and ``finish`` is not called. With W >= 2 this process forks W
    children before any item runs, item i goes to child i % W, and it runs
    no item itself: it only waits on the children. Each child pickles every
    result (or the ``Exception`` that stopped it), then ``finish()`` once,
    back through a pipe; a child stopped by ``SystemExit`` sends nothing and
    reads as gone. ``on_result`` and ``on_finish`` run here, in arrival
    order, and each finish value is passed to ``on_finish`` as soon as it
    arrives and dropped when that returns, so this process holds at most
    one at a time. A child leaves only through ``os._exit``, so no copied
    frame runs a ``finally`` or an exit handler there. On any failure the
    others are killed; every child is reaped before this returns or raises.
    """
    items = list(items)
    workers = fork_workers(threads, len(items))
    if workers == 1:
        for item in items:
            on_result(fn(item))
        return
    pids, pending = [], []
    try:
        for worker in range(workers):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(reader)
                _forked_worker(fn, items[worker::workers], finish, writer)
            os.close(writer)
            pids.append(pid)
            pending.append(reader)
        while pending:
            for fd in select.select(pending, [], [])[0]:
                if _deliver(fd, on_result, on_finish):
                    pending.remove(fd)
                    os.close(fd)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this child's
        raise
    finally:
        for fd in pending:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _deliver(fd, on_result, on_finish) -> bool:
    """Pass on a child's next message; True once it was the last, its ``finish()``.

    The message is dropped on return, before the next one is read.
    """
    message = _receive(fd)
    if message is None:  # gone before its finish()
        raise RuntimeError("a worker process exited before sending all its results")
    kind, payload = message
    if kind == "error":
        raise payload
    if kind == "result":
        on_result(payload)
        return False
    on_finish(payload)
    return True


def _forked_worker(fn, items, finish, fd):
    status = 1
    try:
        for item in items:
            _send(fd, ("result", fn(item)))
        _send(fd, ("finish", finish()))
        status = 0
    except Exception as err:
        try:
            _send(fd, ("error", err))
        except Exception:  # unpicklable: send its text
            _send(fd, ("error", RuntimeError(f"{type(err).__name__}: {err}")))
    finally:
        os._exit(status)


def _send(fd, message) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The next message :func:`_send` wrote, or None once the writer is gone."""
    header = _read(fd, 8)
    size = int.from_bytes(header, "little")
    data = _read(fd, size)
    if len(header) < 8 or len(data) < size:
        return None  # closed, or the writer died mid-message
    return pickle.loads(data)


def _read(fd, size) -> bytearray:
    """Up to ``size`` bytes: fewer only at end of file."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data
