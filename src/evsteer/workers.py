"""Forked worker processes: the plumbing that gen-data's pool
(`cli._ordered_map`) and a static scene's frame producer (`runner`) share.

A worker is forked, so what it runs is not pickled, and it talks to the
parent over a pipe of its own. It sends answers as (ok, value) pairs: a false
ok carries the exception, which `unpack` raises in the parent with its class
and message. Only the worker holds the other end of its pipe, so EOF on it
means the worker died, and `receive` raises WorkerLostError instead of
waiting forever. No worker outlives the block of `forked`, whether the block
ends in success or in an exception. Ctrl-C is the parent's to handle: a
worker ignores SIGINT and is terminated when the block ends.
"""

from __future__ import annotations

import contextlib
import os
import sys

# what the parent's end of a dead worker's pipe raises
LOST = (EOFError, BrokenPipeError, ConnectionResetError)


def usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerLostError(RuntimeError):
    """A worker process died before the answer to job `args[0]` came back."""

    def __str__(self):
        return f"a worker process died before the answer to {self.args[0]} came back"


def fork_context():
    """The multiprocessing context of the "fork" start method, or None where
    that method does not exist."""
    import multiprocessing  # only here: its import would add to every cold start
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def answer(fn, *args):
    """fn(*args) as an answer: (True, its result) or (False, its exception)."""
    try:
        return True, fn(*args)
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        return False, exc


def unpack(reply):
    """The value of an answer; raises the exception a false one carries."""
    ok, value = reply
    if not ok:
        raise value
    return value


def receive(conn, job):
    """The next answer on conn; WorkerLostError(job) when its worker died."""
    try:
        return conn.recv()
    except LOST:
        raise WorkerLostError(job) from None


def _serve(target, conn, *args):
    """A worker's body: target(conn, *args) until it returns or the pipe closes."""
    import signal  # only in a worker: a cold start would pay for it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(EOFError, OSError):
        target(conn, *args)


@contextlib.contextmanager
def forked(context, target, args_list):
    """One worker per tuple in args_list, forked from context, each running
    target(conn, *args) on a pipe of its own; yields the parent's ends in
    order. Every worker is terminated and joined when the block ends."""
    # a forked worker flushes the stdio buffers it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []
    try:
        for args in args_list:
            conn, child = context.Pipe()
            worker = context.Process(target=_serve, args=(target, child, *args))
            worker.start()
            workers.append((worker, conn))
            child.close()
        yield [conn for _, conn in workers]
    finally:
        for worker, _ in workers:
            worker.terminate()
        for worker, conn in workers:
            worker.join()
            conn.close()
