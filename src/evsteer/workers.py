"""Forked worker processes: the one worker loop that gen-data's pool
(`cli._ordered_map`), a static scene's frame producer and a chase's renderer
(`runner`) share.

A worker is forked with an iterator of items, so what it runs is not
pickled, and streams their answers to the parent over a pipe of its own, in
order, without being asked; nothing goes the other way. An answer is an
(ok, value) pair: a false ok carries the exception, which `unpack` raises in
the parent with its class and message, and the worker computes nothing after
it. Only the worker holds the other end of its pipe, so EOF on it means the
worker died or ran out of items, and `receive` raises WorkerLostError
instead of waiting forever. Only the parent holds the parent's end, so a
worker whose parent died meets a broken pipe at its next send, and ends. No
worker outlives the block of `forked`, whether the block ends in success or
in an exception. Ctrl-C is the parent's to handle: a worker ignores SIGINT
and is terminated when the block ends.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading


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
    """The multiprocessing context of the "fork" start method where a fork is
    safe, or None: where that method does not exist, or while another thread
    runs, whose locks the child would inherit in whatever state they are."""
    if threading.active_count() != 1:
        return None
    import multiprocessing  # only here: its import would add to every cold start
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


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
    except (EOFError, ConnectionResetError):  # what a dead worker's pipe raises
        raise WorkerLostError(job) from None


def _serve(conn, items, parent_ends):
    """A worker's body: the answer to each next item down conn, until an item
    raises, the items end or the pipe closes. It first closes its copies of
    parent_ends, so that its own pipe closes when the parent dies."""
    import signal  # only in a worker: a cold start would pay for it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()
    with contextlib.suppress(OSError):
        try:
            for value in items:
                conn.send((True, value))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            conn.send((False, exc))


@contextlib.contextmanager
def forked(context, streams):
    """One worker per iterator in streams, forked from context, each sending
    its items' answers down a pipe of its own; yields the parent's ends in
    order. Every worker is terminated and joined when the block ends."""
    # a forked worker flushes the stdio buffers it inherits when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    workers = []
    try:
        for items in streams:
            conn, child = context.Pipe()
            ends = [end for _, end in workers] + [conn]
            worker = context.Process(target=_serve, args=(child, items, ends))
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
