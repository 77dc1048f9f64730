import contextlib
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading

import pytest

from evsteer import workers
from evsteer.workers import WorkerLostError, fork_context, forked, receive, unpack


@pytest.fixture
def context():
    ctx = fork_context()
    if ctx is None:
        pytest.skip("no fork start method")
    return ctx


def _received(conn, job):
    """The answer to job on conn; fails instead of waiting forever."""
    assert conn.poll(60), f"no answer to {job} within 60 s"
    return receive(conn, job)


def test_two_workers_stream_their_slices_in_order(context):
    jobs = list(range(7))
    slices = [map(lambda i: (i * i, os.getpid()), jobs[k::2]) for k in range(2)]
    with forked(context, slices) as conns:
        got = [unpack(_received(conns[i % 2], i)) for i in jobs]
    assert [square for square, _ in got] == [i * i for i in jobs]
    pids = [pid for _, pid in got]
    assert len(set(pids[0::2])) == len(set(pids[1::2])) == 1  # one worker per slice
    assert len(set(pids)) == 2 and os.getpid() not in pids


def test_an_error_comes_back_at_its_turn_and_ends_its_worker(context, tmp_path):
    computed = tmp_path / "computed"

    def item(i):
        with open(computed, "a") as fh:
            fh.write(f"{i}\n")
        if i == 1:
            raise ValueError(f"bad item {i}")
        return i

    with forked(context, [map(item, range(4))]) as (conn,):
        assert unpack(_received(conn, 0)) == 0
        with pytest.raises(ValueError) as excinfo:
            unpack(_received(conn, 1))
        assert (excinfo.type, str(excinfo.value)) == (ValueError, "bad item 1")
        with pytest.raises(WorkerLostError):  # the worker ended after the error
            _received(conn, 2)
    assert computed.read_text().split() == ["0", "1"]


def test_a_killed_worker_is_lost_naming_the_awaited_job(context):
    def item(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with forked(context, [map(item, range(3))]) as (conn,):
        assert unpack(_received(conn, "job 0")) == 0
        with pytest.raises(WorkerLostError) as excinfo:
            _received(conn, "job 1")
    assert str(excinfo.value) == \
        "a worker process died before the answer to job 1 came back"


@pytest.mark.parametrize("fail", [False, True])
def test_no_worker_outlives_the_block(context, fail):
    # endless workers, still sending when the block ends
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with forked(context, [itertools.count(), itertools.count()]) as conns:
            assert [unpack(_received(conn, 0)) for conn in conns] == [0, 0]
            if fail:
                raise RuntimeError("the parent failed")
    assert multiprocessing.active_children() == []


# a parent that forks two workers, each sending answers larger than a pipe
# holds, prints their pids and is SIGKILLed, so `forked` never ends its block
ORPHANING_SCRIPT = """
import itertools, multiprocessing, os, signal
from evsteer.workers import fork_context, forked
answers = lambda: (bytes(1 << 20) for _ in itertools.count())
with forked(fork_context(), [answers(), answers()]):
    print(*(child.pid for child in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""


def test_workers_end_when_their_parent_is_killed(context, tmp_path, left_running):
    # each worker would block in its send for ever if it, or the other
    # worker, still held the parent's end of its pipe
    src = os.path.dirname(os.path.dirname(workers.__file__))
    with open(tmp_path / "pids", "w") as out:
        done = subprocess.run([sys.executable, "-c", ORPHANING_SCRIPT], stdout=out,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in (tmp_path / "pids").read_text().split()]
    assert len(pids) == 2
    assert left_running(pids) == []


def test_no_fork_context_while_another_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fork_context() is None
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
