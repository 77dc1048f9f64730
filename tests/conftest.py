import ast
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fails every test after which a forked worker is still running, and
    ends those workers so that the next test starts without them."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == []


def _running(pid):
    """Whether process pid runs; a zombie has ended, since whatever adopts
    an orphan may never reap it."""
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.fixture
def left_running():
    """A function that waits up to 10 s for the given pids, the workers of a
    parent that was killed, to end, and returns those that still run after
    SIGKILLing them, so that none outlives the test."""
    def left(pids):
        deadline = time.monotonic() + 10
        while (running := [pid for pid in pids if _running(pid)]) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        return running

    return left


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def generated_recordings():
    """Two scripted 1 s recordings (seeds 5 and 6) at the default config."""
    from evsteer.datagen import DatagenConfig, generate_recording
    from evsteer.sim import SimConfig

    cfg = DatagenConfig(sim=SimConfig(), duration=1.0)
    return [generate_recording(cfg, seed) for seed in (5, 6)]


def _logged_calls(monkeypatch, path, owner, name, fields):
    """Replaces owner.name by a wrapper that appends the pid and
    fields(*args) of every call, a forked worker's too, to path; returns a
    function that reads and clears that log as (pid, fields) pairs."""
    called = getattr(owner, name)

    def logged(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {fields(*args)!r}\n")
        return called(*args)

    def taken():
        calls = [line.split(" ", 1) for line in path.read_text().splitlines()]
        path.unlink()
        return [(int(pid), ast.literal_eval(rest)) for pid, rest in calls]

    monkeypatch.setattr(owner, name, logged)
    return taken


@pytest.fixture
def push_pids(monkeypatch, tmp_path):
    """Logs the pid of every FrameStream.push, a forked producer's too; the
    fixture's value returns the pids logged since it was last called."""
    from evsteer.frames import FrameStream

    taken = _logged_calls(monkeypatch, tmp_path / "push.log", FrameStream, "push",
                          lambda *args: None)
    return lambda: {pid for pid, _ in taken()}


@pytest.fixture
def render_poses(monkeypatch, tmp_path):
    """Logs the pid and the pose of every sim.render_camera call, a forked
    renderer's too; the fixture's value returns the (pid, pose) pairs logged
    since it was last called, in call order within each process."""
    from evsteer import sim

    return _logged_calls(monkeypatch, tmp_path / "render.log", sim, "render_camera",
                         lambda scene, camera, pose: tuple(pose))
