import multiprocessing
import os

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


@pytest.fixture
def push_pids(monkeypatch, tmp_path):
    """Logs the pid of every FrameStream.push, a forked producer's too; the
    fixture's value returns the pids logged since it was last called."""
    from evsteer.frames import FrameStream

    path = tmp_path / "push.pids"
    push = FrameStream.push

    def logged(self, *args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return push(self, *args)

    def taken():
        pids = {int(pid) for pid in path.read_text().split()}
        path.unlink()
        return pids

    monkeypatch.setattr(FrameStream, "push", logged)
    return taken
