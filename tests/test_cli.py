import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evsteer
from evsteer import cli, runner, sim, wire, workers
from evsteer.behavior import Mode
from evsteer.cli import (EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                         _sweep_capacities, main)
from evsteer.config import KEYS, Config, ConfigError
from evsteer.decision import FilterConfig
from evsteer.evaluation import evaluate_records
from evsteer.frames import (EVENT_DTYPE, Dataset, Recording, assemble_dataset,
                            load_dataset, save_dataset, save_recording, write_events)
from evsteer.nnet import Decision, Dense, Network, runtime_network, save_weights
from evsteer.runner import STORES_IN_ORDER, RunnerConfig, decision_step

HEADER = "evsteer-net v1\ninput 36 36 1\n"


@pytest.fixture
def weights(tmp_path):
    path = tmp_path / "w.net"
    save_weights(runtime_network(np.random.default_rng(0)), path)
    return str(path)


def _child_env(**overrides):
    """The environment of a child Python that imports this evsteer."""
    src = os.path.dirname(os.path.dirname(evsteer.__file__))
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestWeightFileExitCodes:
    @pytest.mark.parametrize("decl", ["conv four 5", "conv 4 4", "conv 4 37"])
    def test_bad_layer_declaration_is_data_error(self, tmp_path, capsys, decl):
        path = tmp_path / "bad.net"
        path.write_text(HEADER + decl + "\n")
        argv = ["simulate", "--weights", str(path), "--dry-run"]
        assert main(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--dry-run"], ["simulate", "--duration", "0.1", "--out", "OUT"],
        ["serve", "--sim", "--duration", "0.1", "--listen", "0"],
        ["saliency", "--dataset", "DATASET", "--class", "C", "--out", "OUT"],
        ["eval", "--dataset", "DATASET", "--out", "OUT"],
    ], ids=["dry-run", "simulate", "serve", "saliency", "eval"])
    def test_weights_for_another_input_extent_are_data_error(self, tmp_path, capsys,
                                                               command):
        save_weights(Network([Dense(4)], input_shape=(2, 2, 1)), tmp_path / "small.net")
        save_dataset(tmp_path / "d.ds", Dataset(
            frames=np.zeros((3, 36, 36), np.float32), labels=np.zeros(3, np.uint8),
            target_x=np.zeros(3, np.int16), source=np.ones(3, np.uint8)))
        argv = [arg.replace("OUT", str(tmp_path / "out"))
                .replace("DATASET", str(tmp_path / "d.ds")) for arg in command]
        assert main([argv[0], "--weights", str(tmp_path / "small.net"), *argv[1:]]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""  # refused before any work
        assert err == (f"data error: {tmp_path / 'small.net'}: network input (2, 2, 1) "
                       "is not the frame extent (36, 36, 1)\n")
        assert not (tmp_path / "out").exists()

    def test_inspect_weights_describes_any_input_extent(self, tmp_path, capsys):
        save_weights(Network([Dense(4)], input_shape=(2, 2, 1)), tmp_path / "small.net")
        assert main(["inspect-weights", "--weights", str(tmp_path / "small.net")]) == EXIT_OK
        assert capsys.readouterr().out.startswith("input: 2x2x1\n")

    @pytest.mark.parametrize("command", ["inspect-weights", "simulate"])
    @pytest.mark.parametrize("bad", ["binary", "nan"])
    def test_bad_weight_bytes_are_data_error(self, tmp_path, weights, capsys, command, bad):
        path = tmp_path / "bad.net"
        if bad == "binary":
            path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
        else:
            lines = Path(weights).read_text().splitlines()
            lines[3] = "nan " + lines[3].split(" ", 1)[1]  # first conv kernel value
            path.write_text("\n".join(lines) + "\n")
        argv = [command, "--weights", str(path)]
        if command == "simulate":
            argv += ["--duration", "0.1", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_a_sigmoid_layer_is_data_error(self, tmp_path, weights, capsys):
        path = tmp_path / "sigmoid.net"
        path.write_text(Path(weights).read_text().replace("\nrelu\n", "\nsigmoid\n", 1))
        assert main(["inspect-weights", "--weights", str(path)]) == EXIT_DATA
        assert "unknown layer kind 'sigmoid'" in capsys.readouterr().err


class TestDurationExitCodes:
    # u32 microsecond timestamps wrap after 4294.967295 s
    def test_simulate_duration_past_wrap_is_usage_error(self, tmp_path, weights, capsys):
        argv = ["simulate", "--weights", weights, "--duration", "5000",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_USAGE
        assert "4294.967295" in capsys.readouterr().err

    def test_gen_data_duration_past_wrap_is_usage_error(self, tmp_path, capsys):
        argv = ["--set", "gen.duration=5000", "gen-data", "--recordings", "1",
                "--out", str(tmp_path / "gen")]
        assert main(argv) == EXIT_USAGE
        assert "4294.967295" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1"])
    def test_simulate_duration_not_finite_or_negative_is_usage_error(
            self, tmp_path, weights, capsys, duration):
        argv = ["simulate", "--weights", weights, "--duration", duration,
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_USAGE
        assert "must be finite and not negative" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_simulate_duration_zero_is_an_empty_run(self, tmp_path, weights, capsys):
        argv = ["simulate", "--weights", weights, "--duration", "0",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "sim" / "run.log").read_text().endswith("END 0\n")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _dir_sha256(path):
    """sha256 over the name and bytes of every file of a directory, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((path / name).read_bytes())
    return h.hexdigest()


# _dir_sha256 of `--set gen.duration=0.5 gen-data --recordings 3` (seeds
# 1000..1002, numpy 2.4, x86-64); every file but manifest.json was hashed
# while gen-data ran its recordings one after another in one process, and
# manifest.json was re-pinned once its config block recorded gen.recordings.
GEN_DATA_SHA256 = "13bef55af5f1a2fb006ab3f6098b97de13099d19d820cd23ec3a50cb697fd550"


class TestGenDataPool:
    @staticmethod
    def _gen_data(monkeypatch, capsys, cpus, out, *settings, recordings=3):
        """Run gen-data as if `cpus` CPUs were usable; returns (exit, stdout,
        stderr, pid of each recording's generator)."""
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        pid_log = out.parent / f"{out.name}.pids"
        generate = cli.generate_recording

        def logged(gen, seed):
            with open(pid_log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return generate(gen, seed)

        # a wrapper on cli's global, as a span tracer installs it
        monkeypatch.setattr(cli, "generate_recording", logged)
        argv = [*settings, "gen-data", "--recordings", str(recordings), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        pids = {int(line) for line in pid_log.read_text().split()}
        return code, captured.out, captured.err, pids

    def test_pooled_output_equals_the_serial_output(self, tmp_path, monkeypatch, capsys):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        code, serial_out, _, serial_pids = self._gen_data(
            monkeypatch, capsys, 1, serial, "--set", "gen.duration=0.5")
        assert code == EXIT_OK and serial_pids == {os.getpid()}
        code, pooled_out, _, pooled_pids = self._gen_data(
            monkeypatch, capsys, 2, pooled, "--set", "gen.duration=0.5")
        assert code == EXIT_OK
        assert pooled_pids and os.getpid() not in pooled_pids  # the workers ran them
        assert multiprocessing.active_children() == []
        assert pooled_out == serial_out
        assert pooled_out.startswith("rec000: seed 1000,")
        names = sorted(os.listdir(serial))
        assert sorted(os.listdir(pooled)) == names
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name
        assert _dir_sha256(pooled) == GEN_DATA_SHA256

    def test_a_failing_pooled_run_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        code, _, err, pids = self._gen_data(
            monkeypatch, capsys, 2, tmp_path / "gen", "--set", "gen.duration=5000",
            recordings=2)
        assert code == EXIT_USAGE
        assert "4294.967295" in err
        assert pids and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    # gen-data in a child that patches cli as _gen_data does, but whose wrapper
    # SIGKILLs the worker generating one seed; prints the children it leaves
    KILLED_WORKER_SCRIPT = """
import multiprocessing, os, signal, sys
from evsteer import cli, workers
workers.usable_cpus = lambda: 2
generate = cli.generate_recording

def killing(gen, seed):
    if seed == int(sys.argv[2]):
        os.kill(os.getpid(), signal.SIGKILL)
    return generate(gen, seed)

cli.generate_recording = killing
code = cli.main(["--set", "gen.duration=0.5", "gen-data", "--recordings", "3",
                 "--out", sys.argv[1]])
print("children left:", len(multiprocessing.active_children()))
sys.exit(code)
"""

    @pytest.mark.parametrize("seed", [1000, 1001])
    def test_a_killed_worker_fails_the_run_naming_its_seed(self, tmp_path, seed):
        # a gen-data that waits forever fails this test at the timeout
        done = subprocess.run(
            [sys.executable, "-c", self.KILLED_WORKER_SCRIPT, str(tmp_path / "gen"),
             str(seed)], capture_output=True, text=True, env=_child_env(), timeout=60)
        assert done.returncode == EXIT_RUNTIME, done.stderr
        assert (f"gen-data: a worker process died before the recording of seed {seed} "
                "came back") in done.stderr
        assert "children left: 0" in done.stdout

    def test_a_worker_error_comes_in_job_order(self, tmp_path, monkeypatch, capsys):
        generate = cli.generate_recording

        def failing(gen, seed):
            if seed == 1001:
                raise ValueError(f"bad seed {seed}")
            return generate(gen, seed)

        monkeypatch.setattr(cli, "generate_recording", failing)
        serial, pooled = (self._gen_data(monkeypatch, capsys, cpus, tmp_path / f"gen{cpus}",
                                         "--set", "gen.duration=0.5")[:3] for cpus in (1, 2))
        assert pooled == serial
        code, out, err = pooled
        assert code == EXIT_RUNTIME and "ValueError: bad seed 1001" in err
        assert out.startswith("rec000: seed 1000,") and "rec001" not in out
        assert multiprocessing.active_children() == []

    def test_a_save_error_in_a_worker_comes_in_job_order(self, tmp_path, monkeypatch,
                                                          capsys):
        save, savers = cli.save_recording, tmp_path / "savers"

        def failing(prefix, rec):
            with open(savers, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if os.path.basename(prefix) == "rec001":
                raise OSError("no space left on device")
            save(prefix, rec)

        monkeypatch.setattr(cli, "save_recording", failing)
        code, out, err, pids = self._gen_data(
            monkeypatch, capsys, 2, tmp_path / "gen", "--set", "gen.duration=0.5")
        assert code == EXIT_RUNTIME
        assert "runtime error: OSError: no space left on device" in err
        assert out.startswith("rec000: seed 1000,") and "rec001" not in out
        assert pids and os.getpid() not in pids
        assert {int(pid) for pid in savers.read_text().split()} <= pids  # saved by workers
        assert multiprocessing.active_children() == []

    def test_a_parent_side_error_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        def failing(*args, file=None, **kwargs):
            # the parent's stdout is gone, as when a pipe's reader quits, at
            # the first recording's line, while the worker of seed 1001 may
            # still run
            if file is None:
                raise BrokenPipeError("stdout closed")
            print(*args, file=file, **kwargs)

        monkeypatch.setattr(cli, "print", failing, raising=False)
        code, out, err, pids = self._gen_data(
            monkeypatch, capsys, 2, tmp_path / "gen", "--set", "gen.duration=0.5")
        assert code == EXIT_RUNTIME
        assert (out, err) == ("", "runtime error: BrokenPipeError: stdout closed\n")
        assert pids and os.getpid() not in pids
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "gen" / "train.ds").exists()

    def test_the_workers_send_back_counts_not_recordings(self, tmp_path, monkeypatch,
                                                         capsys):
        receive, answers = cli.receive, []

        def recorded(conn, job):
            answer = receive(conn, job)
            answers.append(answer)
            return answer

        monkeypatch.setattr(cli, "receive", recorded)
        code, out, _, pids = self._gen_data(
            monkeypatch, capsys, 2, tmp_path / "gen", "--set", "gen.duration=0.5")
        assert code == EXIT_OK
        assert pids and os.getpid() not in pids
        assert len(answers) == 3
        for ok, counts in answers:
            assert ok is True and type(counts) is tuple
            assert [type(count) for count in counts] == [int, int]
        assert out.splitlines()[:3] == [
            f"rec{i:03d}: seed {1000 + i}, {n_events} events, {n_aps} APS frames"
            for i, (_, (n_events, n_aps)) in enumerate(answers)]

    def test_the_traced_peak_grows_by_less_than_half_the_added_events(self, tmp_path,
                                                                      monkeypatch):
        # in one process, so tracemalloc sees every recording gen-data holds
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        peaks, event_bytes = [], []
        for recordings in (2, 8):
            out = tmp_path / f"gen{recordings}"
            argv = ["--set", "gen.duration=0.5", "gen-data", "--recordings",
                    str(recordings), "--out", str(out)]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            event_bytes.append(sum(path.stat().st_size for path in out.glob("*.events")))
        assert peaks[1] - peaks[0] < (event_bytes[1] - event_bytes[0]) / 2

    # gen-data of two recordings on two workers in a child whose wrappers have
    # the worker of seed 1001 SIGKILL the worker of seed 1000 once the parent
    # has received job 0, so the killed worker holds no job; prints the
    # children it leaves
    IDLE_KILL_SCRIPT = """
import multiprocessing, os, signal, sys, time
from evsteer import cli, workers
workers.usable_cpus = lambda: 2
generate, receive = cli.generate_recording, cli.receive
out = sys.argv[1]

def killing(gen, seed):
    if seed == 1000:
        with open(out + ".pid", "w") as fh:
            fh.write(str(os.getpid()))
    else:
        while not os.path.exists(out + ".received"):
            time.sleep(0.01)
        with open(out + ".pid") as fh:
            os.kill(int(fh.read()), signal.SIGKILL)
        open(out + ".killed", "w").close()
    return generate(gen, seed)

def received(conn, job):
    answer = receive(conn, job)
    if job == 0:
        open(out + ".received", "w").close()
    return answer

cli.generate_recording, cli.receive = killing, received
code = cli.main(["--set", "gen.duration=0.5", "gen-data", "--recordings", "2",
                 "--out", out])
print("children left:", len(multiprocessing.active_children()))
sys.exit(code)
"""

    def test_a_worker_killed_while_idle_loses_nothing(self, tmp_path, monkeypatch, capsys):
        # a gen-data that waits forever fails this test at the timeout; the
        # child runs in a session of its own, so its workers die with it
        idle = tmp_path / "idle"
        with subprocess.Popen([sys.executable, "-c", self.IDLE_KILL_SCRIPT, str(idle)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=_child_env(), start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                raise
        assert (child.returncode, stderr) == (EXIT_OK, "")
        assert (tmp_path / "idle.killed").exists()
        code, serial_out, _, _ = self._gen_data(
            monkeypatch, capsys, 1, tmp_path / "serial", "--set", "gen.duration=0.5",
            recordings=2)
        assert code == EXIT_OK
        assert stdout == serial_out + "children left: 0\n"
        assert _dir_sha256(idle) == _dir_sha256(tmp_path / "serial")


FLOOD = ["--set", "sim.scenario=rate_test", "--set", "sim.rate_profile=1:2000000"]


class TestFrameProducer:
    """simulate of a static scene, whose frames a forked producer makes."""

    @pytest.fixture
    def simulate(self, monkeypatch, capsys, push_pids):
        """simulate(cpus, out, weights) runs 0.3 s of the flood as if `cpus`
        CPUs were usable; returns (exit, stdout without the log path, stderr)."""
        def run(cpus, out, weights):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            argv = [*FLOOD, "simulate", "--weights", weights, "--seed", "7",
                    "--duration", "0.3", "--out", str(out)]
            code = main(argv)
            captured = capsys.readouterr()
            assert multiprocessing.active_children() == []
            assert (os.getpid() in push_pids()) == (cpus == 1)  # forked with two CPUs
            return code, captured.out.replace(str(out), "OUT"), captured.err

        return run

    def test_success_leaves_no_producer(self, tmp_path, simulate, weights):
        runs = [simulate(cpus, tmp_path / f"sim{cpus}", weights) for cpus in (2, 1)]
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK
        assert (tmp_path / "sim2" / "run.log").read_bytes() == \
            (tmp_path / "sim1" / "run.log").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_a_parent_side_error_leaves_no_producer(self, tmp_path, simulate):
        net = runtime_network(np.random.default_rng(0))
        [layer for layer in net.layers if layer.kind == "dense"][-1].weights[:] = 3e38
        save_weights(net, tmp_path / "huge.net")
        code, _, err = simulate(2, tmp_path / "sim", str(tmp_path / "huge.net"))
        assert code == EXIT_RUNTIME
        assert "FloatingPointError: non-finite logits" in err

    def test_a_producer_error_is_the_in_process_error(self, tmp_path, monkeypatch, simulate,
                                                      weights):
        leak = sim.leak_events

        def failing(rng, rate, t0, t1, *args):
            if t0 >= 100_000:
                raise ValueError(f"no leak after {t0} us")
            return leak(rng, rate, t0, t1, *args)

        monkeypatch.setattr(sim, "leak_events", failing)
        runs = [simulate(cpus, tmp_path / f"sim{cpus}", weights) for cpus in (2, 1)]
        assert runs[0] == runs[1]
        assert runs[0] == (EXIT_RUNTIME, "", "runtime error: ValueError: no leak after "
                                             "100000 us\n")

    # simulate of the flood in a child whose leak noise SIGKILLs the process
    # it runs in, the producer, at 0.1 s; prints the children it leaves
    KILLED_PRODUCER_SCRIPT = """
import multiprocessing, os, signal, sys
from evsteer import cli, sim, workers
workers.usable_cpus = lambda: 2
parent, leak = os.getpid(), sim.leak_events

def killing(rng, rate, t0, t1, *args):
    if t0 >= 100_000 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return leak(rng, rate, t0, t1, *args)

sim.leak_events = killing
code = cli.main(sys.argv[2:])
print("children left:", len(multiprocessing.active_children()))
sys.exit(code)
"""

    def test_a_killed_producer_fails_the_run(self, tmp_path, weights):
        argv = [*FLOOD, "simulate", "--weights", weights, "--duration", "0.5",
                "--out", str(tmp_path / "sim")]
        code, stdout, stderr = _run_script(self.KILLED_PRODUCER_SCRIPT, argv)
        assert code == EXIT_RUNTIME, stderr
        assert stderr == ("runtime error: WorkerLostError: a worker process died before the "
                          "answer to the frame producer's render step at 105000 us came back\n")
        assert stdout == "children left: 0\n"
        assert not (tmp_path / "sim").exists()


def _run_script(script, argv):
    """(exit, stdout, stderr) of a python -c script run with argv; a script
    that runs past 60 s fails the test. The script runs in a session of its
    own, so the workers it forks die with it then."""
    with subprocess.Popen([sys.executable, "-c", script, "-", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_child_env(), start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            raise
    return child.returncode, stdout, stderr


# simulate of the chase in a child whose renders SIGKILL the process they run
# in, the renderer, at its 20th image; prints the children it leaves
KILLED_RENDERER_SCRIPT = """
import itertools, multiprocessing, os, signal, sys
from evsteer import cli, sim, workers
workers.usable_cpus = lambda: 2
parent, render, images = os.getpid(), sim.render_camera, itertools.count(1)

def killing(*args):
    if os.getpid() != parent and next(images) == 20:
        os.kill(os.getpid(), signal.SIGKILL)
    return render(*args)

sim.render_camera = killing
code = cli.main(sys.argv[2:])
print("children left:", len(multiprocessing.active_children()))
sys.exit(code)
"""


def test_a_killed_renderer_fails_the_chase(tmp_path, weights):
    argv = ["simulate", "--weights", weights, "--duration", "1", "--out", str(tmp_path / "sim")]
    code, stdout, stderr = _run_script(KILLED_RENDERER_SCRIPT, argv)
    assert code == EXIT_RUNTIME, stderr
    assert stderr.startswith("runtime error: WorkerLostError: a worker process died before "
                             "the answer to the renderer's "), stderr
    assert stdout == "children left: 0\n"
    assert not (tmp_path / "sim").exists()


def test_a_command_after_the_renderer_ended_keeps_the_chase(tmp_path, weights, monkeypatch):
    # at the last render step the loop waits until the renderer, ahead of
    # it, has published its final answer, then changes the command, whose
    # record it writes into the ring's mapping after the renderer ended
    image, sends = runner._RenderRing.image, []

    def late(ring):
        if ring.world.t_us != 1_000_000:
            return image(ring)
        time.sleep(0.3)
        ring.world.predator.angular += 0.1
        sent = ring.sent
        got = image(ring)
        sends.append(ring.sent - sent)
        return got

    monkeypatch.setattr(runner._RenderRing, "image", late)
    logs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        out = tmp_path / f"sim{cpus}"
        argv = ["simulate", "--weights", weights, "--duration", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        logs[cpus] = (out / "run.log").read_text()
    assert multiprocessing.active_children() == []
    if STORES_IN_ORDER:
        assert sends == [1]  # the forked run sent a command at its last step
    assert logs[2] == logs[1]


# simulate of the chase in a child that prints its renderer's pid and SIGKILLs
# itself at its 100th render step, so `forked` never ends its block
KILLED_CHASE_SCRIPT = """
import itertools, multiprocessing, os, signal, sys
from evsteer import cli, runner, workers
workers.usable_cpus = lambda: 2
image, steps = runner._RenderRing.image, itertools.count(1)

def killing(ring):
    if next(steps) == 100:
        print(*(child.pid for child in multiprocessing.active_children()), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    return image(ring)

runner._RenderRing.image = killing
sys.exit(cli.main(sys.argv[2:]))
"""


def test_the_renderer_ends_when_the_chase_is_killed(tmp_path, weights, left_running):
    # the renderer, ahead of the loop, waits for a slot the loop never gives
    # back; a renderer that waited for ever would hold the script's stdout,
    # and _run_script would fail at its timeout
    argv = ["simulate", "--weights", weights, "--duration", "1", "--out", str(tmp_path / "sim")]
    code, stdout, stderr = _run_script(KILLED_CHASE_SCRIPT, argv)
    assert code == -signal.SIGKILL, stderr
    pids = [int(pid) for pid in stdout.split()]
    assert len(pids) == 1
    assert left_running(pids) == []


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # a cold start pays for multiprocessing only where a worker is forked
    done = subprocess.run(
        [sys.executable, "-c", "import sys, evsteer.cli; print(sorted(m for m in sys.modules "
                               "if m.split('.')[0] == 'multiprocessing'))"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# serve --events rec.events --aps rec.aps --listen 0 over the seed-5 1 s
# recording and the seed-0 runtime network (numpy 2.4, x86-64): stdout and
# the concatenated datagram payloads, hashed before the replay moved onto
# FrameStream.
SERVE_STDOUT_SHA256 = (
    "de131671f03e7196dc1b0cb404c55e3d85eddd06dd97c41765f892311d57bb78")
SERVE_DATAGRAMS_SHA256 = (
    "8cab627fe474a44f5e0395cdfeba1c3a141f2b5681ad8b6199182f7f345ef050")


class ScriptedNet:
    """Stand-in network whose decisions follow a script, whatever the frame."""

    input_shape = (36, 36, 1)

    def __init__(self, script):
        self.decisions = iter(script)

    def predict(self, values):
        return next(self.decisions)


# seen on the left, lost, then named on the right: an opposite-side reappearance
REAPPEARANCE = [Decision.L, Decision.L, Decision.N, Decision.N, Decision.R, Decision.R]


class TestServeReplay:
    def test_replay_gates_as_chasing_and_passes_a_reappearance(self, tmp_path, monkeypatch):
        # the replay has no behaviour controller to say the robot rotates
        events = np.zeros(5000 * len(REAPPEARANCE), dtype=EVENT_DTYPE)
        events["t"] = np.arange(len(events))
        write_events(tmp_path / "rec.events", events)
        monkeypatch.setattr("evsteer.cli.load_weights", lambda path: ScriptedNet(REAPPEARANCE))
        sent = []
        monkeypatch.setattr(wire.UdpEndpoint, "send",
                            lambda self, payload: sent.append(payload) or True)
        argv = ["--set", "filter.alpha=1", "serve", "--weights", "unused",
                "--events", str(tmp_path / "rec.events"), "--listen", "0"]
        assert main(argv) == EXIT_OK
        assert [wire.decode_decision(p).direction for p in sent] == REAPPEARANCE

    def test_a_late_frame_sends_nothing(self, tmp_path, monkeypatch, capsys):
        # twelve DVS frames 1 ms apart against the 240 Hz cap: frames 0, 1, 5
        # and 9 come at or after the last emission, the others before it
        events = np.zeros(5000 * 12, dtype=EVENT_DTYPE)
        events["t"] = np.arange(len(events)) // 5
        write_events(tmp_path / "rec.events", events)
        net = ScriptedNet([Decision.C] * 12)
        monkeypatch.setattr("evsteer.cli.load_weights", lambda path: net)
        sent = []
        monkeypatch.setattr(wire.UdpEndpoint, "send",
                            lambda self, payload: sent.append(payload) or True)
        argv = ["serve", "--weights", "unused", "--events", str(tmp_path / "rec.events"),
                "--listen", "0"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("decisions 4,")
        assert [wire.decode_decision(p).seq for p in sent] == [0, 1, 2, 3]
        assert len(list(net.decisions)) == 8  # a late frame never reaches the CNN

    def test_feedback_valid_and_malformed_reaches_the_feedback_line(self, tmp_path,
                                                                     monkeypatch, capsys):
        # the robot answers the first decision with three feedback datagrams,
        # one sequence number skipped, and two malformed ones
        events = np.zeros(5000 * len(REAPPEARANCE), dtype=EVENT_DTYPE)
        events["t"] = np.arange(len(events))
        write_events(tmp_path / "rec.events", events)
        monkeypatch.setattr("evsteer.cli.load_weights", lambda path: ScriptedNet(REAPPEARANCE))
        feedback = [wire.FeedbackDatagram(0, Mode.CHASE).encode(), bytes([1, 9]),
                    wire.FeedbackDatagram(1, Mode.ROTATE).encode(), b"\x02",
                    wire.FeedbackDatagram(3, Mode.WANDER).encode()]
        robot = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sent = []

        def send(endpoint, payload):
            if not sent:
                for data in feedback:
                    robot.sendto(data, ("127.0.0.1", endpoint.port))
            sent.append(payload)
            return True

        monkeypatch.setattr(wire.UdpEndpoint, "send", send)
        argv = ["serve", "--weights", "unused", "--events", str(tmp_path / "rec.events"),
                "--listen", "0"]
        try:
            assert main(argv) == EXIT_OK
        finally:
            robot.close()
        assert len(sent) == len(REAPPEARANCE)
        assert capsys.readouterr().out.endswith(
            "feedback: received=3 gap_events=1 lost=1 out_of_order=0 malformed=2\n")

    def test_the_same_script_while_rotating_discards_the_reappearance(self):
        cfg = RunnerConfig(filter=FilterConfig(alpha=1.0))
        decide = decision_step(ScriptedNet(REAPPEARANCE), cfg)
        got = [decide(5000 * k, None, Mode.ROTATE)[3].direction
               for k in range(len(REAPPEARANCE))]
        assert got == REAPPEARANCE[:4] + [Decision.N, Decision.N]

    def test_file_replay_output_is_pinned(self, tmp_path, weights, generated_recordings,
                                          monkeypatch, capsys):
        save_recording(tmp_path / "rec", generated_recordings[0])
        sent = []
        # under the endpoint, so its own send runs and counts what it sends
        monkeypatch.setattr(socket.socket, "sendto",
                            lambda self, payload, peer: sent.append(payload) or len(payload))
        argv = ["serve", "--weights", weights, "--events", str(tmp_path / "rec.events"),
                "--aps", str(tmp_path / "rec.aps"), "--listen", "0"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("decisions 52, datagrams sent 52,")
        assert _sha256(out.encode()) == SERVE_STDOUT_SHA256
        assert _sha256(b"".join(sent)) == SERVE_DATAGRAMS_SHA256


# sha256 of `train --iterations 40 --seed 0` on the train.ds assembled from the
# generated_recordings fixture, and of `saliency --index 0 --class C
# --dump-activations` on it with the seed-0 runtime network (numpy 2.4,
# x86-64): the weights, the trace, both PGMs read in name order and every
# activation file read in name order, hashed once convolutions became banded
# products.
TRAIN_SALIENCY_SHA256 = {
    "train/w.net": "f66d9ac2d0f5d382a0b436f9a949686246fe4a05d9db4cf9a498e04dd827ec5b",
    "train/train_trace.csv":
        "2a0f6da58b52540c7792ceb4e47eb103b02877c74406fd3eb9d453d5133bd452",
    "saliency/*.pgm": "de6881fc963a731046405c975a9ddff4942c6864c7580cb4bf8341b7da49f02a",
    "saliency/activations/*.txt":
        "96fb7fe8dcef719a18149c715003e57e650dad766220887fa67ab72c81083c87",
}


class TestTrainSaliencyGolden:
    def test_outputs_are_pinned(self, tmp_path, weights, generated_recordings):
        train, _, _ = assemble_dataset(generated_recordings)
        save_dataset(tmp_path / "train.ds", train)
        argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--iterations", "40",
                "--seed", "0", "--out", str(tmp_path / "train" / "w.net")]
        assert main(argv) == EXIT_OK
        argv = ["saliency", "--weights", weights, "--dataset", str(tmp_path / "train.ds"),
                "--index", "0", "--class", "C", "--out", str(tmp_path / "saliency"),
                "--dump-activations"]
        assert main(argv) == EXIT_OK
        for pattern, digest in TRAIN_SALIENCY_SHA256.items():
            paths = sorted(tmp_path.glob(pattern))
            assert paths and _sha256(b"".join(p.read_bytes() for p in paths)) == digest, pattern


class TestBlasThreads:
    """evsteer runs BLAS on one thread, so its outputs do not depend on how
    many threads the environment asks for."""

    SCRIPT = """
import sys
from evsteer.cli import main
dataset, weights, out = sys.argv[1:]
sys.exit(main(["train", "--dataset", dataset, "--iterations", "12", "--seed", "0",
               "--out", out + "/train/w.net"])
         or main(["simulate", "--weights", weights, "--seed", "3", "--duration", "0.5",
                  "--out", out + "/sim"]))
"""

    # prints the thread count and kernel of numpy's bundled OpenBLAS, found
    # among the libraries this process has mapped, after importing evsteer
    PROBE = """
import ctypes, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import evsteer
maps = "/proc/self/maps"
paths = sorted({line.split()[-1] for line in open(maps) if "libscipy_openblas64_" in line}
               if os.path.exists(maps) else ())
if not paths:
    sys.exit("absent")
lib = ctypes.CDLL(paths[0])
threads, core = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_get_corename64_
threads.argtypes, threads.restype = [], ctypes.c_int
core.argtypes, core.restype = [], ctypes.c_char_p
print(threads(), core().decode())
"""

    def _probe(self, order, **env):
        done = subprocess.run([sys.executable, "-c", self.PROBE, order], capture_output=True,
                              text=True, env=_child_env(**env), timeout=60)
        if done.stderr.strip() == "absent":
            pytest.skip("numpy has no bundled OpenBLAS (scipy-openblas) to ask")
        assert done.returncode == EXIT_OK, done.stderr
        threads, core = done.stdout.split()
        return int(threads), core

    @pytest.mark.parametrize("order", ["evsteer-first", "numpy-first"])
    def test_blas_runs_one_thread_whatever_the_environment_asks(self, order):
        assert self._probe(order, OPENBLAS_NUM_THREADS="2")[0] == 1

    def _outputs_at_1_and_2_threads(self, tmp_path, weights, recordings, **env):
        train, _, _ = assemble_dataset(recordings)
        save_dataset(tmp_path / "train.ds", train)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(tmp_path / "train.ds"), weights,
                 str(out)], capture_output=True, text=True,
                env=_child_env(OPENBLAS_NUM_THREADS=threads, **env), timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append([(out / name).read_bytes() for name in
                            ("train/w.net", "train/train_trace.csv", "sim/run.log")])
        return outputs

    def test_train_and_simulate_outputs_equal_at_1_and_2_threads(
            self, tmp_path, weights, generated_recordings):
        one, two = self._outputs_at_1_and_2_threads(tmp_path, weights, generated_recordings)
        assert one == two

    def test_outputs_equal_at_1_and_2_threads_on_the_haswell_kernel(
            self, tmp_path, weights, generated_recordings):
        # Haswell's sgemm gives other bits on two threads than on one
        if self._probe("evsteer-first", OPENBLAS_CORETYPE="Haswell")[1] != "Haswell":
            pytest.skip("OpenBLAS does not run its Haswell kernel on this CPU")
        one, two = self._outputs_at_1_and_2_threads(
            tmp_path, weights, generated_recordings, OPENBLAS_CORETYPE="Haswell")
        assert one == two


def _ramped_recording(seed, duration_us=2_000_000, n_events=300_000):
    """Event rate growing linearly in time, 15 Hz APS, labels sweeping N, 0..35.

    80% of the frames fall well after 80% of the label time, so a split by
    time and a split by frame count disagree.
    """
    rng = np.random.default_rng(seed)
    events = np.zeros(n_events, dtype=EVENT_DTYPE)
    events["t"] = np.sort(duration_us * np.sqrt(rng.random(n_events)))
    events["x"] = rng.integers(0, 240, n_events)
    events["y"] = rng.integers(0, 180, n_events)
    events["polarity"] = rng.integers(0, 2, n_events)
    aps_t = np.arange(66_667, duration_us, 66_667, dtype=np.uint32)
    label_t = np.arange(0, duration_us, 5000, dtype=np.uint32)
    return Recording(events=events, aps_t=aps_t,
                     aps_raw=rng.random((len(aps_t), 36, 36), dtype=np.float32),
                     label_t=label_t,
                     label_x=((label_t // 50_000) % 37).astype(np.int16) - 1)


class ContentNet:
    """Stand-in network whose decision follows the frame content."""

    def predict_batch(self, x):
        return (x.reshape(len(x), -1).sum(axis=1) * 1e4).astype(np.int64) % 4


class TestCapacitySweep:
    def test_sweep_scores_the_dataset_test_split(self, tmp_path):
        recs = [_ramped_recording(seed) for seed in (0, 1)]
        for i, rec in enumerate(recs):
            save_recording(tmp_path / f"rec{i:03d}", rec)
        net = ContentNet()
        got = _sweep_capacities(net, str(tmp_path), [2000, 5000])
        for cap, error in got.items():
            _, test, _ = assemble_dataset(recs, capacity=cap)
            rep = evaluate_records(net.predict_batch(test.frames[..., None]), test.labels,
                                   test.target_x, test.source)
            assert error == pytest.approx(rep.per_source_error["DVS"], abs=1e-12)


# sha256 of `eval --dataset test.ds --out eval` with the seed-0 runtime network
# and of `train --test test.ds --iterations 40 --seed 0`'s trace, on the splits
# assembled from the generated_recordings fixture (numpy 2.4, x86-64), and the
# repr of the assembly's class mixes; hashed while evaluation scored per-frame
# records, and the trace once convolutions became banded products.
EVAL_SHA256 = {
    "eval/report.txt": "bc3be790b7b8ea68525649282f1645c45992edc254579d3f34a2cf64a246868f",
    "eval/curve.csv": "ec21a5b4b673ada4ce34e41ffb46c656ae3556419236925e21d1b64a3e738bdb",
    "train/train_trace.csv":
        "be5aa3338f2be526c1fd76b544b34f07c729c39c7569fd456aa0dd9750d34835",
}
CLASS_MIX_REPR = ("({'L': 0.0, 'C': 1.0, 'R': 0.0, 'N': 0.0}, "
                  "{'L': 0.0, 'C': 1.0, 'R': 0.0, 'N': 0.0})")
# the same trace on the splits of _ramped_recording seeds 0 and 1, whose
# test split holds L, R and N frames, hashed the same way
RAMPED_TRACE_SHA256 = "bc2f7f54125a11e5804b176ce4387e0803afb15550041a45593eab9fb416f5c1"
# and the same eval on that test split, hashed before predict_batch scored
# its frames in fixed chunks
RAMPED_EVAL_SHA256 = {
    "eval/report.txt": "e13f8d05f6f27db809399129c48903a167ec64cf49e56d5bdbcf4120fc855c9e",
    "eval/curve.csv": "89e9586f6aa5eeee3254ef381ffca6ef1066cdf6b89a4a6344580d1c94c9b2aa",
}


def _split(tmp_path, recordings):
    train, test, report = assemble_dataset(recordings)
    save_dataset(tmp_path / "train.ds", train)
    save_dataset(tmp_path / "test.ds", test)
    return report


def _train_with_test(tmp_path):
    argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--test",
            str(tmp_path / "test.ds"), "--iterations", "40", "--seed", "0",
            "--out", str(tmp_path / "train" / "w.net")]
    assert main(argv) == EXIT_OK
    return (tmp_path / "train" / "train_trace.csv").read_text()


class TestEvalGolden:
    def test_dataset_report_trace_and_class_mix_are_pinned(self, tmp_path, weights,
                                                           generated_recordings):
        report = _split(tmp_path, generated_recordings)
        assert repr((report["train_class_mix"], report["test_class_mix"])) == CLASS_MIX_REPR
        argv = ["eval", "--weights", weights, "--dataset", str(tmp_path / "test.ds"),
                "--out", str(tmp_path / "eval")]
        assert main(argv) == EXIT_OK
        _train_with_test(tmp_path)
        for name, digest in EVAL_SHA256.items():
            assert _sha256((tmp_path / name).read_bytes()) == digest, name

    def test_multi_class_dataset_report_is_pinned(self, tmp_path, weights):
        report = _split(tmp_path, [_ramped_recording(seed) for seed in (0, 1)])
        assert all(report["test_class_mix"][name] > 0 for name in "LRN")
        argv = ["eval", "--weights", weights, "--dataset", str(tmp_path / "test.ds"),
                "--out", str(tmp_path / "eval")]
        assert main(argv) == EXIT_OK
        for name, digest in RAMPED_EVAL_SHA256.items():
            assert _sha256((tmp_path / name).read_bytes()) == digest, name

    def test_trace_test_accuracy_is_the_eval_p0_accuracy(self, tmp_path, capsys):
        _split(tmp_path, [_ramped_recording(seed) for seed in (0, 1)])
        trace = _train_with_test(tmp_path)
        assert _sha256(trace.encode()) == RAMPED_TRACE_SHA256
        capsys.readouterr()
        argv = ["eval", "--weights", str(tmp_path / "train" / "w.net"),
                "--dataset", str(tmp_path / "test.ds")]
        assert main(argv) == EXIT_OK
        p0 = re.search(r"^accuracy p=0: (\S+)$", capsys.readouterr().out, re.M)[1]
        assert trace.splitlines()[-1].split(",")[2] == p0


# sha256 of `train --iterations 40 --seed 0` (batch 64, dropout 0.25) on the
# train.ds assembled from _ramped_recording seeds 0 and 1, whose training
# split holds L, C and R frames (numpy 2.4, x86-64): the weights and the
# trace, hashed once convolutions became banded products.
RAMPED_TRAIN_SHA256 = {
    "train/w.net": "570481ec9e6e7b5454c308b825a6c007e4fda3c8756a10e883fc45ab7724f01c",
    "train/train_trace.csv":
        "8e47e31ad8f0da5c1e6de1c6eed4e7e78ce7bb1823c5d6ff15fd0a2dd21b4136",
}


class TestMultiClassTrainGolden:
    def test_weights_and_trace_are_pinned(self, tmp_path):
        report = _split(tmp_path, [_ramped_recording(seed) for seed in (0, 1)])
        assert all(report["train_class_mix"][name] > 0 for name in "LCR")
        argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--iterations", "40",
                "--seed", "0", "--out", str(tmp_path / "train" / "w.net")]
        assert main(argv) == EXIT_OK
        for name, digest in RAMPED_TRAIN_SHA256.items():
            assert _sha256((tmp_path / name).read_bytes()) == digest, name


def _empty_dataset(path):
    save_dataset(path, Dataset(frames=np.zeros((0, 36, 36), np.float32),
                               labels=np.zeros(0, np.uint8),
                               target_x=np.zeros(0, np.int16),
                               source=np.zeros(0, np.uint8)))
    assert len(load_dataset(path)) == 0
    return str(path)


class TestEmptyDataset:
    def test_gen_data_without_aps_frames_augments_nothing(self, tmp_path, capsys):
        argv = ["--set", "gen.duration=0.5", "--set", "sim.aps_period_us=100000000",
                "gen-data", "--recordings", "2", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("(APS fraction 0.000)\n")
        report = (tmp_path / "class_report.txt").read_text()
        assert "\ntrain_aps: 0\ntrain_aps_before_augment: 0\n" in report
        train = load_dataset(tmp_path / "train.ds")
        assert len(train) > 0 and train.source_counts() == (0, len(train))

    def test_eval_reports_zero_records(self, tmp_path, weights, capsys):
        argv = ["eval", "--weights", weights, "--dataset", _empty_dataset(tmp_path / "e.ds"),
                "--out", str(tmp_path / "eval")]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("== dataset e.ds ==\nrecords: 0\n") and "accuracy" not in out
        assert "error rate APS: undefined\nerror rate DVS: undefined\n" in out
        assert (tmp_path / "eval" / "curve.csv").read_text() == "p,accuracy\n"

    @pytest.mark.parametrize("empty", ["--dataset", "--test"])
    def test_train_on_no_frames_is_data_error(self, tmp_path, generated_recordings,
                                              capsys, empty):
        _split(tmp_path, generated_recordings)
        paths = {"--dataset": str(tmp_path / "train.ds"), "--test": str(tmp_path / "test.ds"),
                 empty: _empty_dataset(tmp_path / "e.ds")}
        argv = ["train", *(v for kv in paths.items() for v in kv), "--iterations", "2",
                "--out", str(tmp_path / "w.net")]
        assert main(argv) == EXIT_DATA
        assert "e.ds: dataset has no frames" in capsys.readouterr().err
        assert not (tmp_path / "w.net").exists()


class TestNoFrameExitCodes:
    SHORT = ["--set", "gen.duration=0.01", "gen-data", "--recordings", "1"]

    def test_gen_data_of_a_recording_without_a_frame_is_usage_error(self, tmp_path,
                                                                    capsys):
        assert main([*self.SHORT, "--out", str(tmp_path / "gen")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "gen-data: rec000 (seed 1000) gives no frame at capacity 5000: "
            "gen.duration 0.01 s is too short\n")
        assert not (tmp_path / "gen" / "train.ds").exists()

    def test_a_sweep_over_a_recording_without_a_frame_is_data_error(self, tmp_path, weights,
                                                                   capsys):
        recordings = tmp_path / "gen"
        assert main([*self.SHORT, "--out", str(recordings)]) == EXIT_USAGE
        capsys.readouterr()
        argv = ["eval", "--weights", weights, "--recordings", str(recordings),
                "--sweep-capacity", "5000"]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: {recordings / 'rec000'}: recording "
                                           "gives no frame at capacity 5000\n")


class TestReaderExitCodes:
    def test_event_address_outside_sensor_is_data_error(self, tmp_path, weights, capsys):
        events = np.zeros(2, dtype=EVENT_DTYPE)
        events["x"] = [10, 240]
        write_events(tmp_path / "bad.events", events)
        argv = ["serve", "--weights", weights, "--events", str(tmp_path / "bad.events"),
                "--listen", "0"]
        assert main(argv) == EXIT_DATA
        assert "outside 240x180" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_a_non_finite_frame_value_is_data_error(self, tmp_path, weights,
                                                    generated_recordings, capsys, command):
        _split(tmp_path, generated_recordings)
        ds = load_dataset(tmp_path / "test.ds")
        ds.frames[len(ds) // 2, 18, 18] = np.nan
        save_dataset(tmp_path / "nan.ds", ds)
        out = str(tmp_path / "train" / "w.net")
        argv = {"eval": ["eval", "--weights", weights],
                "train": ["train", "--iterations", "3", "--out", out]}[command]
        argv += ["--dataset", str(tmp_path / "nan.ds")]
        assert main(argv) == EXIT_DATA
        assert "nan.ds: non-finite frame value" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()

    def test_a_non_finite_aps_value_is_data_error(self, tmp_path, weights,
                                                  generated_recordings, capsys):
        rec = generated_recordings[0]
        aps_raw = rec.aps_raw.copy()
        aps_raw[1, 18, 18] = np.inf
        save_recording(tmp_path / "rec", dataclasses.replace(rec, aps_raw=aps_raw))
        argv = ["serve", "--weights", weights, "--events", str(tmp_path / "rec.events"),
                "--aps", str(tmp_path / "rec.aps"), "--listen", "0"]
        assert main(argv) == EXIT_DATA
        assert "rec.aps: non-finite APS value" in capsys.readouterr().err


class TestConfigExitCodes:
    @pytest.mark.parametrize("override", [
        "no.such_key=1",  # unknown key
        "filter.constraints=maybe",  # bad bool
        "sim.timestep_us=1.5",  # bad int
        "filter.alpha=fast",  # bad float
        "sim.rate_profile=1:2000000,2:lots",  # bad rate profile segment
        "behavior.max_linear=2.5",  # above the 2 m/s top speed
        "filter.alpha=0",
        "frames.capacity=0",
        "sim.timestep_us=0",
        "sim.render_every=0",
        "camera.fov_deg=0",
        "sim.rate_profile=1:-5",  # negative event rate
        "sim.scenario=bogus",
        "sim.scenario=static",  # the static scene is rate_test
        "sim.prey_policy=bogus",
        "train.eval_every=0",
        "noise.threshold=0",
        "noise.leak_rate=-1",
        "gen.light_min=2",  # above gen.light_max
        "arena.width=0",
        "arena.width=1",  # no room for the 1.2 m start margins
        "sim.corrupt_aps_prob=2",
        "sim.aps_period_us=0",
        "noise.aps_burst=-5",
        "gen.duration=0",
        "gen.seed_base=-5",
        "gen.light_min=-1",
        "gen.prey_speed_min=-3",
        "gen.predator_speed_min=-1",
        "behavior.slow_factor=1",  # divides by zero in the speed ramp
        "behavior.slow_factor=0.5",  # an inverted ramp
        "behavior.safety_distance=0",
        "behavior.rotate_angular=-1",
        "behavior.center_laser_fov=-5",  # an empty catch sector
        "sim.duration=nan",
        "sim.duration=inf",
        "sim.duration=-1",
        "noise.leak_rate=nan",
        "noise.leak_rate=inf",
        "noise.threshold=nan",
        "noise.threshold=inf",
        "sim.light_gain=nan",
        "sim.light_gain=-1",
        "sim.prey_speed=-1",
        "sim.prey_speed=nan",
        "sim.circle_radius=0",
        "sim.circle_radius=-1",
        "behavior.chase_angular=-1",
        "train.lr=-1",
        "train.lr=nan",
        "arena.width=nan",
        "arena.depth=inf",
        "arena.wall_height=nan",
        "arena.wall_height=-1",
        "wire.rate_cap_hz=nan",
        "wire.rate_cap_hz=inf",
        "wire.listen=65536",
        "wire.peer=no-port",
        "wire.peer=127.0.0.1:99999",  # sendto() refuses the port mid-run
        "behavior.lost_timeout=nan",
        "frames.aps_target_fraction=1",  # no DVS share left to divide by
    ])
    def test_bad_override_is_usage_error(self, weights, capsys, override):
        argv = ["--set", override, "simulate", "--weights", weights, "--dry-run"]
        assert main(argv) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    def test_config_line_without_equals_is_usage_error(self, tmp_path, weights, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment\nfilter.alpha 0.3\n")
        argv = ["--config", str(path), "simulate", "--weights", weights, "--dry-run"]
        assert main(argv) == EXIT_USAGE
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_unreadable_config_file_is_usage_error(self, tmp_path, weights, capsys):
        argv = ["--config", str(tmp_path / "missing.cfg"), "simulate",
                "--weights", weights, "--dry-run"]
        assert main(argv) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_a_config_file_that_is_not_text_is_usage_error(self, tmp_path, weights, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# d\u00e9faut\nfilter.alpha = 0.3\n".encode("latin-1"))
        argv = ["--config", str(path), "simulate", "--weights", weights, "--dry-run"]
        assert main(argv) == EXIT_USAGE
        assert "cannot read config" in capsys.readouterr().err

    def test_no_numeric_key_takes_a_non_finite_or_negative_value(self):
        numeric = [key for key, default in KEYS.items() if type(default) in (int, float)]
        assert len(numeric) == 45
        accepted = []
        for key in numeric:
            for value in ("nan", "inf", "-1"):
                with contextlib.suppress(ConfigError):
                    Config([(key, value)])
                    accepted.append(f"{key}={value}")
        assert accepted == []

    def test_gen_data_without_recordings_is_usage_error(self, tmp_path, capsys):
        argv = ["gen-data", "--recordings", "0", "--out", str(tmp_path / "gen")]
        assert main(argv) == EXIT_USAGE
        assert "recordings must be positive" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()


# stdout of `simulate --dry-run` (the network line and every key = default)
# and the sha256 of the sorted-key JSON of the manifest `config` block after
# three overrides that coerce (1 -> 1.0, text profile, off -> False) and
# `--duration 0.05`, which the block records as sim.duration; both hashed
# over the 52 keys left once behavior.center_vision_fov, which nothing read,
# was deleted.
DRY_RUN_SHA256 = "a6ed892089114896c80e101d48e1d8b037822a17876d9bb0047d09576453e924"
MANIFEST_CONFIG_SHA256 = "cf0cf19e9eb54cb4a47369d2f0110a1da7bfe52ad4d4f2726007dbece9ee4f34"


class TestArgumentExitCodes:
    # each usage error comes before the missing dataset would be read
    @pytest.mark.parametrize("value", ["a,b", "0", "-5", ""])
    def test_a_bad_sweep_capacity_is_usage_error(self, tmp_path, weights, capsys, value):
        argv = ["eval", "--weights", weights, "--dataset", str(tmp_path / "missing.ds"),
                "--recordings", str(tmp_path), f"--sweep-capacity={value}"]
        assert main(argv) == EXIT_USAGE
        assert "argument --sweep-capacity" in capsys.readouterr().err

    def test_a_sweep_without_recordings_is_usage_error(self, tmp_path, weights, capsys):
        argv = ["eval", "--weights", weights, "--dataset", str(tmp_path / "missing.ds"),
                "--sweep-capacity", "5000"]
        assert main(argv) == EXIT_USAGE
        assert "--sweep-capacity needs --recordings" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["simulate", "--dry-run"],
                                         ["serve", "--sim", "--listen", "0"]])
    def test_a_negative_seed_is_usage_error(self, tmp_path, weights, capsys, command):
        argv = [*command, "--weights", weights, "--seed", "-1", "--duration", "0.1"]
        if command[0] == "simulate":
            argv += ["--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_USAGE
        assert "argument --seed: '-1' is not an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_serve_aps_without_events_is_usage_error(self, tmp_path, weights, capsys):
        argv = ["serve", "--weights", weights, "--sim", "--aps", str(tmp_path / "rec.aps"),
                "--duration", "0.1", "--listen", "0"]
        assert main(argv) == EXIT_USAGE
        assert "--aps needs --events" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_train_into_a_directory_is_usage_error(self, tmp_path, generated_recordings,
                                                    capsys, flag):
        _split(tmp_path, generated_recordings)
        paths = {"--out": str(tmp_path / "train" / "w.net"),
                 "--trace": str(tmp_path / "trace.csv")}
        paths[flag] = str(tmp_path)
        argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--iterations", "1",
                "--out", paths["--out"], "--trace", paths["--trace"]]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""  # refused before the first iteration
        assert f"train: {flag} {tmp_path} is a directory" in err
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("command, name", [
        (["gen-data", "--recordings", "1"], "train.ds"),
        (["simulate", "--weights", "MISSING"], "run.log"),
        (["eval", "--weights", "MISSING", "--dataset", "MISSING"], "curve.csv"),
        (["saliency", "--weights", "MISSING", "--dataset", "MISSING", "--class", "C"],
         "overlay_C.pgm"),
    ], ids=["gen-data", "simulate", "eval", "saliency"])
    def test_an_output_file_that_is_a_directory_is_usage_error(self, tmp_path, capsys,
                                                                command, name):
        # refused before any work: the missing inputs are never read
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = [arg.replace("MISSING", str(tmp_path / "missing")) for arg in command]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"{command[0]}: --out {out / name} is a directory\n")
        assert os.listdir(out) == [name]

    @pytest.mark.parametrize("command, name", [
        (["gen-data", "--recordings", "1"], "train.ds"),
        (["simulate", "--weights", "MISSING"], "run.log"),
        (["eval", "--weights", "MISSING", "--dataset", "MISSING"], "report.txt"),
        (["saliency", "--weights", "MISSING", "--dataset", "MISSING", "--class", "C"],
         "saliency_C.pgm"),
        (["train", "--dataset", "MISSING"], "w.net"),
    ], ids=["gen-data", "simulate", "eval", "saliency", "train"])
    def test_an_output_directory_that_is_a_file_is_usage_error(self, tmp_path, capsys,
                                                                 command, name):
        # refused before any work: the missing inputs are never read
        out = tmp_path / "out"
        out.write_text("a file\n")
        argv = [arg.replace("MISSING", str(tmp_path / "missing")) for arg in command]
        flag_value = out / name if command[0] == "train" else out
        assert main([*argv, "--out", str(flag_value)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"{command[0]}: --out {out / name}: {out} is not a directory\n")
        assert out.read_text() == "a file\n"

    @pytest.mark.parametrize("command", [
        ["--dataset", "MISSING"], ["--sweep-capacity", "5000", "--recordings", "MISSING"],
    ], ids=["dataset", "sweep"])
    def test_running_the_network_without_weights_is_usage_error(self, tmp_path, capsys,
                                                                 command):
        # refused before any work: the missing inputs are never read
        argv = [arg.replace("MISSING", str(tmp_path / "missing")) for arg in command]
        assert main(["eval", *argv, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "eval: --dataset and --sweep-capacity need --weights\n")
        assert not (tmp_path / "out").exists()

    def test_eval_with_nothing_to_evaluate_is_usage_error(self, tmp_path, capsys):
        # refused before the missing weights are read
        assert main(["eval", "--weights", str(tmp_path / "missing.net")]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "eval: nothing to evaluate (need --dataset, "
                                           "--runlog, or --sweep-capacity)\n")

    def test_saliency_activations_into_a_file_is_usage_error(self, tmp_path, weights,
                                                              generated_recordings, capsys):
        _split(tmp_path, generated_recordings)
        activations = tmp_path / "out" / "activations"
        activations.parent.mkdir()
        activations.write_text("")
        argv = ["saliency", "--weights", weights, "--dataset", str(tmp_path / "train.ds"),
                "--class", "C", "--out", str(activations.parent), "--dump-activations"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"saliency: --dump-activations {activations} is not a directory\n")
        assert os.listdir(activations.parent) == ["activations"]  # no PGM written

    def test_a_file_passed_as_a_directory_is_data_error(self, weights, capsys):
        argv = ["eval", "--weights", weights, "--recordings", weights, "--sweep-capacity", "5000"]
        assert main(argv) == EXIT_DATA
        assert f"data error: [Errno 20] Not a directory: '{weights}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "--weights", "DIR", "--dry-run"],
        ["eval", "--weights", "W", "--dataset", "DIR"],
        ["eval", "--weights", "W", "--runlog", "DIR"],
        ["train", "--dataset", "DIR", "--out", "OUT"],
        ["serve", "--weights", "W", "--events", "DIR", "--listen", "0"],
    ], ids=["simulate-weights", "eval-dataset", "eval-runlog", "train-dataset",
            "serve-events"])
    def test_an_input_that_is_a_directory_is_data_error(self, tmp_path, weights, capsys,
                                                         command):
        out = tmp_path / "train" / "w.net"
        names = {"DIR": str(tmp_path), "W": weights, "OUT": str(out)}
        assert main([names.get(arg, arg) for arg in command]) == EXIT_DATA
        assert f"data error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_train_makes_the_trace_directory(self, tmp_path, generated_recordings):
        _split(tmp_path, generated_recordings)
        trace = tmp_path / "traces" / "new" / "trace.csv"
        argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--iterations", "2",
                "--out", str(tmp_path / "train" / "w.net"), "--trace", str(trace)]
        assert main(argv) == EXIT_OK
        assert trace.read_text().startswith("iteration,loss,test_accuracy\n")
        manifest = json.loads((tmp_path / "train" / "manifest.json").read_text())
        assert manifest["outputs"] == ["trace.csv", "w.net"]


class TestConfigSurface:
    def test_every_key_is_read_by_the_program(self):
        source = "".join(path.read_text() for path in Path(evsteer.__file__).parent.glob("*.py"))
        unread = [key for key in KEYS
                  if not re.search(rf"\.{key.rpartition('.')[2]}\b", source)]
        assert unread == []

    def test_dry_run_key_dump_is_pinned(self, weights, capsys):
        assert main(["simulate", "--weights", weights, "--dry-run"]) == EXIT_OK
        assert _sha256(capsys.readouterr().out.encode()) == DRY_RUN_SHA256

    def test_manifest_config_is_pinned(self, tmp_path, weights):
        argv = ["--set", "sim.light_gain=1", "--set", "sim.rate_profile=1:2000000",
                "--set", "filter.constraints=off", "simulate", "--weights", weights,
                "--duration", "0.05", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        config = json.loads((tmp_path / "sim" / "manifest.json").read_text())["config"]
        assert len(config) == 52
        assert _sha256(json.dumps(config, sort_keys=True).encode()) == MANIFEST_CONFIG_SHA256


def _manifest_config(out):
    return json.loads((out / "manifest.json").read_text())["config"]


class TestSettingFlags:
    """A flag that names a config key spells --set, so the manifest records it."""

    def test_a_flag_wins_over_set_which_wins_over_config(self, tmp_path, weights, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("sim.duration = 0.1\nsim.light_gain = 0.9\narena.depth = 6.5\n")
        argv = ["--config", str(path), "--set", "sim.duration=0.2", "--set",
                "sim.light_gain=0.8", "simulate", "--weights", weights, "--duration",
                "0.05", "--dry-run"]
        assert main(argv) == EXIT_OK
        dump = capsys.readouterr().out
        for line in ("sim.duration = 0.05", "sim.light_gain = 0.8", "arena.depth = 6.5",
                     "arena.width = 9.5"):
            assert f"\n{line}\n" in dump

    def test_simulate_reruns_from_its_manifest_config(self, tmp_path, weights):
        argv = ["simulate", "--weights", weights, "--seed", "5"]
        assert main([*argv, "--duration", "0.3", "--out", str(tmp_path / "a")]) == EXIT_OK
        config = _manifest_config(tmp_path / "a")
        assert config["sim.duration"] == 0.3
        path = tmp_path / "ran.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        assert main(["--config", str(path), *argv, "--out", str(tmp_path / "b")]) == EXIT_OK
        assert _manifest_config(tmp_path / "b") == config
        assert (tmp_path / "b" / "run.log").read_bytes() == \
            (tmp_path / "a" / "run.log").read_bytes()

    def test_train_records_its_iterations_and_seed(self, tmp_path, generated_recordings):
        _split(tmp_path, generated_recordings)
        argv = ["train", "--dataset", str(tmp_path / "train.ds"), "--iterations", "3",
                "--seed", "9", "--out", str(tmp_path / "train" / "w.net")]
        assert main(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "train" / "manifest.json").read_text())
        assert manifest["seeds"] == [9]
        assert (manifest["config"]["train.iterations"], manifest["config"]["train.seed"]) \
            == (3, 9)

    def test_gen_data_records_its_recording_count(self, tmp_path):
        argv = ["--set", "gen.duration=0.2", "gen-data", "--recordings", "2",
                "--out", str(tmp_path / "gen")]
        assert main(argv) == EXIT_OK
        assert _manifest_config(tmp_path / "gen")["gen.recordings"] == 2


# sha256 of the three outputs of `simulate --seed 3 --duration 1` with the
# seed-0 runtime network (numpy 2.4, x86-64), hashed before the run log became
# the only record a closed-loop run returns.
SIMULATE_SHA256 = {
    "run.log": "50db97aa83ec20481625977a92adfd35f930f2f0467ebdb613e8abaf512f62b2",
    "report.txt": "eb7c910b371c2d0f0bb0c25b59240533b1b77b5fc793d5b95c647f2a79aefa64",
    "curve.csv": "b0b77b3e99c6bce32672c9853f3c9348b24d3d749bb0ec924a030be3471e30bd",
}


class TestSimulateGolden:
    def test_outputs_are_pinned_and_eval_reprints_the_report(self, tmp_path, weights,
                                                             capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--weights", weights, "--seed", "3", "--duration", "1",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        for name, digest in SIMULATE_SHA256.items():
            assert _sha256((out / name).read_bytes()) == digest, name
        capsys.readouterr()
        assert main(["eval", "--weights", weights, "--runlog", str(out / "run.log")]) == EXIT_OK
        header, _, body = capsys.readouterr().out.partition("\n")
        assert header == "== runlog run.log (raw) =="
        assert body == (out / "report.txt").read_text() + "\n"


class TestRunlogReports:
    def _eval(self, tmp_path, weights, data):
        path = tmp_path / "run.log"
        path.write_bytes(data)
        return main(["eval", "--weights", weights, "--runlog", str(path)])

    @pytest.mark.parametrize("data, message", [
        (b"DEC 5 DVS X C\n", "unknown decision name"),
        (b"DEC 5\n", "index out of range"),
        (b"GT 5 x C\n", "invalid literal"),
        (b"END -1\n", "outside 0..2**63-1"),
        (b"END 18446744073709551616\n", "outside 0..2**63-1"),
        (b"DEC 5 DVS L C\nEND 10\n", "1 DEC but 0 GT"),
        (b"\xff\xfe\x00DEC", "not text"),
        (b"DEC 5 DVX L C\nGT 5 N N\n", "neither APS nor DVS"),
        (b"DEC 5 DVS L C\nGT 5 36 R\n", "outside [0, 36)"),
        (b"DEC 5 DVS L C\nGT 5 -1 L\n", "outside [0, 36)"),
        (b"DEC 5 DVS L C\nGT 5 30 L\n", "not the label of target 30"),
        (b"DEC 5 DVS L C\nGT 5 N C\n", "not the label of target N"),
        (b"UDP 5 9999 77\n", "UDP seq 9999 outside 0..255"),
        (b"UDP 5 256 1\n", "UDP seq 256 outside 0..255"),
        (b"UDP 5 -1 1\n", "UDP seq -1 outside 0..255"),
        (b"UDP 5 0 4\n", "direction 4 outside 0..3"),
        (b"UDP 5 0 -1\n", "direction -1 outside 0..3"),
        (b"MODE 5 BOGUS Q 1.0\n", "unknown mode name 'BOGUS'"),
        (b"MODE 5 CHASE Q 1.0\n", "unknown decision name 'Q'"),
        (b"MODE 5 CHASE C -0.5\n", "d_min -0.5 is negative or NaN"),
        (b"MODE 5 CHASE C nan\n", "d_min nan is negative or NaN"),
        (b"MODE 5 CHASE C -inf\n", "d_min -inf is negative or NaN"),
        (b"CATCH 5 -3\n", "CATCH distance -3 is negative or not finite"),
        (b"CATCH 5 inf\n", "CATCH distance inf is negative or not finite"),
        (b"CATCH 5 nan\n", "CATCH distance nan is negative or not finite"),
        (b"DEC 5 DVS L C\nGT 9000 N N\n", "GT stamp 9000 differs from its DEC stamp 5"),
        (b"DEC 5 DVS L C\nDEC 9 DVS L C\nGT 5 N N\nGT 10 N N\n",
         "GT stamp 10 differs from its DEC stamp 9"),
    ])
    def test_malformed_runlog_is_data_error(self, tmp_path, weights, capsys, data, message):
        assert self._eval(tmp_path, weights, b"# evsteer-runlog v1\n" + data) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err

    def test_log_without_magic_line_is_data_error(self, tmp_path, weights, capsys):
        assert self._eval(tmp_path, weights, b"DEC 5 DVS L L\nGT 5 0 L\nEND 10\n") == EXIT_DATA
        assert "first line is not '# evsteer-runlog v1'" in capsys.readouterr().err

    def test_lines_the_runner_writes_are_accepted(self, tmp_path, weights, capsys):
        # an empty laser sector reads inf, which MODE lines carry as is
        data = (b"# evsteer-runlog v1\nDEC 5 DVS L L\nGT 5 0 L\nUDP 5 255 3\n"
                b"MODE 5 PREY_CAUGHT C inf\nMODE 6 WANDER N 0.000\nCATCH 5 0.000\nEND 10\n")
        assert self._eval(tmp_path, weights, data) == EXIT_OK
        out = capsys.readouterr().out
        assert "records: 1\naccuracy p=0: 1.0000\n" in out and "catches: 1\n" in out

    def test_a_log_is_scored_without_reading_weights(self, tmp_path, weights, capsys):
        path = tmp_path / "run.log"
        path.write_bytes(b"# evsteer-runlog v1\nDEC 5 DVS L L\nGT 5 0 L\nDEC 9 DVS C R\n"
                         b"GT 9 30 R\nCATCH 9 0.000\nEND 10\n")
        reports = []
        for extra in ([], ["--weights", weights], ["--weights", str(tmp_path / "missing")]):
            assert main(["eval", "--runlog", str(path), *extra]) == EXIT_OK
            reports.append(capsys.readouterr())
        assert reports[0].out.startswith("== runlog run.log (raw) ==\nrecords: 2\n")
        assert reports[0] == reports[1] == reports[2]

    def test_eval_of_a_log_without_decisions_reports_zero_records(self, tmp_path, weights,
                                                                 capsys):
        assert self._eval(tmp_path, weights, b"# evsteer-runlog v1\nEND 20000\n") == EXIT_OK
        out = capsys.readouterr().out
        assert "records: 0\n" in out and "accuracy" not in out
        assert "decisions: 0\n" in out

    def test_simulate_without_decisions_reports_zero_records(self, tmp_path, weights):
        out = tmp_path / "sim"
        argv = ["simulate", "--weights", weights, "--duration", "0.02", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert "DEC" not in (out / "run.log").read_text()
        report = (out / "report.txt").read_text()
        assert report.startswith("records: 0\n") and "accuracy" not in report
        assert (out / "curve.csv").read_text() == "p,accuracy\n"


RUNLOG_TOKENS = ["DEC", "GT", "UDP", "MODE", "CATCH", "END", "#", "APS", "DVS",
                 "L", "C", "R", "N", "0", "5", "-3", "12", "4167", "99999999999999999999",
                 "1.5", "nan", "x"]
_NAMES = st.sampled_from("LCRN")
# a DEC/GT pair; stamps may repeat, go backwards or leave the int64 range, and
# half the GT lines carry their target's label, so some logs get scored
_STAMPS = st.one_of(st.integers(0, 10 ** 7), st.sampled_from([-1, 2 ** 63 - 1, 2 ** 63]))
_GT_FIELDS = st.one_of(st.sampled_from(["N N", "0 L", "12 C", "35 R"]),
                       st.tuples(st.sampled_from(["N", "-1", "0", "12", "35", "40"]),
                                 _NAMES).map(" ".join))
DEC_GT_PAIRS = st.tuples(_STAMPS, st.sampled_from(["APS", "DVS"]), _NAMES, _NAMES,
                         _GT_FIELDS).map(lambda v: "DEC {0} {1} {2} {3}\nGT {0} {4}".format(*v))


class TestRunlogFuzz:
    @pytest.fixture(scope="class")
    def saved_weights(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "w.net"
        save_weights(runtime_network(np.random.default_rng(0)), path)
        return str(path)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.lists(st.sampled_from(RUNLOG_TOKENS), max_size=6)
                              .map(" ".join), st.text(max_size=20), DEC_GT_PAIRS),
                    max_size=12))
    def test_any_text_reports_or_is_data_error(self, saved_weights, tmp_path_factory,
                                               lines):
        path = tmp_path_factory.mktemp("log") / "run.log"
        path.write_text("\n".join(["# evsteer-runlog v1"] + lines), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(["eval", "--weights", saved_weights, "--runlog", str(path)])
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_OK:
            assert buf.getvalue().startswith("== runlog run.log (raw) ==\nrecords: ")


def _udp_lines(log):
    """The (seq, direction) of each UDP line of a run log, in order."""
    return [(seq, direction) for _, seq, direction in runner.parse_runlog(log)["UDP"]]


class TestServeSim:
    @pytest.fixture
    def serve_sim(self, monkeypatch, capsys):
        """serve_sim(sets, argv, send_s=0.0) runs `serve --sim --listen 0`
        with the --set pairs sets and argv as if two CPUs were usable, each
        sendto taking send_s seconds; returns (stdout, the run's log, the
        (seq, direction) of each payload sendto got, the number of workers
        forked). It sends from the one thread there is, and no worker
        outlives it."""
        def run(sets, argv, send_s=0.0):
            monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
            sent, logs, forks, threads = [], [], [], set()

            def sendto(sock, payload, peer):
                threads.add(threading.active_count())
                time.sleep(send_s)
                sent.append(tuple(payload))
                return len(payload)

            # under the endpoint, so its own send runs and counts what it sends
            monkeypatch.setattr(socket.socket, "sendto", sendto)
            real_loop, real_forked = cli.run_closed_loop, runner.forked
            monkeypatch.setattr(cli, "run_closed_loop",
                                lambda *args, **kw: logs.append(real_loop(*args, **kw)))
            monkeypatch.setattr(runner, "forked",
                                lambda *args: forks.append(args) or real_forked(*args))
            assert main([*sets, "serve", "--sim", "--listen", "0", *argv]) == EXIT_OK
            assert threads == {1} and multiprocessing.active_children() == []
            return capsys.readouterr().out, logs[0], sent, len(forks)

        return run

    @pytest.mark.parametrize("send_s", [0.0, 0.02], ids=["sendto", "slow-sendto"])
    @pytest.mark.parametrize("sets, duration", [([], "1"), (FLOOD, "0.3")],
                             ids=["chase", "flood"])
    def test_the_datagrams_sent_are_the_run_logs_udp_lines(self, weights, serve_sim,
                                                            sets, duration, send_s):
        # each decision is sent as it is made, however long a send takes
        out, log, sent, forks = serve_sim(
            sets, ["--weights", weights, "--seed", "3", "--duration", duration], send_s)
        udp = _udp_lines(log)
        assert len(udp) > 0 and sent == udp
        assert out.startswith(f"decisions {len(udp)}, datagrams sent {len(udp)}, "
                              f"send errors 0\n")
        # a producer or a renderer, as simulate forks
        assert forks == (1 if sets or STORES_IN_ORDER else 0)

    def test_live_feed_sends_the_decisions_of_the_same_run(self, tmp_path, weights,
                                                           capsys):
        argv = ["simulate", "--weights", weights, "--seed", "3", "--duration", "1",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        udp = _udp_lines((tmp_path / "sim" / "run.log").read_text())
        assert len(udp) > 0
        capsys.readouterr()
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind(("127.0.0.1", 0))
        try:
            argv = ["serve", "--weights", weights, "--sim", "--seed", "3", "--duration", "1",
                    "--listen", "0", "--peer", f"127.0.0.1:{peer.getsockname()[1]}"]
            assert main(argv) == EXIT_OK
            out = capsys.readouterr().out
            assert out.startswith(f"decisions {len(udp)}, datagrams sent {len(udp)}, "
                                  f"send errors 0\n")
            peer.settimeout(2.0)
            received = [wire.decode_decision(peer.recv(16)) for _ in udp]
        finally:
            peer.close()
        assert [(d.seq, int(d.direction)) for d in received] == udp

    def test_a_live_static_scene_forks_its_producer_with_the_simulated_decisions(
            self, tmp_path, weights, monkeypatch, capsys, serve_sim):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        argv = [*FLOOD, "simulate", "--weights", weights, "--seed", "3", "--duration",
                "0.3", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        udp = _udp_lines((tmp_path / "sim" / "run.log").read_text())
        assert len(udp) > 0
        capsys.readouterr()
        _, _, sent, forks = serve_sim(FLOOD, ["--weights", weights, "--seed", "3",
                                              "--duration", "0.3"])
        assert (forks, sent) == (1, udp)


class TestSuccessAndRuntimeExitCodes:
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_overflowing_logits_are_runtime_error(self, tmp_path, capsys, command):
        # finite weights, so the file reads, but the last layer overflows float32
        net = runtime_network(np.random.default_rng(0))
        [layer for layer in net.layers if layer.kind == "dense"][-1].weights[:] = 3e38
        save_weights(net, tmp_path / "huge.net")
        argv = [command, "--weights", str(tmp_path / "huge.net")]
        if command == "eval":
            frames = np.random.default_rng(1).random((3, 36, 36), dtype=np.float32)
            save_dataset(tmp_path / "d.ds", Dataset(frames=frames, labels=np.zeros(3, np.uint8),
                                                    target_x=np.zeros(3, np.int16),
                                                    source=np.ones(3, np.uint8)))
            argv += ["--dataset", str(tmp_path / "d.ds")]
        else:
            argv += ["--duration", "0.5", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_RUNTIME
        assert "FloatingPointError: non-finite logits" in capsys.readouterr().err

    def test_simulate_dry_run_succeeds(self, weights, capsys):
        assert main(["simulate", "--weights", weights, "--dry-run"]) == EXIT_OK
        assert "6472 parameters" in capsys.readouterr().out

    def test_inspect_weights_succeeds(self, weights, capsys):
        assert main(["inspect-weights", "--weights", weights]) == EXIT_OK
        assert "operations per forward pass" in capsys.readouterr().out

    def test_serve_on_a_held_port_is_runtime_error(self, tmp_path, weights, capsys):
        held = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        held.bind(("0.0.0.0", 0))
        try:
            argv = ["serve", "--weights", weights, "--events",
                    str(tmp_path / "unused.events"), "--listen",
                    str(held.getsockname()[1])]
            assert main(argv) == EXIT_RUNTIME
        finally:
            held.close()
        assert "cannot bind port" in capsys.readouterr().err
