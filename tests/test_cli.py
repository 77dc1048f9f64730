import contextlib
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
from evsteer.config import KEYS
from evsteer.decision import FilterConfig
from evsteer.evaluation import evaluate_records
from evsteer.frames import (EVENT_DTYPE, Dataset, Recording, assemble_dataset,
                            load_dataset, save_dataset, save_recording, write_events)
from evsteer.nnet import Decision, runtime_network, save_weights
from evsteer.runner import RunnerConfig, decision_step

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
# 1000..1002, numpy 2.4, x86-64), hashed while gen-data ran its recordings
# one after another in one process.
GEN_DATA_SHA256 = "c0bcc1580a30d13314463ecff172a3fb3100ef4cbcf4970e9b9784f84fabc891"


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

    def test_a_parent_side_error_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        save = cli.save_recording

        def failing(prefix, rec):
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
        assert multiprocessing.active_children() == []

    # gen-data of two recordings on two workers in a child whose wrapper has
    # the worker of seed 1001 SIGKILL the worker of seed 1000 once that
    # recording is back, so the killed worker holds no job; prints the
    # children it leaves
    IDLE_KILL_SCRIPT = """
import multiprocessing, os, signal, sys, time
from evsteer import cli, workers
workers.usable_cpus = lambda: 2
generate = cli.generate_recording
out = sys.argv[1]

def killing(gen, seed):
    if seed == 1000:
        with open(out + ".pid", "w") as fh:
            fh.write(str(os.getpid()))
    else:
        while not os.path.exists(os.path.join(out, "rec000.labels")):
            time.sleep(0.01)
        with open(out + ".pid") as fh:
            os.kill(int(fh.read()), signal.SIGKILL)
        open(out + ".killed", "w").close()
    return generate(gen, seed)

cli.generate_recording = killing
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
        # a simulate that waits forever fails this test at the timeout; the
        # child runs in a session of its own, so its producer dies with it
        argv = [*FLOOD, "simulate", "--weights", weights, "--duration", "0.5",
                "--out", str(tmp_path / "sim")]
        with subprocess.Popen([sys.executable, "-c", self.KILLED_PRODUCER_SCRIPT, "-", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=_child_env(), start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                raise
        assert child.returncode == EXIT_RUNTIME, stderr
        assert stderr == ("runtime error: WorkerLostError: a worker process died before the "
                          "answer to the frame producer's render step at 105000 us came back\n")
        assert stdout == "children left: 0\n"
        assert not (tmp_path / "sim").exists()


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
# activation file read in name order, hashed while training pooled by argmax.
TRAIN_SALIENCY_SHA256 = {
    "train/w.net": "ea95c984239168f6ba1907d1631a8ae817055bfd766379e4dc3cbf94601435d3",
    "train/train_trace.csv":
        "5da382907f0ac88156de3e10f53f251ed377fcf7ef5364c37aee198679bb56b1",
    "saliency/*.pgm": "de6881fc963a731046405c975a9ddff4942c6864c7580cb4bf8341b7da49f02a",
    "saliency/activations/*.txt":
        "26fb2144ae1f7505ce300ebb9ada821812ae7a093ac64b619fc20610258823b2",
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
    """Outputs do not depend on how many threads BLAS runs."""

    SCRIPT = """
import sys
from evsteer.cli import main
dataset, weights, out = sys.argv[1:]
sys.exit(main(["train", "--dataset", dataset, "--iterations", "12", "--seed", "0",
               "--out", out + "/train/w.net"])
         or main(["simulate", "--weights", weights, "--seed", "3", "--duration", "0.5",
                  "--out", out + "/sim"]))
"""

    def test_train_and_simulate_outputs_equal_at_1_and_2_threads(
            self, tmp_path, weights, generated_recordings):
        train, _, _ = assemble_dataset(generated_recordings)
        save_dataset(tmp_path / "train.ds", train)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(tmp_path / "train.ds"), weights,
                 str(out)], capture_output=True, text=True,
                env=_child_env(OPENBLAS_NUM_THREADS=threads), timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            outputs.append([(out / name).read_bytes() for name in
                            ("train/w.net", "train/train_trace.csv", "sim/run.log")])
        assert outputs[0] == outputs[1]


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
# records.
EVAL_SHA256 = {
    "eval/report.txt": "bc3be790b7b8ea68525649282f1645c45992edc254579d3f34a2cf64a246868f",
    "eval/curve.csv": "ec21a5b4b673ada4ce34e41ffb46c656ae3556419236925e21d1b64a3e738bdb",
    "train/train_trace.csv":
        "d63437aa772136d149a6e26b8dd66f5264ddb76b7bd9a5eacc370da0e73e4d2c",
}
CLASS_MIX_REPR = ("({'L': 0.0, 'C': 1.0, 'R': 0.0, 'N': 0.0}, "
                  "{'L': 0.0, 'C': 1.0, 'R': 0.0, 'N': 0.0})")
# the same trace on the splits of _ramped_recording seeds 0 and 1, whose
# test split holds L, R and N frames, hashed the same way
RAMPED_TRACE_SHA256 = "8b44bef20ba88c77cb67320671783ddb226cec31d4640d91e55d9553fc78c9e7"
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
# trace, hashed before training reused its per-step buffers.
RAMPED_TRAIN_SHA256 = {
    "train/w.net": "2c5515b1ea57da8e077da66283794ff067e01e75db8212629eb69492f041087e",
    "train/train_trace.csv":
        "374e88e02306b3c53d5ed6e1a3ec9abddb68fa7d45ba0cff65c4dda9d1e4345b",
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


class TestReaderExitCodes:
    def test_event_address_outside_sensor_is_data_error(self, tmp_path, weights, capsys):
        events = np.zeros(2, dtype=EVENT_DTYPE)
        events["x"] = [10, 240]
        write_events(tmp_path / "bad.events", events)
        argv = ["serve", "--weights", weights, "--events", str(tmp_path / "bad.events"),
                "--listen", "0"]
        assert main(argv) == EXIT_DATA
        assert "outside 240x180" in capsys.readouterr().err


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


# stdout of `simulate --dry-run` (the network line and every key = default)
# and the sha256 of the sorted-key JSON of the manifest `config` block after
# three overrides that coerce (1 -> 1.0, text profile, off -> False); both
# hashed over the 52 keys left once behavior.center_vision_fov, which nothing
# read, was deleted.
DRY_RUN_SHA256 = "a6ed892089114896c80e101d48e1d8b037822a17876d9bb0047d09576453e924"
MANIFEST_CONFIG_SHA256 = "aedc53b579727b115f1dc58eb7d9ca3f3ee705a3433dc777695bdd4499a3437e"


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


class TestServeSim:
    def test_live_feed_sends_the_decisions_of_the_same_run(self, tmp_path, weights,
                                                           capsys):
        argv = ["simulate", "--weights", weights, "--seed", "3", "--duration", "1",
                "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        n_dec = (tmp_path / "sim" / "run.log").read_text().count("\nDEC ")
        assert n_dec > 0
        capsys.readouterr()
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind(("127.0.0.1", 0))
        try:
            argv = ["serve", "--weights", weights, "--sim", "--seed", "3", "--duration", "1",
                    "--listen", "0", "--peer", f"127.0.0.1:{peer.getsockname()[1]}"]
            assert main(argv) == EXIT_OK
            out = capsys.readouterr().out
            counts = re.match(r"decisions (\d+), datagrams sent (\d+), send errors (\d+)\n",
                              out)
            assert counts and (int(counts[1]), int(counts[3])) == (n_dec, 0)
            # the latest-value mailbox may skip decisions, never reorder them
            peer.settimeout(2.0)
            received = [wire.decode_decision(peer.recv(16)) for _ in range(int(counts[2]))]
        finally:
            peer.close()
        seqs = [d.seq for d in received]
        assert 0 < len(seqs) <= n_dec and seqs == sorted(set(seqs))

    def test_a_live_static_scene_runs_in_process_with_the_simulated_decisions(
            self, tmp_path, weights, monkeypatch, capsys):
        # serve --sim runs threads, so its closed loop forks no producer
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        argv = [*FLOOD, "simulate", "--weights", weights, "--seed", "3", "--duration",
                "0.3", "--out", str(tmp_path / "sim")]
        assert main(argv) == EXIT_OK
        n_dec = (tmp_path / "sim" / "run.log").read_text().count("\nDEC ")
        assert n_dec > 0
        capsys.readouterr()
        forked = []
        monkeypatch.setattr(runner, "forked", lambda *args: forked.append(args))
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind(("127.0.0.1", 0))
        try:
            argv = [*FLOOD, "serve", "--weights", weights, "--sim", "--seed", "3",
                    "--duration", "0.3", "--listen", "0",
                    "--peer", f"127.0.0.1:{peer.getsockname()[1]}"]
            assert main(argv) == EXIT_OK
        finally:
            peer.close()
        assert capsys.readouterr().out.startswith(f"decisions {n_dec}, datagrams sent ")
        assert forked == []


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
