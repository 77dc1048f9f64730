"""Outside-in benchmark of the evsteer command line.

    python3 bench/run.py --workload {chase,flood,offline} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root. Every CLI command runs through
`evsteer.cli.main(argv)` in a fresh single-process child (bench/child.py), so
set-up time and peak memory are those a user pays. Workloads are closed loops
at fixed sizes: the simulator advances only after each decision, so every
throughput is work done per wall second. Cycles repeat until `--seconds`
have passed, each with its own seed derived from `--seed` (see run_cycles).
setup_s is a median of cold starts; the other metrics are totals or means
over the cycles.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs each cycle once
untraced and once with every public evsteer function wrapped in a span
(bench/spans.py), checks that both produce byte-identical outputs, and prints
the per-layer metrics. The last stdout line is the JSON result; the line
before it records the environment, output hashes and failed checks.
BLAS threads are deliberately left as the environment sets them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(ROOT, ".bench_out")
WEIGHTS = os.path.join(BENCH, "weights", "bench.net")
WEIGHTS_SHA256 = "49defebb5bd424abaf7b9fb9acd4bfacfd2aff03365377df7c3f2a79dca8a1e1"

WORKLOADS = ("chase", "flood", "offline")
FLOOD_CONFIG = ["--set", "sim.scenario=rate_test", "--set", "sim.rate_profile=1:2000000"]
SIM_SECONDS = {"chase": 2.0, "flood": 2.0}  # simulated seconds per simulate command
GEN_RECORDINGS = 4
GEN_SECONDS = 1.0  # per recording
TRAIN_ITERATIONS = 50
SETUP_REPEATS = 2  # cold starts before the first cycle; one more after each
ORACLE_FRAMES = 8
ORACLE_TOLERANCE = 1e-4  # float32 logits against the float64 loop oracle
COMMAND_TIMEOUT_S = 60  # the largest command takes a few seconds
SEQ_MOD = 256
CYCLE_SEEDS = 1000  # cycle k of a run with --seed s uses seed 1000 * s + k

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "sim_rt": "sim_s/s", "cycle_s": "s", "peak_rss_mb": "MB"}

SPAN_NAMES = (
    "sim.step", "sim.render", "sim.event_synth", "sim.leak", "sim.burst",
    "sim.kinematics", "sim.laser", "sim.ground_truth",
    "frames.accumulate", "frames.dvs_normalize", "frames.aps_resize",
    "frames.aps_normalize", "frames.assemble", "frames.save_recording",
    "frames.save_dataset", "frames.load_dataset",
    "nnet.load_weights", "nnet.predict",
    "nnet.conv0", "nnet.relu0", "nnet.pool0", "nnet.conv1", "nnet.relu1",
    "nnet.pool1", "nnet.dense0", "nnet.relu2", "nnet.dropout", "nnet.dense1",
    "nnet.loss_and_backward", "nnet.adam_step", "nnet.forward_batch",
    "decision.filter", "behavior.step", "wire.offer", "runner.run_closed_loop",
    "runner.parse_runlog", "datagen.generate_recording",
    "evaluation.evaluate_records", "cli.command",
)
LAYER_VALUES = {
    "nnet.predict_us_p50": "us", "nnet.predict_us_p99": "us", "nnet.gops": "GOP/s",
    "nnet.train_step_ms_p50": "ms", "frames.accumulate_ns_per_event": "ns",
    "sim.events_synth": "count", "sim.events_leak": "count",
    "sim.events_burst": "count", "frames.dvs_frames": "count",
    "frames.aps_frames": "count", "runner.decisions": "count",
    "wire.deferred": "count", "wire.defer_us_p50": "us", "wire.defer_us_max": "us",
    "behavior.mode_changes": "count", "runner.decision_overrun_ms": "ms",
    "evaluation.p0_accuracy": "fraction", "cli.gen_rec_s_per_wall_s": "sim_s/s",
    "cli.train_steps_per_s": "1/s", "cli.eval_frames_per_s": "1/s",
    "trace.overhead_s": "s", "trace.named_share": "fraction",
}


def per_layer_units():
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(LAYER_VALUES)
    return units


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or fixture)."""


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_dir(path):
    """One digest over every file name and content directly under path."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            digest.update(name.encode() + b"\0" + sha256_file(full).encode())
    return digest.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values):
    return float(statistics.median(values)) if values else 0.0


def code_fingerprint():
    """Digest of the program and benchmark sources: 'the same code'."""
    digest = hashlib.sha256()
    for top in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(full, ROOT).encode())
                    digest.update(sha256_file(full).encode())
    return digest.hexdigest()


def environment():
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "git_commit": commit or "unknown",
    }


# ---------------------------------------------------------------------------
# one CLI command in a fresh process
# ---------------------------------------------------------------------------


class Bench:
    """Runs and checks the CLI commands of one benchmark invocation."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures = []  # "command: reason"
        self.first_hash = {}  # output kind -> sha256 within this invocation
        self.hashes = {}
        self._serial = 0

    def run_cli(self, label, argv, trace=False):
        """Run one CLI command; returns (op record, its output directory).

        "{out}" in argv stands for a fresh directory that holds only what
        the command writes; its stdout goes to op["stdout"].
        """
        self._serial += 1
        op_dir = os.path.join(self.workdir, f"{self._serial:04d}-{label}")
        out_dir = os.path.join(op_dir, "out")
        os.makedirs(out_dir)
        result_path = os.path.join(op_dir, "child.json")
        cmd = [sys.executable, CHILD, result_path]
        if trace:
            cmd += ["--spans", os.path.join(op_dir, "spans.jsonl")]
        cmd += ["--"] + [a.replace("{out}", out_dir) for a in argv]
        self.attempted += 1
        op = {"label": label, "failures": [], "stdout": os.path.join(op_dir, "stdout.txt")}
        start = time.perf_counter()
        with open(op["stdout"], "w") as out, \
                open(os.path.join(op_dir, "stderr.txt"), "w") as err, \
                subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT) as proc:
            # wait() without a timeout blocks in waitpid and sees the exit at
            # once; wait(timeout) polls and would add up to 50 ms to op times
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            returncode = proc.wait()
            killer.cancel()
            killer.join()
        op["process_s"] = time.perf_counter() - start
        if op["process_s"] >= COMMAND_TIMEOUT_S:
            self.fail(op, f"killed after {COMMAND_TIMEOUT_S} s")
            return op, out_dir
        if returncode != 0 or not os.path.exists(result_path):
            self.fail(op, f"child exited {returncode}")
            return op, out_dir
        with open(result_path) as fh:
            op.update(json.load(fh))
        if op["exit"] != 0:
            self.fail(op, f"evsteer exited {op['exit']}")
        return op, out_dir

    def fail(self, op, reason):
        if not op["failures"]:
            self.failures.append(f"{op['label']}: {reason}")
        op["failures"].append(reason)

    def failed(self, op):
        return bool(op["failures"])

    def check_hash(self, op, kind, seed, digest, traced):
        """Outputs of one seed repeat byte for byte; traced equals untraced."""
        kind = f"{kind} seed {seed}"
        self.hashes[f"{kind} (traced)" if traced else kind] = digest
        first = self.first_hash.setdefault(kind, digest)
        if digest != first:
            self.fail(op, f"{kind} sha256 {digest[:12]} differs from first run "
                          f"{first[:12]}")

    def measure_setup(self):
        """One cold start of the CLI: interpreter, imports, config, weight load."""
        op, _ = self.run_cli("setup", ["simulate", "--dry-run", "--weights", WEIGHTS])
        return op["process_s"]


# ---------------------------------------------------------------------------
# workload cycles
# ---------------------------------------------------------------------------


def simulate_cycle(bench, seed, trace):
    """One closed-loop `simulate` command; returns the cycle's measurements."""
    from evsteer.runner import parse_runlog

    duration = SIM_SECONDS[bench.workload]
    config = FLOOD_CONFIG if bench.workload == "flood" else []
    op, out = bench.run_cli("simulate", config + [
        "simulate", "--weights", WEIGHTS, "--seed", str(seed),
        "--duration", repr(duration), "--out", "{out}"], trace)
    cycle = {"ops": [op]}
    if bench.failed(op):
        return cycle
    log_path = os.path.join(out, "run.log")
    with open(log_path) as fh:
        text = fh.read()
    try:
        log = parse_runlog(text)
    except (ValueError, IndexError) as exc:
        bench.fail(op, f"run.log does not parse: {exc}")
        return cycle
    n_dec = len(log["DEC"])
    if not n_dec or not n_dec == len(log["GT"]) == len(log["UDP"]):
        bench.fail(op, f"DEC/GT/UDP counts {n_dec}/{len(log['GT'])}/{len(log['UDP'])}")
    if log["END"] != round(duration * 1e6):
        bench.fail(op, f"END {log['END']} is not the duration {duration} s")
    seqs = [seq for _, seq, _ in log["UDP"]]
    if seqs != [i % SEQ_MOD for i in range(len(seqs))]:
        bench.fail(op, "UDP sequence numbers are not consecutive mod 256")
    bench.check_hash(op, "run.log", seed, sha256_file(log_path), trace)
    last_dec = log["DEC"][-1][0] if n_dec else 0
    cycle.update({
        "wall_s": op["wall_s"],
        "sim_s": duration,
        "sim_wall_s": op["wall_s"],
        "peak_rss_mb": op["peak_rss_mb"],
        "decisions": n_dec,
        "mode_changes": len(log["MODE"]),
        "overrun_ms": max(0, last_dec - (log["END"] or 0)) / 1000.0,
        "accuracy": read_p0_accuracy(os.path.join(out, "curve.csv")),
    })
    return cycle


def read_p0_accuracy(curve_path):
    with open(curve_path) as fh:
        for line in fh:
            p, _, acc = line.strip().partition(",")
            if p == "0":
                return float(acc)
    raise ValueError(f"{curve_path}: no p=0 row")


def offline_cycle(bench, seed, trace, oracle):
    """gen-data -> train -> eval --dataset; returns the cycle's measurements."""
    from evsteer.frames import load_dataset

    gen, data = bench.run_cli("gen-data", [
        # recording seeds never overlap between cycles or with the fixture's
        "--set", f"gen.seed_base={100_000 + GEN_RECORDINGS * seed}",
        "--set", f"gen.duration={GEN_SECONDS!r}",
        "gen-data", "--out", "{out}", "--recordings", str(GEN_RECORDINGS)], trace)
    cycle = {"ops": [gen]}
    if bench.failed(gen):
        return cycle
    check_gen_data(bench, gen, data)
    bench.check_hash(gen, "gen-data", seed, sha256_dir(data), trace)
    train_ds = os.path.join(data, "train.ds")
    test_ds = os.path.join(data, "test.ds")

    train, out = bench.run_cli("train", [
        "train", "--dataset", train_ds, "--out", os.path.join("{out}", "net.txt"),
        "--iterations", str(TRAIN_ITERATIONS), "--seed", str(seed)], trace)
    cycle["ops"].append(train)
    if bench.failed(train):
        return cycle
    weights = os.path.join(out, "net.txt")

    ev, out = bench.run_cli("eval", [
        "eval", "--weights", weights, "--dataset", test_ds, "--out", "{out}"], trace)
    cycle["ops"].append(ev)
    if bench.failed(ev):
        return cycle
    test = load_dataset(test_ds)
    if oracle is not None:
        mismatch = oracle(test.frames[:ORACLE_FRAMES])
        if mismatch:
            bench.fail(ev, mismatch)
    cycle.update({
        "wall_s": sum(op["wall_s"] for op in cycle["ops"]),
        "sim_s": GEN_RECORDINGS * GEN_SECONDS,
        "sim_wall_s": gen["wall_s"],
        "gen_rec_s_per_wall_s": GEN_RECORDINGS * GEN_SECONDS / gen["wall_s"],
        "peak_rss_mb": max(op["peak_rss_mb"] for op in cycle["ops"]),
        "accuracy": read_p0_accuracy(os.path.join(out, "curve.csv")),
        "train_steps_per_s": TRAIN_ITERATIONS / train["wall_s"],
        "eval_frames_per_s": len(test) / ev["wall_s"],
    })
    return cycle


def check_gen_data(bench, op, data):
    """What gen-data reported writing must read back from disk."""
    from evsteer.frames import load_dataset, load_recording
    with open(op["stdout"]) as fh:
        written = re.findall(r"^(rec\d+): seed \d+, (\d+) events, (\d+) APS frames$",
                             fh.read(), re.MULTILINE)
    if len(written) != GEN_RECORDINGS:
        bench.fail(op, f"gen-data reported {len(written)} recordings")
    for prefix, n_events, n_aps in written:
        rec = load_recording(os.path.join(data, prefix))
        if (len(rec.events), len(rec.aps_t)) != (int(n_events), int(n_aps)):
            bench.fail(op, f"{prefix} reads back {len(rec.events)} events, "
                           f"{len(rec.aps_t)} APS frames")
    with open(os.path.join(data, "class_report.txt")) as fh:
        report = dict(line.rstrip("\n").split(": ", 1) for line in fh)
    # train.ds holds the split plus its exposure-augmented APS copies
    expected = {"train.ds": (int(report["train_aps"]), int(report["train_dvs"])),
                "test.ds": int(report["test_frames"])}
    for name, want in expected.items():
        ds = load_dataset(os.path.join(data, name))
        got = ds.source_counts() if name == "train.ds" else len(ds)
        if got != want:
            bench.fail(op, f"{name} reads back {got}, gen-data reported {want}")


def make_oracle():
    """Checks predict and forward_batch logits against tests/oracles.py."""
    import numpy as np

    from evsteer.nnet import load_weights

    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(ROOT, "tests", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    net = load_weights(WEIGHTS)

    def check(frames):
        batch = net.forward_batch(frames[..., None])
        for i, frame in enumerate(frames):
            want = oracles.naive_forward(net, frame)
            single, _ = net.forward(frame)
            for how, got in (("predict", single), ("forward_batch", batch[i])):
                if not np.allclose(got, want, rtol=ORACLE_TOLERANCE, atol=ORACLE_TOLERANCE):
                    return (f"{how} logits of test frame {i} differ from the oracle "
                            f"by {float(np.max(np.abs(got - want))):.3g}")
        return None

    return check


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(setup_s, cycles):
    """Cycles run different seeds, one of which can cost over 1.5 times
    another, so throughput and cycle time are totals over the run."""
    return {
        "setup_s": median(setup_s),
        "sim_rt": sum(c["sim_s"] for c in cycles) / sum(c["sim_wall_s"] for c in cycles),
        "cycle_s": sum(c["wall_s"] for c in cycles) / len(cycles),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in cycles]),
    }


def per_layer_metrics(untraced, traced, op_count):
    """Means per cycle: span self times and counts from the traced cycles,
    command-level rates and run-log figures from the untraced ones."""
    n = len(traced)
    spans, counts = {}, {}
    durations = {}
    defer_us = []
    named_ns = wall_ns = 0.0
    for cycle in traced:
        for op in cycle["ops"]:
            summary = op["trace"]
            for name, entry in summary["spans"].items():
                total = spans.setdefault(name, {"self_ns": 0, "total_ns": 0, "calls": 0})
                for key in total:
                    total[key] += entry[key]
            for name, values in summary["durations_ns"].items():
                durations.setdefault(name, []).extend(values)
            for name, value in summary["counts"].items():
                counts[name] = counts.get(name, 0) + value
            defer_us += summary["defer_us"]
            root = summary["spans"].get("cli.command", {"self_ns": 0})
            wall_ns += op["wall_s"] * 1e9
            named_ns += op["wall_s"] * 1e9 - root["self_ns"]
    metrics = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, {"self_ns": 0, "calls": 0})
        metrics[f"{name}.self_ms"] = entry["self_ns"] / 1e6 / n
        metrics[f"{name}.calls"] = entry["calls"] / n
    predict_ns = durations.get("nnet.predict", [])
    steps_ns = [a + b for a, b in zip(durations.get("nnet.loss_and_backward", []),
                                      durations.get("nnet.adam_step", []))]
    accumulated = counts.get("frames.accumulate_events", 0)
    accumulate_ns = spans.get("frames.accumulate", {"total_ns": 0})["total_ns"]
    metrics.update({
        "nnet.predict_us_p50": percentile(predict_ns, 50) / 1e3,
        "nnet.predict_us_p99": percentile(predict_ns, 99) / 1e3,
        "nnet.gops": op_count * len(predict_ns) / sum(predict_ns) if predict_ns else 0.0,
        "nnet.train_step_ms_p50": percentile(steps_ns, 50) / 1e6,
        "frames.accumulate_ns_per_event": accumulate_ns / accumulated if accumulated else 0.0,
        "wire.deferred": sum(1 for d in defer_us if d > 0) / n,
        "wire.defer_us_p50": percentile(defer_us, 50),
        "wire.defer_us_max": float(max(defer_us, default=0)),
        "trace.overhead_s": median([t["wall_s"] - u["wall_s"]
                                    for t, u in zip(traced, untraced)]),
        "trace.named_share": named_ns / wall_ns if wall_ns else 0.0,
    })
    for name in ("sim.events_synth", "sim.events_leak", "sim.events_burst",
                 "frames.dvs_frames", "frames.aps_frames"):
        metrics[name] = counts.get(name, 0) / n
    stage = {
        "runner.decisions": "decisions", "behavior.mode_changes": "mode_changes",
        "runner.decision_overrun_ms": "overrun_ms", "evaluation.p0_accuracy": "accuracy",
        "cli.train_steps_per_s": "train_steps_per_s",
        "cli.eval_frames_per_s": "eval_frames_per_s",
        "cli.gen_rec_s_per_wall_s": "gen_rec_s_per_wall_s",
    }
    for metric, key in stage.items():
        metrics[metric] = statistics.fmean(c.get(key, 0) for c in untraced)
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight():
    if not os.path.isfile(os.path.join(ROOT, "src", "evsteer", "cli.py")):
        raise BenchError(f"no evsteer sources under {ROOT}/src; run from a checkout")
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        raise BenchError("tests/oracles.py is missing")
    if sha256_file(WEIGHTS) != WEIGHTS_SHA256:
        raise BenchError(f"{WEIGHTS} does not match its recorded sha256")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def persist_hashes(bench, fingerprint):
    """First-seen output hashes per (code, workload, cycle seed) across runs."""
    path = os.path.join(OUT, "hashes.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(fingerprint, {})
    mismatched = []
    for kind, digest in bench.hashes.items():
        key = f"{bench.workload}/{kind}"
        if seen.setdefault(key, digest) != digest:
            mismatched.append(f"{key}: sha256 differs from an earlier run of this code")
    with open(path, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return mismatched


def run_cycles(bench, seconds, trace, setup_s):
    """Repeat the workload's cycle until `seconds` pass or an operation fails.

    Repeat k runs with cycle seed CYCLE_SEEDS * seed + k, so a run averages over
    several trajectories or recordings. With trace, each repeat is an
    untraced cycle followed by a traced one of the same cycle seed. Each
    repeat also adds one cold-start time to setup_s, so set-up samples spread
    over the whole run.
    Returns the (untraced, traced) cycles that completed without failure.
    """
    oracle = make_oracle() if bench.workload == "offline" else None
    done = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        seed = CYCLE_SEEDS * bench.seed + k
        setup_s.append(bench.measure_setup())
        for traced in ((False, True) if trace else (False,)):
            try:
                if bench.workload == "offline":
                    cycle = offline_cycle(bench, seed, traced, oracle)
                    oracle = None  # the fixed sample is checked once per run
                else:
                    cycle = simulate_cycle(bench, seed, traced)
            except Exception:  # noqa: BLE001 - outputs too broken to check
                bench.failures.append(f"cycle seed {seed}: {traceback.format_exc()}")
                return done[False], done[True]
            if any(bench.failed(op) for op in cycle["ops"]):
                return done[False], done[True]
            done[traced].append(cycle)
        if time.perf_counter() >= deadline:
            return done[False], done[True]


def run(args):
    preflight()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    bench = Bench(args.workload, args.seed, workdir)
    try:
        setup_s = [bench.measure_setup() for _ in range(SETUP_REPEATS)]
        untraced, traced = run_cycles(bench, args.seconds, args.trace, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.failures += persist_hashes(bench, code_fingerprint())

    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        from evsteer.nnet import load_weights, op_count

        values = per_layer_metrics(untraced, traced, op_count(load_weights(WEIGHTS)))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = end_to_end_metrics(setup_s, untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = len(bench.failures)
    details = {"workload": args.workload, "seed": args.seed,
               "cycles": len(untraced), "environment": environment(),
               "hashes": bench.hashes, "failures": bench.failures}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
