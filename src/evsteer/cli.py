"""Single command-line entry point.

Subcommands: gen-data, train, eval, simulate, serve, saliency,
inspect-weights. Exit codes: 0 success, 1 usage or config problem, 2 data
error (unreadable or malformed files, or a network whose input is not the
36x36x1 frame), 3 runtime error. Every artifact-producing command writes a
manifest.json next to its outputs with the seed, the full config snapshot,
and the produced paths; outputs contain no wall-clock timestamps, so reruns
with the same seed are byte-identical.

Every setting has one home, its config key. A flag that names one, such as
`simulate --duration`, spells `--set sim.duration=...` and wins over --config
and --set, so a manifest's config block holds the settings that ran: given
back as --config with the same seed, it reruns the run.

gen-data generates its recordings with up to one worker process per usable
CPU. Each recording is a pure function of (gen config, seed). A worker writes
each recording it makes to its files and sends back only its event and APS
frame counts, which the command prints in seed order, so its stdout and
output files equal those of a serial run. Worker k of n makes the fixed
slice of seeds k, k + n, ... and streams the counts down a pipe of its own,
so EOF on the pipe the parent is reading names the one seed a worker's death
lost; a worker that dies after its last counts came back loses nothing. The
datasets are then assembled from the files, read back one recording at a
time, as `eval --sweep-capacity` reads its recordings. The pool, the frame
producer that a static scene's `simulate` forks and the renderer that a
chase's forks run the one worker loop of `evsteer.workers`, which streams
answers one way, to the parent, and also decides when a fork is safe; the
renderer reads the loop's commands from the image ring the two share.

serve runs in one thread and sends each decision as it is made, so
`serve --sim` forks as `simulate` does and sends the run log's UDP lines, in
order.

BLAS runs on one thread: importing evsteer sets OPENBLAS_NUM_THREADS=1 over
any value the environment gave it, so no command's output depends on it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from evsteer import __version__
from evsteer.config import ConfigError, load_config, steps_for_duration
from evsteer import evaluation, frames, wire, workers
from evsteer.datagen import generate_recording
# dvs_normalize and aps_normalize are unused here but stay bound: span
# tracers that wrap them by their importers' names look them up on this module.
from evsteer.frames import (FormatError, FrameStream, NoFramesError, aps_normalize,
                            assemble_dataset, dvs_normalize, load_dataset,
                            load_recording, save_dataset, save_recording)
from evsteer.nnet import (AdamState, Decision, WeightFileError, Workspace,
                          adam_step, dump_activations, load_weights, op_count,
                          param_count, runtime_network, save_weights)
from evsteer.runner import decision_step, parse_runlog, run_closed_loop
from evsteer.workers import WorkerLostError, fork_context, forked, receive, unpack

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_SOURCE_IDS = {name: src for src, name in frames.SOURCE_NAMES.items()}
_FRAME_SHAPE = (frames.FRAME_SIZE, frames.FRAME_SIZE, 1)


class DataError(Exception):
    pass


class UsageError(Exception):
    """The arguments ask for what the command cannot do; main exits 1 with the message."""


def refuse_directories(command, paths, flag="--out"):
    """Raises UsageError where one of paths, files that command writes as
    flag says, is a directory or lies under a file. Every command that
    writes files calls it before any work, so no run is lost to its last
    write."""
    for path in paths:
        if os.path.isdir(path):
            raise UsageError(f"{command}: {flag} {path} is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        while not os.path.lexists(parent):
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise UsageError(f"{command}: {flag} {path}: {parent} is not a directory")


def out_files(command, out_dir, *names):
    """The paths of names in out_dir, once refuse_directories passes them
    and the manifest.json that command writes next to them."""
    paths = [os.path.join(out_dir, name) for name in names]
    refuse_directories(command, paths + [os.path.join(out_dir, "manifest.json")])
    return paths


def load_network(path):
    """load_weights, refusing a network that does not take the frames' extent."""
    net = load_weights(path)
    if net.input_shape != _FRAME_SHAPE:
        raise DataError(f"{path}: network input {net.input_shape} is not the frame "
                        f"extent {_FRAME_SHAPE}")
    return net


def write_manifest(out_dir, command, seeds, cfg, outputs):
    manifest = {
        "command": command,
        "config": cfg.snapshot(),
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "seeds": seeds,
        "version": __version__,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_pgm(path, image):
    """8-bit binary PGM from a [0, 1] float image."""
    data = np.clip(np.asarray(image) * 255.0, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _ordered_map(fn, jobs):
    """fn over jobs on up to one worker per usable CPU; yields the results in job order.

    With one worker, or where `fork_context` finds no safe fork (gen-data
    starts no thread before it), it is the builtin map in this process.
    Otherwise worker k of n is forked once with the fixed slice jobs[k::n]
    and streams its results in slice order, so the parent sends no jobs and
    reads job i from worker i % n. Each result is pickled down a pipe, so
    gen-data's jobs write their recordings to files and return only counts.
    A job's exception is raised in its turn, as map would, and its worker
    computes nothing after it; a dead worker's WorkerLostError names the job
    the parent was waiting for.
    """
    n_workers = min(len(jobs), workers.usable_cpus())
    context = fork_context() if n_workers > 1 else None
    if context is None:
        yield map(fn, jobs)
        return
    slices = [map(fn, jobs[k::n_workers]) for k in range(n_workers)]
    with forked(context, slices) as conns:
        yield (unpack(receive(conns[i % n_workers], i)) for i in range(len(jobs)))


def cmd_gen_data(args, cfg):
    gen, frames_cfg = cfg.settings.gen, cfg.settings.sim.frames
    outputs = out_files("gen-data", args.out, "train.ds", "test.ds", "class_report.txt",
                        *(f"rec{i:03d}{ext}" for i in range(gen.recordings)
                          for ext in (".events", ".aps", ".labels")))
    train_path, test_path, report_path = outputs[:3]
    os.makedirs(args.out, exist_ok=True)
    seed_base = gen.seed_base
    prefixes = [os.path.join(args.out, f"rec{i:03d}") for i in range(gen.recordings)]
    def record(i):
        # both are looked up per call, so a wrapper installed on this module
        # runs in the workers too
        rec = generate_recording(gen, seed_base + i)
        save_recording(prefixes[i], rec)
        return len(rec.events), len(rec.aps_t)

    try:
        with _ordered_map(record, range(gen.recordings)) as counts:
            for i, (n_events, n_aps) in enumerate(counts):
                print(f"rec{i:03d}: seed {seed_base + i}, {n_events} events, {n_aps} APS frames")
    except WorkerLostError as exc:
        print(f"gen-data: a worker process died before the recording of seed "
              f"{seed_base + exc.args[0]} came back", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        train, test, report = assemble_dataset(
            map(load_recording, prefixes), capacity=frames_cfg.capacity,
            aps_target_fraction=frames_cfg.aps_target_fraction)
    except NoFramesError as exc:
        i, capacity = exc.args
        raise UsageError(f"gen-data: rec{i:03d} (seed {seed_base + i}) gives no frame at "
                         f"capacity {capacity}: gen.duration {gen.duration} s is too "
                         "short") from None
    save_dataset(train_path, train)
    save_dataset(test_path, test)
    with open(report_path, "w") as fh:
        for key in sorted(report):
            fh.write(f"{key}: {report[key]}\n")
    write_manifest(args.out, "gen-data", list(range(seed_base, seed_base + gen.recordings)),
                   cfg, outputs)
    print(f"train {len(train)} frames / test {len(test)} frames "
          f"(APS fraction {report['train_aps_fraction']:.3f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _dataset_accuracy(net, ds):
    """p=0 accuracy of a non-empty dataset."""
    decisions = net.predict_batch(ds.frames[..., None])
    return float(np.mean(evaluation.correct(decisions, ds.labels, ds.target_x)))


def cmd_train(args, cfg):
    out_dir = os.path.dirname(os.path.abspath(args.out))
    trace_path = args.trace or os.path.join(out_dir, "train_trace.csv")
    refuse_directories("train", [args.out, os.path.join(out_dir, "manifest.json")])
    refuse_directories("train", [trace_path], "--trace")
    train = load_dataset(args.dataset)
    test = load_dataset(args.test) if args.test else None
    for path, ds in ((args.dataset, train), (args.test, test)):
        if ds is not None and not len(ds):
            raise DataError(f"{path}: dataset has no frames to train or test on")
    for directory in (out_dir, os.path.dirname(os.path.abspath(trace_path))):
        os.makedirs(directory, exist_ok=True)
    tc = cfg.settings.train
    rng = np.random.default_rng(tc.seed)
    net = runtime_network(rng, dropout_rate=tc.dropout)
    state = AdamState.for_params(net.parameters(), lr=tc.lr)
    workspace = Workspace()  # every step's large arrays, the batch included
    x = train.frames[..., None]
    y = train.labels.astype(np.int64)
    trace = ["iteration,loss,test_accuracy"]
    last_eval = ""
    for it in range(1, tc.iterations + 1):
        idx = rng.integers(0, len(x), tc.batch)
        batch = x.take(idx, axis=0, mode="wrap",
                       out=workspace.array("batch", (len(idx),) + x.shape[1:], x.dtype))
        loss, grads = net.loss_and_backward(batch, y[idx], train=True, rng=rng,
                                            workspace=workspace)
        adam_step(net.parameters(), grads, state)
        if it % tc.eval_every == 0 or it == tc.iterations:
            acc = "" if test is None else f"{_dataset_accuracy(net, test):.4f}"
            trace.append(f"{it},{loss:.6f},{acc}")
            last_eval = f" test_acc {acc}" if acc else ""
            print(f"iter {it}/{tc.iterations} loss {loss:.4f}{last_eval}")
        elif it == 1:
            trace.append(f"{it},{loss:.6f},")
    save_weights(net, args.out)
    with open(trace_path, "w") as fh:
        fh.write("\n".join(trace) + "\n")
    write_manifest(out_dir, "train", [tc.seed], cfg, [args.out, trace_path])
    print(f"weights -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def runlog_report(text, use_filtered=False):
    """The Report of a run log: its DEC/GT pairs, median rate and line counts.

    `simulate` and `eval --runlog` both report through this, so they print
    the same report for the same log. A malformed log raises DataError.
    """
    try:
        log = parse_runlog(text)
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed run log: {exc}") from exc
    dec, gt = log["DEC"], log["GT"]
    if len(dec) != len(gt):
        raise DataError(f"run log has {len(dec)} DEC but {len(gt)} GT lines")
    for (t, *_), (t_gt, *_) in zip(dec, gt):
        if t != t_gt:
            raise DataError(f"GT stamp {t_gt} differs from its DEC stamp {t}")
    return evaluation.evaluate_records(
        decisions=[filt if use_filtered else raw for _, _, raw, filt in dec],
        labels=[label for _, _, label in gt],
        target_x=[-1 if target is None else target for _, target, _ in gt],
        source=[_SOURCE_IDS[src] for _, src, _, _ in dec],
        timestamps=[t for t, *_ in dec],
        extra={"catches": len(log["CATCH"]), "decisions": len(dec)})


def _sweep_capacities(net, rec_dir, capacities):
    """DVS error rate at p=0 per histogram capacity on the dataset test split.

    The scored frames are exactly the DVS frames of assemble_dataset's test
    split at that capacity, so no frame it trains on is scored.
    """
    prefixes = sorted(p[:-7] for p in os.listdir(rec_dir) if p.endswith(".events"))
    if not prefixes:
        raise DataError(f"no .events recordings in {rec_dir}")
    results = {}
    for cap in capacities:
        recordings = (load_recording(os.path.join(rec_dir, p)) for p in prefixes)
        try:
            # only the test split is read, so skip augmenting the training split
            _, test, _ = assemble_dataset(recordings, capacity=cap, aps_target_fraction=0.0)
        except NoFramesError as exc:
            raise DataError(f"{os.path.join(rec_dir, prefixes[exc.args[0]])}: recording "
                            f"gives no frame at capacity {cap}") from None
        dvs = test.source == frames.SOURCE_DVS
        if not dvs.any():
            raise DataError(f"no DVS test frames at capacity {cap}")
        decisions = net.predict_batch(test.frames[dvs][..., None])
        wrong = ~evaluation.correct(decisions, test.labels[dvs], test.target_x[dvs])
        results[cap] = float(np.mean(wrong))
    return results


def cmd_eval(args, cfg):
    if not (args.dataset or args.runlog or args.sweep_capacity):
        raise UsageError("eval: nothing to evaluate (need --dataset, --runlog, or "
                         "--sweep-capacity)")
    if args.sweep_capacity and not args.recordings:
        raise UsageError("eval: --sweep-capacity needs --recordings")
    runs_network = args.dataset or args.sweep_capacity
    if runs_network and not args.weights:
        raise UsageError("eval: --dataset and --sweep-capacity need --weights")
    out_dir = args.out
    if out_dir:
        names = ["report.txt"] + (["curve.csv"] if args.dataset else [])
        outputs = out_files("eval", out_dir, *names)
    # a run log is scored without the network, so only these read the weights
    net = load_network(args.weights) if runs_network else None
    lines = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if args.dataset:
        ds = load_dataset(args.dataset)
        report = evaluation.evaluate_records(net.predict_batch(ds.frames[..., None]),
                                             ds.labels, ds.target_x, ds.source)
        lines.append(f"== dataset {os.path.basename(args.dataset)} ==")
        lines.append(report.text())
        if out_dir:
            with open(outputs[1], "w") as fh:
                fh.write(report.curve_csv())
    if args.runlog:
        try:
            with open(args.runlog) as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.runlog}: run log is not text") from exc
        report = runlog_report(text, use_filtered=args.filtered)
        which = "filtered" if args.filtered else "raw"
        lines.append(f"== runlog {os.path.basename(args.runlog)} ({which}) ==")
        lines.append(report.text())
    if args.sweep_capacity:
        results = _sweep_capacities(net, args.recordings, args.sweep_capacity)
        lines.append("== DVS capacity sweep (error rate at p=0, test span) ==")
        for cap in args.sweep_capacity:
            lines.append(f"capacity {cap}: error {results[cap]:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_dir:
        with open(outputs[0], "w") as fh:
            fh.write(text)
        write_manifest(out_dir, "eval", [], cfg, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args, cfg):
    run_cfg = cfg.settings.sim
    # a dry run refuses the run lengths the run would
    steps_for_duration(run_cfg.duration, run_cfg.sim.timestep_us)
    if args.dry_run:
        net = load_network(args.weights)
        print(f"network ok: input {net.input_shape}, {param_count(net)} parameters, "
              f"{op_count(net)} ops/pass")
        print(cfg.dump(), end="")
        return EXIT_OK
    outputs = out_files("simulate", args.out, "run.log", "report.txt", "curve.csv")
    net = load_network(args.weights)
    log = run_closed_loop(net, run_cfg, args.seed)
    report = runlog_report(log)
    os.makedirs(args.out, exist_ok=True)
    for path, text in zip(outputs, (log, report.text(), report.curve_csv())):
        with open(path, "w") as fh:
            fh.write(text)
    write_manifest(args.out, "simulate", [args.seed], cfg, outputs)
    print(report.text(), end="")
    print(f"log -> {outputs[0]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def cmd_serve(args, cfg):
    if args.aps and not args.events:
        raise UsageError("serve: --aps needs --events")
    net = load_network(args.weights)
    run_cfg = cfg.settings.sim
    peer, listen = wire.parse_peer(run_cfg.wire.peer), run_cfg.wire.listen
    try:
        endpoint = wire.UdpEndpoint(peer=peer, listen_port=listen)
    except OSError as exc:
        print(f"serve: cannot bind port {listen}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    sent_stats = wire.LinkStats()
    feedback = wire.LinkStats()

    def send(t_dec, datagram):
        """Each decision's one send, as it is made; then the feedback that
        has arrived, read without waiting."""
        sent_stats.update(datagram.seq, t_dec)
        endpoint.send(datagram.encode())
        while (data := endpoint.recv(timeout=0.0)[0]) is not None:
            try:
                feedback.update(wire.decode_feedback(data).seq)
            except wire.ProtocolError:
                feedback.malformed += 1  # counted, stream continues

    try:
        if args.sim:
            run_closed_loop(net, run_cfg, args.seed, on_datagram=send)
        else:
            # with no behaviour controller the replay gates in
            # decision_step's default, Mode.CHASE; a late frame sends nothing
            decide = decision_step(net, run_cfg)
            events = frames.read_events(args.events)
            aps_t, aps_raw = frames.read_aps(args.aps) if args.aps else ((), ())
            stream = FrameStream(run_cfg.frames.capacity)
            for t, _, values, _ in stream.push(events, aps_t, aps_raw):
                decided = decide(t, values)
                if decided is not None:
                    send(decided[0], decided[3])
    except KeyboardInterrupt:
        print("interrupted, dumping stats", file=sys.stderr)
    finally:
        endpoint.close()
    print(f"decisions {sent_stats.received}, datagrams sent {endpoint.sent}, "
          f"send errors {endpoint.send_errors}")
    print("decision intervals (sender side):")
    print(sent_stats.histogram_dump(), end="")
    print(f"feedback: {feedback.summary()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# saliency / inspect
# ---------------------------------------------------------------------------


def cmd_saliency(args, cfg):
    try:
        target = Decision.from_name(args.klass)
    except ValueError as exc:
        raise UsageError(f"saliency: {exc}") from None
    outputs = out_files("saliency", args.out, f"saliency_{target.name}.pgm",
                        f"overlay_{target.name}.pgm")
    activations = os.path.join(args.out, "activations")
    if args.dump_activations and os.path.lexists(activations) and not os.path.isdir(activations):
        raise UsageError(f"saliency: --dump-activations {activations} is not a directory")
    net = load_network(args.weights)
    ds = load_dataset(args.dataset)
    if not 0 <= args.index < len(ds):
        raise UsageError(f"saliency: index {args.index} outside dataset")
    frame = ds.frames[args.index]
    sal = net.guided_backprop(frame, target)
    os.makedirs(args.out, exist_ok=True)
    write_pgm(outputs[0], sal)
    write_pgm(outputs[1], frame * (0.25 + 0.75 * sal))
    if args.dump_activations:
        outputs += dump_activations(net, frame, activations)
    write_manifest(args.out, "saliency", [args.index], cfg, outputs)
    print(f"saliency -> {outputs[0]}")
    return EXIT_OK


def cmd_inspect_weights(args, cfg):
    net = load_weights(args.weights)
    print(f"input: {net.input_shape[0]}x{net.input_shape[1]}x{net.input_shape[2]}")
    for layer, shape in zip(net.layers, net.layer_shapes[1:]):
        extra = ""
        if layer.params():
            extra = f"  params={layer.param_count()}"
        shape_txt = "x".join(str(v) for v in shape)
        print(f"  {layer.kind:<8} -> {shape_txt}{extra}")
    print(f"parameters: {param_count(net)}")
    print(f"operations per forward pass (multiplies + adds): {op_count(net)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low):
    """An argparse type: an integer no less than low."""
    def parse(text):
        with contextlib.suppress(ValueError):
            if int(text) >= low:
                return int(text)
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
    return parse


def build_parser():
    # a flag whose dest is a config key spells --set; main applies it last
    parser = _Parser(prog="evsteer",
                     description="event-driven steering pipeline at desk scale")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config key (repeatable, wins over file); "
                        "a flag taking a KEY.NAME spells --set and wins over both")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate recordings and datasets, with up to "
                       "one worker per usable CPU; the output equals a serial run")
    p.add_argument("--out", required=True)
    p.add_argument("--recordings", dest="gen.recordings", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the runtime network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test")
    p.add_argument("--out", required=True, help="weight file path")
    p.add_argument("--trace", help="loss/accuracy csv path")
    p.add_argument("--iterations", dest="train.iterations", type=int)
    p.add_argument("--seed", dest="train.seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate weights on datasets or run logs")
    p.add_argument("--weights", help="network for --dataset and --sweep-capacity")
    p.add_argument("--dataset")
    p.add_argument("--runlog")
    p.add_argument("--filtered", action="store_true",
                   help="evaluate filtered instead of raw decisions")
    p.add_argument("--sweep-capacity", metavar="N,N",
                   type=lambda text: [_at_least(1)(v) for v in text.split(",")],
                   help="re-run DVS evaluation at these histogram capacities")
    p.add_argument("--recordings", help="recording directory for the sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="closed-loop run with trained weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--duration", dest="sim.duration", type=float)
    p.add_argument("--out", default="simout")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve",
                       help="UDP decision server over an event file or live sim")
    p.add_argument("--weights", required=True)
    feed = p.add_mutually_exclusive_group(required=True)
    feed.add_argument("--events", help="recording event file to replay")
    feed.add_argument("--sim", action="store_true", help="live simulator feed")
    p.add_argument("--aps", help="recording APS file to interleave")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--duration", dest="sim.duration", type=float)
    p.add_argument("--peer", dest="wire.peer")
    p.add_argument("--listen", dest="wire.listen", type=int)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("saliency", help="guided-backprop map for one frame")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--class", dest="klass", required=True,
                   help="target class: L, C, R, or N")
    p.add_argument("--out", default="saliency_out")
    p.add_argument("--dump-activations", action="store_true")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("inspect-weights", help="layer table and counts")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_inspect_weights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    settings = [f"{key}={value}" for key, value in vars(args).items()
                if "." in key and value is not None]
    try:
        cfg = load_config(args.config, args.set + settings)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, WeightFileError, DataError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
