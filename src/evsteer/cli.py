"""Single command-line entry point.

Subcommands: gen-data, train, eval, simulate, serve, saliency,
inspect-weights. Exit codes: 0 success, 1 usage or config problem, 2 data
error (unreadable or malformed files), 3 runtime error. Every
artifact-producing command writes a manifest.json next to its outputs with
the seed, the full config snapshot, and the produced paths; outputs contain
no wall-clock timestamps, so reruns with the same seed are byte-identical.

gen-data generates its recordings with up to one worker process per usable
CPU. Each recording is a pure function of (gen config, seed), and the command
takes them back in seed order, so its stdout and output files equal those of
a serial run. Each worker has a pipe of its own and holds at most one job, so
EOF on that pipe names the one job its death lost; a worker that dies holding
no job loses nothing. The pool shares its plumbing (`evsteer.workers`) with
the frame producer that a static scene's `simulate` forks: the usable-CPU
count, answers as (ok, value) pairs, the stdio flush before a fork, the lazy
import of multiprocessing, and the terminate and join of every worker when
its block ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading

import numpy as np

from evsteer import __version__
from evsteer.config import ConfigError, load_config, steps_for_duration
from evsteer import evaluation, frames, wire, workers
from evsteer.datagen import generate_recording
# dvs_normalize and aps_normalize are unused here but stay bound: span
# tracers that wrap them by their importers' names look them up on this module.
from evsteer.frames import (FormatError, FrameStream, aps_normalize,
                            assemble_dataset, dvs_normalize, load_dataset,
                            load_recording, save_dataset, save_recording)
from evsteer.nnet import (AdamState, Decision, WeightFileError, Workspace,
                          adam_step, dump_activations, load_weights, op_count,
                          param_count, runtime_network, save_weights)
from evsteer.runner import decision_step, parse_runlog, run_closed_loop
from evsteer.workers import (LOST, WorkerLostError, answer, fork_context, forked,
                             receive, unpack)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_SOURCE_IDS = {name: src for src, name in frames.SOURCE_NAMES.items()}


class DataError(Exception):
    pass


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


def _answer_jobs(conn, fn):
    """A gen-data worker's loop: answers each job sent down conn until the pipe closes."""
    while True:
        conn.send(answer(fn, conn.recv()))


@contextlib.contextmanager
def _ordered_map(fn, jobs):
    """fn over jobs on up to one worker per usable CPU; yields the results in job order.

    With one worker, or where the "fork" start method does not exist, it is
    the builtin map in this process. Otherwise each worker is forked once
    (gen-data starts no thread before it) and the parent sends it one job
    at a time, reading each answer as soon as it arrives. A job's exception
    is raised in its turn, as map would, and a dead worker's
    WorkerLostError names the job it held.
    """
    n_workers = min(len(jobs), workers.usable_cpus())
    context = fork_context() if n_workers > 1 else None
    if context is None:
        yield map(fn, jobs)
        return
    from multiprocessing.connection import wait
    todo = iter(enumerate(jobs))
    held, done = {}, {}  # held: pipe -> its worker's job; done: job -> answer

    def give(conn):
        for i, job in todo:  # the next job, if one is left
            held[conn] = i
            try:
                conn.send(job)
            except LOST:
                raise WorkerLostError(i) from None
            return

    def results():
        for i in range(len(jobs)):
            while i not in done:
                for conn in wait(list(held)):
                    j = held.pop(conn)
                    done[j] = receive(conn, j)
                    give(conn)
            yield unpack(done.pop(i))

    with forked(context, _answer_jobs, [(fn,)] * n_workers) as conns:
        for conn in conns:
            give(conn)
        yield results()


def cmd_gen_data(args, cfg):
    gen, frames_cfg = cfg.settings.gen, cfg.settings.sim.frames
    n = gen.recordings if args.recordings is None else args.recordings
    if n <= 0:
        print("gen-data: need at least one recording seed", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    seed_base = gen.seed_base
    outputs = []
    recordings = []
    try:
        # generate_recording is looked up per call, so a wrapper installed
        # on this module runs in the workers too
        jobs = [(gen, seed_base + i) for i in range(n)]
        with _ordered_map(lambda job: generate_recording(*job), jobs) as recs:
            for i, rec in enumerate(recs):
                prefix = os.path.join(args.out, f"rec{i:03d}")
                save_recording(prefix, rec)
                outputs += [prefix + ext for ext in (".events", ".aps", ".labels")]
                recordings.append(rec)
                print(f"rec{i:03d}: seed {seed_base + i}, {len(rec.events)} events, "
                      f"{len(rec.aps_t)} APS frames")
    except WorkerLostError as exc:
        print(f"gen-data: a worker process died before the recording of seed "
              f"{seed_base + exc.args[0]} came back", file=sys.stderr)
        return EXIT_RUNTIME
    train, test, report = assemble_dataset(
        recordings, capacity=frames_cfg.capacity,
        aps_target_fraction=frames_cfg.aps_target_fraction)
    train_path = os.path.join(args.out, "train.ds")
    test_path = os.path.join(args.out, "test.ds")
    save_dataset(train_path, train)
    save_dataset(test_path, test)
    report_path = os.path.join(args.out, "class_report.txt")
    with open(report_path, "w") as fh:
        for key in sorted(report):
            fh.write(f"{key}: {report[key]}\n")
    outputs += [train_path, test_path, report_path]
    write_manifest(args.out, "gen-data", list(range(seed_base, seed_base + n)),
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
    train = load_dataset(args.dataset)
    test = load_dataset(args.test) if args.test else None
    for path, ds in ((args.dataset, train), (args.test, test)):
        if ds is not None and not len(ds):
            raise DataError(f"{path}: dataset has no frames to train or test on")
    tc = cfg.settings.train
    iters = tc.iterations if args.iterations is None else args.iterations
    seed = tc.seed if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    net = runtime_network(rng, dropout_rate=tc.dropout)
    state = AdamState.for_params(net.parameters(), lr=tc.lr)
    workspace = Workspace()  # every step's large arrays, the batch included
    x = train.frames[..., None]
    y = train.labels.astype(np.int64)
    trace = ["iteration,loss,test_accuracy"]
    last_eval = ""
    for it in range(1, iters + 1):
        idx = rng.integers(0, len(x), tc.batch)
        batch = x.take(idx, axis=0, mode="wrap",
                       out=workspace.array("batch", (len(idx),) + x.shape[1:], x.dtype))
        loss, grads = net.loss_and_backward(batch, y[idx], train=True, rng=rng,
                                            workspace=workspace)
        adam_step(net.parameters(), grads, state)
        if it % tc.eval_every == 0 or it == iters:
            acc = "" if test is None else f"{_dataset_accuracy(net, test):.4f}"
            trace.append(f"{it},{loss:.6f},{acc}")
            last_eval = f" test_acc {acc}" if acc else ""
            print(f"iter {it}/{iters} loss {loss:.4f}{last_eval}")
        elif it == 1:
            trace.append(f"{it},{loss:.6f},")
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    save_weights(net, args.out)
    trace_path = args.trace or os.path.join(out_dir, "train_trace.csv")
    with open(trace_path, "w") as fh:
        fh.write("\n".join(trace) + "\n")
    write_manifest(out_dir, "train", [seed], cfg, [args.out, trace_path])
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
    recordings = [load_recording(os.path.join(rec_dir, p)) for p in prefixes]
    results = {}
    for cap in capacities:
        # only the test split is read, so skip augmenting the training split
        _, test, _ = assemble_dataset(recordings, capacity=cap, aps_target_fraction=0.0)
        dvs = test.source == frames.SOURCE_DVS
        if not dvs.any():
            raise DataError(f"no DVS test frames at capacity {cap}")
        decisions = net.predict_batch(test.frames[dvs][..., None])
        wrong = ~evaluation.correct(decisions, test.labels[dvs], test.target_x[dvs])
        results[cap] = float(np.mean(wrong))
    return results


def cmd_eval(args, cfg):
    net = load_weights(args.weights)
    lines = []
    outputs = []
    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if args.dataset:
        ds = load_dataset(args.dataset)
        report = evaluation.evaluate_records(net.predict_batch(ds.frames[..., None]),
                                             ds.labels, ds.target_x, ds.source)
        lines.append(f"== dataset {os.path.basename(args.dataset)} ==")
        lines.append(report.text())
        if out_dir:
            path = os.path.join(out_dir, "curve.csv")
            with open(path, "w") as fh:
                fh.write(report.curve_csv())
            outputs.append(path)
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
        caps = [int(v) for v in args.sweep_capacity.split(",")]
        if not args.recordings:
            print("eval: --sweep-capacity needs --recordings", file=sys.stderr)
            return EXIT_USAGE
        results = _sweep_capacities(net, args.recordings, caps)
        lines.append("== DVS capacity sweep (error rate at p=0, test span) ==")
        for cap in caps:
            lines.append(f"capacity {cap}: error {results[cap]:.4f}")
    if not lines:
        print("eval: nothing to evaluate (need --dataset, --runlog, or "
              "--sweep-capacity)", file=sys.stderr)
        return EXIT_USAGE
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_dir:
        path = os.path.join(out_dir, "report.txt")
        with open(path, "w") as fh:
            fh.write(text)
        outputs.append(path)
        write_manifest(out_dir, "eval", [], cfg, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args, cfg):
    run_cfg = cfg.settings.sim
    if args.duration is not None:
        run_cfg.duration = args.duration
    # a dry run refuses the run lengths the run would
    steps_for_duration(run_cfg.duration, run_cfg.sim.timestep_us)
    if args.dry_run:
        net = load_weights(args.weights)
        print(f"network ok: input {net.input_shape}, {param_count(net)} parameters, "
              f"{op_count(net)} ops/pass")
        print(cfg.dump(), end="")
        return EXIT_OK
    net = load_weights(args.weights)
    log = run_closed_loop(net, run_cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "run.log")
    with open(log_path, "w") as fh:
        fh.write(log)
    report = runlog_report(log)
    report_path = os.path.join(args.out, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(report.text())
    curve_path = os.path.join(args.out, "curve.csv")
    with open(curve_path, "w") as fh:
        fh.write(report.curve_csv())
    write_manifest(args.out, "simulate", [args.seed], cfg,
                   [log_path, report_path, curve_path])
    print(report.text(), end="")
    print(f"log -> {log_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def cmd_serve(args, cfg):
    net = load_weights(args.weights)
    run_cfg = cfg.settings.sim
    if args.duration is not None:
        run_cfg.duration = args.duration
    peer = wire.parse_peer(args.peer or run_cfg.wire.peer)
    listen = args.listen if args.listen is not None else run_cfg.wire.listen
    try:
        endpoint = wire.UdpEndpoint(peer=peer, listen_port=listen)
    except OSError as exc:
        print(f"serve: cannot bind port {listen}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    sent_stats = wire.LinkStats()
    feedback = wire.LinkStats()
    stop = threading.Event()

    def receive_loop():
        while not stop.is_set():
            data, _ = endpoint.recv(timeout=0.1)
            if data is None:
                continue
            try:
                fb = wire.decode_feedback(data)
            except wire.ProtocolError:
                feedback.malformed += 1  # counted, stream continues
                continue
            feedback.update(fb.seq)

    rx_thread = threading.Thread(target=receive_loop, daemon=True)
    rx_thread.start()

    decisions = 0
    mailbox = wire.Mailbox()
    try:
        if args.sim:
            # live feed: the decision producer hands datagrams to the sender
            # thread through the latest-value mailbox, never blocking on it
            tx_thread = threading.Thread(target=wire.sender_loop,
                                         args=(mailbox, endpoint), daemon=True)
            tx_thread.start()

            def on_datagram(t_dec, datagram):
                nonlocal decisions
                decisions += 1
                sent_stats.update(datagram.seq, t_dec)
                mailbox.put(datagram)

            run_closed_loop(net, run_cfg, args.seed, on_datagram=on_datagram)
            mailbox.close()
            tx_thread.join(timeout=5.0)
        else:
            # file replay is an offline pump: send synchronously so every
            # novel decision yields exactly one datagram. With no behaviour
            # controller it gates in decision_step's default, Mode.CHASE.
            decide = decision_step(net, run_cfg)
            events = frames.read_events(args.events)
            aps_t, aps_raw = frames.read_aps(args.aps) if args.aps else ((), ())
            stream = FrameStream(run_cfg.frames.capacity)
            for t, _, values, _ in stream.push(events, aps_t, aps_raw):
                t_dec, _, _, datagram = decide(t, values)
                decisions += 1
                sent_stats.update(datagram.seq, t_dec)
                endpoint.send(datagram.encode())
    except KeyboardInterrupt:
        print("interrupted, dumping stats", file=sys.stderr)
    finally:
        mailbox.close()
        stop.set()
        rx_thread.join(timeout=2.0)
        endpoint.close()
    print(f"decisions {decisions}, datagrams sent {endpoint.sent}, "
          f"send errors {endpoint.send_errors}")
    print("decision intervals (sender side):")
    print(sent_stats.histogram_dump(), end="")
    print(f"feedback: {feedback.summary()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# saliency / inspect
# ---------------------------------------------------------------------------


def cmd_saliency(args, cfg):
    net = load_weights(args.weights)
    try:
        target = Decision.from_name(args.klass)
    except ValueError as exc:
        print(f"saliency: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ds = load_dataset(args.dataset)
    if not 0 <= args.index < len(ds):
        print(f"saliency: index {args.index} outside dataset", file=sys.stderr)
        return EXIT_USAGE
    frame = ds.frames[args.index]
    sal = net.guided_backprop(frame, target)
    os.makedirs(args.out, exist_ok=True)
    map_path = os.path.join(args.out, f"saliency_{target.name}.pgm")
    overlay_path = os.path.join(args.out, f"overlay_{target.name}.pgm")
    write_pgm(map_path, sal)
    write_pgm(overlay_path, frame * (0.25 + 0.75 * sal))
    outputs = [map_path, overlay_path]
    if args.dump_activations:
        outputs += dump_activations(net, frame, os.path.join(args.out, "activations"))
    write_manifest(args.out, "saliency", [args.index], cfg, outputs)
    print(f"saliency -> {map_path}")
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
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="evsteer",
                     description="event-driven steering pipeline at desk scale")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config key (repeatable, wins over file)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate recordings and datasets, with up to "
                       "one worker per usable CPU; the output equals a serial run")
    p.add_argument("--out", required=True)
    p.add_argument("--recordings", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the runtime network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test")
    p.add_argument("--out", required=True, help="weight file path")
    p.add_argument("--trace", help="loss/accuracy csv path")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate weights on datasets or run logs")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset")
    p.add_argument("--runlog")
    p.add_argument("--filtered", action="store_true",
                   help="evaluate filtered instead of raw decisions")
    p.add_argument("--sweep-capacity", metavar="N,N",
                   help="re-run DVS evaluation at these histogram capacities")
    p.add_argument("--recordings", help="recording directory for the sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="closed-loop run with trained weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--peer")
    p.add_argument("--listen", type=int, default=None)
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
    try:
        cfg = load_config(args.config, args.set)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, WeightFileError, DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
