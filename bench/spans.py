"""In-memory span tracer that times evsteer's public functions from outside.

`Tracer.install()` replaces every traced name where its caller looks it up
(a `from ... import` copies the binding, so `evsteer.runner.dvs_normalize`
is wrapped as well as `evsteer.frames.dvs_normalize`), and wraps methods on
their class. Each CNN layer's forward pass is wrapped on the layer instance
and named by its position in `net.layers`. `uninstall()` restores every
original. Spans stay in memory until `write()`; `summary()` reduces them to
per-span self time and call counts plus the few distributions the benchmark
reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# span name -> places the program looks the traced callable up.
# "module:name" is a module attribute, "module:Class.method" a method.
SPAN_TARGETS = {
    "sim.step": ["evsteer.sim:WorldSim.step"],
    "sim.render": ["evsteer.sim:render_camera"],
    "sim.event_synth": ["evsteer.sim:EventSynth.update"],
    "sim.leak": ["evsteer.sim:leak_events"],
    "sim.burst": ["evsteer.sim:burst_events"],
    "sim.kinematics": ["evsteer.sim:kinematics_step"],
    "sim.laser": ["evsteer.sim:WorldSim.laser"],
    "sim.ground_truth": ["evsteer.sim:WorldSim.ground_truth"],
    "frames.accumulate": ["evsteer.frames:DvsAccumulator.add_batch"],
    "frames.dvs_normalize": ["evsteer.frames:dvs_normalize",
                             "evsteer.runner:dvs_normalize",
                             "evsteer.cli:dvs_normalize"],
    "frames.aps_resize": ["evsteer.frames:aps_resize",
                          "evsteer.runner:aps_resize",
                          "evsteer.datagen:aps_resize"],
    "frames.aps_normalize": ["evsteer.frames:aps_normalize",
                             "evsteer.runner:aps_normalize",
                             "evsteer.cli:aps_normalize"],
    "frames.assemble": ["evsteer.frames:assemble_dataset",
                        "evsteer.cli:assemble_dataset"],
    "frames.save_recording": ["evsteer.frames:save_recording",
                              "evsteer.cli:save_recording"],
    "frames.save_dataset": ["evsteer.frames:save_dataset",
                            "evsteer.cli:save_dataset"],
    "frames.load_dataset": ["evsteer.frames:load_dataset",
                            "evsteer.cli:load_dataset"],
    "nnet.load_weights": ["evsteer.nnet:load_weights", "evsteer.cli:load_weights"],
    "nnet.predict": ["evsteer.nnet:Network.predict"],
    "nnet.loss_and_backward": ["evsteer.nnet:Network.loss_and_backward"],
    "nnet.adam_step": ["evsteer.nnet:adam_step", "evsteer.cli:adam_step"],
    "nnet.forward_batch": ["evsteer.nnet:Network.forward_batch"],
    "decision.filter": ["evsteer.decision:DecisionFilter.update"],
    "behavior.step": ["evsteer.behavior:BehaviorController.step"],
    "wire.offer": ["evsteer.wire:DecisionEncoder.offer"],
    "runner.run_closed_loop": ["evsteer.runner:run_closed_loop",
                               "evsteer.cli:run_closed_loop"],
    "runner.parse_runlog": ["evsteer.runner:parse_runlog",
                            "evsteer.cli:parse_runlog"],
    "datagen.generate_recording": ["evsteer.datagen:generate_recording",
                                   "evsteer.cli:generate_recording"],
    "evaluation.evaluate_records": ["evsteer.evaluation:evaluate_records"],
    "cli.command": ["evsteer.cli:cmd_gen_data", "evsteer.cli:cmd_train",
                    "evsteer.cli:cmd_eval", "evsteer.cli:cmd_simulate",
                    "evsteer.cli:cmd_serve", "evsteer.cli:cmd_saliency",
                    "evsteer.cli:cmd_inspect_weights"],
}

# Constructors whose returned Network gets per-layer spans.
NETWORK_FACTORIES = ["evsteer.nnet:runtime_network", "evsteer.cli:runtime_network"]

# Spans whose individual durations the summary keeps, not only their sums.
KEEP_DURATIONS = ("nnet.predict", "nnet.loss_and_backward", "nnet.adam_step")


def layer_span_names(net):
    """Span name per layer position; a kind that repeats gets an ordinal.

    The runtime stack yields nnet.conv0, relu0, pool0, conv1, relu1, pool1,
    dense0, relu2, dropout, dense1.
    """
    kinds = [{"maxpool": "pool"}.get(layer.kind, layer.kind) for layer in net.layers]
    seen = Counter()
    names = []
    for kind in kinds:
        names.append(f"nnet.{kind}{seen[kind]}" if kinds.count(kind) > 1
                     else f"nnet.{kind}")
        seen[kind] += 1
    return names


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records (name, start_ns, end_ns, parent) spans of one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start_ns, end_ns, parent_index]
        self._stack = []
        self.counts = Counter()
        self.defer_us = []
        self._restore = []  # (owner, attr, original) in install order
        self._layers = []  # layer instances carrying a wrapped forward

    def wrap(self, name, fn, after=None):
        """Return fn timed as span `name`; after(args, result) runs outside it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters recorded at the same boundaries as the spans ------------

    def _count_len(self, key):
        def after(args, result):
            self.counts[key] += len(result)
        return after

    def _count_call(self, key):
        def after(args, result):
            self.counts[key] += 1
        return after

    def _count_accumulated(self, args, result):
        self.counts["frames.accumulate_events"] += len(args[1])

    def _record_deferral(self, args, result):
        self.defer_us.append(int(result[0]) - int(args[2]))

    def _trace_layers(self, args, net):
        for layer, name in zip(net.layers, layer_span_names(net)):
            if "forward" not in vars(layer):
                layer.forward = self.wrap(name, layer.forward)
                self._layers.append(layer)

    def install(self):
        after = {
            "sim.event_synth": self._count_len("sim.events_synth"),
            "sim.leak": self._count_len("sim.events_leak"),
            "sim.burst": self._count_len("sim.events_burst"),
            "frames.accumulate": self._count_accumulated,
            "frames.dvs_normalize": self._count_call("frames.dvs_frames"),
            "frames.aps_normalize": self._count_call("frames.aps_frames"),
            "wire.offer": self._record_deferral,
            "nnet.load_weights": self._trace_layers,
        }
        for name, targets in SPAN_TARGETS.items():
            for target in targets:
                self._patch(target, lambda fn: self.wrap(name, fn, after.get(name)))
        for target in NETWORK_FACTORIES:
            self._patch(target, lambda fn: _call_then(fn, self._trace_layers))

    def _patch(self, target, make):
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for layer in self._layers:
            del layer.forward
        self._layers.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps({"name": self.names[name_id], "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    def summary(self):
        """Per-span self time and calls, kept durations, counters, deferrals."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_span = {}
        durations = {name: [] for name in KEEP_DURATIONS}
        for (name_id, start, end, _), inner in zip(self.spans, child_ns):
            name = self.names[name_id]
            entry = per_span.setdefault(name, {"self_ns": 0, "total_ns": 0, "calls": 0})
            entry["self_ns"] += end - start - inner
            entry["total_ns"] += end - start
            entry["calls"] += 1
            if name in durations:
                durations[name].append(end - start)
        return {"spans": per_span, "durations_ns": durations,
                "counts": dict(self.counts), "defer_us": self.defer_us}


def _call_then(fn, after):
    """fn with after(args, result) run on each call, untimed."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapped
