"""Closed-loop runner: sensors -> CNN -> decision filter -> behavior -> wheels.

The world owns the clock: `WorldSim.run` advances a fixed 1 ms kinematics
step, drives the prey and yields a sensor batch on each coarser render step
(default 5 ms). The predator's command, which the loop sets between batches,
is the world's only input. A `frames.FrameStream` turns each batch into
frames in (t, source) order, and `decision_step`, the one frame-to-datagram
chain that the `serve` file replay runs too, gives each frame one decision
and one UDP datagram under the 240 Hz processing cap; the loop logs both.

A static scene's frames never depend on the predator's command: its one render
happens at the first render step, before any command is set, and its noise
draws follow the clock alone. So where a second CPU is usable and the noise is
busy enough to pay for it, `run_closed_loop` forks a producer: the one worker
loop of `evsteer.workers`, as gen-data's workers are, whose items are the
render steps of the world's sensor side on its own copy of the world (leak and
burst noise, the one render, APS capture and the frame stream). It streams
each render step's frames down its pipe. This process keeps the clock with the
sensors off, the laser, the ground truth, the decision chain and the log. The
copy starts from the state this world has at the fork and draws from the same
generators in the same order as an in-process run, so the run log is
byte-identical either way.

A chase's frames depend on the commands, but its renders are pure in a few
floats, and the predator's command seldom changes between render steps. So
where a second CPU is usable and the processor keeps stores in order
(STORES_IN_ORDER), `run_closed_loop` forks a renderer, again on the worker
loop of `evsteer.workers`. On its own copy of the world, which drives its
prey as this one does, it runs the clock with the sensors off, guesses the
predator's pose from the last command it read, and renders each step ahead
of the loop into a slot of a ring of RING_SLOTS images in an anonymous shared
mapping. It writes a slot's key after its image: the render step and
`WorldSim.render_key()`. Last it publishes (epoch << 32) | step in one
aligned word, the epoch being the count of the last command it applied.
- **Exact keys.** The loop uses slot j % RING_SLOTS at render step j only
  where the slot's key equals its own world's, byte for byte; otherwise it
  renders in-process. So the run log is byte-identical whatever the renderer
  does, and a step whose image is ready costs no pipe message and no pickle,
  only a semaphore release.
- **Commands.** Where the predator's command changed after step j, the loop
  writes (j, pose, command) into the mapping's record between two writes of a
  sequence word, odd while the record is half-written. The renderer skips a
  record half-written or rewritten while it read; once its step reaches j, it
  rewinds its predator to that pose and integrates it up to its own step.
- **Waiting.** The loop waits, on a semaphore, only for the step the renderer
  is rendering now on the current command: the one after its last published
  step, in the epoch of every command written. A step the renderer has not
  started the loop renders itself, and the renderer skips the steps the
  loop has passed.
- **Slot lifetime.** The loop gives slot j back through a token semaphore
  when it starts step j + 1, so an image from the ring is only valid within
  its step: `EventSynth.update` and `aps_resize` consume it there, and the
  loop gets it as a read-only view.
The renderer's pipe carries only its one answer. A dead renderer raises
WorkerLostError, at the latest when the run ends, and a renderer whose loop
died finds, within _POLL_S where it waits for a slot, that its parent is no
longer the loop's process, and ends.

The run log is the run's only record: `run_closed_loop` returns its text, and
every count or score of a run is read back from it. `simulate` writes the log
and reports on it through the same function as `eval --runlog`, so the two
print the same report for the same log.

Run logs are line-oriented text, one record per line:

    # evsteer-runlog v1
    DEC <t_us> <APS|DVS> <raw> <filtered>
    GT <t_us> <target_x_36|N> <label>
    UDP <t_us> <seq> <direction>
    MODE <t_us> <mode> <decision> <d_min>
    CATCH <t_us> <true_distance>
    END <t_us>
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import platform
import struct

import numpy as np

from evsteer import workers
from evsteer.behavior import BehaviorController, Mode
from evsteer.config import RunnerConfig, steps_for_duration
from evsteer.decision import DecisionFilter
# dvs_normalize and aps_normalize are unused here but stay bound: span
# tracers that wrap them by their importers' names look them up on this module.
from evsteer.frames import (SENSOR_HEIGHT, SENSOR_WIDTH, SOURCE_NAMES, FrameStream,
                            aps_normalize, aps_resize, dvs_normalize, label_from_target)
from evsteer.nnet import Decision
from evsteer.sim import (CirclePolicy, RobotState, WaypointPolicy, WorldSim,
                         kinematics_step)
from evsteer.wire import SEQ_MOD, DecisionEncoder
from evsteer.workers import fork_context, forked, receive, unpack

RUNLOG_MAGIC = "# evsteer-runlog v1"

# noise events/s below which a static scene's frames are made in-process: on
# 2 CPUs a 2 s run forked lost at 100k events/s, broke even between 200k and
# 400k and won 10 of 10 alternations at 400k, by a quarter of the run time
PRODUCER_MIN_RATE = 500_000

# images a chase's forked renderer may render ahead of the loop
RING_SLOTS = 3
# the ring's reader relies on seeing the renderer's stores in the order it
# made them, which x86 processors guarantee and weakly ordered ones do not
STORES_IN_ORDER = platform.machine() in ("x86_64", "AMD64", "i386", "i686")


def _start(cfg: RunnerConfig, rng):
    """The run's predator, prey and prey policy; a static scene parks its prey."""
    arena, static = cfg.sim.arena, cfg.sim.static_scene
    cxc, cyc = arena.width / 2.0, arena.depth / 2.0
    predator = RobotState(x=cxc - (2.0 if static else 1.2), y=cyc, heading=0.0)
    prey = RobotState(x=cxc + (1.5 if static else cfg.circle_radius), y=cyc, heading=math.pi / 2)
    if static or cfg.prey_policy == "parked":
        return predator, prey, None
    if cfg.prey_policy == "circle":
        return predator, prey, CirclePolicy((cxc, cyc), cfg.circle_radius, cfg.prey_speed)
    return predator, prey, WaypointPolicy(rng, arena, cfg.prey_speed)


def decision_step(net, cfg: RunnerConfig):
    """One run's frame-to-datagram chain: predict, the gate, the low-pass, the encoder.

    Returns step(t_frame, values, mode=Mode.CHASE) -> (t_dec, raw, filtered,
    datagram), or None for a frame the encoder calls late: that frame is
    dropped before `predict`, so no decision lags its frame by more than one
    processing interval. The closed loop gates in the behaviour's mode; the
    file replay, which has no behaviour controller, in the default.
    """
    filt = DecisionFilter(cfg.filter)
    encoder = DecisionEncoder(cfg.wire.rate_cap_hz)

    def step(t_frame, values, mode=Mode.CHASE):
        if encoder.is_late(t_frame):
            return None
        raw = net.predict(values)
        filtered = filt.update(raw, mode)
        t_dec, datagram = encoder.offer(filtered, t_frame)
        return t_dec, raw, filtered, datagram

    return step


def _sensed_frames(batches, stream):
    """The frames stream finishes on each sensor batch, one list per batch."""
    for batch in batches:
        aps_raw = [aps_resize(image) for image in batch.aps]
        yield stream.push(batch.events, batch.aps_t, aps_raw)


class _RenderRing:
    """The shared image ring of a chase's forked renderer (see the module
    docstring). The mapping holds three words, the renderer's published
    (epoch << 32) | step, the loop's step and the record's sequence word, then
    the command record at _RECORD, the slots' keys at _KEYS and images at _IMAGES."""

    _COMMAND = struct.Struct("q5d")  # the step before a command change, pose, command
    _RECORD = 24
    _KEY = struct.Struct("q6d")
    _KEYS = _RECORD + _COMMAND.size
    _IMAGES = mmap.PAGESIZE
    _STEP = (1 << 32) - 1  # the step bits of a published word
    _POLL_S = 0.1  # how often a waiting process looks whether the other died

    def __init__(self, context, world):
        self.world = world
        self.step_us = world.cfg.timestep_us * world.cfg.render_every
        shape = (RING_SLOTS, SENSOR_HEIGHT, SENSOR_WIDTH)
        self.buf = mmap.mmap(-1, self._IMAGES + 4 * math.prod(shape))
        self.words = memoryview(self.buf)[:self._RECORD].cast("q")
        self.words[0] = -1  # no step published: the first step renders here
        self.images = np.frombuffer(self.buf, np.float32, offset=self._IMAGES).reshape(shape)
        self.views = self.images.view()
        self.views.flags.writeable = False
        self.free = context.Semaphore(RING_SLOTS)  # slots the loop gave back
        self.ready = context.Semaphore(0)  # one release per published image
        self.loop = os.getpid()  # the renderer's parent while the loop lives
        self.conn = None  # the loop's end of the renderer's pipe
        self.answer = None  # the renderer's one answer, once taken: EOF follows it
        predator = world.predator
        self.pose = predator.pose  # the loop's predator at its last render step
        self.command = (predator.linear, predator.angular)  # the last one written
        self.sent = 0

    def _key_bytes(self, step):
        """Where the key of step's slot lies in the mapping."""
        start = self._KEYS + step % RING_SLOTS * self._KEY.size
        return slice(start, start + self._KEY.size)

    def image(self):
        """The loop's world.render: the ring's image of this step where its
        key matches, else an in-process render."""
        world, predator = self.world, self.world.predator
        step = world.t_us // self.step_us
        command = (predator.linear, predator.angular)
        if command != self.command:
            self.sent += 1
            self.words[2] = 2 * self.sent - 1  # odd while the record is half-written
            self.buf[self._RECORD:self._KEYS] = self._COMMAND.pack(step - 1, *self.pose, *command)
            self.words[2] = 2 * self.sent
            self.command = command
        self.pose = predator.pose
        self.words[1] = step
        if step > 1:
            self.free.release()  # the slot of the last step
        if self.words[0] == (self.sent << 32) | (step - 1):
            self._wait(step)
        if self.buf[self._key_bytes(step)] == self._KEY.pack(step, *world.render_key()):
            return self.views[step % RING_SLOTS]
        return WorldSim.render(world)

    def _wait(self, step):
        """Waits until the renderer publishes step or a later one."""
        while self.words[0] & self._STEP < step:
            if not self.ready.acquire(timeout=self._POLL_S):
                self.check()

    def check(self):
        """Raises what ended the renderer, if it ended in an error or died."""
        if self.answer is None and self.conn.poll():
            job = f"the renderer's step at {self.world.t_us} us"
            self.answer = unpack(receive(self.conn, job))

    def renderer(self, n_steps):
        """The renderer's items: one answer, the epoch of the last command
        it applied, once its clock ends."""
        world, cfg = self.world, self.world.cfg
        dt = cfg.timestep_us / 1e6
        epoch = 0
        for _ in world.run(n_steps, sense=False):
            step = world.t_us // self.step_us
            # the slot of this step is the renderer's; a loop that died gives none back
            while not self.free.acquire(timeout=self._POLL_S):
                if os.getppid() != self.loop:
                    return
            sequence = self.words[2]
            at, *state = self._COMMAND.unpack(self.buf[self._RECORD:self._KEYS])
            # a new record, whole and not rewritten while read, of a step reached
            if sequence % 2 == 0 and self.words[2] == sequence != 2 * epoch and at <= step:
                epoch, predator = sequence // 2, RobotState(*state)
                for _ in range((step - at) * cfg.render_every):
                    predator = kinematics_step(predator, dt, cfg.arena)
                world.predator = predator
            if step >= self.words[1]:  # the loop has not passed it
                self.images[step % RING_SLOTS] = WorldSim.render(world)
                self.buf[self._key_bytes(step)] = self._KEY.pack(step, *world.render_key())
                self.words[0] = (epoch << 32) | step
                self.ready.release()
        yield epoch


@contextlib.contextmanager
def _frame_steps(world, stream, n_steps):
    """Yields the frames of each render step of world.run(n_steps), one list per step.

    The frames come from this world's clock, in this process, unless
    `fork_context` finds a fork safe and two CPUs are usable. Then a static
    scene whose noise is busy enough to pay for the fork and the pipe, at
    least PRODUCER_MIN_RATE events per second, gets its frames from a forked
    producer, which runs a copy of this world's clock with its sensors on
    while this world runs the same clock with its sensors off. A chase with
    render steps, on a processor that keeps stores in order, renders
    through a `_RenderRing` that a forked renderer, on a copy of this world,
    fills ahead.
    """
    cfg = world.cfg
    if cfg.static_scene:
        fork = world.noise_rate() >= PRODUCER_MIN_RATE
    else:
        fork = n_steps >= cfg.render_every and STORES_IN_ORDER
    context = fork_context() if fork and workers.usable_cpus() >= 2 else None
    steps = _sensed_frames(world.run(n_steps), stream)
    if context is None:
        yield steps
    elif cfg.static_scene:
        def received(conn):
            for _ in world.run(n_steps, sense=False):
                yield unpack(receive(conn, f"the frame producer's render step at {world.t_us} us"))

        with forked(context, [steps]) as (conn,):
            yield received(conn)
    else:
        ring = _RenderRing(context, world)
        with forked(context, [ring.renderer(n_steps)]) as (ring.conn,):
            world.render = ring.image
            yield steps
            ring.check()


def run_closed_loop(net, cfg: RunnerConfig, seed: int,
                    on_datagram=None) -> str:
    """Run one seeded episode and return its log text. Pure in (net, cfg, seed).

    on_datagram, when given, is called as on_datagram(t_us, DecisionDatagram)
    in this thread after each UDP line; `serve --sim` sends the datagram.
    """
    n_steps = steps_for_duration(cfg.duration, cfg.sim.timestep_us)
    seq = np.random.SeedSequence(seed)
    world_seed, prey_seed, behavior_seed = seq.spawn(3)
    world = WorldSim(cfg.sim, world_seed, *_start(cfg, np.random.default_rng(prey_seed)))
    behavior = BehaviorController(cfg.behavior,
                                  seed=int(behavior_seed.generate_state(1)[0]))
    decide = decision_step(net, cfg)

    lines = [RUNLOG_MAGIC, f"# seed {seed}"]
    with _frame_steps(world, FrameStream(cfg.frames.capacity), n_steps) as steps:
        for frames_done in steps:
            scan = None
            for t_frame, source, values, _ in frames_done:
                mode = behavior.mode
                decided = decide(t_frame, values, mode)
                if decided is None:
                    continue
                t_dec, raw, filtered, datagram = decided
                if scan is None:
                    # the world stands still until its next render step, so
                    # one ground truth and one laser scan serve every decided frame
                    target = world.ground_truth()
                    label = label_from_target(target)
                    scan = world.laser()
                world.set_command(behavior.step(filtered, scan, now=t_dec / 1e6))
                lines.append(f"DEC {t_dec} {SOURCE_NAMES[source]} {raw.name} {filtered.name}")
                lines.append(f"GT {t_dec} {'N' if target is None else target} {label.name}")
                lines.append(f"UDP {t_dec} {datagram.seq} {int(datagram.direction)}")
                if on_datagram is not None:
                    on_datagram(t_dec, datagram)
                if behavior.mode is not mode:
                    d_min = scan.min_range(cfg.behavior.center_laser_fov)
                    lines.append(f"MODE {t_dec} {behavior.mode.name} {filtered.name} "
                                 f"{d_min:.3f}")
                    if behavior.mode is Mode.PREY_CAUGHT:
                        lines.append(f"CATCH {t_dec} {world.prey_distance():.3f}")

    lines.append(f"END {world.t_us}")
    return "\n".join(lines) + "\n"


def _stamp(text):
    t = int(text)
    if not 0 <= t < 2 ** 63:
        raise ValueError(f"time stamp {text} outside 0..2**63-1")
    return t


def parse_runlog(text: str):
    """Split a run log into typed record lists.

    A text whose first line is not RUNLOG_MAGIC raises ValueError, and so
    does a line the runner could not have written: a bad number or name, a
    DEC source other than APS or DVS, a GT target outside 0..35 or a GT
    label other than its target's, a UDP sequence number outside 0..255 or
    direction outside 0..3, a MODE naming an unknown mode or decision or
    with a negative or NaN d_min (inf is what an empty sector reads), or a
    CATCH distance that is negative or not finite. A missing field raises
    IndexError; lines of unknown kind are skipped.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != RUNLOG_MAGIC:
        raise ValueError(f"first line is not {RUNLOG_MAGIC!r}")
    out = {"DEC": [], "GT": [], "UDP": [], "MODE": [], "CATCH": [], "END": None}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "DEC":
            if parts[2] not in SOURCE_NAMES.values():
                raise ValueError(f"DEC source {parts[2]!r} is neither APS nor DVS")
            out["DEC"].append((_stamp(parts[1]), parts[2],
                               Decision.from_name(parts[3]),
                               Decision.from_name(parts[4])))
        elif kind == "GT":
            target = None if parts[2] == "N" else int(parts[2])
            label = Decision.from_name(parts[3])
            if label is not label_from_target(target):
                raise ValueError(f"GT label {label.name} is not the label of target {parts[2]}")
            out["GT"].append((_stamp(parts[1]), target, label))
        elif kind == "UDP":
            seq, direction = int(parts[2]), int(parts[3])
            if not (0 <= seq < SEQ_MOD and 0 <= direction < len(Decision)):
                raise ValueError(f"UDP seq {seq} outside 0..{SEQ_MOD - 1} or "
                                 f"direction {direction} outside 0..{len(Decision) - 1}")
            out["UDP"].append((_stamp(parts[1]), seq, direction))
        elif kind == "MODE":
            if parts[2] not in Mode.__members__:
                raise ValueError(f"unknown mode name {parts[2]!r}")
            Decision.from_name(parts[3])  # raises on an unknown name
            d_min = float(parts[4])
            if not d_min >= 0.0:
                raise ValueError(f"MODE d_min {parts[4]} is negative or NaN")
            out["MODE"].append((_stamp(parts[1]), parts[2], parts[3], d_min))
        elif kind == "CATCH":
            distance = float(parts[2])
            if not 0.0 <= distance < math.inf:
                raise ValueError(f"CATCH distance {parts[2]} is negative or not finite")
            out["CATCH"].append((_stamp(parts[1]), distance))
        elif kind == "END":
            out["END"] = _stamp(parts[1])
    return out
