"""Closed-loop runner: sensors -> CNN -> decision filter -> behavior -> wheels.

The world owns the clock: `WorldSim.run` advances a fixed 1 ms kinematics
step and yields a sensor batch on each coarser render step (default 5 ms),
and the loop sets the robots' commands between batches. A
`frames.FrameStream` turns each batch into frames in (t, source) order, and
`decision_step`, the one frame-to-datagram chain that the `serve` file replay
runs too, gives each frame one decision and one UDP datagram under the 240 Hz
processing cap; the loop logs both.

A static scene's frames never depend on the robots' commands: its one render
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

import numpy as np

from evsteer import workers
from evsteer.behavior import BehaviorController, Mode, VelocityCmd
from evsteer.config import RunnerConfig, steps_for_duration
from evsteer.decision import DecisionFilter
# dvs_normalize and aps_normalize are unused here but stay bound: span
# tracers that wrap them by their importers' names look them up on this module.
from evsteer.frames import (SOURCE_NAMES, FrameStream, aps_normalize, aps_resize,
                            dvs_normalize, label_from_target)
from evsteer.nnet import Decision
from evsteer.sim import RobotState, WorldSim, wrap_angle
from evsteer.wire import SEQ_MOD, DecisionEncoder
from evsteer.workers import fork_context, forked, receive, unpack

RUNLOG_MAGIC = "# evsteer-runlog v1"

# noise events/s below which a static scene's frames are made in-process: on
# 2 CPUs a 2 s run forked lost at 100k events/s, broke even at 200k-400k and
# won from 800k on
PRODUCER_MIN_RATE = 500_000


class CirclePolicy:
    """Scripted counter-clockwise orbit: P-control onto the tangent of a fixed circle."""

    def __init__(self, center, radius, speed):
        self.center = center
        self.radius = radius
        self.speed = speed

    def command(self, state: RobotState, t_s: float) -> VelocityCmd:
        cx, cy = self.center
        pos_ang = math.atan2(state.y - cy, state.x - cx)
        r_err = math.hypot(state.x - cx, state.y - cy) - self.radius
        desired = pos_ang + (math.pi / 2.0 + max(-0.8, min(0.8, 0.9 * r_err)))
        ang = max(-2.0, min(2.0, 2.5 * wrap_angle(desired - state.heading)))
        return VelocityCmd(self.speed, ang)


class WaypointPolicy:
    """Wall-avoiding wander: waypoints 1 m inside the walls, resampled every 3-6 s."""

    def __init__(self, rng, arena, speed):
        self.rng = rng
        self.arena = arena
        self.speed = speed
        self.waypoint = self._sample()
        self.next_resample = float(rng.uniform(3.0, 6.0))

    def _sample(self):
        return (float(self.rng.uniform(1.0, self.arena.width - 1.0)),
                float(self.rng.uniform(1.0, self.arena.depth - 1.0)))

    def command(self, state: RobotState, t_s: float) -> VelocityCmd:
        if t_s >= self.next_resample or \
                math.hypot(self.waypoint[0] - state.x, self.waypoint[1] - state.y) < 0.3:
            self.waypoint = self._sample()
            self.next_resample = t_s + float(self.rng.uniform(3.0, 6.0))
        err = wrap_angle(math.atan2(self.waypoint[1] - state.y,
                                    self.waypoint[0] - state.x) - state.heading)
        ang = max(-1.8, min(1.8, 2.0 * err))
        lin = self.speed * max(0.15, math.cos(err))
        return VelocityCmd(lin, ang)


class ParkedPolicy:
    def command(self, state, t_s):
        return VelocityCmd(0.0, 0.0)


def _make_prey_policy(cfg: RunnerConfig, rng, arena):
    if cfg.sim.static_scene or cfg.prey_policy == "parked":
        return ParkedPolicy()
    if cfg.prey_policy == "circle":
        center = (arena.width / 2.0, arena.depth / 2.0)
        return CirclePolicy(center, cfg.circle_radius, cfg.prey_speed)
    return WaypointPolicy(rng, arena, cfg.prey_speed)


def _start_states(cfg: RunnerConfig):
    arena = cfg.sim.arena
    cxc, cyc = arena.width / 2.0, arena.depth / 2.0
    if cfg.sim.static_scene:
        predator = RobotState(x=cxc - 2.0, y=cyc, heading=0.0)
        prey = RobotState(x=cxc + 1.5, y=cyc, heading=math.pi / 2)
        return predator, prey
    prey = RobotState(x=cxc + cfg.circle_radius, y=cyc, heading=math.pi / 2)
    predator = RobotState(x=cxc - 1.2, y=cyc, heading=0.0)
    return predator, prey


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


@contextlib.contextmanager
def _frame_steps(world, stream, n_steps):
    """Yields the frames of each render step of world.run(n_steps), one list per step.

    A static scene's frames come from a forked producer where `fork_context`
    finds a fork safe and the noise is busy enough to pay for the fork and
    the pipe: two usable CPUs and at least PRODUCER_MIN_RATE noise events
    per second. The producer runs a copy of this world's clock with its
    sensors on; this world runs the same clock with its sensors off.
    Anywhere else the frames come from this world's clock, in this process.
    """
    context = None
    if (world.cfg.static_scene and world.noise_rate() >= PRODUCER_MIN_RATE
            and workers.usable_cpus() >= 2):
        context = fork_context()
    steps = _sensed_frames(world.run(n_steps), stream)
    if context is None:
        yield steps
        return

    def received(conn):
        for _ in world.run(n_steps, sense=False):
            yield unpack(receive(conn, f"the frame producer's render step at {world.t_us} us"))

    with forked(context, [steps]) as (conn,):
        yield received(conn)


def run_closed_loop(net, cfg: RunnerConfig, seed: int,
                    on_datagram=None) -> str:
    """Run one seeded episode and return its log text. Pure in (net, cfg, seed).

    on_datagram, when given, is called as on_datagram(t_us, DecisionDatagram)
    for every decision; the serve command uses it to feed the live sender.
    """
    n_steps = steps_for_duration(cfg.duration, cfg.sim.timestep_us)
    seq = np.random.SeedSequence(seed)
    world_seed, prey_seed, behavior_seed = seq.spawn(3)
    predator, prey = _start_states(cfg)
    world = WorldSim(cfg.sim, world_seed, predator, prey)
    prey_policy = _make_prey_policy(cfg, np.random.default_rng(prey_seed),
                                    cfg.sim.arena)
    behavior = BehaviorController(cfg.behavior,
                                  seed=int(behavior_seed.generate_state(1)[0]))
    decide = decision_step(net, cfg)

    lines = [RUNLOG_MAGIC, f"# seed {seed}"]
    predator_cmd = VelocityCmd(0.0, 0.0)
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
                    # the world stands still until the commands below, so one
                    # ground truth and one laser scan serve every decided frame
                    target = world.ground_truth()
                    label = label_from_target(target)
                    scan = world.laser()
                predator_cmd = behavior.step(filtered, scan, now=t_dec / 1e6)
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
            world.set_commands(predator_cmd, prey_policy.command(world.prey, world.t_us / 1e6))

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
